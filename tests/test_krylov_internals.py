"""Unit tests for Krylov-layer internals: cycle, deflation, dense helpers."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.krylov.base import (IdentityPreconditioner, as_operator,
                               eps_all_below, residual_targets)
from repro.krylov.cycle import block_arnoldi_cycle, complete_block
from repro.la.dense import (hessenberg_harmonic_lhs, invariant_subspace,
                            solve_upper_triangular, sorted_eig,
                            sorted_generalized_eig)
from repro.util.misc import as_block, column_norms, relative_residual_norms

from conftest import make_rng, laplacian_1d


class TestCompleteBlock:
    def test_fills_zero_columns(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((50, 4)))
        q[:, 2:] = 0.0
        out = complete_block(q, 2)
        g = out.conj().T @ out
        assert np.allclose(g, np.eye(4), atol=1e-10)

    def test_respects_against_basis(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((60, 3)))
        q[:, 1:] = 0.0
        against, _ = np.linalg.qr(rng.standard_normal((60, 5)))
        out = complete_block(q, 1, against=[against])
        assert np.linalg.norm(against.conj().T @ out[:, 1:]) < 1e-10

    def test_full_rank_untouched(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((30, 3)))
        out = complete_block(q, 3)
        assert out is q

    def test_complex(self, rng):
        x = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        q, _ = np.linalg.qr(x)
        q[:, 2] = 0.0
        out = complete_block(q, 2)
        assert np.allclose(out.conj().T @ out, np.eye(3), atol=1e-10)


class TestBlockArnoldiCycle:
    def test_arnoldi_relation(self, rng):
        """A V_j = V_{j+1} Hbar must hold exactly."""
        a = as_operator(laplacian_1d(80, shift=0.3))
        r0 = rng.standard_normal((80, 2))
        q, s = np.linalg.qr(r0)
        state = block_arnoldi_cycle(a.matmat, IdentityPreconditioner(), q, s,
                                    max_steps=5, identity_m=True)
        v_all = state.v_stack()
        hbar = state.hqr.hessenberg()
        av = a.matmat(state.v_stack(state.steps))
        assert np.allclose(av, v_all @ hbar, atol=1e-10)

    def test_projected_relation_with_ck(self, rng):
        """(I - C C^H) A V = V Hbar and E_k = C^H A V."""
        a = as_operator(laplacian_1d(70, shift=0.3))
        ck, _ = np.linalg.qr(rng.standard_normal((70, 4)))
        r0 = rng.standard_normal((70, 1))
        r0 = r0 - ck @ (ck.T @ r0)
        q, s = np.linalg.qr(r0)
        state = block_arnoldi_cycle(a.matmat, IdentityPreconditioner(), q, s,
                                    max_steps=6, ck=ck, identity_m=True)
        v_all = state.v_stack()
        z = state.v_stack(state.steps)
        av = a.matmat(z)
        hbar = state.hqr.hessenberg()
        ek = state.ek_matrix()
        assert np.allclose(av, ck @ ek + v_all @ hbar, atol=1e-9)
        assert np.allclose(ek, ck.conj().T @ av, atol=1e-9)

    def test_basis_orthonormal(self, rng):
        a = as_operator(laplacian_1d(60))
        q, s = np.linalg.qr(rng.standard_normal((60, 3)))
        state = block_arnoldi_cycle(a.matmat, IdentityPreconditioner(), q, s,
                                    max_steps=4, identity_m=True)
        v = state.v_stack()
        assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-9)

    def test_iteration_budget(self, rng):
        a = as_operator(laplacian_1d(60))
        q, s = np.linalg.qr(rng.standard_normal((60, 1)))
        state = block_arnoldi_cycle(a.matmat, IdentityPreconditioner(), q, s,
                                    max_steps=10, identity_m=True,
                                    iteration_budget=3)
        assert state.steps == 3

    def test_early_convergence(self, rng):
        a = as_operator(sp.eye(40).tocsr())
        b = rng.standard_normal((40, 1))
        q, s = np.linalg.qr(b)
        state = block_arnoldi_cycle(a.matmat, IdentityPreconditioner(), q, s,
                                    max_steps=10, identity_m=True,
                                    targets=np.array([1e-8]))
        assert state.converged_early
        assert state.steps <= 2


class TestDeflationHelpers:
    def test_real_matrix_complex_pairs_stay_real(self, rng):
        # rotation-like matrix: complex conjugate eigenpairs
        blocks = [np.array([[0.0, -w], [w, 0.0]]) for w in (1.0, 2.0)]
        a = np.zeros((5, 5))
        a[:2, :2] = blocks[0]
        a[2:4, 2:4] = blocks[1]
        a[4, 4] = 3.0
        p = invariant_subspace(a, 2)
        assert p.dtype == np.float64
        assert p.shape[1] <= 2
        # spans the invariant plane of the smallest pair
        res = a @ p - p @ (p.T @ a @ p)
        assert np.linalg.norm(res) < 1e-10

    def test_complex_dtype_passthrough(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        p = invariant_subspace(a, 3)
        assert p.shape == (6, 3)
        assert np.iscomplexobj(p)

    def test_orthonormal_output(self, rng):
        a = rng.standard_normal((8, 8))
        p = invariant_subspace(a, 4)
        assert np.allclose(p.T @ p, np.eye(p.shape[1]), atol=1e-10)


class TestDenseHelpers:
    def test_sorted_eig_targets(self, rng):
        d = np.array([5.0, -0.1, 3.0, 0.01, -2.0])
        a = np.diag(d)
        vals, _ = sorted_eig(a, 2, target="smallest")
        assert np.allclose(sorted(np.abs(vals)), [0.01, 0.1])
        vals, _ = sorted_eig(a, 1, target="largest")
        assert np.isclose(abs(vals[0]), 5.0)
        vals, _ = sorted_eig(a, 1, target="smallest_real")
        assert np.isclose(vals[0].real, -2.0)
        vals, _ = sorted_eig(a, 1, target="largest_real")
        assert np.isclose(vals[0].real, 5.0)

    def test_sorted_eig_unknown_target(self):
        with pytest.raises(ValueError):
            sorted_eig(np.eye(3), 1, target="median")

    def test_generalized_eig(self, rng):
        t = np.diag([1.0, 4.0, 9.0])
        w = np.eye(3)
        vals, vecs = sorted_generalized_eig(t, w, 2, target="smallest")
        assert np.allclose(sorted(vals.real), [1.0, 4.0])

    def test_generalized_eig_singular_w_deprioritized(self):
        t = np.diag([1.0, 2.0])
        w = np.diag([1.0, 0.0])       # second eigenvalue infinite
        vals, _ = sorted_generalized_eig(t, w, 1, target="smallest")
        assert np.isfinite(vals[0])

    def test_solve_upper_triangular_fallback(self, rng):
        r = np.triu(rng.standard_normal((4, 4)))
        r[2, 2] = 0.0                 # singular
        b = rng.standard_normal((4, 1))
        y = solve_upper_triangular(r, b)  # least-squares fallback, no raise
        assert y.shape == (4, 1)

    def test_harmonic_lhs_matches_direct_formula(self, rng):
        """eq. (2) equals the textbook H + H^{-H} e h^H h e^H correction."""
        m, p = 5, 1
        hbar = np.zeros((m + 1, m))
        for j in range(m):
            hbar[: j + 2, j] = rng.standard_normal(j + 2)
        hm = hbar[:m]
        h_last = hbar[m:, m - 1:].copy()
        corr = np.zeros((m, m))
        corr[-1, -1] = (h_last.conj().T @ h_last)[0, 0]
        expect = hm + np.linalg.solve(hm.conj().T, corr)
        got = hessenberg_harmonic_lhs(hbar, None, h_last, p)
        assert np.allclose(got, expect, atol=1e-10)


class TestBaseHelpers:
    def test_eps_function(self):
        assert eps_all_below(np.array([1e-9, 1e-10]), np.array([1e-8, 1e-8]))
        assert not eps_all_below(np.array([1e-7, 1e-10]), np.array([1e-8, 1e-8]))

    def test_residual_targets_zero_column(self):
        b = np.zeros((10, 2))
        b[:, 0] = 1.0
        t = residual_targets(b, 1e-8)
        assert t[1] == 1e-8  # zero column gets an absolute floor

    def test_as_block_shapes(self):
        assert as_block(np.ones(5)).shape == (5, 1)
        assert as_block(np.ones((5, 2))).shape == (5, 2)
        with pytest.raises(ValueError):
            as_block(np.ones((2, 2, 2)))

    def test_column_norms_complex(self, rng):
        x = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        assert np.allclose(column_norms(x), np.linalg.norm(x, axis=0))

    def test_relative_residual_norms_zero_safe(self):
        r = np.ones((4, 2))
        b = np.zeros((4, 2))
        b[:, 0] = 2.0
        rel = relative_residual_norms(r, b)
        assert np.isfinite(rel).all()

    def test_as_operator_refuses_an_object_with_shape_and_matmat(self):
        """Only matrices and :class:`Operator` are operators: an object
        that merely exposes ``shape`` / ``matmat`` is not wrapped."""
        a = laplacian_1d(6)

        class MatmatOnly:
            shape, dtype = a.shape, a.dtype

            def matmat(self, x):
                return a @ x

        with pytest.raises(TypeError, match="MatmatOnly"):
            as_operator(MatmatOnly())
        with pytest.raises(ValueError, match="bare callables"):
            as_operator(lambda x: x)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(8, 60), steps=st.integers(1, 6),
       p=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_property_arnoldi_relation(n, steps, p, seed):
    rng = make_rng(seed)
    steps = min(steps, max((n - p) // p, 1))
    a = as_operator(laplacian_1d(n, shift=0.5))
    r0 = rng.standard_normal((n, p))
    q, s = np.linalg.qr(r0)
    state = block_arnoldi_cycle(a.matmat, IdentityPreconditioner(), q, s,
                                max_steps=steps, identity_m=True)
    if state.breakdown:
        return
    av = a.matmat(state.v_stack(state.steps))
    assert np.allclose(av, state.v_stack() @ state.hqr.hessenberg(),
                       atol=1e-8)


class TestSolveResultReport:
    def test_report_contains_chart(self, rng):
        from repro import Options, solve
        a = laplacian_1d(100, shift=0.2)
        res = solve(a, rng.standard_normal(100),
                    options=Options(tol=1e-8, max_it=2000))
        text = res.report()
        assert "SolveResult" in text
        assert "*" in text
        assert "max rel. residual" in text

    def test_report_empty_history_safe(self):
        from repro.krylov.base import ConvergenceHistory, SolveResult
        import numpy as np
        res = SolveResult(x=np.zeros(3), converged=np.array([True]),
                          iterations=0, history=ConvergenceHistory(),
                          method="gmres")
        assert "SolveResult" in res.report()
