"""Tests for pseudo-block (F)GMRES."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Options, solve
from repro.krylov.base import FunctionPreconditioner, Operator
from repro.krylov.gmres import gmres
from repro.util import ledger

from conftest import (complex_shifted, convection_diffusion_1d,
                      laplacian_1d, laplacian_2d, make_rng,
                      relative_residuals)


class TestBasicConvergence:
    def test_single_rhs(self, rng):
        a = convection_diffusion_1d(200)
        b = rng.standard_normal(200)
        res = gmres(a, b, options=Options(tol=1e-10))
        assert res.converged.all()
        assert relative_residuals(a, res.x, b)[0] < 1e-9
        assert res.x.shape == (200,)  # 1-D rhs squeezed back

    def test_multiple_rhs_fused(self, rng):
        a = convection_diffusion_1d(300)
        b = rng.standard_normal((300, 5))
        res = gmres(a, b, options=Options(tol=1e-10))
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-9)
        assert res.x.shape == (300, 5)

    def test_full_gmres_is_direct(self, rng):
        # unrestarted GMRES on a well-conditioned n x n system converges
        # within n iterations to the exact solution
        n = 40
        a = laplacian_1d(n, shift=1.0)
        b = rng.standard_normal(n)
        res = gmres(a, b, options=Options(gmres_restart=n, tol=1e-12, max_it=n + 2))
        assert res.converged.all()
        x_ref = spla.spsolve(a.tocsc(), b)
        assert np.allclose(res.x, x_ref, atol=1e-8)

    def test_identity_converges_in_one(self, rng):
        a = sp.eye(50).tocsr()
        b = rng.standard_normal((50, 2))
        res = gmres(a, b, options=Options(tol=1e-12))
        assert res.iterations <= 1
        assert res.converged.all()

    def test_zero_rhs_column(self, rng):
        a = laplacian_1d(60, shift=1.0)
        b = rng.standard_normal((60, 3))
        b[:, 1] = 0.0
        res = gmres(a, b, options=Options(tol=1e-10))
        assert res.converged.all()
        assert np.allclose(res.x[:, 1], 0.0)

    def test_zero_initial_residual_with_x0(self, rng):
        a = laplacian_1d(50, shift=1.0)
        x_true = rng.standard_normal(50)
        b = a @ x_true
        res = gmres(a, b, options=Options(tol=1e-10), x0=x_true)
        assert res.converged.all()
        assert res.iterations == 0

    def test_x0_respected(self, rng):
        a = convection_diffusion_1d(120)
        b = rng.standard_normal((120, 2))
        x0 = rng.standard_normal((120, 2))
        res = gmres(a, b, options=Options(tol=1e-10), x0=x0)
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-9)

    def test_max_it_respected(self, rng):
        a = laplacian_1d(500)  # hard for GMRES(10)
        b = rng.standard_normal(500)
        res = gmres(a, b, options=Options(gmres_restart=10, max_it=37, tol=1e-14))
        assert res.iterations <= 37
        assert not res.converged.all()

    def test_restart_counted(self, rng):
        a = laplacian_1d(200)
        b = rng.standard_normal(200)
        res = gmres(a, b, options=Options(gmres_restart=15, tol=1e-8, max_it=5000))
        assert res.restarts >= 2


class TestPreconditioning:
    @pytest.fixture
    def ilu_prec(self):
        a = convection_diffusion_1d(250)
        ilu = spla.spilu(a.tocsc(), drop_tol=1e-4)
        def apply(x):
            return np.column_stack([ilu.solve(x[:, j]) for j in range(x.shape[1])])
        return a, FunctionPreconditioner(apply)

    @pytest.mark.parametrize("variant", ["left", "right"])
    def test_variants_converge(self, rng, ilu_prec, variant):
        a, m = ilu_prec
        b = rng.standard_normal((250, 3))
        res = gmres(a, b, m, options=Options(variant=variant, tol=1e-10))
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-8)

    def test_preconditioner_reduces_iterations(self, rng, ilu_prec):
        a, m = ilu_prec
        b = rng.standard_normal(250)
        plain = gmres(a, b, options=Options(tol=1e-8, max_it=1000))
        prec = gmres(a, b, m, options=Options(tol=1e-8, variant="right"))
        assert prec.iterations < plain.iterations

    def test_variable_preconditioner_flexible_ok(self, rng):
        a = laplacian_1d(80, shift=0.5)
        calls = [0]
        def varjac(x):
            calls[0] += 1
            return x / (2.5 + 0.1 * np.sin(calls[0]))
        m = FunctionPreconditioner(varjac, is_variable=True)
        b = rng.standard_normal(80)
        res = gmres(a, b, m, options=Options(tol=1e-9, max_it=500))
        assert res.converged.all()
        assert res.method == "fgmres"


class TestNumerics:
    def test_complex_system(self, rng):
        a = complex_shifted(150)
        b = rng.standard_normal((150, 2)) + 1j * rng.standard_normal((150, 2))
        res = gmres(a, b, options=Options(tol=1e-10))
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-9)

    def test_cgs2_1r_on_tough_matrix(self, rng):
        # reorthogonalization should not be worse than CGS
        a = laplacian_2d(16)
        b = rng.standard_normal(a.shape[0])
        r1 = gmres(a, b, options=Options(tol=1e-8, orthogonalization="cgs",
                                         max_it=4000))
        r2 = gmres(a, b, options=Options(tol=1e-8,
                                         orthogonalization="cgs2_1r",
                                         max_it=4000))
        assert r2.converged.all()
        assert r2.iterations <= r1.iterations + 5

    def test_history_matches_final_residual(self, rng):
        a = convection_diffusion_1d(100)
        b = rng.standard_normal((100, 2))
        res = gmres(a, b, options=Options(tol=1e-9))
        true = relative_residuals(a, res.x, b)
        assert np.allclose(res.residual_norms, true, atol=1e-10)

    def test_history_monotone_per_column(self, rng):
        a = convection_diffusion_1d(150)
        b = rng.standard_normal((150, 3))
        res = gmres(a, b, options=Options(tol=1e-10))
        mat = res.history.matrix()
        # within a cycle the LS residual is non-increasing; across explicit
        # restarts small upticks at round-off scale are possible
        assert np.all(np.diff(mat, axis=0) <= 1e-8)

    def test_iterations_per_rhs(self, rng):
        a = convection_diffusion_1d(200)
        b = rng.standard_normal((200, 3))
        res = gmres(a, b, options=Options(tol=1e-9))
        its = res.iterations_per_rhs(1e-9)
        assert np.all(its >= 0)
        assert np.all(its <= res.iterations)


class TestOperatorHandling:
    def test_dense_array(self, rng):
        a = np.diag(np.arange(1.0, 31.0))
        b = rng.standard_normal(30)
        res = gmres(a, b, options=Options(tol=1e-12))
        assert res.converged.all()

    def test_custom_operator(self, rng):
        d = np.arange(1.0, 41.0)
        op = Operator((40, 40), np.float64, lambda x: d[:, None] * x, nnz=40)
        b = rng.standard_normal(40)
        res = gmres(op, b, options=Options(tol=1e-12))
        assert res.converged.all()

    def test_shape_mismatch_raises(self, rng):
        a = laplacian_1d(20)
        with pytest.raises(ValueError, match="mismatch"):
            gmres(a, np.ones(21))

    def test_bad_x0_shape_raises(self):
        a = laplacian_1d(20)
        with pytest.raises(ValueError, match="x0"):
            gmres(a, np.ones(20), x0=np.ones((20, 2)))


class TestPseudoBlockFusion:
    def test_reductions_independent_of_p(self, rng):
        """The fusion claim: reductions per iteration don't scale with p."""
        a = convection_diffusion_1d(200)
        counts = {}
        for p in (1, 4):
            b = rng.standard_normal((200, p))
            with ledger.install() as led:
                res = gmres(a, b, options=Options(tol=1e-8))
            counts[p] = (led.reductions, res.iterations)
        red1, it1 = counts[1]
        red4, it4 = counts[4]
        # per-iteration reduction count must be comparable (not ~p times more)
        assert red4 / max(it4, 1) < 2.5 * red1 / max(it1, 1)

    def test_single_spmm_per_iteration(self, rng):
        a = convection_diffusion_1d(150)
        b = rng.standard_normal((150, 6))
        with ledger.install() as led:
            res = gmres(a, b, options=Options(tol=1e-8))
        # operator applications = p per iteration *inside one fused call*
        assert led.calls["operator_apply"] <= (res.iterations + res.restarts + 1) * 6


@settings(max_examples=15, deadline=None)
@given(n=st.integers(10, 80), p=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_property_gmres_solves_spd(n, p, seed):
    rng = make_rng(seed)
    a = laplacian_1d(n, shift=1.0)
    b = rng.standard_normal((n, p))
    res = gmres(a, b, options=Options(gmres_restart=min(30, n), tol=1e-9,
                                      max_it=50 * n))
    assert res.converged.all()
    assert np.all(relative_residuals(a, res.x, b) < 1e-8)
