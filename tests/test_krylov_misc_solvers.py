"""Tests for LGMRES, CG, Chebyshev, and the api-level dispatch."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import Options, Solver, solve
from repro.krylov.base import FunctionPreconditioner
from repro.krylov.cg import cg
from repro.krylov.chebyshev import ChebyshevSmoother, estimate_lambda_max
from repro.krylov.gcrodr import gcrodr
from repro.krylov.lgmres import lgmres
from repro.krylov.recycling import RecycledSubspace
from repro.util.options import OptionError

from conftest import (convection_diffusion_1d, laplacian_1d, laplacian_2d,
                      relative_residuals)


class TestLgmres:
    def test_converges(self, rng):
        a = laplacian_1d(400)
        b = rng.standard_normal(400)
        res = lgmres(a, b, options=Options(krylov_method="lgmres",
                                           gmres_restart=30, recycle=10,
                                           tol=1e-8, max_it=5000))
        assert res.converged.all()
        assert relative_residuals(a, res.x, b)[0] < 1e-7

    def test_augmentation_accelerates_restarts(self, rng):
        """LGMRES(m, l) beats plain GMRES(m) on restart-limited problems."""
        from repro.krylov.gmres import gmres
        a = laplacian_1d(500)
        b = rng.standard_normal(500)
        o = dict(gmres_restart=30, tol=1e-8, max_it=6000)
        rg = gmres(a, b, options=Options(**o))
        rl = lgmres(a, b, options=Options(krylov_method="lgmres", recycle=10, **o))
        assert rl.converged.all()
        assert (not rg.converged.all()) or rl.iterations < rg.iterations

    def test_gcrodr_beats_lgmres(self, rng):
        """The paper's Fig. 3c claim, at model scale."""
        a = laplacian_1d(500)
        b = rng.standard_normal(500)
        o = dict(gmres_restart=30, recycle=10, tol=1e-8, max_it=6000)
        rl = lgmres(a, b, options=Options(krylov_method="lgmres", **o))
        rr = gcrodr(a, b, options=Options(krylov_method="gcrodr", **o))
        assert rr.converged.all() and rl.converged.all()
        assert rr.iterations < rl.iterations

    def test_multiple_rhs_rejected(self, rng):
        a = laplacian_1d(50)
        with pytest.raises(ValueError, match="single right-hand side"):
            lgmres(a, rng.standard_normal((50, 2)),
                   options=Options(krylov_method="lgmres"))

    def test_flexible_rejected(self):
        a = laplacian_1d(30)
        with pytest.raises(ValueError, match="flexible"):
            lgmres(a, np.ones(30), options=Options(krylov_method="lgmres",
                                                   variant="flexible"))

    @pytest.mark.parametrize("scheme", ["mgs", "cgs2_1r", "cholqr2",
                                        "sketched"])
    def test_unsupported_orthogonalization_rejected(self, scheme):
        a = laplacian_1d(30)
        with pytest.raises(ValueError, match="cgs or imgs"):
            lgmres(a, np.ones(30), options=Options(
                krylov_method="lgmres", orthogonalization=scheme))

    def test_explicit_augment_argument(self, rng):
        a = laplacian_1d(300)
        b = rng.standard_normal(300)
        res = lgmres(a, b, augment=5,
                     options=Options(krylov_method="lgmres", gmres_restart=25,
                                     tol=1e-8, max_it=5000))
        assert res.converged.all()
        assert res.info["augment"] == 5

    def test_left_preconditioning(self, rng):
        a = convection_diffusion_1d(200)
        dinv = 1.0 / a.diagonal()
        m = FunctionPreconditioner(lambda x: dinv[:, None] * x)
        res = lgmres(a, rng.standard_normal(200), m,
                     options=Options(krylov_method="lgmres", variant="left",
                                     recycle=5, tol=1e-9, max_it=3000))
        assert res.converged.all()


class TestCg:
    def test_spd_convergence(self, rng):
        a = laplacian_2d(16)
        n = a.shape[0]
        b = rng.standard_normal((n, 3))
        res = cg(a, b, options=Options(krylov_method="cg", tol=1e-10,
                                       max_it=2000))
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-9)

    def test_jacobi_preconditioned(self, rng):
        a = laplacian_2d(14)
        d = a.diagonal()
        m = FunctionPreconditioner(lambda x: x / d[:, None])
        b = rng.standard_normal(a.shape[0])
        r0 = cg(a, b, options=Options(krylov_method="cg", tol=1e-9, max_it=3000))
        r1 = cg(a, b, m, options=Options(krylov_method="cg", tol=1e-9,
                                         max_it=3000))
        assert r1.converged.all()
        assert r1.iterations <= r0.iterations + 2

    def test_exact_in_n_iterations(self, rng):
        n = 30
        a = laplacian_1d(n, shift=0.5)
        b = rng.standard_normal(n)
        res = cg(a, b, options=Options(krylov_method="cg", tol=1e-12,
                                       max_it=n + 5))
        assert res.converged.all()
        x_ref = spla.spsolve(a.tocsc(), b)
        assert np.allclose(res.x, x_ref, atol=1e-6)

    def test_fixed_iteration_smoother_mode(self, rng):
        # unreachable tolerance + small max_it = fixed smoother sweeps
        a = laplacian_2d(10)
        b = rng.standard_normal(a.shape[0])
        res = cg(a, b, options=Options(krylov_method="cg", tol=1e-300,
                                       max_it=4))
        assert res.iterations == 4
        assert not res.converged.all()

    def test_columns_freeze_independently(self, rng):
        a = laplacian_1d(80, shift=1.0)
        b = rng.standard_normal((80, 2))
        b[:, 1] *= 1e-8  # second column converges almost immediately
        res = cg(a, b, options=Options(krylov_method="cg", tol=1e-6,
                                       max_it=500))
        assert res.converged.all()
        its = res.iterations_per_rhs(1e-6)
        assert its[1] <= its[0]


class TestChebyshev:
    def test_lambda_max_estimate(self):
        a = laplacian_1d(100)
        lam = estimate_lambda_max(
            __import__("repro").as_operator(a), a.diagonal())
        # exact lambda_max(D^-1 A) = 2 for the 1-D Laplacian (diag = 2)
        assert 1.5 < lam < 2.2

    def test_smoother_damps_high_frequencies(self, rng):
        a = laplacian_1d(200)
        m = ChebyshevSmoother(a, degree=3)
        x_true = rng.standard_normal(200)
        b = a @ x_true
        x1 = m.apply(b.reshape(-1, 1))
        r1 = np.linalg.norm(b - a @ x1[:, 0])
        assert r1 < np.linalg.norm(b)

    def test_is_linear_operator(self, rng):
        """Fixed polynomial in A: apply must be exactly linear."""
        a = laplacian_1d(100)
        m = ChebyshevSmoother(a, degree=2)
        x = rng.standard_normal((100, 1))
        y = rng.standard_normal((100, 1))
        lhs = m.apply(2.0 * x + 3.0 * y)
        rhs = 2.0 * m.apply(x) + 3.0 * m.apply(y)
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert not m.is_variable

    def test_as_gmres_preconditioner(self, rng):
        from repro.krylov.gmres import gmres
        a = laplacian_1d(300)
        m = ChebyshevSmoother(a, degree=4)
        b = rng.standard_normal(300)
        o = Options(tol=1e-8, max_it=4000)
        r0 = gmres(a, b, options=o)
        r1 = gmres(a, b, m, options=o.replace(variant="right"))
        assert r1.converged.all()
        assert r1.iterations < max(r0.iterations, 1)


class TestApiDispatch:
    @pytest.mark.parametrize("method,needs_recycle", [
        ("gmres", False), ("bgmres", False), ("cg", False),
        ("lgmres", False), ("gcrodr", True), ("bgcrodr", True),
    ])
    def test_all_methods_dispatch(self, rng, method, needs_recycle):
        a = laplacian_1d(120, shift=0.5)
        b = rng.standard_normal(120)
        kw = dict(krylov_method=method, tol=1e-8, max_it=3000)
        if needs_recycle:
            kw["recycle"] = 5
        if method == "lgmres":
            kw["recycle"] = 5
        res = solve(a, b, options=Options(**kw))
        assert res.converged.all()

    def test_unimplemented_methods_raise(self):
        # a method without a driver is rejected when the options are built,
        # not after validation by the dispatch
        for method in ("richardson", "none"):
            with pytest.raises(OptionError, match="unknown krylov_method"):
                Options(krylov_method=method)

    def test_solver_reset(self, rng):
        a = laplacian_1d(200)
        s = Solver(options=Options(krylov_method="gcrodr", gmres_restart=20,
                                   recycle=5, tol=1e-8, max_it=4000))
        s.solve(a, rng.standard_normal(200))
        assert s.recycled is not None
        s.reset()
        assert s.recycled is None
        assert s.results == []

    def test_solver_detects_operator_change(self, rng):
        n = 150
        a1 = laplacian_1d(n, shift=0.1)
        a2 = laplacian_1d(n, shift=0.6)
        s = Solver(options=Options(krylov_method="gcrodr", gmres_restart=20,
                                   recycle=5, tol=1e-8, max_it=4000))
        s.solve(a1, rng.standard_normal(n))
        r2 = s.solve(a2, rng.standard_normal(n))
        assert not r2.info["same_system"]
        r3 = s.solve(a2, rng.standard_normal(n))
        assert r3.info["same_system"]


class TestRecycledSubspace:
    def test_subspace_copy_independent(self, rng):
        s = RecycledSubspace(rng.standard_normal((8, 2)),
                             rng.standard_normal((8, 2)), op_tag="x")
        c = s.copy()
        c.u[:] = 0
        assert not np.allclose(s.u, 0)
        assert c.op_tag == "x"

    def test_matches_operator(self):
        s = RecycledSubspace(np.ones((4, 1)), np.ones((4, 1)), op_tag=42)
        assert s.matches_operator(42)
        assert not s.matches_operator(43)
        s2 = RecycledSubspace(np.ones((4, 1)), np.ones((4, 1)))
        assert not s2.matches_operator(None)
