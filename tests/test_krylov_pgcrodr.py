"""Tests for pseudo-block GCRO-DR (fused independent recurrences)."""

import numpy as np
import pytest

from repro import Options, Solver, solve
from repro.krylov.base import FunctionPreconditioner
from repro.krylov.gcrodr import gcrodr
from repro.krylov.gmres import gmres
from repro.krylov.pgcrodr import PseudoBlockRecycle, pgcrodr
from repro.util import ledger

from conftest import complex_shifted, laplacian_1d, relative_residuals


def _opts(**kw):
    kw.setdefault("krylov_method", "gcrodr")
    kw.setdefault("gmres_restart", 30)
    kw.setdefault("recycle", 10)
    kw.setdefault("tol", 1e-8)
    kw.setdefault("max_it", 8000)
    return Options(**kw)


class TestBasics:
    def test_multi_rhs_converges_where_pseudo_block_gmres_stalls(self, rng):
        a = laplacian_1d(500)
        b = rng.standard_normal((500, 4))
        rp = pgcrodr(a, b, options=_opts())
        rg = gmres(a, b, options=Options(gmres_restart=30, tol=1e-8,
                                         max_it=4000))
        assert rp.converged.all()
        assert np.all(relative_residuals(a, rp.x, b) < 1e-7)
        assert (not rg.converged.all()) or rp.iterations < rg.iterations

    def test_single_rhs_matches_gcrodr(self, rng):
        """With p = 1 the lockstep method IS standard GCRO-DR."""
        a = laplacian_1d(400)
        b = rng.standard_normal(400)
        rp = pgcrodr(a, b, options=_opts())
        rs = gcrodr(a, b, options=_opts())
        assert rp.iterations == rs.iterations
        assert np.allclose(rp.x, rs.x, atol=1e-8)

    def test_method_name(self, rng):
        a = laplacian_1d(100, shift=0.5)
        rp = pgcrodr(a, rng.standard_normal((100, 2)), options=_opts())
        assert rp.method == "pgcrodr"
        r1 = pgcrodr(a, rng.standard_normal(100), options=_opts())
        assert r1.method == "gcrodr"

    def test_complex(self, rng):
        a = complex_shifted(250)
        b = rng.standard_normal((250, 3)) + 1j * rng.standard_normal((250, 3))
        res = pgcrodr(a, b, options=_opts())
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-7)

    def test_requires_positive_k(self, rng):
        a = laplacian_1d(50)
        with pytest.raises(ValueError, match="recycle"):
            pgcrodr(a, np.ones((50, 2)),
                    options=Options(krylov_method="gmres", recycle=0))

    def test_zero_column_handled(self, rng):
        a = laplacian_1d(80, shift=0.5)
        b = rng.standard_normal((80, 3))
        b[:, 1] = 0.0
        res = pgcrodr(a, b, options=_opts())
        assert res.converged.all()
        assert np.allclose(res.x[:, 1], 0.0)


class TestRecyclingAcrossSolves:
    def test_per_column_spaces_reduce_iterations(self, rng):
        a = laplacian_1d(500)
        b1 = rng.standard_normal((500, 3))
        r1 = pgcrodr(a, b1, options=_opts())
        rec = r1.info["recycle"]
        assert isinstance(rec, PseudoBlockRecycle)
        assert rec.p == 3
        assert all(s is not None and s.k <= 10 for s in rec.spaces)
        b2 = rng.standard_normal((500, 3))
        r2 = pgcrodr(a, b2, options=_opts(), recycle=rec, same_system=True)
        assert r2.converged.all()
        assert r2.iterations < 0.8 * r1.iterations

    def test_per_column_invariants(self, rng):
        a = laplacian_1d(300)
        b = rng.standard_normal((300, 2))
        res = pgcrodr(a, b, options=_opts())
        for space in res.info["recycle"].spaces:
            c = space.c
            assert np.linalg.norm(c.conj().T @ c - np.eye(space.k)) < 1e-8
            au = a @ space.u
            assert np.linalg.norm(au - c) / np.linalg.norm(au) < 1e-7

    def test_operator_change_reorthonormalizes(self, rng):
        n = 250
        a1 = laplacian_1d(n, shift=0.1)
        a2 = laplacian_1d(n, shift=0.5)
        r1 = pgcrodr(a1, rng.standard_normal((n, 2)), options=_opts())
        r2 = pgcrodr(a2, rng.standard_normal((n, 2)), options=_opts(),
                     recycle=r1.info["recycle"], same_system=False)
        assert r2.converged.all()
        for space in r2.info["recycle"].spaces:
            au = a2 @ space.u
            assert np.linalg.norm(au - space.c) / np.linalg.norm(au) < 1e-6

    def test_same_system_skips_updates(self, rng):
        a = laplacian_1d(300)
        r1 = pgcrodr(a, rng.standard_normal((300, 2)), options=_opts())
        with ledger.install() as led:
            r2 = pgcrodr(a, rng.standard_normal((300, 2)), options=_opts(),
                         recycle=r1.info["recycle"], same_system=True)
        assert r2.converged.all()
        assert led.calls["recycle_update"] == 0


class TestDispatchAndFusion:
    def test_api_routes_multi_rhs_gcrodr_to_pseudo_block(self, rng):
        a = laplacian_1d(120, shift=0.5)
        res = solve(a, rng.standard_normal((120, 3)),
                    options=_opts(gmres_restart=20, recycle=5))
        assert res.method == "pgcrodr"
        res_b = solve(a, rng.standard_normal((120, 3)),
                      options=_opts(krylov_method="bgcrodr",
                                    gmres_restart=20, recycle=5))
        assert res_b.method == "bgcrodr"

    def test_solver_threads_pseudo_block_recycle(self, rng):
        a = laplacian_1d(400)
        s = Solver(options=_opts())
        r1 = s.solve(a, rng.standard_normal((400, 2)))
        r2 = s.solve(a, rng.standard_normal((400, 2)))
        assert isinstance(s.recycled, PseudoBlockRecycle)
        assert r2.converged.all()
        assert r2.iterations < r1.iterations

    def test_reductions_fused_across_columns(self, rng):
        """Per-iteration reduction count must not scale with p."""
        a = laplacian_1d(300)
        per_it = {}
        for p in (1, 4):
            b = rng.standard_normal((300, p))
            with ledger.install() as led:
                res = pgcrodr(a, b, options=_opts(max_it=2000))
            per_it[p] = led.reductions / max(res.iterations, 1)
        assert per_it[4] < 2.0 * per_it[1]

    def test_mismatched_recycle_type_ignored(self, rng):
        """A block-method RecycledSubspace cannot seed pseudo-block solves."""
        from repro.krylov.recycling import RecycledSubspace
        a = laplacian_1d(150, shift=0.3)
        wrong = RecycledSubspace(np.ones((150, 2)), np.ones((150, 2)))
        res = solve(a, rng.standard_normal((150, 2)), recycle=wrong,
                    options=_opts(gmres_restart=20, recycle=5))
        assert res.converged.all()   # silently starts fresh


def _variable_jacobi(a):
    """Jacobi sweep whose damping changes on every application.

    A genuinely nonlinear/variable preconditioner (cf. paper section
    III-C): right preconditioning stores Z and keeps its algebra exact
    (the flexible methods), while the left recurrence becomes invalid.
    """
    dinv = 1.0 / a.diagonal()
    state = {"count": 0}

    def apply(x):
        state["count"] += 1
        scale = 1.0 + 0.3 * np.sin(state["count"])
        return (scale * dinv)[:, None] * x

    return FunctionPreconditioner(apply, is_variable=True), state


class TestFlexiblePreconditioning:
    """FGCRO-DR: variable preconditioner + recycling + same-system skip."""

    def test_flexible_variable_preconditioner_converges(self, rng):
        a = laplacian_1d(300, shift=0.2)
        b = rng.standard_normal((300, 3))
        m, state = _variable_jacobi(a)
        res = pgcrodr(a, b, m, options=_opts(verify="full"))
        assert state["count"] > 0          # M really was applied...
        assert res.method == "fpgcrodr"    # ...and the flexible path ran
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-7)
        rep = res.info["verify"]
        assert rep["checks"] > 0 and not rep["violations"]

    def test_flexible_recycled_space_invariants(self, rng):
        """A U = C must hold even under a variable M: U is assembled from
        the *stored* Z columns, and A (Z y) = (A Z) y by linearity."""
        a = laplacian_1d(300, shift=0.1)
        m, _ = _variable_jacobi(a)
        res = pgcrodr(a, rng.standard_normal((300, 2)), m,
                      options=_opts(verify="full"))
        for space in res.info["recycle"].spaces:
            assert space is not None and space.k > 0
            c = space.c
            assert np.linalg.norm(c.conj().T @ c - np.eye(space.k)) < 1e-8
            au = a @ space.u
            assert np.linalg.norm(au - c) / np.linalg.norm(au) < 1e-6

    def test_flexible_same_system_skips_updates(self, rng):
        """Same-system optimization composes with flexible preconditioning:
        adoption re-checks pass (A U = C is M-independent) and the skip of
        Fig. 1 lines 3-7 / 31-38 still charges zero recycle updates."""
        a = laplacian_1d(300, shift=0.1)
        m, _ = _variable_jacobi(a)
        o = _opts(verify="full")
        r1 = pgcrodr(a, rng.standard_normal((300, 2)), m, options=o)
        m2, _ = _variable_jacobi(a)   # fresh state: M sequence differs
        with ledger.install() as led:
            r2 = pgcrodr(a, rng.standard_normal((300, 2)), m2, options=o,
                         recycle=r1.info["recycle"], same_system=True)
        assert r2.converged.all()
        assert led.calls["recycle_update"] == 0
        # no iteration-reduction claim here: with a *different* M sequence
        # the deflation payoff is not guaranteed, only correctness is
        assert r2.iterations <= 1.5 * r1.iterations
        assert r2.info["same_system"] is True
        assert not r2.info["verify"]["violations"]

    def test_flexible_recycle_threads_through_solver(self, rng):
        """Solver() threading works for the flexible pseudo-block path."""
        a = laplacian_1d(400)
        m, _ = _variable_jacobi(a)
        s = Solver(m=m, options=_opts())
        r1 = s.solve(a, rng.standard_normal((400, 2)))
        r2 = s.solve(a, rng.standard_normal((400, 2)))
        assert isinstance(s.recycled, PseudoBlockRecycle)
        assert r2.converged.all()
        assert r2.iterations < r1.iterations
