"""Tests for (Block/Flexible) GCRO-DR — the paper's core method."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import Options, RecycledSubspace, Solver, solve
from repro.krylov.base import FunctionPreconditioner
from repro.krylov.gcrodr import gcrodr, sketch_drift, sketch_drift_probe
from repro.krylov.gmres import gmres
from repro.trace import Tracer, install
from repro.util import ledger

from conftest import (complex_shifted, convection_diffusion_1d, laplacian_1d,
                      laplacian_2d, make_rng, relative_residuals)
from matrix import Config, make_problem


def _opts(**kw):
    kw.setdefault("krylov_method", "gcrodr")
    kw.setdefault("gmres_restart", 30)
    kw.setdefault("recycle", 10)
    kw.setdefault("tol", 1e-8)
    kw.setdefault("max_it", 6000)
    return Options(**kw)


class TestSingleSolve:
    def test_converges_where_restarted_gmres_stalls(self, rng):
        """Deflated restarting rescues GMRES(m) on the 1-D Laplacian."""
        a = laplacian_1d(600)
        b = rng.standard_normal(600)
        rg = gmres(a, b, options=Options(gmres_restart=30, tol=1e-8, max_it=3000))
        rr = gcrodr(a, b, options=_opts(max_it=3000))
        assert rr.converged.all()
        assert not rg.converged.all() or rr.iterations < rg.iterations

    def test_invariants_of_returned_space(self, rng):
        a = convection_diffusion_1d(200)
        b = rng.standard_normal(200)
        res = gcrodr(a, b, options=_opts())
        rec = res.info["recycle"]
        assert isinstance(rec, RecycledSubspace)
        u, c = rec.u, rec.c
        assert u.shape[1] == c.shape[1] <= 10
        # C orthonormal
        assert np.linalg.norm(c.conj().T @ c - np.eye(c.shape[1])) < 1e-8
        # A U = C (the defining invariant)
        au = a @ u
        assert np.linalg.norm(au - c) / np.linalg.norm(au) < 1e-8

    def test_k_must_be_positive(self):
        a = laplacian_1d(20)
        with pytest.raises(ValueError, match="recycle"):
            gcrodr(a, np.ones(20), options=Options(krylov_method="gmres",
                                                   recycle=0))

    def test_zero_rhs(self):
        a = laplacian_1d(40, shift=1.0)
        res = gcrodr(a, np.zeros(40), options=_opts())
        assert res.converged.all()
        assert np.allclose(res.x, 0.0)

    def test_complex_system(self, rng):
        a = complex_shifted(250)
        b = rng.standard_normal(250) + 1j * rng.standard_normal(250)
        res = gcrodr(a, b, options=_opts())
        assert res.converged.all()
        assert relative_residuals(a, res.x, b)[0] < 1e-7


class TestSequencesSameSystem:
    def test_recycling_reduces_iterations(self, rng):
        a = laplacian_1d(500)
        rec = None
        its = []
        for _ in range(3):
            b = rng.standard_normal(500)
            res = gcrodr(a, b, options=_opts(max_it=4000), recycle=rec,
                         same_system=rec is not None)
            rec = res.info["recycle"]
            its.append(res.iterations)
            assert res.converged.all()
        assert its[1] < 0.8 * its[0]
        assert its[2] < 0.8 * its[0]

    def test_same_system_flag_skips_eig_updates(self, rng):
        """The non-variable fast path must not solve eigenproblems."""
        a = laplacian_1d(300)
        b1 = rng.standard_normal(300)
        res1 = gcrodr(a, b1, options=_opts())
        rec = res1.info["recycle"]
        with ledger.install() as led:
            res2 = gcrodr(a, rng.standard_normal(300), options=_opts(),
                          recycle=rec, same_system=True)
        assert res2.converged.all()
        assert led.calls["recycle_update"] == 0
        assert res2.info["same_system"]
        # while the general path performs one update per restart cycle
        with ledger.install() as led_gen:
            res3 = gcrodr(a, rng.standard_normal(300), options=_opts(),
                          recycle=rec, same_system=False)
        assert led_gen.calls["recycle_update"] >= 1
        assert res3.converged.all()

    def test_same_system_preserves_recycled_space(self, rng):
        a = laplacian_1d(300)
        res1 = gcrodr(a, rng.standard_normal(300), options=_opts())
        rec1 = res1.info["recycle"]
        res2 = gcrodr(a, rng.standard_normal(300), options=_opts(),
                      recycle=rec1, same_system=True)
        rec2 = res2.info["recycle"]
        assert np.allclose(rec1.u, rec2.u)
        assert np.allclose(rec1.c, rec2.c)

    def test_recycle_projection_exact_on_recycled_directions(self, rng):
        """If b lies in span(C), the init step alone solves the system."""
        a = convection_diffusion_1d(150)
        res = gcrodr(a, rng.standard_normal(150), options=_opts())
        rec = res.info["recycle"]
        b = rec.c @ rng.standard_normal(rec.k)
        res2 = gcrodr(a, b, options=_opts(), recycle=rec, same_system=True)
        assert res2.converged.all()
        assert res2.iterations == 0

    @pytest.mark.parametrize("k,restart", [(2, 30), (2, 10), (1, 8)])
    @pytest.mark.parametrize("same_system", [True, False])
    def test_supplied_space_wider_than_option(self, rng, k, restart,
                                              same_system):
        """A supplied space is adopted untrimmed, however small ``recycle``
        is: the per-solve basis slab must be sized from the real width."""
        n, p = 400, 2
        a = laplacian_1d(n)
        rec = gcrodr(a, rng.standard_normal((n, p)),
                     options=_opts(recycle=20)).info["recycle"]
        assert rec.k > k * (p + 1)
        b = rng.standard_normal((n, p))
        res = gcrodr(a, b, options=_opts(recycle=k, gmres_restart=restart),
                     recycle=rec, same_system=same_system)
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-7)


class TestSequencesVaryingSystem:
    def _sequence(self, rng, n=400, count=4):
        base = laplacian_1d(n)
        mats, rhss = [], []
        for i in range(count):
            mats.append((base + 0.02 * i * sp.eye(n)).tocsr())
            rhss.append(rng.standard_normal(n))
        return mats, rhss

    @pytest.mark.parametrize("strategy", ["A", "B"])
    def test_strategies_converge(self, rng, strategy):
        mats, rhss = self._sequence(rng)
        rec = None
        its = []
        for a, b in zip(mats, rhss):
            res = gcrodr(a, b, options=_opts(recycle_strategy=strategy),
                         recycle=rec, same_system=False)
            rec = res.info["recycle"]
            its.append(res.iterations)
            assert res.converged.all()
            assert relative_residuals(a, res.x, b)[0] < 1e-7
        # recycling across slowly varying systems must help
        assert its[-1] <= its[0]

    def test_strategy_a_extra_reduction(self, rng):
        """Strategy A pays one extra reduction per restart; B is free."""
        a = laplacian_1d(400)
        b = rng.standard_normal(400)
        reds = {}
        for strat in ("A", "B"):
            with ledger.install() as led:
                res = gcrodr(a, b, options=_opts(recycle_strategy=strat),
                             same_system=False)
            reds[strat] = (led.reductions, res.restarts, res.iterations)
        ra, ka, ia = reds["A"]
        rb, kb, ib = reds["B"]
        if ia == ib and ka == kb:  # identical trajectories: exact bookkeeping
            assert ra == rb + (ka - 1)  # first cycle solves eq.(2), no W needed

    def test_operator_change_reorthonormalizes(self, rng):
        n = 200
        a1 = laplacian_1d(n, shift=0.2)
        a2 = laplacian_1d(n, shift=0.8)
        res1 = gcrodr(a1, rng.standard_normal(n), options=_opts())
        rec = res1.info["recycle"]
        res2 = gcrodr(a2, rng.standard_normal(n), options=_opts(),
                      recycle=rec, same_system=False)
        rec2 = res2.info["recycle"]
        assert res2.converged.all()
        # invariant must hold for the *new* operator
        au = a2 @ rec2.u
        assert np.linalg.norm(au - rec2.c) / np.linalg.norm(au) < 1e-7

    def test_degenerate_recycled_space_survives(self, rng):
        """A rank-deficient U must be trimmed, not crash the solve."""
        n = 150
        a = convection_diffusion_1d(n)
        u = rng.standard_normal((n, 4))
        u[:, 3] = u[:, 0]          # dependent column
        c, _ = np.linalg.qr(a @ u)
        rec = RecycledSubspace(u, c, op_tag=None)
        res = gcrodr(a, rng.standard_normal(n), options=_opts(recycle=4),
                     recycle=rec, same_system=False)
        assert res.converged.all()


class TestBlockGcrodr:
    def test_block_multi_rhs(self, rng):
        a = laplacian_2d(16)
        n = a.shape[0]
        b = rng.standard_normal((n, 4))
        res = gcrodr(a, b, options=_opts(krylov_method="bgcrodr"))
        assert res.converged.all()
        assert res.method == "bgcrodr"
        assert np.all(relative_residuals(a, res.x, b) < 1e-7)

    def test_block_recycling_sequence(self, rng):
        a = laplacian_2d(14)
        n = a.shape[0]
        rec = None
        its = []
        for _ in range(3):
            b = rng.standard_normal((n, 4))
            res = gcrodr(a, b, options=_opts(krylov_method="bgcrodr"),
                         recycle=rec, same_system=rec is not None)
            rec = res.info["recycle"]
            its.append(res.iterations)
            assert res.converged.all()
        assert its[1] <= its[0]

    def test_recycle_dimension_independent_of_p(self, rng):
        """U_k is k *vectors*, however wide the RHS block (paper §III-A)."""
        a = laplacian_2d(12)
        n = a.shape[0]
        b = rng.standard_normal((n, 5))
        res = gcrodr(a, b, options=_opts(krylov_method="bgcrodr", recycle=6))
        rec = res.info["recycle"]
        assert rec.k <= 6

    def test_block_breakdown_in_sequence(self, rng):
        a = laplacian_1d(120, shift=0.3)
        v = rng.standard_normal(120)
        b = np.column_stack([v, 3 * v])
        res = gcrodr(a, b, options=_opts(krylov_method="bgcrodr", recycle=4))
        assert res.converged.all()

    @pytest.mark.parametrize("scheme", ["cgs2_1r", "cholqr2", "sketched"])
    def test_harvest_after_in_cycle_breakdown(self, scheme):
        """n = 5p: the harvest cycle exhausts the space at step 5 and breaks
        down (rank 0).  The committed zero-padded block keeps ``V`` the shape
        ``hbar`` assumes, so harvesting from that cycle must not raise."""
        n, p = 20, 4
        a = laplacian_1d(n)
        b = np.random.default_rng(0).standard_normal((n, p))
        res = gcrodr(a, b, options=_opts(
            krylov_method="bgcrodr", gmres_restart=10, recycle=2, tol=1e-10,
            orthogonalization=scheme))
        assert res.converged.all()
        assert res.breakdown is True
        assert relative_residuals(a, res.x, b).max() < 1e-9

    @pytest.mark.parametrize("scheme", ["cgs2_1r", "cholqr2", "sketched"])
    def test_recycle_update_after_in_cycle_breakdown(self, scheme):
        """Same mismatch at the update site: a recycled cycle on a changed
        operator breaks down (k + 4p + 2 = n) and ``[C_k | V] @ qf`` runs."""
        n, p = 20, 4
        a = laplacian_1d(n)
        s = Solver(options=_opts(
            krylov_method="bgcrodr", gmres_restart=10, recycle=2, tol=1e-10,
            orthogonalization=scheme))
        s.solve(a, np.random.default_rng(0).standard_normal((n, p)))
        a2 = laplacian_1d(n, shift=0.1)
        b2 = np.random.default_rng(1).standard_normal((n, p))
        res = s.solve(a2, b2)
        assert res.converged.all() and res.breakdown is True
        assert relative_residuals(a2, res.x, b2).max() < 1e-9
        assert res.info["recycle"].k == 2


class TestFlexibleGcrodr:
    def _variable_prec(self, a):
        d = a.diagonal()
        calls = [0]
        def apply(x):
            calls[0] += 1
            return x / (d[:, None] * (1.0 + 0.1 * np.sin(calls[0])))
        return FunctionPreconditioner(apply, is_variable=True)

    def test_fgcrodr_with_variable_preconditioner(self, rng):
        a = laplacian_1d(300)
        m = self._variable_prec(a)
        res = gcrodr(a, rng.standard_normal(300), m,
                     options=_opts(variant="flexible", max_it=4000))
        assert res.converged.all()
        assert res.method == "fgcrodr"

    def test_variable_prec_rejected_without_flexible(self):
        a = laplacian_1d(50, shift=1.0)
        m = FunctionPreconditioner(lambda x: x, is_variable=True)
        with pytest.raises(ValueError, match="flexible"):
            gcrodr(a, np.ones(50), m, options=_opts(variant="right"))

    def test_flexible_recycling_sequence(self, rng):
        a = laplacian_1d(400)
        m = self._variable_prec(a)
        rec = None
        its = []
        for _ in range(3):
            res = gcrodr(a, rng.standard_normal(400), m,
                         options=_opts(variant="flexible", max_it=5000),
                         recycle=rec, same_system=rec is not None)
            rec = res.info["recycle"]
            its.append(res.iterations)
            assert res.converged.all()
        assert its[1] <= its[0]

    def test_right_equals_flexible_for_constant_prec(self, rng):
        """For constant M, right preconditioning == flexible storage."""
        a = convection_diffusion_1d(150)
        dinv = 1.0 / a.diagonal()
        m = FunctionPreconditioner(lambda x: dinv[:, None] * x)
        b = rng.standard_normal(150)
        r1 = gcrodr(a, b, m, options=_opts(variant="right"))
        r2 = gcrodr(a, b, m, options=_opts(variant="flexible"))
        assert r1.iterations == r2.iterations
        assert np.allclose(r1.x, r2.x, atol=1e-8)


class TestReductionAccounting:
    def test_cycle_reduction_structure(self, rng):
        """Per §III-D: once a subspace is recycled, each inner iteration
        costs one extra reduction (the C_k projection)."""
        n = 500
        a = laplacian_1d(n)
        b1 = rng.standard_normal(n)
        res1 = gcrodr(a, b1, options=_opts())
        rec = res1.info["recycle"]
        with ledger.install() as led_r:
            res_r = gcrodr(a, rng.standard_normal(n), options=_opts(),
                           recycle=rec, same_system=True)
        with ledger.install() as led_g:
            res_g = gmres(a, rng.standard_normal(n),
                          options=Options(gmres_restart=30, tol=1e-8,
                                          max_it=6000))
        per_it_r = led_r.reductions / max(res_r.iterations, 1)
        per_it_g = led_g.reductions / max(res_g.iterations, 1)
        # GCRO-DR pays ~1 extra reduction per iteration, not more
        assert per_it_r <= per_it_g + 1.5

    def test_solver_wrapper_tracks_sequence(self, rng):
        a = laplacian_1d(300)
        s = Solver(options=_opts())
        for _ in range(3):
            res = s.solve(a, rng.standard_normal(300))
            assert res.converged.all()
        assert s.results[0].info["same_system"] in (False, None)
        assert s.results[1].info["same_system"]
        assert s.total_iterations == sum(r.iterations for r in s.results)


class TestInvariantChecking:
    """``verify="full"`` is the one spelling of the recycled-pair checks."""

    def test_check_invariants_passes_on_healthy_solve(self, rng):
        a = laplacian_1d(300)
        res = gcrodr(a, rng.standard_normal(300),
                     options=_opts(verify="full", max_it=4000))
        assert res.converged.all()
        assert not res.info["verify"]["violations"]
        assert "recycle_map" in res.info["verify"]["max_drift"]

    def test_check_invariants_detects_corruption(self, rng):
        from repro.krylov.base import as_operator
        from repro.verify import InvariantChecker, InvariantViolation
        a = as_operator(laplacian_1d(100, shift=0.5))
        u = rng.standard_normal((100, 3))
        c = rng.standard_normal((100, 3))   # not orthonormal, not A U
        with pytest.raises(InvariantViolation):
            InvariantChecker("full").check_recycle(u, c, op_apply=a.matmat)

    def test_check_invariants_empty_space_noop(self):
        from repro.verify import InvariantChecker
        chk = InvariantChecker("full")
        chk.check_recycle(None, None, op_apply=lambda x: x)
        chk.check_recycle(np.zeros((5, 0)), np.zeros((5, 0)),
                          op_apply=lambda x: x)
        assert chk.report()["checks"] == 0


class TestKZeroIsGmres:
    """With nothing to recycle, GCRO-DR *is* GMRES: the k = 0 cycle.

    The harvest is forced empty, so every cycle of the recycling solver is
    the full-m cycle its non-recycling twin runs — same iterates, same
    counts, same charged flops.  (The block half failed at the parent of
    the restart-loop PR: the ``gmres_fallback`` copy of the cycle forgot
    the ``X += Z y`` charge, 4 302 144 vs 4 609 344 ``blas3`` flops.)
    """

    @staticmethod
    def _pair(monkeypatch, recycler, plain, p, **kw):
        from importlib import import_module

        from repro.util.ledger import CostLedger

        def no_harvest(hbar, *args, dtype, **kwargs):
            return np.zeros((hbar.shape[1], 0), dtype=dtype)

        # (the package attribute ``repro.krylov.gcrodr`` is the function)
        for name in ("gcrodr", "pgcrodr"):
            monkeypatch.setattr(import_module(f"repro.krylov.{name}"),
                                "harmonic_ritz_vectors", no_harvest)
        a = convection_diffusion_1d(400)
        b = np.random.default_rng(11).standard_normal((400, p))
        m = sp.diags(1.0 / a.diagonal()).tocsr()
        out = []
        for fn, method, k in ((recycler, "gcrodr", 3), (plain, "gmres", 0)):
            o = Options(krylov_method=method, gmres_restart=10, recycle=k,
                        tol=1e-10, max_it=2000, **kw)
            with ledger.install(CostLedger()) as led:
                out.append((fn(a, b, m, options=o), led))
        return out

    @staticmethod
    def _assert_same(pair):
        (rec, led_r), (ref, led_g) = pair
        assert rec.restarts >= 3           # harvest cycle + fallback cycles
        space = rec.info["recycle"]        # nothing was harvested
        assert space is None or all(s is None for s in space.spaces)
        assert np.array_equal(rec.x, ref.x)
        assert np.array_equal(rec.history.matrix(), ref.history.matrix())
        assert (rec.iterations, rec.restarts, rec.breakdown) \
            == (ref.iterations, ref.restarts, ref.breakdown)
        assert led_r.reductions == led_g.reductions
        assert dict(led_r.flops) == dict(led_g.flops)

    @pytest.mark.parametrize("variant", ["right", "left", "flexible"])
    def test_block_gcrodr_is_bgmres(self, monkeypatch, variant):
        from repro.krylov.bgmres import bgmres
        self._assert_same(self._pair(monkeypatch, gcrodr, bgmres, 2,
                                     variant=variant))

    @pytest.mark.parametrize("ortho", ["cgs", "cgs2_1r", "mgs"])
    def test_pseudo_block_gcrodr_is_gmres(self, monkeypatch, ortho):
        from repro.krylov.pgcrodr import pgcrodr
        self._assert_same(self._pair(monkeypatch, pgcrodr, gmres, 3,
                                     orthogonalization=ortho))

    def test_fallback_cycle_is_verified(self, monkeypatch):
        """``verify=full`` checks every cycle's basis and Arnoldi relation;
        the fallback copy of the cycle used to skip both."""
        from repro.krylov.bgmres import bgmres
        (rec, _), (ref, _) = self._pair(monkeypatch, gcrodr, bgmres, 2,
                                        verify="full")
        assert rec.info["verify"]["checks"] == ref.info["verify"]["checks"]


class TestPairRepair:
    """``_tidy_pair``: which schemes repair the recycled pair, and when."""

    def test_exact_scheme_repair_path_unchanged(self):
        """cgs2_1r (exact basis) never routes through the drift-gated repair."""
        cfg = Config("gcrodr", p=3, ortho="cgs2_1r")
        a, b, m = make_problem(cfg)
        o = cfg.options(verify="full", tol=1e-8).replace(trace="summary")
        tr = Tracer(level="summary")
        with install(tr), ledger.install() as led:
            r1 = solve(a, b, m, options=o)
            r2 = solve(a, np.negative(b), m, options=o,
                       recycle=r1.info["recycle"], same_system=False)
        assert np.asarray(r2.converged).all()
        assert led.calls.get("recycle_repair", 0) == 0
        assert sum(len(root.find("recycle_repair")) for root in tr.roots) == 0

    def test_sketched_scheme_defers_repair_to_adoption_boundary(self):
        """The sketched scheme's drift gate never fires mid-solve; the one
        exact re-derivation happens at the packaging boundary."""
        cfg = Config("gcrodr", p=1, ortho="sketched")
        a, b, m = make_problem(cfg)
        o = cfg.options(verify="cheap", tol=1e-8).replace(trace="summary")
        tr = Tracer(level="summary")
        with install(tr), ledger.install():
            r1 = solve(a, b, m, options=o)
        repairs = [s for root in tr.roots for s in root.find("recycle_repair")]
        kinds = [s.attrs.get("kind") for s in repairs]
        assert "drift" not in kinds, "drift-gated repair fired on a healthy run"
        assert kinds.count("adoption_boundary") == 1
        assert np.asarray(r1.converged).all()

    def test_drift_probe_exact_when_sketch_is_square(self):
        """For n <= 32 the probe's sketch is an isometry, so the estimate
        equals the true drift to rounding — the gate decision is exact."""
        rng = make_rng(23)
        n, k = 24, 4
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        bad = q.copy()
        bad[:, -1] = 0.7 * bad[:, 0] + 0.3 * bad[:, -1]
        with ledger.install():
            clean = sketch_drift_probe(q)
            dirty = sketch_drift_probe(bad)
        assert clean < 1e-12
        assert abs(dirty - sketch_drift(bad)) < 1e-12
        assert dirty > 0.1
