"""Tests for the shifted-system family engine.

Covers the contract of :mod:`repro.krylov.shifted` end-to-end:

* per-shift sequential solves are the convergence oracle — shared-basis
  solutions match them to solver tolerance, shared and recycled engines,
  with and without a mass matrix;
* ledger-counted reduction independence: a family at k in {1, 4, 8}
  shifts pays a per-shift-count-independent number of global reductions
  (the k=8 family costs <= 1.25x the k=1 solve, vs ~8x sequential);
* recycling across families: a pair harvested from one family
  accelerates the next, across shifts, without per-shift projection;
* mutation test: a per-shift extra reduction smuggled into the
  least-squares core trips :func:`trace_gate.check_shifted_shape`;
* the service front ends coalesce families keyed on
  ``(fp(A), fp(M), rhs-digest)`` into one dispatch, whose columns are the
  union of the requests' ``(shift, b column)`` pairs: every request is
  answered for its own systems (true residuals), whatever it shares a
  dispatch with.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import Options, solve
from repro.krylov import shifted as shifted_mod
from repro.krylov.shifted import (ShiftedFamilyResult, shifted_matrix,
                                  sequential_shifted_solves,
                                  solve_shifted_family)
from repro.service import SolveService
from repro.service.scheduler import AsyncSolveService
from repro.trace.tracer import Tracer, install as install_tracer
from repro.util import ledger
from repro.util.ledger import CostLedger
from repro.util.options import OptionError
from trace_gate import GateError, check_shifted_shape

from conftest import laplacian_2d, make_rng, relative_residuals

N_GRID = 16
SHIFTS8 = [0.05 * (i + 1) for i in range(8)]


def family_problem(p: int = 1, complex_: bool = False):
    a = laplacian_2d(N_GRID)
    n = a.shape[0]
    rng = make_rng(31, p, int(complex_))
    b = rng.standard_normal((n, p) if p > 1 else n)
    if complex_:
        a = (a.astype(np.complex128) + 0.1j * sp.eye(n)).tocsr()
        b = b + 1j * rng.standard_normal(b.shape)
    return a, b


def shared_opts(**kw) -> Options:
    base = dict(krylov_method="bgmres", gmres_restart=25, tol=1e-9,
                orthogonalization="cgs2_1r")
    base.update(kw)
    return Options(**base)


def recycled_opts(**kw) -> Options:
    base = dict(krylov_method="bgcrodr", gmres_restart=25, recycle=8,
                tol=1e-9, orthogonalization="cgs2_1r")
    base.update(kw)
    return Options(**base)


# ---------------------------------------------------------------------------
# oracle parity: shared basis vs per-shift sequential solves
# ---------------------------------------------------------------------------
class TestOracleParity:
    @pytest.mark.parametrize("opts_fn", [shared_opts, recycled_opts],
                             ids=["shared", "recycled"])
    def test_matches_sequential_oracle(self, opts_fn):
        a, b = family_problem()
        opts = opts_fn()
        fam = solve(a, b, options=opts, shifts=SHIFTS8[:4])
        seq = sequential_shifted_solves(a, b, SHIFTS8[:4], options=opts)
        assert fam.converged.all() and seq.converged.all()
        for s, rf, rs in zip(fam.shifts, fam.results, seq.results):
            asig = shifted_matrix(a, s)
            assert relative_residuals(asig, np.asarray(rf.x), b).max() < 1e-8
            # both land inside tolerance of the same true solution
            gap = np.linalg.norm(np.ravel(rf.x) - np.ravel(rs.x))
            gap /= np.linalg.norm(np.ravel(rs.x))
            assert gap < 1e-6, f"shift {s}: shared/sequential gap {gap:.2e}"

    def test_complex_shifts(self):
        a, b = family_problem(complex_=True)
        shifts = [0.1 + 0.05j, 0.2 - 0.02j, 0.3]
        fam = solve(a, b, options=shared_opts(), shifts=shifts)
        assert fam.converged.all()
        for s, res in zip(fam.shifts, fam.results):
            rel = relative_residuals(shifted_matrix(a, s),
                                     np.asarray(res.x), b)
            assert rel.max() < 1e-8

    def test_mass_matrix(self):
        a, b = family_problem()
        rng = make_rng(77)
        mass = sp.diags(1.0 + rng.random(a.shape[0])).tocsr()
        fam = solve(a, b, options=shared_opts(), shifts=SHIFTS8[:4],
                    mass=mass)
        assert fam.converged.all()
        for s, res in zip(fam.shifts, fam.results):
            rel = relative_residuals(shifted_matrix(a, s, mass),
                                     np.asarray(res.x), b)
            assert rel.max() < 1e-7

    def test_per_shift_rhs_block(self):
        a, _ = family_problem()
        rng = make_rng(5)
        b = rng.standard_normal((a.shape[0], 4))
        fam = solve(a, b, options=shared_opts(), shifts=SHIFTS8[:4])
        assert fam.converged.all()
        for i, (s, res) in enumerate(zip(fam.shifts, fam.results)):
            rel = relative_residuals(shifted_matrix(a, s),
                                     np.asarray(res.x), b[:, i])
            assert rel.max() < 1e-8

    def test_projected_variant_is_sequential_contrast(self):
        a, b = family_problem()
        fam = sequential_shifted_solves(a, b, SHIFTS8[:4],
                                        options=recycled_opts())
        assert fam.method == "shifted_sequential"
        assert fam.converged.all()
        assert fam.info["variant"] == "sequential"
        # the recycle space is chained shift to shift and re-projected
        assert all(r.info["recycle"] is not None for r in fam.results)

    def test_preconditioner_rejected(self):
        a, b = family_problem()
        m = sp.diags(1.0 / a.diagonal()).tocsr()
        with pytest.raises(OptionError, match="shift invariance"):
            solve(a, b, m, options=shared_opts(), shifts=SHIFTS8[:2])

    def test_mass_without_shifts_rejected(self):
        a, b = family_problem()
        with pytest.raises(OptionError, match="mass"):
            solve(a, b, options=shared_opts(),
                  mass=sp.eye(a.shape[0]).tocsr())


# ---------------------------------------------------------------------------
# the headline: reductions independent of the number of shifts
# ---------------------------------------------------------------------------
def _count_reductions(a, b, opts, shifts):
    led = CostLedger()
    with ledger.install(led):
        fam = solve(a, b, options=opts, shifts=shifts)
    assert fam.converged.all()
    return led.counts()[0], fam


class TestReductionIndependence:
    @pytest.mark.parametrize("opts_fn", [shared_opts, recycled_opts],
                             ids=["shared", "recycled"])
    def test_family_reductions_independent_of_k(self, opts_fn):
        a, _ = family_problem()
        rng = make_rng(13)
        b = rng.standard_normal((a.shape[0], 8))
        # full-rank per-shift RHS: identical cycle structure at any width
        counts = {k: _count_reductions(a, b[:, :k], opts_fn(),
                                       SHIFTS8[:k])[0]
                  for k in (1, 4, 8)}
        assert counts[8] <= 1.25 * counts[1], counts
        assert counts[4] <= 1.25 * counts[1], counts

    def test_family_beats_sequential_by_construction(self):
        a, b = family_problem()
        opts = shared_opts()
        fam_reds, _ = _count_reductions(a, b, opts, SHIFTS8)
        led = CostLedger()
        with ledger.install(led):
            seq = sequential_shifted_solves(a, b, SHIFTS8, options=opts)
        assert seq.converged.all()
        seq_reds = led.counts()[0]
        # k=8 family ~1x one solve; sequential ~8x. demand >= 3x headroom
        assert seq_reds >= 3 * fam_reds, (seq_reds, fam_reds)


# ---------------------------------------------------------------------------
# recycling across families
# ---------------------------------------------------------------------------
class TestRecycleAcrossShifts:
    def test_family_recycle_accelerates_next_family(self):
        # large enough that the harvested pair pays for the inner steps
        # it displaces (on tiny problems the cold solve converges in two
        # cycles and adoption cannot win)
        a = laplacian_2d(20)
        rng = make_rng(99)
        b = rng.standard_normal(a.shape[0])
        b2 = rng.standard_normal(a.shape[0])
        opts = recycled_opts()
        fam1 = solve(a, b, options=opts, shifts=SHIFTS8[:4])
        space = fam1.info["recycle"]
        assert space is not None and space.meta.get("family")
        warm = solve(a, b2, options=opts, shifts=SHIFTS8[:4], recycle=space)
        cold = solve(a, b2, options=opts, shifts=SHIFTS8[:4])
        assert warm.converged.all() and cold.converged.all()
        assert warm.iterations <= cold.iterations
        for s, res in zip(warm.shifts, warm.results):
            rel = relative_residuals(shifted_matrix(a, s),
                                     np.asarray(res.x), b2)
            assert rel.max() < 1e-8

    def test_unprojected_beats_projected_on_reductions(self):
        a, b = family_problem()
        led_u, led_p = CostLedger(), CostLedger()
        with ledger.install(led_u):
            fam_u = solve(a, b, options=recycled_opts(), shifts=SHIFTS8[:4])
        with ledger.install(led_p):
            fam_p = sequential_shifted_solves(a, b, SHIFTS8[:4],
                                              options=recycled_opts())
        assert fam_u.converged.all() and fam_p.converged.all()
        assert led_u.counts()[0] < led_p.counts()[0]


# ---------------------------------------------------------------------------
# the gate, and the mutation that must trip it
# ---------------------------------------------------------------------------
def _traced_family_roots(opts_fn, widths=(1, 4, 8)):
    a, _ = family_problem()
    rng = make_rng(13)
    b = rng.standard_normal((a.shape[0], max(widths)))
    roots = {}
    for k in widths:
        tr = Tracer(level="summary")
        led = CostLedger()
        with install_tracer(tr), ledger.install(led):
            fam = solve(a, b[:, :k],
                        options=opts_fn(trace="summary"),
                        shifts=SHIFTS8[:k])
        assert fam.converged.all()
        roots[k] = tr.roots[-1]
    return roots


class TestShiftedGate:
    @pytest.mark.parametrize("opts_fn", [shared_opts, recycled_opts],
                             ids=["shared", "recycled"])
    def test_gate_passes_from_spans(self, opts_fn):
        rep = check_shifted_shape(_traced_family_roots(opts_fn))
        assert rep["headline_ratio"] <= 1.25
        assert rep["widths"] == [1, 4, 8]

    def test_mutation_extra_per_shift_reduction_trips_gate(self,
                                                           monkeypatch):
        """A per-shift reduction smuggled into the LS core must be caught.

        The mutant charges one global reduction per shift inside the
        per-shift Hessenberg solve — exactly the cost the shared basis
        exists to avoid.  ``check_shifted_shape`` must refuse the trace.
        """
        real = shifted_mod._per_shift_ls

        def leaky(*args, **kwargs):
            ledger.current().reduction(nbytes=8)
            return real(*args, **kwargs)

        monkeypatch.setattr(shifted_mod, "_per_shift_ls", leaky)
        with pytest.raises(GateError, match="least_squares|depend"):
            check_shifted_shape(_traced_family_roots(shared_opts))


# ---------------------------------------------------------------------------
# service integration: one family, one dispatch
# ---------------------------------------------------------------------------
class TestFamilyService:
    def test_shift_sets_coalesce_to_one_dispatch(self):
        a, b = family_problem()
        svc = SolveService(options=shared_opts())
        r1 = svc.submit(a, b, shifts=SHIFTS8[:4])
        r2 = svc.submit(a, b, shifts=SHIFTS8[2:7])
        svc.flush()
        assert len(svc.batches) == 1
        rec = svc.batches[0]
        assert rec["family"] and rec["width"] == 7  # union of the two sets
        for req in (r1, r2):
            fam = req.result
            assert isinstance(fam, ShiftedFamilyResult)
            assert tuple(fam.shifts) == req.shifts
            assert fam.converged.all()
            assert fam.info["service"]["coalesced_requests"] == 2

    def test_distinct_rhs_do_not_coalesce(self):
        a, b = family_problem()
        rng = make_rng(3)
        svc = SolveService(options=shared_opts())
        svc.submit(a, b, shifts=SHIFTS8[:2])
        svc.submit(a, rng.standard_normal(a.shape[0]),
                   shifts=SHIFTS8[:2])
        svc.flush()
        assert len(svc.batches) == 2

    def test_mass_lu_is_one_setup_cache_entry(self):
        a, b = family_problem()
        rng = make_rng(21)
        mass = sp.diags(1.0 + rng.random(a.shape[0])).tocsr()
        svc = SolveService(options=shared_opts())
        f1 = svc.submit(a, b, shifts=SHIFTS8[:3], mass=mass)
        svc.flush()
        f2 = svc.submit(a, rng.standard_normal(a.shape[0]),
                        shifts=SHIFTS8[:3], mass=mass)
        svc.flush()
        assert f1.result.info["service"]["setup_cache_hit"] is False
        assert f2.result.info["service"]["setup_cache_hit"] is True
        assert f1.result.converged.all() and f2.result.converged.all()

    def test_family_recycle_cached_across_dispatches(self):
        a, b = family_problem()
        rng = make_rng(23)
        svc = SolveService(options=recycled_opts())
        f1 = svc.submit(a, b, shifts=SHIFTS8[:4])
        svc.flush()
        f2 = svc.submit(a, rng.standard_normal(a.shape[0]),
                        shifts=SHIFTS8[:4])
        svc.flush()
        assert f1.result.info["service"]["recycle_cache_hit"] is False
        assert f2.result.info["service"]["recycle_cache_hit"] is True
        assert f2.result.iterations <= f1.result.iterations

    def test_async_family_request(self):
        a, b = family_problem()
        opts = shared_opts(service_mode="async", service_shards=2)
        svc = AsyncSolveService(options=opts)
        req = svc.submit(a, b, shifts=SHIFTS8[:4], deadline=60.0,
                         tenant="sweep")
        assert req.rejected is None
        svc.drain()
        fam = req.result
        assert fam.converged.all()
        info = fam.info["service"]
        assert info["family"] and info["mode"] == "async"
        assert info["latency"] > 0.0

    def test_empty_shifts_rejected(self):
        a, b = family_problem()
        svc = SolveService(options=shared_opts())
        with pytest.raises(ValueError, match="at least one shift"):
            svc.submit(a, b, shifts=[])

    def test_scatter_cost_covers_own_shifts(self):
        a, b = family_problem()
        svc = SolveService(options=shared_opts())
        r1 = svc.submit(a, b, shifts=SHIFTS8[:4])
        r2 = svc.submit(a, b, shifts=SHIFTS8[4:8])
        svc.flush()
        batch = svc.batches[0]["ledger"].counts()
        c1 = r1.result.info["service"]["cost"].counts()
        c2 = r2.result.info["service"]["cost"].counts()
        # disjoint shift sets: per-request shares conserve the batch
        assert c1[0] + c2[0] == batch[0]


# ---------------------------------------------------------------------------
# a coalesced family is a block of (shift, b column) pairs: every request
# gets the answer to its own systems, whoever it is batched with
# ---------------------------------------------------------------------------
N_TRI = 100


def tridiag(n: int = N_TRI) -> sp.csr_matrix:
    off = -np.ones(n - 1)
    return sp.diags([off, 4.0 * np.ones(n), off], [-1, 0, 1]).tocsr()


def explicit_service(cls):
    return cls(options=Options(krylov_method="bgmres",
                               service_flush="explicit"))


def true_residuals(a, req, b) -> list[float]:
    """``||b_i - (A + sigma_i I) x_i|| / ||b_i||`` of each shift of a
    solved family request, against the request's own columns."""
    b_blk = b.reshape(a.shape[0], -1)
    out = []
    for i, (sigma, sres) in enumerate(zip(req.shifts, req.result.results)):
        b_i = b_blk[:, 0 if b_blk.shape[1] == 1 else i]
        x_i = np.ravel(sres.x)
        out.append(float(np.linalg.norm(b_i - a @ x_i - sigma * x_i)
                         / np.linalg.norm(b_i)))
    return out


@pytest.mark.parametrize("cls", [SolveService, AsyncSolveService],
                         ids=["sync", "async"])
class TestFamilyColumns:
    def _solve(self, cls, a, b, *requests):
        svc = explicit_service(cls)
        reqs = [svc.submit(a, b, shifts=shifts, **kw)
                for shifts, kw in requests]
        svc.flush()
        assert len(svc.batches) == 1  # the requests did share one dispatch
        tol = Options().tol
        for req in reqs:
            assert max(true_residuals(a, req, b)) <= 10 * tol
        return svc, reqs

    def test_one_request_x0_does_not_break_the_batch(self, cls):
        a = tridiag()
        self._solve(cls, a, np.ones(N_TRI),
                    ([0.1, 0.2], {"x0": np.zeros((N_TRI, 2))}),
                    ([0.3], {}))

    def test_block_rhs_under_two_shift_sets(self, cls):
        a = tridiag()
        b = np.random.default_rng(0).standard_normal((N_TRI, 2))
        svc, _ = self._solve(cls, a, b, ([0.1, 0.2], {}), ([0.3, 0.4], {}))
        assert svc.batches[0]["width"] == 4

    def test_same_shifts_on_swapped_columns_are_distinct(self, cls):
        a = tridiag()
        b = np.random.default_rng(0).standard_normal((N_TRI, 2))
        svc, (r1, r2) = self._solve(cls, a, b, ([0.1, 0.2], {}),
                                    ([0.2, 0.1], {}))
        assert svc.batches[0]["width"] == 4
        assert r1.result.info["service"]["shift_indices"] == [0, 1]
        assert r2.result.info["service"]["shift_indices"] == [2, 3]

    def test_x0_seeds_only_the_columns_of_its_request(self, cls):
        a, b = tridiag(), np.ones(N_TRI)
        _, (seeded, unseeded) = self._solve(
            cls, a, b, ([0.1], {"x0": 5.0 * np.ones(N_TRI)}), ([0.3], {}))
        # relative residual of a zero start
        assert unseeded.result.results[0].history.records[0][0] == 1.0
        assert seeded.result.results[0].history.records[0][0] > 1.0

    def test_repeated_pairs_share_one_column(self, cls):
        a = tridiag()
        b = np.random.default_rng(1).standard_normal((N_TRI, 2))
        svc, (r1, r2) = self._solve(cls, a, b, ([0.1, 0.2], {}),
                                    ([0.1, 0.3], {}))
        assert svc.batches[0]["width"] == 3
        assert r2.result.info["service"]["shift_indices"] == [0, 2]

    def test_mismatched_column_counts_are_refused_at_submit(self, cls):
        a, b = tridiag(), np.ones((N_TRI, 2))
        svc = explicit_service(cls)
        good = svc.submit(a, np.ones(N_TRI), shifts=[0.1])
        bad = [dict(b=b, shifts=[0.1, 0.2, 0.3]),
               dict(b=np.ones(N_TRI), shifts=[0.1, 0.2],
                    x0=np.zeros((N_TRI, 3))),
               dict(b=b, x0=np.zeros(N_TRI))]
        for kw in bad:
            if cls is SolveService:
                with pytest.raises(ValueError, match="columns"):
                    svc.submit(a, **kw)
            else:
                assert svc.submit(a, **kw).rejected == "invalid_input"
        svc.flush()
        assert good.result.converged.all()
