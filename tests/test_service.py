"""Tests for the solve service: coalescing, setup caching, attribution.

Covers the contract of :mod:`repro.service`:

* coalesced block solves return the same answers (to solver tolerance) as
  individual solves, and per-request cost attribution conserves the batch
  ledger exactly;
* the :class:`~repro.service.cache.SetupCache` is keyed by operator
  *value* — same-structure/different-values operators never collide, and
  in-place mutation of a cached operator's data is a miss;
* :class:`repro.Solver` never carries same-system state or a recycled
  subspace across :meth:`~repro.Solver.reset`, and detects in-place
  operator mutation via the fingerprint guard.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Options, Solver, solve
from repro.service import (SetupCache, SolveService, operator_fingerprint,
                           options_digest, options_key)
from repro.service.fingerprint import Fingerprint
from repro.util import ledger
from repro.util.ledger import CostLedger
from repro.util.options import OptionError, parse_hpddm_args

from conftest import laplacian_2d, make_rng, relative_residuals
from fixtures.reference_split import reference_split


def poisson(nx: int = 14) -> sp.csr_matrix:
    return laplacian_2d(nx)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------
class TestFingerprint:
    def test_equal_for_equal_matrices(self):
        a = poisson()
        b = poisson()
        assert a is not b
        assert operator_fingerprint(a) == operator_fingerprint(b)

    def test_same_structure_different_values(self):
        a = poisson()
        b = a.copy()
        b.data = b.data * 2.0
        fa, fb = operator_fingerprint(a), operator_fingerprint(b)
        assert fa != fb
        assert fa.same_structure(fb)
        assert fa.structure == fb.structure
        assert fa.values != fb.values

    def test_in_place_mutation_changes_fingerprint(self):
        a = poisson()
        before = operator_fingerprint(a)
        a.data[0] += 1e-9
        assert operator_fingerprint(a) != before

    def test_dense_and_opaque(self):
        arr = np.eye(5)
        fp = operator_fingerprint(arr)
        assert fp.kind == "dense" and not fp.opaque

        def matvec(x):
            return x

        fo = operator_fingerprint(matvec)
        assert fo.opaque
        assert fo == operator_fingerprint(matvec)  # same object, same tag

    def test_dtype_matters(self):
        a = poisson()
        b = a.astype(np.complex128)
        assert operator_fingerprint(a) != operator_fingerprint(b)

    def test_digests_are_pinned(self):
        """The hashed bytes never change with how they are fed: the hex of
        each kind (a non-contiguous slice included) is the one the
        per-array ``str(dtype)`` / ``ascontiguousarray`` digest produced."""
        n = 64
        lap = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                       [-1, 0, 1]).tocsr()
        cases = [
            (lap, "csr", "float64", "3fd654951b7b5c4d3f5caa44ee2f2e6f",
             "2d8d66d7566cba6ebaa5ca89450e7a18"),
            ((lap + 0.5j * sp.eye(n)).astype(np.complex128).tocsc(), "csc",
             "complex128", "3fd654951b7b5c4d3f5caa44ee2f2e6f",
             "10e480ee21e3e0c98f19889d2396a7ee"),
            (np.arange(36.0).reshape(6, 6) - 3.5, "dense", "float64",
             "dense", "01ef2572973325bb7fa6f9bd270c3ef5"),
            (np.arange(120.0).reshape(10, 12)[::2, 1::3], "dense", "float64",
             "dense", "82359fbc214e3be687d8efff227d3f47"),
        ]
        for a, kind, dtype, structure, values in cases:
            fp = operator_fingerprint(a)
            assert (fp.kind, fp.dtype, fp.structure, fp.values) \
                == (kind, dtype, structure, values)


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------
class TestSetupCache:
    def _fp(self, i: int) -> Fingerprint:
        return operator_fingerprint(poisson() * float(i + 1))

    def test_hit_miss_counters(self):
        cache = SetupCache(max_entries=4)
        fp = self._fp(0)
        art, hit = cache.get_or_build(fp, "lu", lambda: "artifact")
        assert (art, hit) == ("artifact", False)
        art, hit = cache.get_or_build(fp, "lu", lambda: "other")
        assert (art, hit) == ("artifact", True)
        stats = cache.stats()
        assert stats["total_hits"] == 1 and stats["total_misses"] == 1

    def test_value_keyed_no_collision(self):
        # same sparsity pattern, different values: distinct entries
        cache = SetupCache(max_entries=4)
        a = poisson()
        b = a.copy()
        b.data = b.data * 3.0
        fa, fb = operator_fingerprint(a), operator_fingerprint(b)
        assert fa.same_structure(fb)
        cache.put(fa, "lu", "for-a")
        assert cache.get(fb, "lu") is None
        cache.put(fb, "lu", "for-b")
        assert cache.get(fa, "lu") == "for-a"
        assert cache.get(fb, "lu") == "for-b"

    def test_in_place_mutation_misses(self):
        cache = SetupCache(max_entries=4)
        a = poisson()
        cache.put(operator_fingerprint(a), "lu", "stale-after-mutation")
        a.data *= 1.5
        assert cache.get(operator_fingerprint(a), "lu") is None

    def test_lru_eviction_order(self):
        cache = SetupCache(max_entries=2)
        f0, f1, f2 = (self._fp(i) for i in range(3))
        cache.put(f0, "lu", 0)
        cache.put(f1, "lu", 1)
        cache.get(f0, "lu")          # f0 becomes most-recent
        cache.put(f2, "lu", 2)       # evicts f1, the least-recent
        assert f1 not in cache
        assert cache.get(f0, "lu") == 0 and cache.get(f2, "lu") == 2
        assert cache.evictions == 1

    def test_invalidate(self):
        cache = SetupCache(max_entries=4)
        fp = self._fp(0)
        cache.put(fp, "lu", 0)
        cache.put(fp, "precond", 1)
        cache.invalidate(fp, kind="lu")
        assert cache.get(fp, "lu") is None
        assert cache.get(fp, "precond") == 1
        cache.invalidate()
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# the options key
# ---------------------------------------------------------------------------
_extra_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
              st.floats(allow_nan=False), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6)

_option_fields = st.fixed_dictionaries({}, optional={
    "krylov_method": st.sampled_from(["gmres", "bgmres", "gcrodr", "bgcrodr",
                                      "gmresdr", "cg", "lgmres"]),
    "gmres_restart": st.integers(2, 60),
    "recycle": st.integers(0, 12),
    "recycle_strategy": st.sampled_from(["A", "B"]),
    "recycle_same_system": st.booleans(),
    "variant": st.sampled_from(["left", "right", "flexible"]),
    "tol": st.floats(1e-14, 1e-2),
    "max_it": st.integers(1, 5000),
    "orthogonalization": st.sampled_from(["cgs", "mgs", "cgs2_1r",
                                          "cholqr2", "sketched"]),
    "deflation_tol": st.floats(1e-16, 1e-6),
    "verify": st.sampled_from(["off", "cheap", "full"]),
    "trace": st.sampled_from(["off", "summary", "full"]),
    "service_pmax": st.integers(1, 64),
    "service_flush": st.sampled_from(["batch_full", "queue_drained",
                                      "explicit"]),
    "service_mode": st.sampled_from(["sync", "async"]),
    "service_shards": st.integers(1, 8),
    "service_deadline": st.floats(0.0, 1.0),
    "service_queue_depth": st.integers(0, 64),
    "sequence_adopt": st.booleans(),
    "extra": st.dictionaries(st.text(max_size=4), _extra_values, max_size=3),
})


@settings(max_examples=200, deadline=None)
@given(fields=_option_fields)
def test_options_key_equals_the_asdict_key(fields):
    """``options_key`` reads the fields directly; it must stay the tuple
    ``dataclasses.asdict`` produced, so digests, cache kinds and
    coalescing groups are the ones every earlier run recorded."""
    try:
        opts = Options(**fields)
    except OptionError:
        return  # an invalid combination never reaches the service
    asdict_key = tuple(sorted((k, repr(v))
                              for k, v in opts.as_dict().items()))
    assert options_key(opts) == asdict_key
    assert hash(options_key(opts)) == hash(asdict_key)


# ---------------------------------------------------------------------------
# coalescing correctness
# ---------------------------------------------------------------------------
class TestCoalescing:
    def test_32_requests_match_individual_solves(self):
        a = poisson()
        rng = make_rng(1)
        rhs = [rng.standard_normal(a.shape[0]) for _ in range(32)]
        opts = Options(krylov_method="gmres", tol=1e-10, service_pmax=8,
                       service_flush="queue_drained")
        svc = SolveService(options=opts, preconditioner="lu")
        reqs = [svc.submit(a, b) for b in rhs]
        assert svc.pending == 32
        svc.flush()
        for b, req in zip(rhs, reqs):
            res = req.result
            assert res.converged.all()
            assert res.x.shape == b.shape  # 1-D in, 1-D out
            assert relative_residuals(a, res.x, b).max() < 1e-8
            ref = solve(a, b, options=Options(krylov_method="gmres",
                                              tol=1e-10))
            assert np.allclose(res.x, ref.x, atol=1e-7)
        widths = [rep["width"] for rep in svc.batches]
        assert widths == [8, 8, 8, 8]
        # setup built exactly once, then hit by every later batch
        hits = [rep["setup_cache_hit"] for rep in svc.batches]
        assert hits == [False, True, True, True]

    def test_pmax_chunking_respects_multicolumn_requests(self):
        a = poisson()
        rng = make_rng(2)
        opts = Options(krylov_method="bgmres", tol=1e-8, service_pmax=4,
                       service_flush="queue_drained")
        svc = SolveService(options=opts)
        svc.submit(a, rng.standard_normal((a.shape[0], 3)))
        svc.submit(a, rng.standard_normal((a.shape[0], 3)))
        svc.submit(a, rng.standard_normal(a.shape[0]))
        svc.flush()
        # 3+3+1 with p_max=4 -> chunks [3, 1] never split a request
        assert [rep["width"] for rep in svc.batches] == [3, 4]

    def test_mixed_operators_do_not_coalesce(self):
        a = poisson()
        b = poisson() * 2.0
        opts = Options(krylov_method="gmres", tol=1e-9,
                       service_flush="queue_drained")
        svc = SolveService(options=opts)
        r1 = svc.submit(a, np.ones(a.shape[0]))
        r2 = svc.submit(b, np.ones(b.shape[0]))
        svc.flush()
        assert len(svc.batches) == 2
        assert r1.result.info["service"]["coalesced_requests"] == 1
        assert not np.allclose(r1.result.x, r2.result.x)

    def test_mixed_options_do_not_coalesce(self):
        a = poisson()
        base = Options(krylov_method="gmres", tol=1e-9,
                       service_flush="queue_drained")
        svc = SolveService(options=base)
        svc.submit(a, np.ones(a.shape[0]))
        svc.submit(a, np.ones(a.shape[0]),
                   options=Options(krylov_method="gmres", tol=1e-6,
                                   service_flush="queue_drained"))
        svc.flush()
        assert len(svc.batches) == 2


class TestOptionsKey:
    """The coalescing key of a frozen :class:`Options`: computed once per
    object, with ``extra`` (the one mutable value) re-read on every call."""

    #: ``options_digest(options_key(o))`` of the 25 fields (the key as
    #: first defined, less its ``recycle_space`` entry); it names
    #: ``recycle:<digest>`` cache kinds and ``okey_digest`` records
    PINNED = {
        "default": "2e09dfbda769",
        "gcrodr": "9ead806ef124",
        "hpddm_extra": "62d3d23d47e5",
    }

    @staticmethod
    def _options() -> dict[str, Options]:
        return {
            "default": Options(),
            "gcrodr": Options(krylov_method="gcrodr", recycle=10,
                              gmres_restart=40, tol=1e-10, service_pmax=8,
                              orthogonalization="imgs"),
            "hpddm_extra": parse_hpddm_args([
                "-hpddm_krylov_method", "bgmres",
                "-hpddm_gmres_restart", "25", "-hpddm_service_shards", "4",
                "-hpddm_schwarz_overlap", "2", "-hpddm_level_1_eps", "0.5"]),
        }

    def test_digests_are_pinned(self):
        opts = self._options()
        assert opts["hpddm_extra"].extra == {"schwarz_overlap": "2",
                                             "level_1_eps": "0.5"}
        got = {name: options_digest(options_key(o))
               for name, o in opts.items()}
        assert got == self.PINNED
        # the second call reads the stored key: the same tuple object
        for o in opts.values():
            assert options_key(o) is options_key(o)

    def test_mutating_extra_changes_the_key(self):
        o = self._options()["hpddm_extra"]
        before = options_key(o)
        o.extra["schwarz_overlap"] = "3"
        after = options_key(o)
        assert after != before
        assert options_digest(after) == "7d9fc37372f4"
        o.extra["schwarz_overlap"] = "2"
        assert options_key(o) == before
        assert options_digest(options_key(o)) == self.PINNED["hpddm_extra"]

    def test_mutated_extra_splits_coalescing_groups(self):
        a = poisson()
        o = Options(krylov_method="gmres", tol=1e-9,
                    service_flush="queue_drained")
        svc = SolveService(options=o)
        svc.submit(a, np.ones(a.shape[0]))
        o.extra["tag"] = "late"
        svc.submit(a, np.ones(a.shape[0]))
        svc.flush()
        assert len(svc.batches) == 2
        assert len({rep["okey_digest"] for rep in svc.batches}) == 2


# ---------------------------------------------------------------------------
# flush policies
# ---------------------------------------------------------------------------
class TestFlushPolicies:
    def test_batch_full_dispatches_eagerly(self):
        a = poisson()
        opts = Options(krylov_method="gmres", tol=1e-8, service_pmax=4,
                       service_flush="batch_full")
        svc = SolveService(options=opts)
        reqs = [svc.submit(a, np.full(a.shape[0], float(j + 1)))
                for j in range(6)]
        # first four dispatched the moment the group filled; two remain
        assert [r.done for r in reqs] == [True] * 4 + [False] * 2
        assert svc.pending == 2
        svc.flush()
        assert all(r.done for r in reqs)

    def test_queue_drained_waits_for_flush(self):
        a = poisson()
        opts = Options(krylov_method="gmres", tol=1e-8, service_pmax=2,
                       service_flush="queue_drained")
        svc = SolveService(options=opts)
        reqs = [svc.submit(a, np.ones(a.shape[0])) for _ in range(5)]
        assert not any(r.done for r in reqs)
        # result() flushes just that group
        res = svc.result(reqs[0])
        assert res is reqs[0].result
        assert all(r.done for r in reqs)

    def test_explicit_requires_flush(self):
        a = poisson()
        opts = Options(krylov_method="gmres", tol=1e-8,
                       service_flush="explicit")
        svc = SolveService(options=opts)
        req = svc.submit(a, np.ones(a.shape[0]))
        with pytest.raises(RuntimeError, match="explicit"):
            svc.result(req)
        svc.flush()
        assert svc.result(req).converged.all()


# ---------------------------------------------------------------------------
# cost attribution
# ---------------------------------------------------------------------------
class TestAttribution:
    def test_per_request_costs_conserve_batch_ledger(self):
        a = poisson()
        rng = make_rng(3)
        opts = Options(krylov_method="gcrodr", recycle=5, tol=1e-9,
                       service_pmax=6, service_flush="queue_drained")
        svc = SolveService(options=opts, preconditioner="lu")
        reqs = [svc.submit(a, rng.standard_normal(a.shape[0]))
                for _ in range(13)]
        with ledger.install() as ambient:
            svc.flush()
        # sum of per-request attributed costs == sum of batch ledgers
        total = CostLedger()
        for req in reqs:
            total.merge(req.result.info["service"]["cost"])
        batch_total = CostLedger()
        for rep in svc.batches:
            batch_total.merge(rep["ledger"])
        assert total.counts() == batch_total.counts()
        # and the ambient ledger saw exactly the batch totals
        assert ambient.counts() == batch_total.counts()

    def test_width_one_cost_is_its_reference_share(self):
        """A width-1 request's cost is its column's share of the batch
        ledger, as the per-share reference split computes it."""
        a = poisson()
        rng = make_rng(4)
        opts = Options(krylov_method="gcrodr", recycle=5, tol=1e-9,
                       service_pmax=6, service_flush="queue_drained")
        svc = SolveService(options=opts, preconditioner="lu")
        reqs = [svc.submit(a, rng.standard_normal(
                    (a.shape[0], 2) if j % 4 == 1 else a.shape[0]))
                for j in range(11)]
        svc.flush()
        checked = 0
        for rep in svc.batches:
            shares = reference_split(rep["ledger"], rep["width"])
            for req in (reqs[i] for i in rep["request_indices"]):
                j0, j1 = req.result.info["service"]["columns"]
                if j1 - j0 != 1:
                    continue
                cost = req.result.info["service"]["cost"]
                assert cost.counts() == shares[j0].counts()
                assert list(cost.flops) == list(shares[j0].flops)
                assert list(cost.calls) == list(shares[j0].calls)
                checked += 1
        assert checked == 8

    def test_split_is_exact_for_any_ledger(self):
        led = CostLedger()
        led.reduction(nbytes=56, count=7)
        led.p2p(messages=3, nbytes=1000)
        from repro.util.ledger import Kernel
        led.flop(Kernel.SPMM, 1234567.25)
        led.flop(Kernel.BLAS3, 99.75)
        led.event("solve", 5)
        for parts in (1, 2, 3, 7):
            merged = CostLedger()
            for share in led.split(parts):
                merged.merge(share)
            assert merged.counts() == led.counts()

    def test_amortized_share_smaller_than_solo_cost(self):
        a = poisson()
        rng = make_rng(4)
        rhs = [rng.standard_normal(a.shape[0]) for _ in range(8)]
        opts = Options(krylov_method="gmres", tol=1e-9, service_pmax=8,
                       service_flush="queue_drained")
        svc = SolveService(options=opts, preconditioner="lu")
        reqs = [svc.submit(a, b) for b in rhs]
        svc.flush()
        share = reqs[0].result.info["service"]["cost"]
        with ledger.install() as solo:
            solve(a, rhs[0], options=Options(krylov_method="gmres", tol=1e-9))
        # a coalesced request is charged fewer reductions than going alone
        assert share.reductions < solo.reductions


# ---------------------------------------------------------------------------
# service + recycling + verify
# ---------------------------------------------------------------------------
class TestServiceRecycling:
    def test_recycle_state_reused_across_batches(self):
        a = poisson()
        rng = make_rng(5)
        opts = Options(krylov_method="gcrodr", recycle=6, gmres_restart=25,
                       tol=1e-9, service_pmax=4,
                       service_flush="queue_drained")
        svc = SolveService(options=opts, preconditioner="lu")
        for _ in range(2):
            reqs = [svc.submit(a, rng.standard_normal(a.shape[0]))
                    for _ in range(4)]
            svc.flush()
            assert all(r.result.converged.all() for r in reqs)
        assert svc.batches[0]["method"] == "pgcrodr"
        first = reqs[0].result.info["service"]
        assert first["recycle_cache_hit"] is True
        assert reqs[0].result.info["same_system"] is True

    def test_verify_cheap_on_service_path(self):
        a = poisson()
        opts = Options(krylov_method="gmres", tol=1e-9, verify="cheap",
                       service_flush="queue_drained")
        svc = SolveService(options=opts, preconditioner="lu")
        req = svc.submit(a, np.ones(a.shape[0]))
        svc.flush()
        report = req.result.info["verify"]
        assert report["violations"] == []
        assert report["checks"] > 0


# ---------------------------------------------------------------------------
# Solver reset / fingerprint regression (satellite c)
# ---------------------------------------------------------------------------
class TestSolverReset:
    def _options(self):
        return Options(krylov_method="gcrodr", recycle=5, gmres_restart=20,
                       tol=1e-8)

    def test_reset_clears_recycle_and_same_system(self):
        a = poisson()
        rng = make_rng(6)
        s = Solver(options=self._options())
        s.solve(a, rng.standard_normal(a.shape[0]))
        assert s.recycled is not None
        s.reset()
        assert s.recycled is None and s._last_tag is None \
            and s._last_fingerprint is None
        # next solve against the *same operator object* is a fresh sequence:
        # no same-system fast path, no adopted recycle space
        res = s.solve(a, rng.standard_normal(a.shape[0]))
        assert res.info["same_system"] is not True
        assert res.converged.all()

    def test_in_place_mutation_disables_same_system(self):
        a = poisson()
        rng = make_rng(7)
        s = Solver(options=self._options())
        s.solve(a, rng.standard_normal(a.shape[0]))
        r2 = s.solve(a, rng.standard_normal(a.shape[0]))
        assert r2.info["same_system"] is True  # unchanged operator
        a.data *= 1.5  # same object/tag, different values
        r3 = s.solve(a, rng.standard_normal(a.shape[0]))
        assert r3.info["same_system"] is not True
        assert r3.converged.all()

    def test_shared_cache_gives_cross_instance_fast_path(self):
        a = poisson()
        rng = make_rng(8)
        cache = SetupCache(max_entries=4)
        s1 = Solver(options=self._options(), setup_cache=cache)
        s1.solve(a, rng.standard_normal(a.shape[0]))
        s2 = Solver(options=self._options(), setup_cache=cache)
        res = s2.solve(a, rng.standard_normal(a.shape[0]))
        assert res.info["same_system"] is True
        assert res.converged.all()
        # ...but a reset still forces the fresh path on the same instance
        s2.reset()
        assert s2.recycled is None
