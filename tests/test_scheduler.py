"""Property-based and unit tests for the async scheduler and sharding.

The hypothesis tests drive :class:`repro.AsyncSolveService` with random
interleavings of submissions and clock advances, then shadow-replay the
recorded batches against the submission log to check the scheduler's
load-bearing invariants (ISSUE 7):

* every admitted request receives exactly one result;
* coalesced batches never mix operator fingerprints or options digests;
* dispatch is earliest-deadline-first within a shard among equal
  priorities (no deadline inversion at batch granularity);
* summed per-request cost shares equal the batch ledgers **bit-for-bit**
  under any interleaving, sharded and pipelined or not — plus a mutation
  test proving the conservation check fails when a share is dropped.

The indexed queue (urgency heaps, per-shard group sets and depth
counters) is pinned twice: record-for-record parity with the
list-and-sort queue it replaced (``tests/fixtures/reference_scheduler.py``)
and a call-count test that the per-request cost of a traced replay does
not grow with the number of requests.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AsyncSolveService, Options, make_service
from repro.service import (ConsistentHashRouter, SetupCache,
                           ShardedSetupCache, SolveService,
                           operator_fingerprint)
from repro.service.scheduler import AsyncRequest
from repro.trace import Span, Tracer, install as install_tracer
from repro.util.ledger import CostLedger

from conftest import laplacian_1d, make_rng
from fixtures.reference_scheduler import ListSortAsyncSolveService

N = 25  #: tiny operators — the properties are about scheduling, not solving


def _operators(count: int = 4) -> list[sp.csr_matrix]:
    return [laplacian_1d(N, shift=0.3 * (i + 1)) for i in range(count)]


def _service(**opts) -> AsyncSolveService:
    options = Options(krylov_method="gmres", service_mode="async", **opts)
    svc = make_service(options=options, preconditioner="lu")
    assert isinstance(svc, AsyncSolveService)
    return svc


# -- the property harness --------------------------------------------------

#: one driver step: either submit request #i against operator (op % len)
#: with a drawn deadline/priority, or advance the clock by `dt`
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 3),
                  st.sampled_from([0.0, 1e-4, 1e-3]),  # relative deadline
                  st.integers(0, 2)),                  # priority
        st.tuples(st.just("advance"),
                  st.sampled_from([1e-5, 1e-4, 1e-3]))),
    min_size=1, max_size=24)


class _Shadow:
    """Replays the scheduler's decisions against its own submission log."""

    def __init__(self, svc: AsyncSolveService):
        self.svc = svc
        self.pending: dict[int, object] = {}   # admitted, not yet dispatched
        self.seen_batches = 0
        self.dispatched: set[int] = set()

    def note_submit(self, req) -> None:
        if req.rejected is None:
            self.pending[req.index] = req

    def check_new_batches(self) -> None:
        for rec in self.svc.batches[self.seen_batches:]:
            self._check_batch(rec)
        self.seen_batches = len(self.svc.batches)

    def _check_batch(self, rec) -> None:
        members = [self.pending.pop(i) for i in rec["request_indices"]]
        # -- no mixing: one fingerprint, one options digest per batch
        fps = {r.fingerprint.short() for r in members}
        assert fps == {rec["fingerprint"]}, \
            f"batch {rec['batch']} mixed fingerprints {fps}"
        # options compatibility is keyed by the digest recorded on the
        # batch; every member must map to it
        from repro.service import options_digest, options_key
        digests = {options_digest(options_key(r.options)) for r in members}
        assert digests == {rec["okey_digest"]}, \
            f"batch {rec['batch']} mixed options digests"
        # -- exactly-one-result: indices never dispatch twice
        indices = set(rec["request_indices"])
        assert not (indices & self.dispatched)
        self.dispatched |= indices
        # -- EDF at batch granularity: the batch's most urgent member is
        # no less urgent than anything left waiting on the same shard at
        # dispatch time (requests that arrived later are exempt)
        t = rec["dispatch_time"]
        best = min(r.urgency() for r in members)
        for other in self.pending.values():
            if other.shard != rec["shard"] or other.arrival > t:
                continue
            assert best <= other.urgency(), (
                f"batch {rec['batch']} dispatched {best} while more urgent "
                f"{other.urgency()} waited on shard {rec['shard']}")
        # -- within the chunk, members are urgency-sorted (deadline order
        # among equal priorities)
        urgencies = [r.urgency() for r in
                     sorted(members, key=lambda r: rec["request_indices"]
                            .index(r.index))]
        assert urgencies == sorted(urgencies), \
            "chunk not dispatched in urgency order"

    def check_final(self, admitted) -> None:
        assert not self.pending, "drain left admitted requests unsolved"
        for req in admitted:
            assert req.done
            assert req.result is not None
        assert {r.index for r in admitted} == self.dispatched
        # -- bit-exact conservation: per-request shares sum to the batch
        # ledgers, batch by batch and in aggregate
        total_shares = CostLedger()
        for req in admitted:
            total_shares.merge(req.result.info["service"]["cost"])
        total_batches = CostLedger()
        for rec in self.svc.batches:
            total_batches.merge(rec["ledger"])
        assert total_shares.counts() == total_batches.counts(), \
            "summed per-request shares != summed batch ledgers (bit-exact)"


@settings(max_examples=20, deadline=None)
@given(steps=_steps, data=st.data())
def test_scheduler_invariants(steps, data):
    """The four ISSUE-7 properties under random interleavings."""
    svc = _service(service_shards=2, service_pmax=4,
                   service_cache_entries=8)
    ops = _operators()
    rng = make_rng(len(steps))
    shadow = _Shadow(svc)
    admitted = []
    for step in steps:
        if step[0] == "submit":
            _, op, rel, priority = step
            req = svc.submit(ops[op], rng.standard_normal(N),
                             deadline=rel if rel > 0 else None,
                             priority=priority)
            shadow.note_submit(req)
            if req.rejected is None:
                admitted.append(req)
        else:
            svc.advance_to(svc.now + step[1])
        shadow.check_new_batches()
    svc.drain()
    shadow.check_new_batches()
    shadow.check_final(admitted)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dropped_share_breaks_conservation(seed):
    """Mutation test: dropping one cost share must fail the bit-exact
    conservation property (the property test is not vacuously true)."""
    svc = _service(service_shards=2, service_pmax=4)
    ops = _operators()
    rng = make_rng(seed)
    original_split = CostLedger.split

    def lossy_split(self, parts):
        shares = original_split(self, parts)
        shares[0] = CostLedger()  # drop the first column's share
        return shares

    CostLedger.split = lossy_split
    try:
        reqs = [svc.submit(ops[i % 2], rng.standard_normal(N))
                for i in range(6)]
        svc.drain()
    finally:
        CostLedger.split = original_split
    total_shares = CostLedger()
    for req in reqs:
        total_shares.merge(req.result.info["service"]["cost"])
    total_batches = CostLedger()
    for rec in svc.batches:
        total_batches.merge(rec["ledger"])
    assert total_shares.counts() != total_batches.counts(), \
        "conservation check failed to detect a dropped share"


# -- the indexed queue against the list-and-sort reference ------------------

def _schedule_record(svc: AsyncSolveService) -> dict:
    """Everything the scheduler decided, in the order it decided it."""
    return {
        "batches": [(rec["batch"], rec["shard"], rec["request_indices"],
                     rec["width"], rec["dispatch_time"],
                     rec["completion_time"]) for rec in svc.batches],
        "completed": [r.index for r in svc.completed],
        "rejections": [(r.index, r.rejected) for r in svc.rejections],
        "queue_high_water": svc.queue_high_water,
        "deadline_misses": svc.deadline_misses,
        "makespan": svc.makespan,
    }


def _replay(cls, seed: int, *, n: int, rate: float, deadlines, priorities: int,
            burst: int = 1, **opts) -> AsyncSolveService:
    """Seeded open-loop replay: exponential gaps, `burst` arrivals per
    instant, operator / deadline / priority drawn per request."""
    svc = cls(options=Options(krylov_method="gmres", service_mode="async",
                              **opts), preconditioner="lu")
    ops = _operators(6)
    rng = make_rng(seed)
    t = 0.0
    for i in range(n):
        if i % burst == 0:
            t += rng.exponential(burst / rate)
        svc.advance_to(t)
        rel = float(rng.choice(deadlines))
        svc.submit(ops[int(rng.integers(len(ops)))], rng.standard_normal(N),
                   deadline=rel if rel > 0 else None,
                   priority=int(rng.integers(priorities)))
    svc.drain()
    return svc


#: one shard serves ~5.5e4 requests/s at pmax=4 (a batch is ~7.2e-5 s)
_SCENARIOS = {
    # 4x capacity: every group is full, queues grow for the whole replay
    "overload": dict(n=240, rate=4e5, deadlines=[0.0], priorities=1,
                     service_shards=2, service_pmax=4),
    # 0.2x capacity: groups rarely fill, deadline timers do the dispatching
    "deadline_timer": dict(n=160, rate=2e4, deadlines=[1e-4, 3e-4, 0.0],
                           priorities=1, service_shards=2, service_pmax=4),
    # priorities outrank deadlines: urgency order != deadline order
    "priority": dict(n=240, rate=2e5, deadlines=[2e-4, 1e-3, 0.0],
                     priorities=3, service_shards=3, service_pmax=4),
    # bursts against a bounded queue: queue_full rejections
    "bounded_queue": dict(n=240, rate=3e5, deadlines=[2e-3], priorities=2,
                          burst=12, service_shards=2, service_pmax=4,
                          service_queue_depth=6),
}


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
@pytest.mark.parametrize("seed", [0, 1])
def test_heap_queue_matches_list_and_sort_reference(scenario, seed):
    kw = _SCENARIOS[scenario]
    new = _replay(AsyncSolveService, seed, **kw)
    ref = _replay(ListSortAsyncSolveService, seed, **kw)
    assert _schedule_record(new) == _schedule_record(ref)
    assert not new.pending and not ref._lists
    # each scenario exercises what its name says
    widths = [rec["width"] for rec in new.batches]
    if scenario == "overload":
        assert max(new.queue_high_water) > 40
        assert sum(widths) / len(widths) > 3.5
    elif scenario == "deadline_timer":
        assert sum(w < 4 for w in widths) > 20
    elif scenario == "priority":
        assert {r.priority for r in new.completed} == {0, 1, 2}
    else:
        assert {r.rejected for r in new.rejections} == {"queue_full"}


@settings(max_examples=25, deadline=None)
@given(steps=_steps)
def test_heap_queue_matches_reference_under_random_interleavings(steps):
    """Discrete times and deadlines make equal deadlines on different
    shards common: the tie-breaking order is part of the contract."""
    ops = _operators()
    record = {}
    for cls in (AsyncSolveService, ListSortAsyncSolveService):
        svc = cls(options=Options(krylov_method="gmres", service_mode="async",
                                  service_shards=2, service_pmax=4,
                                  service_queue_depth=5),
                  preconditioner="lu")
        rng = make_rng(len(steps))
        for step in steps:
            if step[0] == "submit":
                _, op, rel, priority = step
                svc.submit(ops[op], rng.standard_normal(N),
                           deadline=rel if rel > 0 else None,
                           priority=priority)
            else:
                svc.advance_to(svc.now + step[1])
        svc.drain()
        record[cls] = _schedule_record(svc)
    assert record[AsyncSolveService] == record[ListSortAsyncSolveService]


def test_failed_batch_leaves_no_stale_deadline_timer(monkeypatch):
    """A batch that raises takes its requests out of the queue for good:
    the deadline index must not keep waking the clock for them."""
    svc = _service(service_shards=1, service_pmax=8)
    a = _operators(1)[0]
    svc.submit(a, make_rng(10).standard_normal(N), deadline=1e-4)

    def boom(key, chunk):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(svc, "_solve_batch", boom)
    with pytest.raises(RuntimeError, match="blew up"):
        svc.advance_to(1e-4)
    monkeypatch.undo()
    assert svc.shard_depth(0) == 0 and not svc.pending
    svc.advance_to(1.0)  # returns: no timer left to fire
    assert svc.now == 1.0


def _count_calls(monkeypatch, owner, name: str) -> list[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_traced_replay_cost_is_linear_in_requests(monkeypatch):
    """Deterministic linearity gate (call counts, not timers): doubling
    the requests of an overloaded, traced replay may at most double the
    bookkeeping.  With a summary that walked every span per batch and a
    queue that was scanned per pump these grew 4x."""
    counters = {
        "Span.exclusive": _count_calls(monkeypatch, Span, "exclusive"),
        "CostLedger.snapshot": _count_calls(monkeypatch, CostLedger,
                                            "snapshot"),
        "CostLedger.counts_snapshot": _count_calls(monkeypatch, CostLedger,
                                                   "counts_snapshot"),
        "AsyncRequest.urgency": _count_calls(monkeypatch, AsyncRequest,
                                             "urgency"),
    }
    counts = {}
    for n in (300, 600):
        for c in counters.values():
            c[0] = 0
        with install_tracer(Tracer("summary")) as tr:
            svc = _replay(AsyncSolveService, 3, n=n, rate=4e5,
                          deadlines=[0.0, 1e-3], priorities=2,
                          service_shards=2, service_pmax=4)
        assert len(svc.completed) == n
        counts[n] = {name: c[0] for name, c in counters.items()}
        counts[n]["spans"] = tr.summary()["spans"]
    for name, small in counts[300].items():
        assert counts[600][name] <= 2.2 * small, (name, counts)
    # one urgency key per request, and a window per span — not per summary
    assert counts[600]["AsyncRequest.urgency"] == 600
    assert counts[600]["CostLedger.counts_snapshot"] == counts[600]["spans"]


# -- unit tests: router and sharded cache ----------------------------------

class TestConsistentHashRouter:
    def test_deterministic_and_in_range(self):
        ops = _operators(16)
        router = ConsistentHashRouter(4)
        shards = [router.route(operator_fingerprint(a)) for a in ops]
        assert shards == [ConsistentHashRouter(4).route(
            operator_fingerprint(a)) for a in ops]
        assert set(shards) <= set(range(4))
        assert len(set(shards)) > 1  # spreads across shards

    def test_removing_a_shard_only_remaps_its_keys(self):
        """The consistent-hashing stability property."""
        ops = _operators(32)
        fps = [operator_fingerprint(a) for a in ops]
        big, small = ConsistentHashRouter(5), ConsistentHashRouter(4)
        moved = 0
        for fp in fps:
            before, after = big.route(fp), small.route(fp)
            if before <= 3:
                assert after == before, \
                    "key moved although its shard survived the resize"
            else:
                moved += 1
        assert moved < len(fps)  # only shard 4's keys remapped

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRouter(0)
        with pytest.raises(ValueError):
            ConsistentHashRouter(2, replicas=0)


class TestShardedSetupCache:
    def test_routes_consistently_and_aggregates_stats(self):
        cache = ShardedSetupCache(3, max_entries=4)
        ops = _operators(6)
        for a in ops:
            fp = operator_fingerprint(a)
            assert cache.get(fp, "lu") is None          # miss
            cache.put(fp, "lu", object())
            assert cache.get(fp, "lu") is not None      # hit, same shard
            assert fp in cache
            assert cache.shard_of(fp) == cache.router.route(fp)
        stats = cache.stats()
        assert stats["total_hits"] == len(ops)
        assert stats["total_misses"] == len(ops)
        assert stats["entries"] == len(cache) == len(ops)
        assert len(stats["shards"]) == 3
        assert sum(s["entries"] for s in stats["shards"]) == len(ops)

    def test_eviction_pressure_is_per_shard(self):
        """Satellite 3: eviction accounting under sharding — flooding the
        shard that owns one fingerprint never evicts other shards."""
        cache = ShardedSetupCache(2, max_entries=2)
        ops = _operators(12)
        fps = [operator_fingerprint(a) for a in ops]
        by_shard = {0: [], 1: []}
        for fp in fps:
            by_shard[cache.shard_of(fp)].append(fp)
        assert by_shard[0] and by_shard[1]
        victim = by_shard[0][0]
        cache.put(victim, "lu", "keep-me")
        # flood the *other* shard far past its capacity
        for fp in by_shard[1]:
            cache.put(fp, "lu", "flood")
        assert victim in cache, "cross-shard eviction leaked"
        assert cache.shards[0].evictions == 0
        expected = max(0, len(by_shard[1]) - 2)
        assert cache.shards[1].evictions == expected
        assert cache.evictions == expected
        assert cache.stats()["evictions"] == expected

    def test_invalidate_all_and_one(self):
        cache = ShardedSetupCache(2, max_entries=4)
        fps = [operator_fingerprint(a) for a in _operators(4)]
        for fp in fps:
            cache.put(fp, "lu", 1)
        cache.invalidate(fps[0])
        assert fps[0] not in cache
        cache.invalidate()
        assert len(cache) == 0


# -- unit tests: scheduler behaviours --------------------------------------

class TestAdmissionControl:
    def test_queue_full_rejects_when_shard_busy(self):
        svc = _service(service_shards=1, service_pmax=4,
                       service_queue_depth=2)
        ops = _operators(1)
        rng = make_rng(1)
        # a full queue on an *idle* shard dispatches (backpressure, not
        # deadlock): the second submit flushes a width-2 batch
        first = [svc.submit(ops[0], rng.standard_normal(N))
                 for _ in range(2)]
        assert all(r.done for r in first)
        # shard now busy; the bound admits two more, then rejects
        held = [svc.submit(ops[0], rng.standard_normal(N)) for _ in range(3)]
        reasons = [r.rejected for r in held]
        assert reasons == [None, None, "queue_full"]
        rejected = held[-1]
        assert svc.rejections == [rejected]
        with pytest.raises(RuntimeError, match="rejected"):
            svc.result(rejected)
        svc.drain()
        assert all(r.done for r in held[:2])
        assert not rejected.done

    def test_expired_deadline_rejected(self):
        svc = _service(service_shards=1)
        svc.advance_to(1.0)
        req = svc.submit(_operators(1)[0], make_rng(2).standard_normal(N),
                         deadline=-0.5)
        assert req.rejected == "deadline_unmeetable"

    def test_default_deadline_from_options(self):
        svc = _service(service_shards=1, service_deadline=1e-3)
        req = svc.submit(_operators(1)[0], make_rng(3).standard_normal(N))
        assert req.deadline == pytest.approx(1e-3)
        svc.drain()
        assert req.result.info["service"]["deadline"] == pytest.approx(1e-3)


class TestClock:
    """``advance_to`` takes finite times only; ``drain`` runs everything."""

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_on_idle_service_raises(self, t):
        svc = _service(service_shards=2)
        with pytest.raises(ValueError, match="finite"):
            svc.advance_to(t)
        assert svc.now == 0.0 and svc.pending == 0

    def test_non_finite_time_with_a_queued_request_raises(self):
        svc = _service(service_shards=1, service_pmax=8)
        svc.advance_to(2e-5)
        req = svc.submit(_operators(1)[0], make_rng(11).standard_normal(N))
        assert not req.done  # under-full, no deadline: waits
        with pytest.raises(ValueError, match="drain"):
            svc.advance_to(math.inf)
        assert svc.now == 2e-5 and svc.pending == 1 and not req.done
        svc.drain()
        assert req.done and math.isfinite(svc.now)


class TestDeadlineDispatch:
    def test_due_deadline_forces_partial_dispatch(self):
        """A queued group whose deadline arrives goes out under-full."""
        svc = _service(service_shards=1, service_pmax=8)
        req = svc.submit(_operators(1)[0], make_rng(4).standard_normal(N),
                         deadline=1e-4)
        assert not req.done  # under-full, waiting
        svc.advance_to(1e-4)
        assert req.done, "deadline timer did not dispatch the batch"
        assert req.result.info["service"]["batch_width"] == 1
        assert req.dispatch_time == pytest.approx(1e-4)

    def test_priority_preempts_earlier_deadline_of_lower_priority(self):
        svc = _service(service_shards=1, service_pmax=2)
        ops = _operators(2)
        rng = make_rng(5)
        low = svc.submit(ops[0], rng.standard_normal(N), deadline=1e-3,
                         priority=0)
        high = svc.submit(ops[1], rng.standard_normal(N), deadline=5e-3,
                          priority=1)
        svc.drain()
        assert high.dispatch_time <= low.dispatch_time

    def test_deadline_miss_is_recorded(self):
        svc = _service(service_shards=1, service_pmax=1)
        # an extremely tight deadline: the batch completes after it
        req = svc.submit(_operators(1)[0], make_rng(6).standard_normal(N),
                         deadline=1e-12)
        svc.drain()
        assert req.result.info["service"]["deadline_missed"] is True
        assert svc.deadline_misses == 1


class TestPipelining:
    def test_arrivals_during_batch_form_the_next_batch(self):
        """Cross-batch pipelining: requests accumulating while a shard is
        busy are dispatched as one block at the completion event."""
        svc = _service(service_shards=1, service_pmax=4)
        ops = _operators(1)
        rng = make_rng(7)
        first = [svc.submit(ops[0], rng.standard_normal(N))
                 for _ in range(4)]  # fills pmax -> dispatches, shard busy
        assert all(r.done for r in first)
        late = [svc.submit(ops[0], rng.standard_normal(N))
                for _ in range(3)]   # accumulate behind the running batch
        assert not any(r.done for r in late)
        svc.advance_to(svc.makespan)  # completion event pipelines them out
        assert all(r.done for r in late)
        assert len(svc.batches) == 2
        assert svc.batches[1]["width"] == 3
        assert svc.batches[1]["dispatch_time"] == pytest.approx(
            svc.batches[0]["completion_time"])

    def test_sync_async_equal_solutions(self):
        """The sync oracle and the async scheduler agree numerically."""
        ops = _operators(3)
        rng = make_rng(8)
        rhs = [rng.standard_normal(N) for _ in range(9)]
        results = {}
        for mode in ("sync", "async"):
            svc = make_service(
                options=Options(krylov_method="gmres", service_mode=mode,
                                service_pmax=4, service_shards=2),
                preconditioner="lu")
            reqs = [svc.submit(ops[i % 3], b) for i, b in enumerate(rhs)]
            svc.flush()
            results[mode] = [np.asarray(svc.result(r).x) for r in reqs]
            assert all(r.result.converged.all() for r in reqs)
        for xs, xa in zip(results["sync"], results["async"]):
            np.testing.assert_allclose(xs, xa, rtol=1e-10, atol=1e-12)

    def test_make_service_dispatches_on_mode(self):
        sync = make_service(options=Options(service_mode="sync"))
        assert type(sync) is SolveService
        async_ = make_service(options=Options(service_mode="async"))
        assert isinstance(async_, AsyncSolveService)
        assert isinstance(async_.cache, ShardedSetupCache)

    def test_explicit_policy_defers_to_drain(self):
        svc = _service(service_shards=1, service_pmax=2,
                       service_flush="explicit")
        rng = make_rng(9)
        reqs = [svc.submit(_operators(1)[0], rng.standard_normal(N))
                for _ in range(4)]
        assert not any(r.done for r in reqs)  # no eager dispatch
        svc.drain()
        assert all(r.done for r in reqs)


# -- unit tests: per-(fingerprint, kind) cache counters --------------------

class TestCacheCounterRegression:
    def test_two_digests_one_fingerprint_distinct_counters(self):
        """Satellite 3 regression: one fingerprint probed under two
        different options digests in the same flush wave must hit two
        distinct counters, not double-count one."""
        cache = SetupCache(max_entries=4)
        a = _operators(1)[0]
        fp = operator_fingerprint(a)
        # two options digests -> two recycle kinds against one fingerprint
        cache.get(fp, "recycle:aaaaaaaaaaaa")  # miss
        cache.get(fp, "recycle:bbbbbbbbbbbb")  # miss (distinct counter)
        cache.put(fp, "recycle:aaaaaaaaaaaa", object())
        cache.get(fp, "recycle:aaaaaaaaaaaa")  # hit
        cache.get(fp, "recycle:bbbbbbbbbbbb")  # still a miss
        per_key = cache.key_stats(fp)
        assert per_key["recycle:aaaaaaaaaaaa"] == {"hits": 1, "misses": 1}
        assert per_key["recycle:bbbbbbbbbbbb"] == {"hits": 0, "misses": 2}
        # the aggregate view stays consistent with the per-key counters
        stats = cache.stats()
        assert stats["total_hits"] == 1
        assert stats["total_misses"] == 3
        assert stats["misses"]["recycle:bbbbbbbbbbbb"] == 2

    def test_same_kind_two_fingerprints_do_not_merge(self):
        cache = SetupCache(max_entries=4)
        a, b = _operators(2)
        fa, fb = operator_fingerprint(a), operator_fingerprint(b)
        cache.get(fa, "lu")
        cache.get(fb, "lu")
        cache.put(fa, "lu", 1)
        cache.get(fa, "lu")
        assert cache.key_stats(fa)["lu"] == {"hits": 1, "misses": 1}
        assert cache.key_stats(fb)["lu"] == {"hits": 0, "misses": 1}
        assert cache.stats()["misses"]["lu"] == 2  # aggregate per kind

    def test_service_flush_wave_counts_per_digest(self):
        """End to end through the service: same operator, two recycling
        option sets in one flush wave — the recycle probes must not
        double-count under one counter key."""
        a = _operators(1)[0]
        fp = operator_fingerprint(a)
        opts1 = Options(krylov_method="gcrodr", recycle=3, gmres_restart=10,
                        service_flush="queue_drained")
        opts2 = Options(krylov_method="gcrodr", recycle=4, gmres_restart=10,
                        service_flush="queue_drained")
        svc = SolveService(options=opts1, preconditioner="lu")
        rng = make_rng(10)
        for opts in (opts1, opts2):
            for _ in range(2):
                svc.submit(a, rng.standard_normal(N), options=opts)
        svc.flush()
        per_key = svc.cache.key_stats(fp)
        recycle_kinds = [k for k in per_key if k.startswith("recycle:")]
        assert len(recycle_kinds) == 2, \
            "two options digests must probe two distinct recycle counters"
        for kind in recycle_kinds:
            assert per_key[kind]["misses"] == 1  # one cold probe each
