"""Async multi-tenant front end: deadlines, admission control, sharding.

:class:`AsyncSolveService` wraps the synchronous coalescing core of
:class:`~repro.service.service.SolveService` in a deterministic
event-loop scheduler running in *simulated* time: batch durations come
from :func:`repro.perfmodel.modeled_time` applied to each batch's
``CostLedger``, never from the wall clock, so every run of a seeded
workload is byte-identical.  On top of the base class it adds

* **deadlines and priorities** — each request carries an absolute
  deadline and an integer priority; dispatch order within a shard is
  earliest-deadline-first among equal priorities (``urgency()``), and a
  queued group whose earliest deadline arrives while its shard is idle
  is dispatched immediately rather than waiting to fill;
* **admission control and backpressure** — with
  ``Options.service_queue_depth > 0`` a submit against a full shard
  queue is *rejected* (an explicit :attr:`AsyncRequest.rejected` reason,
  never an exception and never a silent drop), as is a request whose
  deadline already passed or whose right-hand side or initial guess is
  malformed (``invalid_input``: wrong row count, non-numeric, non-finite);
* **sharding** — operators are partitioned across per-shard
  :class:`~repro.service.shard.ShardedSetupCache` instances by
  consistent hashing; each shard is an independent execution lane with
  its own queue depth, busy clock, and eviction pressure;
* **cross-batch pipelining** — while a shard executes one coalesced
  block, later arrivals accumulate in its queue; the completion event
  dispatches whatever accumulated as the next block, so a busy shard
  always has a batch in flight and one forming;
* **exact cost attribution** — batches run through the base class's
  ``_solve_batch``, so the private-ledger merge/split conservation
  contract is untouched: summed per-request shares equal the batch
  ledger bit-for-bit, sharded or not.

The synchronous service remains the correctness oracle
(``-hpddm_service_mode {sync,async}``): at equal inputs both modes
produce the same solutions, the async mode merely reorders batches in
modeled time.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..krylov.base import SolveResult
from ..perfmodel.estimate import modeled_time
from ..trace import tracer as trace
from ..util.options import Options
from .service import SolveRequest, SolveService, _RequestGroup
from .shard import ShardedSetupCache

__all__ = ["AsyncRequest", "AsyncSolveService", "make_service"]

#: rank count at which batch durations are modeled (the paper's Curie
#: strong-scaling configuration; matches ``scripts/ci.py`` and the
#: service bench)
DEFAULT_NRANKS = 64


@dataclass
class AsyncRequest(SolveRequest):
    """A queued solve with scheduling metadata, in simulated seconds."""

    arrival: float = 0.0
    deadline: float = math.inf  #: absolute; ``inf`` = none
    priority: int = 0           #: larger = more urgent
    tenant: str = "default"
    shard: int = 0
    rejected: str | None = None  #: admission-refusal reason, else ``None``
    dispatch_time: float | None = None
    completion_time: float | None = None

    def urgency(self) -> tuple[int, float, int]:
        """Sort key: priority first, then EDF, then arrival order."""
        return (-self.priority, self.deadline, self.index)

    @property
    def latency(self) -> float | None:
        """Arrival-to-completion time in modeled seconds, once solved."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival


class _ShardGroup(_RequestGroup):
    """A group queued on one shard that knows its earliest deadline.

    Urgency order is priority first, so the heap head need not hold the
    earliest deadline; ``due`` is a second heap on ``(deadline, index)``
    with lazy deletion (``taken`` = dispatched entries not yet popped).
    """

    __slots__ = ("shard", "due", "taken")

    def __init__(self, shard: int) -> None:
        super().__init__()
        self.shard = shard
        self.due: list[tuple[float, int]] = []
        self.taken: set[int] = set()

    def push(self, req: AsyncRequest) -> None:
        super().push(req)
        if req.deadline != math.inf:
            heapq.heappush(self.due, (req.deadline, req.index))

    def pop_chunk(self, p_max: int) -> list[AsyncRequest]:
        chunk = super().pop_chunk(p_max)
        self.taken.update(r.index for r in chunk if r.deadline != math.inf)
        return chunk

    def next_deadline(self) -> float:
        """Earliest deadline still queued (``inf`` if none)."""
        due, taken = self.due, self.taken
        while due and due[0][1] in taken:
            taken.remove(heapq.heappop(due)[1])
        return due[0][0] if due else math.inf


class AsyncSolveService(SolveService):
    """Deadline-scheduled, sharded, pipelined solve service.

    Simulated time only advances through :meth:`advance_to` and
    :meth:`drain`; :meth:`submit` stamps requests with the current clock.
    All service knobs come from ``options``: ``service_shards`` (lanes and
    cache shards), ``service_queue_depth`` (per-shard admission bound,
    0 = unbounded), ``service_deadline`` (default relative deadline,
    0 = none), plus the inherited ``service_pmax`` / ``service_flush`` /
    ``service_cache_entries``.

    Parameters are those of :class:`SolveService` plus ``nranks``, the
    rank count at which the perfmodel converts batch ledgers to modeled
    durations.

    Scheduling cost, with ``q`` requests queued and ``G`` non-empty
    groups: a submit is O(log q) to queue plus one pump; a pump is
    O(G on that shard) to pick the group and O(log q) per request it
    dispatches; a clock step is O(G) to find the next deadline timer.
    Nothing scans or re-sorts the queued requests themselves.
    """

    def __init__(self, *, options: Options | None = None,
                 preconditioner: Any = None,
                 precond_opts: dict[str, Any] | None = None,
                 cache: ShardedSetupCache | None = None,
                 nranks: int = DEFAULT_NRANKS):
        opts = options or Options()
        if cache is None:
            cache = ShardedSetupCache(opts.service_shards,
                                      opts.service_cache_entries)
        super().__init__(options=opts, preconditioner=preconditioner,
                         precond_opts=precond_opts, cache=cache)
        self.nranks = int(nranks)
        self.n_shards = cache.n_shards
        self.now = 0.0
        self._busy_until = [0.0] * self.n_shards
        self._events: list[tuple[float, int, int]] = []  # (time, seq, shard)
        self._event_seq = 0
        # indexes over the base class's ``_queue``, kept by _push/_pop_chunk
        self._shard_groups: list[dict[tuple, _ShardGroup]] = [
            {} for _ in range(self.n_shards)]
        self._depth = [0] * self.n_shards
        self.completed: list[AsyncRequest] = []
        self.rejections: list[AsyncRequest] = []
        self.queue_high_water = [0] * self.n_shards
        self.deadline_misses = 0

    # -- admission -------------------------------------------------------
    def shard_depth(self, shard: int) -> int:
        """Queued (admitted, undispatched) requests on one shard."""
        return self._depth[shard]

    def _admit(self, req: AsyncRequest, shard: int) -> str | None:
        """Admission decision: ``None`` admits, else a rejection reason."""
        if req.rejected is not None:
            return req.rejected
        depth = self.options.service_queue_depth
        if depth and self.shard_depth(shard) >= depth:
            return "queue_full"
        if req.deadline <= self.now:
            return "deadline_unmeetable"
        return None

    # -- submission ------------------------------------------------------
    def _refuse_invalid(self, req: AsyncRequest, problem: str) -> None:
        """Refused like any other admission failure: an open-loop replay
        keeps going and counts the request under ``invalid_input``."""
        req.rejected = "invalid_input"

    def _enqueue(self, req: AsyncRequest) -> AsyncRequest:
        shard = self.cache.shard_of(req.fingerprint)
        req.shard = shard
        tr = trace.current()
        reason = self._admit(req, shard)
        if reason is not None:
            req.rejected = reason
            self.rejections.append(req)
            tr.metrics.counter("service_rejected_total").inc(reason=reason)
            return req
        self._push(self._request_key(req), req)
        depth = self.shard_depth(shard)
        self.queue_high_water[shard] = max(self.queue_high_water[shard],
                                           depth)
        tr.metrics.gauge("service_queue_depth").set(depth, shard=str(shard))
        if self.flush_policy != "explicit":
            self._pump(shard, allow_partial=False)
        return req

    def submit(self, a: Any, b: np.ndarray, *,
               options: Options | None = None,
               x0: np.ndarray | None = None,
               deadline: float | None = None, priority: int = 0,
               tenant: str = "default", fingerprint=None,
               shifts=None, mass: Any = None) -> AsyncRequest:
        """Queue one request at the current simulated time.

        ``deadline`` is *relative* to now (``None`` uses
        ``options.service_deadline``; 0 means none).  The returned handle
        either joins a shard queue or comes back with
        :attr:`AsyncRequest.rejected` set — check it before calling
        :meth:`result`.  ``fingerprint``, ``shifts`` and ``mass`` as in
        :meth:`~repro.service.service.SolveService.submit`: a family's
        union of shifts is one dispatch on the owning shard.
        """
        opts = options or self.options
        rel = opts.service_deadline if deadline is None else deadline
        return self._enqueue(self._make_request(
            a, b, options=opts, x0=x0, fingerprint=fingerprint,
            shifts=shifts, mass=mass, cls=AsyncRequest, arrival=self.now,
            # 0 = no deadline; negative = already expired (rejected below)
            deadline=self.now + rel if rel != 0 else math.inf,
            priority=priority, tenant=tenant))

    # -- scheduling core -------------------------------------------------
    def _push(self, key: tuple, req: AsyncRequest) -> None:
        group = self._queue.get(key)
        if group is None:
            group = self._queue[key] = _ShardGroup(req.shard)
            self._shard_groups[req.shard][key] = group
        group.push(req)
        self._depth[req.shard] += 1

    def _pop_chunk(self, key: tuple) -> list[AsyncRequest]:
        group = self._queue[key]
        chunk = super()._pop_chunk(key)
        self._depth[group.shard] -= len(chunk)
        if not group:
            del self._shard_groups[group.shard][key]
        return chunk

    def _best_group(self, shard: int) -> tuple[tuple, _ShardGroup] | None:
        """``(key, group)`` holding the shard's most urgent queued request.

        Scans the items, not the keys: hashing a coalescing key (a
        fingerprint and an options key of every field) would cost more
        than the comparison it serves.
        """
        groups = self._shard_groups[shard]
        if not groups:
            return None
        return min(groups.items(), key=lambda kv: kv[1].heap[0][0])

    def _pump(self, shard: int, *, allow_partial: bool) -> bool:
        """Dispatch at most one batch on an idle shard; True if it did.

        With ``allow_partial=False`` (eager path at submit) a batch goes
        out only when a group is full (``service_pmax`` columns), its
        most urgent request's deadline has arrived, or the shard's queue
        hit its admission bound — dispatching on a full queue is what
        makes the bound *backpressure* rather than deadlock, so rejections
        only happen while the shard is genuinely busy.
        ``allow_partial=True`` (completion events, deadline timers, drain)
        dispatches whatever accumulated: that is the pipelining step.
        """
        if self._busy_until[shard] > self.now:
            return False
        best = self._best_group(shard)
        if best is None:
            return False
        key, group = best
        if not allow_partial:
            head_due = group.head.deadline <= self.now
            bound = self.options.service_queue_depth
            queue_full = bool(bound) and self.shard_depth(shard) >= bound
            if group.width < self.p_max \
                    and not head_due and not queue_full:
                return False
        self._dispatch(shard, key, self._pop_chunk(key))
        return True

    def _dispatch(self, shard: int, key: tuple,
                  chunk: list[AsyncRequest]) -> None:
        self._solve_batch(key, chunk)
        rec = self.batches[-1]
        duration = float(modeled_time(rec["ledger"], self.nranks,
                                      block_width=rec["width"]).total)
        start = self.now
        end = start + duration
        self._busy_until[shard] = end
        self._event_seq += 1
        heapq.heappush(self._events, (end, self._event_seq, shard))
        rec.update(shard=shard, dispatch_time=start, completion_time=end,
                   modeled_duration=duration)
        tr = trace.current()
        for req in chunk:
            req.dispatch_time = start
            req.completion_time = end
            missed = bool(end > req.deadline)
            if missed:
                self.deadline_misses += 1
                tr.metrics.counter("service_deadline_misses_total").inc(
                    shard=str(shard))
            assert req.result is not None
            req.result.info["service"].update({
                "mode": "async",
                "shard": shard,
                "tenant": req.tenant,
                "priority": req.priority,
                "arrival": req.arrival,
                "dispatch_time": start,
                "completion_time": end,
                "latency": end - req.arrival,
                "deadline": None if math.isinf(req.deadline)
                else req.deadline,
                "deadline_missed": missed,
            })
            self.completed.append(req)
        tr.metrics.gauge("service_queue_depth").set(
            self.shard_depth(shard), shard=str(shard))
        tr.metrics.gauge("service_shard_occupancy").set(
            len(self.cache.shards[shard]), shard=str(shard))

    def _next_deadline(self) -> tuple[float, int]:
        """Earliest queued deadline on an *idle* shard (time, shard).

        Busy shards are excluded: their completion event is already in
        the heap and pumps them the moment they free up.
        """
        best_t, best_s = math.inf, -1
        for group in self._queue.values():
            if self._busy_until[group.shard] > self.now:
                continue
            t = group.next_deadline()
            if t < best_t:
                best_t, best_s = t, group.shard
        return best_t, best_s

    # -- the clock -------------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Run the event loop up to simulated time ``t``.

        Processes batch completions (which pipeline the next accumulated
        batch out) and deadline timers (which force partial dispatch of a
        due group on an idle shard) in time order.  ``t`` must be finite
        (``ValueError`` otherwise): the clock never reaches ``inf``, and
        :meth:`drain` is the way to run everything that is queued.
        """
        if not math.isfinite(t):
            raise ValueError(f"advance_to needs a finite time, got {t!r}; "
                             "use drain() to run everything queued")
        while True:
            ev_t = self._events[0][0] if self._events else math.inf
            dl_t, dl_shard = self._next_deadline()
            nxt = min(ev_t, dl_t)
            if nxt > t:
                break
            self.now = nxt
            if ev_t <= dl_t:
                _, _, shard = heapq.heappop(self._events)
            else:
                shard = dl_shard
            self._pump(shard, allow_partial=True)
        self.now = max(self.now, t)

    def drain(self) -> list[AsyncRequest]:
        """Dispatch everything queued and run the clock until quiescent."""
        while True:
            progressed = False
            for shard in range(self.n_shards):
                while self._pump(shard, allow_partial=True):
                    progressed = True
            if self._events:
                t, _, shard = heapq.heappop(self._events)
                self.now = max(self.now, t)
                progressed = True
            elif not progressed:
                break
        return self.completed

    # -- results ---------------------------------------------------------
    def flush(self) -> list[AsyncRequest]:
        """Alias of :meth:`drain`, matching the synchronous API."""
        return self.drain()

    def result(self, req: SolveRequest) -> SolveResult:
        """The request's result, draining the loop if still in flight."""
        rejected = getattr(req, "rejected", None)
        if rejected is not None:
            raise RuntimeError(
                f"request {req.index} was rejected at admission "
                f"({rejected}); it has no result")
        if not req.done:
            self.drain()
        assert req.result is not None
        return req.result

    @property
    def makespan(self) -> float:
        """Simulated completion time of the last finished batch."""
        return max(self._busy_until, default=0.0)


def make_service(*, options: Options | None = None,
                 **kwargs: Any) -> SolveService:
    """Build the front end selected by ``options.service_mode``.

    ``"sync"`` returns the blocking :class:`SolveService` oracle;
    ``"async"`` returns :class:`AsyncSolveService` (extra keyword
    arguments such as ``nranks`` are only meaningful there).
    """
    opts = options or Options()
    if opts.service_mode == "async":
        return AsyncSolveService(options=opts, **kwargs)
    kwargs.pop("nranks", None)
    return SolveService(options=opts, **kwargs)
