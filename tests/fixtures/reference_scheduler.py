"""The list-and-sort async scheduler queue — oracle for the indexed one.

This is the queue :class:`repro.AsyncSolveService` ran on before its
groups became urgency heaps with per-shard indexes: every coalescing
group is a plain list, the most urgent group is found by scanning every
queued request of the shard, a dispatch re-sorts the whole group, a
shard's depth is re-summed over all groups and the next deadline timer
is found by scanning every queued request.  O(q) per submit and per pump,
so it left ``src/``; it is kept only as the reference the heap-ordered
service must match record for record — batch ids, members, widths,
shards, dispatch and completion times, rejections (see
``tests/test_scheduler.py``).

Only the queue is replaced: admission, ``_enqueue``, ``_dispatch`` and the
clock are inherited, so the two services differ in nothing but how they
store and order what is queued.
"""

from __future__ import annotations

import math

from repro.service.scheduler import AsyncRequest, AsyncSolveService


class ListSortAsyncSolveService(AsyncSolveService):
    """:class:`AsyncSolveService` over per-group lists, sorted on demand."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._lists: dict[tuple, list[AsyncRequest]] = {}
        self._key_shard: dict[tuple, int] = {}

    def shard_depth(self, shard: int) -> int:
        return sum(len(reqs) for key, reqs in self._lists.items()
                   if self._key_shard[key] == shard)

    def _push(self, key: tuple, req: AsyncRequest) -> None:
        self._lists.setdefault(key, []).append(req)
        self._key_shard[key] = req.shard

    def _best_key(self, shard: int) -> tuple | None:
        keys = [key for key, reqs in self._lists.items()
                if reqs and self._key_shard[key] == shard]
        if not keys:
            return None
        return min(keys,
                   key=lambda k: min(r.urgency() for r in self._lists[k]))

    def _take_chunk(self, reqs: list[AsyncRequest]
                    ) -> tuple[list[AsyncRequest], list[AsyncRequest]]:
        """Greedy prefix with total width <= p_max; families never split."""
        if reqs[0].shifts:
            return list(reqs), []
        chunk = [reqs[0]]
        width = reqs[0].width
        i = 1
        while i < len(reqs) and width + reqs[i].width <= self.p_max:
            chunk.append(reqs[i])
            width += reqs[i].width
            i += 1
        return chunk, reqs[i:]

    def _pump(self, shard: int, *, allow_partial: bool) -> bool:
        if self._busy_until[shard] > self.now:
            return False
        key = self._best_key(shard)
        if key is None:
            return False
        group = sorted(self._lists[key], key=AsyncRequest.urgency)
        if not allow_partial:
            head_due = group[0].deadline <= self.now
            bound = self.options.service_queue_depth
            queue_full = bool(bound) and self.shard_depth(shard) >= bound
            if sum(r.width for r in group) < self.p_max \
                    and not head_due and not queue_full:
                return False
        chunk, rest = self._take_chunk(group)
        if rest:
            self._lists[key] = rest
        else:
            del self._lists[key]
            del self._key_shard[key]
        self._dispatch(shard, key, chunk)
        return True

    def _next_deadline(self) -> tuple[float, int]:
        best_t, best_s = math.inf, -1
        for key, reqs in self._lists.items():
            shard = self._key_shard[key]
            if self._busy_until[shard] > self.now:
                continue
            for r in reqs:
                if r.deadline < best_t:
                    best_t, best_s = r.deadline, shard
        return best_t, best_s
