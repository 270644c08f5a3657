"""Consistent-hash sharding of setup caches over operator fingerprints.

A multi-tenant front end cannot serve every operator out of one LRU: a
burst of distinct operators from one tenant would evict every other
tenant's factorizations.  Sharding partitions the fingerprint space so
each shard owns an independent :class:`~repro.service.cache.SetupCache`
with its own capacity and its own eviction clock — eviction pressure in
one shard never touches another.

Placement uses a consistent-hash ring (virtual replicas per shard, BLAKE2b
point hashes) over the *value* fingerprint of the operator, so

* the mapping is a pure function of ``(fingerprint, n_shards, replicas)``
  — byte-deterministic across runs and processes (no ``PYTHONHASHSEED``
  dependence), and
* resizing the ring from ``n`` to ``n - 1`` shards only remaps the keys
  that lived on the removed shard; every other operator keeps its cached
  setup (the classic consistent-hashing stability argument).

:class:`ShardedSetupCache` composes the router with per-shard caches
behind the full ``SetupCache`` API, so :class:`repro.SolveService` and the
async scheduler can treat either transparently.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from typing import Any, Callable

from .cache import SetupCache
from .fingerprint import Fingerprint

__all__ = ["ConsistentHashRouter", "ShardedSetupCache"]


def _point(label: str) -> int:
    """Deterministic position of ``label`` on the hash ring."""
    return int.from_bytes(
        hashlib.blake2b(label.encode(), digest_size=8).digest(), "big")


class ConsistentHashRouter:
    """Consistent-hash ring mapping fingerprints to shard indices.

    Parameters
    ----------
    n_shards:
        number of shards (>= 1).
    replicas:
        virtual nodes per shard.  More replicas smooth the load split at
        the cost of a larger (still tiny) ring; 64 keeps the max/mean
        shard load under ~1.3 for Zipf-weighted traffic.
    """

    def __init__(self, n_shards: int, replicas: int = 64):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        points = []
        for shard in range(self.n_shards):
            for replica in range(self.replicas):
                points.append((_point(f"shard{shard}:{replica}"), shard))
        points.sort()
        self._ring = [p for p, _ in points]
        self._shards = [s for _, s in points]

    def route(self, fp: Fingerprint) -> int:
        """Shard index owning ``fp`` (successor clockwise on the ring).

        ``fp``'s ring point depends on ``fp`` alone, and ``fp`` is frozen:
        it is hashed once and stored on the fingerprint.
        """
        key = fp.__dict__.get("_ring_point")
        if key is None:
            key = _point(f"{fp.structure}:{fp.values}")
            object.__setattr__(fp, "_ring_point", key)
        i = bisect.bisect_right(self._ring, key)
        if i == len(self._ring):
            i = 0
        return self._shards[i]

    def __repr__(self) -> str:
        return (f"ConsistentHashRouter(n_shards={self.n_shards}, "
                f"replicas={self.replicas})")


class ShardedSetupCache:
    """``SetupCache``-compatible facade over consistently-hashed shards.

    ``max_entries`` is the capacity of *each* shard, matching the
    ``service_cache_entries`` semantics documented in ``docs/OPTIONS.md``:
    total capacity is ``n_shards * max_entries``.  Hit/miss counters
    remain per-(fingerprint, kind) inside each shard; ``stats()``
    aggregates them and adds a per-shard breakdown under ``"shards"``.
    """

    def __init__(self, n_shards: int, max_entries: int = 32,
                 replicas: int = 64):
        self.router = ConsistentHashRouter(n_shards, replicas)
        self.max_entries = int(max_entries)
        self.shards = [SetupCache(max_entries) for _ in range(n_shards)]

    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    def shard_of(self, fp: Fingerprint) -> int:
        """Index of the shard owning ``fp``."""
        return self.router.route(fp)

    # -- SetupCache API, routed ------------------------------------------
    def get(self, fp: Fingerprint, kind: str) -> Any | None:
        return self.shards[self.router.route(fp)].get(fp, kind)

    def put(self, fp: Fingerprint, kind: str, artifact: Any) -> None:
        self.shards[self.router.route(fp)].put(fp, kind, artifact)

    def get_or_build(self, fp: Fingerprint, kind: str,
                     builder: Callable[[], Any]) -> tuple[Any, bool]:
        return self.shards[self.router.route(fp)].get_or_build(
            fp, kind, builder)

    def adopt_from(self, fp_new: Fingerprint, fp_prev: Fingerprint,
                   kinds: list[str] | None = None) -> list[str]:
        """Carry recycle artifacts across shards (see ``SetupCache``).

        ``fp_prev`` and ``fp_new`` may hash to different shards; the
        artifacts are read from the previous operator's shard and written
        into the new operator's shard, preserving the foreign fingerprint
        stamp so the adoption-boundary repair still fires.
        """
        if fp_new == fp_prev:
            return []
        src = self.shards[self.router.route(fp_prev)]
        dst = self.shards[self.router.route(fp_new)]
        if src is dst:
            return src.adopt_from(fp_new, fp_prev, kinds)
        prev = src._entries.get(fp_prev)
        if not prev:
            return []
        if kinds is None:
            kinds = [k for k in prev
                     if k.startswith("recycle:")
                     or k.startswith("family_recycle:")]
        cur = dst._entries.get(fp_new, {})
        adopted: list[str] = []
        for kind in kinds:
            if kind not in prev or kind in cur:
                continue
            artifact = prev[kind]
            copier = getattr(artifact, "copy", None)
            if callable(copier):
                artifact = copier()
            dst.put(fp_new, kind, artifact)
            adopted.append(kind)
        return adopted

    def invalidate(self, fp: Fingerprint | None = None,
                   kind: str | None = None) -> None:
        if fp is None:
            for shard in self.shards:
                shard.invalidate()
            return
        self.shards[self.router.route(fp)].invalidate(fp, kind)

    def fingerprints(self) -> list[Fingerprint]:
        """Cached operators, shard-major, LRU-first within each shard."""
        out: list[Fingerprint] = []
        for shard in self.shards:
            out.extend(shard.fingerprints())
        return out

    def key_stats(self, fp: Fingerprint) -> dict[str, dict[str, int]]:
        return self.shards[self.router.route(fp)].key_stats(fp)

    @property
    def evictions(self) -> int:
        return sum(shard.evictions for shard in self.shards)

    @property
    def hits(self) -> Counter:
        total: Counter = Counter()
        for shard in self.shards:
            total.update(shard.hits)
        return total

    @property
    def misses(self) -> Counter:
        total: Counter = Counter()
        for shard in self.shards:
            total.update(shard.misses)
        return total

    def stats(self) -> dict[str, Any]:
        per_shard = [shard.stats() for shard in self.shards]
        agg_hits: Counter = Counter()
        agg_misses: Counter = Counter()
        for s in per_shard:
            agg_hits.update(s["hits"])
            agg_misses.update(s["misses"])
        return {
            "entries": sum(s["entries"] for s in per_shard),
            "max_entries": self.max_entries,
            "n_shards": self.n_shards,
            "hits": dict(agg_hits),
            "misses": dict(agg_misses),
            "total_hits": sum(s["total_hits"] for s in per_shard),
            "total_misses": sum(s["total_misses"] for s in per_shard),
            "evictions": sum(s["evictions"] for s in per_shard),
            "shards": per_shard,
        }

    def __contains__(self, fp: Fingerprint) -> bool:
        return fp in self.shards[self.router.route(fp)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __repr__(self) -> str:
        return (f"ShardedSetupCache(n_shards={self.n_shards}, "
                f"entries={len(self)}, "
                f"max_entries_per_shard={self.max_entries})")
