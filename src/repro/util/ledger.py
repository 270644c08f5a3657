"""Cost ledger: the accounting backbone of the simulated MPI run.

The scalability arguments of the paper are *counting* arguments — e.g. a
GCRO-DR cycle costs ``2(m-k)`` global reductions where a GMRES cycle costs
``m`` (section III-D).  Every kernel in the solvers reports to the ledger
(global reductions, flops, and the halo exchange of a row-partitioned
operator), so benchmarks can verify those counts exactly and the
performance model in :mod:`repro.perfmodel` can convert them into modeled
wall-clock times for a target machine.

A ledger is installed with a context manager and consulted through the
module-level :func:`current` accessor; a process-wide null ledger swallows
events when none is installed so instrumentation costs almost nothing in
the serial fast path.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["CostLedger", "CostTable", "current", "install", "Kernel"]


class Kernel:
    """Canonical kernel names used for flop accounting.

    Grouping by arithmetic intensity matters: the machine model assigns
    memory-bound kernels (SpMV, BLAS-2 triangular solves) a much lower
    effective flop rate than compute-bound BLAS-3 kernels, which is exactly
    the effect exploited by (pseudo-)block methods in the paper (Fig. 6).
    """

    SPMV = "spmv"              # sparse matrix x vector (memory bound)
    SPMM = "spmm"              # sparse matrix x dense block (higher intensity)
    BLAS1 = "blas1"            # axpy / dot
    BLAS2 = "blas2"            # gemv, single-RHS triangular solve
    BLAS3 = "blas3"            # gemm, blocked triangular solve
    FACTORIZATION = "factorization"
    PRECOND = "precond"
    EIG = "eig"                # small dense (redundant) eigenproblems
    QR = "qr"                  # small dense (redundant) QR


@dataclass
class CostLedger:
    """Accumulates communication and computation events.

    Attributes
    ----------
    reductions:
        number of global all-reduce style synchronizations (each costs
        ``log2(P)`` latency-bound hops on a tree).
    reduction_bytes:
        payload carried by those reductions.
    p2p_messages / p2p_bytes:
        point-to-point (halo exchange) traffic.
    flops:
        Counter keyed by :class:`Kernel` name.
    calls:
        Counter of high-level events (operator applications, preconditioner
        applications, restarts, ...).

    Determinism invariant
    ---------------------
    Every field except ``timers`` is deterministic: two runs that execute
    the same algorithm charge bit-identical values (integers, or floats
    produced by integer-valued arithmetic below 2^53).  ``timers`` is the
    *only* wall-clock quantity on the ledger and is therefore quarantined:
    it never appears in :meth:`counts` (the tuple every conservation and
    optimized-path-vs-oracle check is stated over), it is never split
    by :meth:`split` (shares would not be reproducible), and the trace
    layer never copies it into span costs (:meth:`counts_snapshot`).  ``merge`` does carry timers across
    (summing wall-clock is still meaningful for profiling) but nothing
    downstream may treat the result as a conserved quantity.
    ``scripts/lint_repro.py`` enforces the containment: this module is the
    only place under ``src/`` allowed to read the clock.
    """

    reductions: int = 0
    reduction_bytes: int = 0
    p2p_messages: int = 0
    p2p_bytes: int = 0
    flops: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    timers: dict[str, float] = field(default_factory=dict)

    #: False on real ledgers; the null sink overrides it.  Callers that
    #: need actual accounting (e.g. the trace layer) test this instead of
    #: the private class.
    is_null = False

    # -- communication ----------------------------------------------------
    def reduction(self, nbytes: int = 8, count: int = 1) -> None:
        self.reductions += count
        self.reduction_bytes += nbytes * count

    def p2p(self, messages: int, nbytes: int) -> None:
        self.p2p_messages += messages
        self.p2p_bytes += nbytes

    # -- computation -------------------------------------------------------
    def flop(self, kernel: str, count: float) -> None:
        self.flops[kernel] += count

    def event(self, name: str, count: int = 1) -> None:
        self.calls[name] += count

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock seconds under ``name`` (non-deterministic).

        Timers are profiling garnish, excluded from :meth:`counts` and
        :meth:`split` by the determinism invariant above — never assert on
        them and never feed them into modeled-time or trace exports.
        """
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timers[name] = self.timers.get(name, 0.0) + time.perf_counter() - t0

    # -- arithmetic --------------------------------------------------------
    def merge(self, other: "CostLedger") -> None:
        """Add ``other``'s totals onto this ledger (timers included).

        Used to replay a batch-scoped ledger onto the ambient one after a
        coalesced solve, so nesting a private ledger is invisible to the
        caller's accounting.  The null ledger overrides this as a no-op.
        """
        self.reductions += other.reductions
        self.reduction_bytes += other.reduction_bytes
        self.p2p_messages += other.p2p_messages
        self.p2p_bytes += other.p2p_bytes
        self.flops.update(other.flops)
        self.calls.update(other.calls)
        for name, seconds in other.timers.items():
            self.timers[name] = self.timers.get(name, 0.0) + seconds

    def split(self, parts: int) -> "list[CostLedger]":
        """Split into ``parts`` ledgers whose totals sum back *exactly*.

        The per-request attribution of a coalesced block solve: integer
        quantities are divided with the remainder spread over the first
        ``v % parts`` shares; flop counts (floats, but integer-valued in
        practice — every charge is ``2 * nnz * p``-shaped) are split on
        their integer part the same way, with any fractional residue
        credited to share 0.  Summation of the shares is then exact in
        floating point (integer adds below 2^53), so

            merged = CostLedger(); [merged.merge(s) for s in led.split(p)]

        satisfies ``merged.counts() == led.counts()`` bit-for-bit — the
        conservation property ``tests/test_service.py`` asserts.  Timers
        (wall-clock, not conserved quantities) stay on the parent.

        Counter keys are visited in sorted order so the shares are
        independent of charge arrival order: two ledgers with equal
        ``counts()`` split into shares with identical serialized form
        (key order included), which keeps per-request attribution
        reproducible run-to-run.

        Cost: one ``divmod`` per counter and one pass over the shares,
        held bitwise to the per-share split of
        ``tests/fixtures/reference_split.py``.
        """
        if parts < 1:
            raise ValueError("parts must be >= 1")
        # one divmod per counter: share j takes q + 1 when j < r, else q
        ints = []
        for v in (self.reductions, self.reduction_bytes, self.p2p_messages,
                  self.p2p_bytes):
            q, r = divmod(v, parts)
            ints.append([q + 1] * r + [q] * (parts - r))
        flops = [Counter() for _ in range(parts)]
        for kern in sorted(self.flops):
            v = self.flops[kern]
            iv = int(v)
            q, r = divmod(iv, parts)
            hi, lo = float(q + 1), float(q)
            first = (hi if r else lo) + (v - float(iv))
            if first:
                flops[0][kern] = first
            _fill(flops, kern, hi, 1, r)
            _fill(flops, kern, lo, max(r, 1), parts)
        calls = [Counter() for _ in range(parts)]
        for name in sorted(self.calls):
            q, r = divmod(self.calls[name], parts)
            _fill(calls, name, q + 1, 0, r)
            _fill(calls, name, q, r, parts)
        # positional: (reductions, reduction_bytes, p2p_messages, p2p_bytes,
        # flops, calls), the field order
        return [CostLedger(*fields) for fields in zip(*ints, flops, calls)]

    def counts_snapshot(self) -> "CostLedger":
        """Copy of every deterministic field; ``timers`` stay behind.

        The window start of a trace span: spans never report wall clock,
        so they neither copy the timers nor diff them.
        """
        out = CostLedger(
            reductions=self.reductions,
            reduction_bytes=self.reduction_bytes,
            p2p_messages=self.p2p_messages,
            p2p_bytes=self.p2p_bytes,
        )
        out.flops = Counter(self.flops)
        out.calls = Counter(self.calls)
        return out

    def snapshot(self) -> "CostLedger":
        """Deep-ish copy for before/after diffing."""
        out = self.counts_snapshot()
        out.timers = dict(self.timers)
        return out

    def counts_diff(self, before: "CostLedger") -> "CostLedger":
        """:meth:`diff` of the deterministic fields only (no ``timers``)."""
        out = CostLedger(
            reductions=self.reductions - before.reductions,
            reduction_bytes=self.reduction_bytes - before.reduction_bytes,
            p2p_messages=self.p2p_messages - before.p2p_messages,
            p2p_bytes=self.p2p_bytes - before.p2p_bytes,
        )
        out.flops = Counter(self.flops)
        out.flops.subtract(before.flops)
        out.calls = Counter(self.calls)
        out.calls.subtract(before.calls)
        return out

    def diff(self, before: "CostLedger") -> "CostLedger":
        """Return the events accumulated since ``before`` (a snapshot)."""
        out = self.counts_diff(before)
        out.timers = {
            k: self.timers.get(k, 0.0) - before.timers.get(k, 0.0)
            for k in set(self.timers) | set(before.timers)
        }
        return out

    def total_flops(self) -> float:
        return float(sum(self.flops.values()))

    def counts(self) -> tuple:
        """Every accounted quantity as an exactly-comparable tuple.

        Timers are excluded (wall-clock is never reproducible); all other
        fields are integer- or exactly-representable-float-valued, so two
        runs that charge the same events compare equal with ``==``.  This
        is the quantity every conservation invariant — a distributed
        primitive against its rank-by-rank test oracle included — is
        stated over.
        """
        return (self.reductions, self.reduction_bytes, self.p2p_messages,
                self.p2p_bytes, dict(self.flops), dict(self.calls))

    def summary(self) -> str:
        lines = [
            f"reductions      : {self.reductions} ({self.reduction_bytes} B)",
            f"p2p messages    : {self.p2p_messages} ({self.p2p_bytes} B)",
        ]
        for k in sorted(self.flops):
            lines.append(f"flops[{k:<13}]: {self.flops[k]:.3e}")
        for k in sorted(self.calls):
            lines.append(f"calls[{k:<13}]: {self.calls[k]}")
        return "\n".join(lines)


def _fill(counters: "list[Counter]", key: str, value, lo: int,
          hi: int) -> None:
    """``counters[j][key] = value`` for ``lo <= j < hi``, unless zero."""
    if value:
        for c in counters[lo:hi]:
            c[key] = value


@dataclass(frozen=True)
class CostTable:
    """Precomputed aggregate cost of one distributed primitive.

    The primitive runs as a single vectorized operation on the global
    array, so the ledger is not charged event-by-event from inside per-rank
    loops.  Instead, the owning object (the halo of a row-partitioned
    :class:`repro.krylov.base.Operator`, the event counts of the Schwarz
    preconditioner's fused batch) sums its per-rank costs once at
    construction into a ``CostTable`` and replays them in O(1) per apply.
    ``*_items`` fields count payload *elements per column*; the byte volume
    is ``items * itemsize * p`` at charge time (message counts do not scale
    with the block width ``p`` — paper §V-B2).

    Charging from a table is bit-identical to the per-rank charges it
    summarizes: message/byte/flop totals are integer-valued and exactly
    representable, so the global product and its rank-by-rank test oracle
    produce equal ledgers.
    """

    p2p_messages: int = 0
    p2p_items: int = 0
    reductions: int = 0
    reduction_items: int = 0
    flops_per_col: float = 0.0
    events_per_col: tuple[tuple[str, int], ...] = ()

    def charge(self, led: "CostLedger", *, itemsize: int = 8, p: int = 1,
               kernel: str | None = None) -> None:
        """Replay this table's events onto ``led`` for a width-``p`` apply."""
        if self.p2p_messages:
            led.p2p(messages=self.p2p_messages,
                    nbytes=self.p2p_items * itemsize * p)
        if self.reductions:
            led.reduction(nbytes=self.reduction_items * itemsize,
                          count=self.reductions)
        if self.flops_per_col and kernel is not None:
            led.flop(kernel, self.flops_per_col * p)
        for name, count in self.events_per_col:
            led.event(name, count * p)


class _NullLedger(CostLedger):
    """Sink that ignores everything — installed when no ledger is active."""

    is_null = True

    def reduction(self, nbytes: int = 8, count: int = 1) -> None:  # noqa: D102
        pass

    def p2p(self, messages: int, nbytes: int) -> None:  # noqa: D102
        pass

    def flop(self, kernel: str, count: float) -> None:  # noqa: D102
        pass

    def event(self, name: str, count: int = 1) -> None:  # noqa: D102
        pass

    def merge(self, other: CostLedger) -> None:  # noqa: D102
        pass

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        # The base implementation would accumulate ``timers`` entries on
        # this process-wide singleton forever; swallow them instead.
        yield


_NULL = _NullLedger()
_STACK: list[CostLedger] = []


def current() -> CostLedger:
    """Return the innermost installed ledger (or a null sink)."""
    return _STACK[-1] if _STACK else _NULL


@contextmanager
def install(ledger: CostLedger | None = None) -> Iterator[CostLedger]:
    """Install ``ledger`` (or a fresh one) as the active cost ledger.

    >>> with install() as led:
    ...     current().reduction()
    >>> led.reductions
    1
    """
    led = ledger if ledger is not None else CostLedger()
    _STACK.append(led)
    try:
        yield led
    finally:
        _STACK.pop()
