"""Structured span tracer: *where* inside a solve the ledger costs occur.

The :class:`~repro.util.ledger.CostLedger` enforces the paper's counting
arguments as *totals* (a GCRO-DR cycle costs ``2(m-k)`` reductions where a
GMRES cycle costs ``m``, section III-D) — but a total cannot say whether a
regression crept into orthogonalization, recycle maintenance or the SpMM.
The tracer opens nested spans around solver phases
(``solve > cycle > {arnoldi_step, ortho, recycle_update, eig,
least_squares}``, plus ``service.batch``, ``setup.*`` and — at the
``"full"`` level — individual simulated-MPI collectives) and closes each
one with the :meth:`CostLedger.diff` of its window, so every reduction,
byte and flop is attributed to exactly one span's *exclusive* cost:

    sum over the span tree of ``span.exclusive().counts()``
        == root window ``counts()``           (bit-for-bit, both exec modes)

The attribution is pure observation: spans snapshot and diff the ambient
ledger but never charge it, so installing a tracer cannot change
``counts()`` — the invariant ``tests/test_trace.py`` locks down.

Accounting is *streaming*: a span folds its exclusive cost into the
tracer's per-name row the moment it closes (O(1) per span), so
:meth:`Tracer.summary` is O(names) however many spans were recorded —
a service calls it once per batch.  The tree walk it replaced lives on as
the oracle ``tests/fixtures/reference_summary.py``.

Ambient-install pattern (mirrors :mod:`repro.util.ledger`): a process-wide
null tracer swallows spans when none is installed, so the default fast
path pays one singleton attribute lookup per instrumentation site.  Wall
clock never enters: span "times" for the Chrome export are *modeled* from
the ledger counts by :mod:`repro.perfmodel` (see :mod:`repro.trace.export`),
which keeps traces reproducible bit-for-bit across runs and machines.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from ..util import ledger
from ..util.ledger import CostLedger
from .metrics import MetricsRegistry, NULL_METRICS

__all__ = ["Span", "Tracer", "NullTracer", "TRACE_LEVELS", "current",
           "install", "tracer_for"]

#: accepted values of ``Options.trace`` / ``-hpddm_trace``
TRACE_LEVELS = ("off", "summary", "full")


class Span:
    """One closed (or still-open) region of a solve.

    ``cost`` is the :meth:`CostLedger.diff` of the span's window — the
    events of the span *including* its children.  :meth:`exclusive`
    subtracts the children's windows, which is the quantity that sums to
    the root window over the whole tree: exactly on the integer counters,
    to rounding on flops (some charges are fractional, e.g. ``p**3 / 3``).
    """

    __slots__ = ("name", "index", "attrs", "parent", "children", "cost",
                 "_before", "_ledger", "_closed_children")

    def __init__(self, name: str, index: int, attrs: dict[str, Any],
                 parent: "Span | None"):
        self.name = name
        self.index = index
        self.attrs = attrs
        self.parent = parent
        self.children: list[Span] = []
        self.cost: CostLedger | None = None
        self._ledger: CostLedger | None = None
        self._before: CostLedger | None = None
        #: [reductions, reduction_bytes, flops] of the same-ledger children
        #: that closed while this span was still open
        self._closed_children = [0, 0, 0.0]

    # -- tree queries ------------------------------------------------------
    def exclusive(self) -> CostLedger:
        """Window cost minus the children's windows (this span's own events).

        Children recorded against a *different* ledger (a nested
        ``ledger.install``, e.g. a service batch) are skipped: their events
        never reached this span's ledger directly, only via an explicit
        ``merge`` that the window already counts once.
        """
        if self.cost is None:
            raise RuntimeError(f"span {self.name!r} is still open")
        out = self.cost.counts_snapshot()
        for child in self.children:
            if child.cost is None or child._ledger is not self._ledger:
                continue
            out.reductions -= child.cost.reductions
            out.reduction_bytes -= child.cost.reduction_bytes
            out.p2p_messages -= child.cost.p2p_messages
            out.p2p_bytes -= child.cost.p2p_bytes
            out.flops.subtract(child.cost.flops)
            out.calls.subtract(child.cost.calls)
        return out

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (including self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict[str, Any]:
        """Recursive plain-data form (counts only — no timers, no objects)."""
        cost = self.cost if self.cost is not None else CostLedger()
        return {
            "name": self.name,
            "index": self.index,
            "attrs": dict(self.attrs),
            "reductions": cost.reductions,
            "reduction_bytes": cost.reduction_bytes,
            "p2p_messages": cost.p2p_messages,
            "p2p_bytes": cost.p2p_bytes,
            "flops": {k: float(v) for k, v in sorted(cost.flops.items())},
            "calls": {k: int(v) for k, v in sorted(cost.calls.items())},
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        nred = self.cost.reductions if self.cost is not None else "?"
        return (f"Span({self.name!r}, index={self.index}, "
                f"children={len(self.children)}, reductions={nred})")


class _OpenSpan:
    """Reusable-shape context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        span = self._span
        span._ledger = ledger.current()
        span._before = span._ledger.counts_snapshot()
        self._tracer._stack.append(span)
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.cost = span._ledger.counts_diff(span._before)
        span._before = None
        self._tracer._fold(span)
        stack = self._tracer._stack
        # tolerate exceptions unwinding through several open spans; a span
        # that outlived its parent is no longer on the stack at all
        if span in stack:
            while stack.pop() is not span:
                pass
        return False


class _NullSpanCM:
    """Singleton no-op span: the cost of tracing when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpanCM()


class Tracer:
    """Collects a forest of cost-attributed spans for one or more solves.

    Parameters
    ----------
    level:
        ``"summary"`` records solver-phase spans; ``"full"`` additionally
        opens :meth:`detail_span` sites (no library module has one, so it
        records what ``"summary"`` records).  ``"off"`` is not a valid
        tracer level — *absence* of a tracer is how tracing is turned off.
    """

    enabled = True

    def __init__(self, level: str = "summary"):
        if level not in TRACE_LEVELS or level == "off":
            raise ValueError(
                f"invalid tracer level {level!r}; expected 'summary' or 'full'")
        self.level = level
        self.roots: list[Span] = []
        self.metrics = MetricsRegistry()
        self._stack: list[Span] = []
        self._count = 0
        #: per-name exclusive totals, kept current by :meth:`_fold`
        self._by_name: dict[str, dict[str, float]] = {}

    @property
    def detail(self) -> bool:
        return self.level == "full"

    def span(self, name: str, **attrs: Any) -> _OpenSpan:
        """Open a nested span; use as a context manager."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._count, attrs, parent)
        self._count += 1
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        return _OpenSpan(self, span)

    def detail_span(self, name: str, **attrs: Any):
        """A span that only materializes at the ``"full"`` level.

        For a hot primitive, so the ``"summary"`` level stays cheap.
        """
        if self.level != "full":
            return _NULL_SPAN
        return self.span(name, **attrs)

    # -- reporting ---------------------------------------------------------
    def _row(self, name: str) -> dict[str, float]:
        row = self._by_name.get(name)
        if row is None:
            row = self._by_name[name] = {"count": 0, "reductions": 0,
                                         "reduction_bytes": 0, "flops": 0.0}
        return row

    def _fold(self, span: Span) -> None:
        """Account a span that just closed: O(1), no tree walk.

        Its exclusive cost — the window minus the same-ledger children
        that closed before it — joins its name's row.  The window is then
        handed to the parent: an open parent will subtract it when it
        closes; a parent that closed first already reported it as its own,
        so it comes off the parent's row now.  Either way the rows are what
        walking the tree with :meth:`Span.exclusive` gives: exactly on counts
        and bytes, to 1e-12 relative on fractional flops (``p**3 / 3``).
        """
        cost = span.cost
        flops = cost.total_flops()
        kids = span._closed_children
        row = self._row(span.name)
        row["count"] += 1
        row["reductions"] += cost.reductions - kids[0]
        row["reduction_bytes"] += cost.reduction_bytes - kids[1]
        row["flops"] += flops - kids[2]
        parent = span.parent
        if parent is None or parent._ledger is not span._ledger:
            return
        if parent.cost is None:
            owed = parent._closed_children
            owed[0] += cost.reductions
            owed[1] += cost.reduction_bytes
            owed[2] += flops
        else:
            row = self._row(parent.name)
            row["reductions"] -= cost.reductions
            row["reduction_bytes"] -= cost.reduction_bytes
            row["flops"] -= flops

    def summary(self) -> dict[str, Any]:
        """Per-name exclusive costs of every span closed so far: O(names)."""
        return {"level": self.level, "spans": self._count,
                "by_name": {k: dict(self._by_name[k])
                            for k in sorted(self._by_name)}}


class NullTracer:
    """Sink installed by default: every instrumentation site is a no-op."""

    enabled = False
    detail = False
    level = "off"
    metrics = NULL_METRICS

    def span(self, name: str, **attrs: Any) -> _NullSpanCM:
        return _NULL_SPAN

    def detail_span(self, name: str, **attrs: Any) -> _NullSpanCM:
        return _NULL_SPAN


_NULL_TRACER = NullTracer()
_STACK: list[Tracer] = []


def current() -> "Tracer | NullTracer":
    """The innermost installed tracer (or the process-wide null sink)."""
    return _STACK[-1] if _STACK else _NULL_TRACER


@contextmanager
def install(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install ``tracer`` (or a fresh summary-level one) as ambient.

    >>> from repro.trace import Tracer, install
    >>> with install(Tracer("summary")) as tr:
    ...     with tr.span("solve"):
    ...         pass
    >>> [s.name for s in tr.roots]
    ['solve']
    """
    tr = tracer if tracer is not None else Tracer()
    _STACK.append(tr)
    try:
        yield tr
    finally:
        _STACK.pop()


def tracer_for(options: Any) -> "Tracer | NullTracer":
    """Resolve the tracer a solve should report to.

    An ambient tracer (installed by the caller — a test, the trace gate, a
    service) always wins; otherwise ``options.trace`` selects a fresh one.
    Returns the null tracer when tracing is off both ways, so callers can
    unconditionally open spans against the result.
    """
    ambient = current()
    if ambient.enabled:
        return ambient
    level = getattr(options, "trace", "off")
    if level == "off":
        return _NULL_TRACER
    return Tracer(level)
