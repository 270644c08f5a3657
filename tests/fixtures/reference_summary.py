"""The tree-walk trace summary — oracle for the streaming one.

This is ``Tracer.summary()`` as it was before the tracer started folding
each span's exclusive cost into its per-name row at close: walk every
recorded root, call :meth:`Span.exclusive` on every closed span, add it to
the span's name.  O(spans) per call — a service that asks once per batch
paid O(batches x spans) — so it left ``src/``; it is kept only as the
reference the O(names) summary must equal as a dict, at any instant, for
any span tree (see ``tests/test_trace.py``).
"""

from __future__ import annotations

from typing import Any

from repro.trace import Tracer


def reference_summary(tracer: Tracer) -> dict[str, Any]:
    """Aggregate per-name exclusive costs over every recorded root."""
    by_name: dict[str, dict[str, float]] = {}
    for root in tracer.roots:
        for span in root.walk():
            if span.cost is None:
                continue
            excl = span.exclusive()
            row = by_name.setdefault(
                span.name, {"count": 0, "reductions": 0,
                            "reduction_bytes": 0, "flops": 0.0})
            row["count"] += 1
            row["reductions"] += excl.reductions
            row["reduction_bytes"] += excl.reduction_bytes
            row["flops"] += excl.total_flops()
    return {"level": tracer.level, "spans": tracer._count,
            "by_name": {k: by_name[k] for k in sorted(by_name)}}
