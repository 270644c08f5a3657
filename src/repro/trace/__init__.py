"""Observability layer: span tracer, metrics registry, trace exports.

See ``docs/OBSERVABILITY.md`` for the user-facing tour.  The package is
dependency-free beyond numpy (already required) and never reads the wall
clock — every exported "time" is modeled from ledger counts.
"""

from .export import (chrome_trace, chrome_trace_json, counts_signature,
                     modeled_span_seconds)
from .metrics import NULL_METRICS, Counter, Gauge, Histogram, MetricsRegistry
from .tracer import (TRACE_LEVELS, NullTracer, Span, Tracer, current, install,
                     tracer_for)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullTracer",
    "Span",
    "TRACE_LEVELS",
    "Tracer",
    "chrome_trace",
    "chrome_trace_json",
    "counts_signature",
    "current",
    "install",
    "modeled_span_seconds",
    "tracer_for",
]
