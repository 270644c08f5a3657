"""What an object holds, against the arrays it references.

The memory gate of the direct solver and of its owners: an object built
under ``tracemalloc`` should, after ``gc.collect()``, hold little more than
the numpy arrays reachable from it, each base array counted once.  Memory
kept alive behind a view — a factorization library's own object as the
``.base`` of an array handed out by it — is held but reachable through no
array of its own, so it shows as the gap between the two figures.
"""

from __future__ import annotations

import gc
import tracemalloc
import types
from typing import Any, Callable

import numpy as np


def array_bytes(obj: Any) -> int:
    """Bytes of the numpy arrays reachable from ``obj``, each base once.

    Walks instance attributes and containers.  A view of another array
    counts as its ndarray base; a view of a non-array object counts its own
    bytes only (what the reference pays for on purpose).
    """
    seen: set[int] = set()
    bases: dict[int, int] = {}
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType)):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            base = o
            while isinstance(base.base, np.ndarray):
                base = base.base
            bases[id(base)] = base.nbytes if base.base is None else o.nbytes
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        else:
            stack.extend(getattr(o, "__dict__", {}).values())
    return sum(bases.values())


def traced_bytes(build: Callable[[], Any]) -> tuple[Any, int]:
    """``(build(), bytes allocated by it and still held after gc)``.

    ``build`` runs once before the measured call, so first-call imports and
    caches do not count against the object it returns.
    """
    build()
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = build()
        gc.collect()
        return obj, tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
