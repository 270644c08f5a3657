"""Collective operations over a virtual grid.

Each collective computes its result exactly (the data all lives in one
address space) as one vectorized numpy operation *and* charges the active
cost ledger with what a real MPI implementation would pay: one logical
"reduction" event per collective — the performance model expands that into
``2 log2(P)`` latency hops plus the bandwidth term.

The rank-by-rank loops a real run would execute are a test oracle under
``tests/fixtures/``: same operations, different blocking, and
*bit-identical* ledger counts, because the reduction payload is the same
array either way.
"""

from __future__ import annotations

import numpy as np

from ..trace import tracer as trace
from ..util import ledger
from .grid import VirtualGrid

__all__ = ["allreduce_sum", "allgather_rows", "dot_columns", "norm_columns"]


def allreduce_sum(grid: VirtualGrid, contributions: list[np.ndarray]) -> np.ndarray:
    """Sum per-rank contributions; one global reduction of the payload size.

    ``contributions`` holds one array per rank (all the same shape).
    """
    if len(contributions) != grid.nranks:
        raise ValueError(f"expected {grid.nranks} contributions, got {len(contributions)}")
    with trace.current().detail_span("simmpi.allreduce_sum"):
        first = np.asarray(contributions[0])
        out = np.stack(contributions).sum(axis=0, dtype=first.dtype)
        ledger.current().reduction(nbytes=out.nbytes)
    return out


def allgather_rows(grid: VirtualGrid, locals_: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-rank row blocks; costs ``P-1`` messages per rank.

    The ledger records the aggregate traffic of a ring allgather (each rank
    receives everyone else's block once).
    """
    if len(locals_) != grid.nranks:
        raise ValueError(f"expected {grid.nranks} blocks, got {len(locals_)}")
    with trace.current().detail_span("simmpi.allgather_rows"):
        out = np.concatenate(locals_, axis=0)
        p = grid.nranks
        if p > 1:
            ledger.current().p2p(messages=p * (p - 1),
                                 nbytes=(p - 1) * out.nbytes)
    return out


def dot_columns(grid: VirtualGrid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column-wise inner products ``<x_j, y_j>``, one global reduction."""
    with trace.current().detail_span("simmpi.dot_columns"):
        out = np.einsum("ij,ij->j", x.conj(), y)
        ledger.current().reduction(nbytes=out.nbytes)
    return out


def norm_columns(grid: VirtualGrid, x: np.ndarray) -> np.ndarray:
    """Column 2-norms via one all-reduce of the squared partial sums."""
    with trace.current().detail_span("simmpi.norm_columns"):
        sq = np.einsum("ij,ij->j", x.conj(), x).real
        ledger.current().reduction(nbytes=sq.nbytes)
    return np.sqrt(sq)
