"""Row-distributed CSR matrix over a virtual process grid.

Mirrors the communication of PETSc's ``MatMPIAIJ``: every rank owns a
contiguous row range, and a halo plan per rank records which ghost columns
it receives from which neighbour.  ``matmat`` is one global ``A @ X`` plus
an O(1) ledger charge replayed from the
:class:`~repro.util.ledger.CostTable` the plans sum to at construction —
numerically the per-rank product *is* the serial product.  The rank-by-rank
execution (per-rank diagonal / off-diagonal blocks, halo gather, local
products, charged event by event) is a test oracle under
``tests/fixtures/``, held to bit-identical ledger counts.

This is the operator handed to the Krylov solvers for the scalability
benchmarks (Figs. 6-8): the solvers never know they are running on a
simulated distribution.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..simmpi.grid import VirtualGrid
from ..simmpi.halo import HaloPlan, aggregate_halo_cost, build_halo_plans
from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import as_block, next_tag

__all__ = ["DistributedCSR"]


class DistributedCSR:
    """Row-distributed sparse matrix with PETSc-style halo plans.

    Parameters
    ----------
    a:
        the global sparse matrix (any scipy format; converted to CSR).
    grid:
        row distribution; defaults to a balanced contiguous split over
        ``nranks``.
    nranks:
        convenience alternative to passing a grid.
    """

    def __init__(self, a: sp.spmatrix, grid: VirtualGrid | None = None, *,
                 nranks: int = 1):
        a = sp.csr_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError("DistributedCSR expects a square matrix")
        self.global_matrix = a
        self.grid = grid if grid is not None else VirtualGrid(a.shape[0], nranks)
        if self.grid.n != a.shape[0]:
            raise ValueError("grid size does not match matrix size")
        self.shape = a.shape
        self.dtype = a.dtype
        self.nnz = a.nnz
        # monotonic identity: never reused after GC, unlike id() (which
        # could spuriously re-enable the same-system fast path)
        self.tag = next_tag()
        self.plans: list[HaloPlan] = build_halo_plans(a, self.grid)
        # aggregate cost of one apply, replayed in O(1) by matmat
        self.cost = aggregate_halo_cost(self.plans, flops_per_col=2.0 * self.nnz)

    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        return np.asarray(self.global_matrix.diagonal())

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Distributed SpMM: halo exchange + local products, as one product."""
        x = as_block(x)
        if x.shape[0] != self.shape[0]:
            raise ValueError(f"operand has {x.shape[0]} rows, expected {self.shape[0]}")
        p = x.shape[1]
        led = ledger.current()
        y = as_block(np.asarray(self.global_matrix @ x))
        self.cost.charge(led, itemsize=x.itemsize, p=p,
                         kernel=Kernel.SPMV if p == 1 else Kernel.SPMM)
        led.event("operator_apply", p)
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matmat(x)

    # ------------------------------------------------------------------
    def communication_volume(self, p: int = 1) -> tuple[int, int]:
        """(messages, bytes) of one SpMM with block width ``p``."""
        return self.cost.p2p_messages, self.cost.p2p_items * self.dtype.itemsize * p

    def __repr__(self) -> str:
        return (f"DistributedCSR(n={self.shape[0]}, nnz={self.nnz}, "
                f"nranks={self.grid.nranks})")
