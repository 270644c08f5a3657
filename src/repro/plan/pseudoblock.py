"""Compiled pseudo-block orthogonalization (gmres / pgcrodr / gmresdr).

:class:`CompiledPseudoBlockOrthogonalizer` inherits the numerics of
:class:`~repro.la.orthogonalization.PseudoBlockOrthogonalizer` — ``begin``,
``step`` and the uncharged ``_pb_*`` cores — and replaces only the parent's
per-call charge derivation with a pre-bound :class:`~repro.plan.ir.NodeCost`
per ``(scheme, j)``, cached across restarts, so the hot loop's ledger
accounting is a table replay.  Counts are bit-identical by construction;
the only data-dependent charge (the cgs2_1r cancellation guard's honest
re-norm) is a ``per_unit`` spec scaled by the core's reported column count.
"""

from __future__ import annotations

import numpy as np

from ..la.orthogonalization import (PseudoBlockOrthogonalizer,
                                    _apply_sketch_core)
from ..util.ledger import Kernel
from .ir import NodeCost, flop_cost, per_unit_reduction, reduction_cost

__all__ = ["CompiledPseudoBlockOrthogonalizer",
           "make_pseudo_block_orthogonalizer"]


class CompiledPseudoBlockOrthogonalizer(PseudoBlockOrthogonalizer):
    """Same contract as the interpreting parent; charges via bound tables."""

    def __init__(self, scheme: str, *, n: int, p: int, dtype,
                 max_cols: int, seed: int = 0):
        super().__init__(scheme, n=n, p=p, dtype=dtype, max_cols=max_cols,
                         seed=seed)
        self._step_costs: dict[int, NodeCost] = {}
        self._guard_cost = per_unit_reduction(8)

    # -- lowering-time charge formulas (the interpreter's, verbatim) -------

    def _bind_step(self, j: int) -> NodeCost:
        n, p = self.n, self.p
        itemsize = self.dtype.itemsize
        if self.scheme == "mgs":
            return (reduction_cost(p * itemsize, count=j + 1)
                    + flop_cost(Kernel.BLAS2, 4.0 * n * p * (j + 1))
                    + reduction_cost(p * 8))
        if self.scheme in ("cgs", "imgs", "cholqr2"):
            passes = 2 if self.scheme == "imgs" else 1
            return (reduction_cost((j + 1) * p * itemsize, count=passes)
                    + flop_cost(Kernel.BLAS3, 4.0 * (j + 1) * n * p * passes)
                    + reduction_cost(p * 8))
        if self.scheme == "cgs2_1r":
            return (reduction_cost(((j + 1) * p + p) * itemsize, count=2)
                    + flop_cost(Kernel.BLAS3,
                                (4.0 * (j + 1) * n * p + 2.0 * n * p) * 2))
        # sketched: the fused candidate reduction, then the sketch flops and
        # the projection flops in the interpreter's charge order (same
        # floating-point accumulation sequence for the BLAS3 counter)
        return (reduction_cost(self.s * p * itemsize)
                + flop_cost(Kernel.BLAS3,
                            2.0 * n * np.log2(max(n, 2)) * max(p, 1))
                + flop_cost(Kernel.BLAS3, 4.0 * (j + 1) * n * p))

    # -- the hot path: the parent's numerics, bound charges ----------------

    def _sketch(self, w: np.ndarray) -> np.ndarray:
        return _apply_sketch_core(w, self.s, self.seed)

    def _charge_begin(self, w0: int) -> None:
        n, p = self.n, self.p
        (reduction_cost(self.s * w0 * p * self.dtype.itemsize)
         + flop_cost(Kernel.BLAS3,
                     2.0 * n * np.log2(max(n, 2)) * max(w0 * p, 1))
         + flop_cost(Kernel.QR, 4.0 * self.s * w0**2 * p)).charge()

    def _charge_step(self, j: int, nbad: int) -> None:
        cost = self._step_costs.get(j)
        if cost is None:
            cost = self._step_costs[j] = self._bind_step(j)
        cost.charge()
        if nbad:
            self._guard_cost.charge(units=nbad)


def make_pseudo_block_orthogonalizer(scheme: str, *, plan: str = "interpret",
                                     n: int, p: int, dtype, max_cols: int,
                                     seed: int = 0
                                     ) -> PseudoBlockOrthogonalizer:
    """Factory: the interpreting orthogonalizer, or its compiled twin."""
    cls = (CompiledPseudoBlockOrthogonalizer if plan == "compiled"
           else PseudoBlockOrthogonalizer)
    return cls(scheme, n=n, p=p, dtype=dtype, max_cols=max_cols, seed=seed)
