"""Execution-plan compiler for the Krylov hot path (``-hpddm_plan``).

Lowers the solver inner loops — the block-Arnoldi cycle and the
pseudo-block per-step orthogonalization — into flat streams of primitive
:class:`~repro.plan.ir.PlanNode` objects with **pre-bound** ledger
charges, optimizes the stream (hoist cycle-invariant setup, fuse adjacent
nodes across step boundaries, batch independent small GEMMs), and
executes it over the basis arenas every cycle shares
(:mod:`repro.krylov.basis`).

The interpreter remains the oracle: compiled execution must produce
bit-identical :meth:`~repro.util.ledger.CostLedger.counts` and identical
iterates, in both exec modes.  See ``docs/EXECUTION.md``.
"""

from .block_cycle import compiled_block_arnoldi_cycle, lower_cycle
from .ir import (ChargeSpec, NodeCost, Plan, PlanNode, ZERO_COST,
                 event_cost, flop_cost, per_unit_reduction, reduction_cost,
                 run_nodes)
from .optimize import optimize
from .pseudoblock import make_pseudo_block_orthogonalizer

__all__ = [
    "compiled_block_arnoldi_cycle",
    "lower_cycle",
    "ChargeSpec",
    "NodeCost",
    "Plan",
    "PlanNode",
    "ZERO_COST",
    "event_cost",
    "flop_cost",
    "per_unit_reduction",
    "reduction_cost",
    "run_nodes",
    "optimize",
    "make_pseudo_block_orthogonalizer",
]
