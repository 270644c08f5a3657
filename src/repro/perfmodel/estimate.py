"""Convert ledger events into modeled wall-clock times on a target machine.

The solvers run at laptop scale; the ledger records what they *did*
(reductions, halo messages, flops by kernel class).  This module answers
"what would that cost on P processes of a Curie-like machine?" — which is
how the strong-scaling figures (Fig. 7) are projected beyond the local
core count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.ledger import CostLedger
from .machine import CURIE, MachineModel

__all__ = ["TimeBreakdown", "modeled_time", "strong_scaling_projection"]


@dataclass
class TimeBreakdown:
    """Modeled time split into its components (seconds)."""

    reduction: float
    p2p: float
    compute: float

    @property
    def total(self) -> float:
        return self.reduction + self.p2p + self.compute

    @property
    def communication(self) -> float:
        return self.reduction + self.p2p

    def __repr__(self) -> str:
        return (f"TimeBreakdown(total={self.total:.4g}s, "
                f"reduce={self.reduction:.4g}, p2p={self.p2p:.4g}, "
                f"compute={self.compute:.4g})")


def modeled_time(events: CostLedger, nranks: int, *,
                 machine: MachineModel = CURIE,
                 block_width: int = 1) -> TimeBreakdown:
    """Model the wall time of the recorded events on ``nranks`` processes.

    Assumptions (standard BSP-style accounting):

    * flops are perfectly balanced: each rank executes ``1/nranks`` of the
      recorded totals at the kernel's effective rate;
    * every logged reduction synchronizes all ranks (a ``2 log2 P`` tree);
    * p2p totals are aggregate across ranks; each rank sends/receives its
      ``1/nranks`` share concurrently.
    """
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    # --- reductions -----------------------------------------------------
    t_red = 0.0
    if events.reductions:
        avg_bytes = events.reduction_bytes / events.reductions
        t_red = events.reductions * machine.reduction_time(nranks, avg_bytes)
    # --- halo traffic -----------------------------------------------------
    t_p2p = machine.p2p_time(events.p2p_messages / nranks,
                             events.p2p_bytes / nranks) if nranks > 1 else 0.0
    # --- computation -----------------------------------------------------
    t_comp = 0.0
    for kernel, flops in events.flops.items():
        if flops <= 0:
            continue
        rate = machine.rate(kernel, block_width=block_width)
        t_comp += flops / (rate * nranks)
    return TimeBreakdown(reduction=t_red, p2p=t_p2p, compute=t_comp)


def strong_scaling_projection(events: CostLedger, rank_counts: list[int], *,
                              machine: MachineModel = CURIE,
                              block_width: int = 1) -> dict[int, TimeBreakdown]:
    """Model the same workload across a sweep of process counts.

    This is the idealized (perfect load balance, iteration-count-invariant)
    projection; benchmarks that re-run the solver per subdomain count
    capture the *algorithmic* deterioration (more iterations with more
    subdomains) on top of it.
    """
    return {p: modeled_time(events, p, machine=machine,
                            block_width=block_width)
            for p in rank_counts}
