"""Machine model of a Curie-like system.

The paper's experiments ran on Curie: 5,040 nodes of two eight-core Intel
Sandy Bridge sockets at 2.7 GHz, InfiniBand QDR full fat tree, MKL BLAS.
This module captures the handful of rates that matter for Krylov-method
scalability:

* network: latency ``alpha`` and inverse bandwidth ``beta`` (QDR IB);
* a per-kernel effective flop rate, split by *arithmetic intensity* —
  memory-bound kernels (SpMV, BLAS-1/2) run at a small fraction of peak,
  compute-bound BLAS-3 near peak.  This split is the entire story of the
  paper's Fig. 6: multi-RHS solves turn BLAS-2 into BLAS-3;
* per-node memory bandwidth with a saturation model for thread scaling.

The default numbers are order-of-magnitude Sandy Bridge/QDR values; they
are deliberately simple — the benchmarks reproduce the *shape* of the
scaling curves, not Curie's absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.ledger import Kernel

__all__ = ["MachineModel", "CURIE"]


@dataclass(frozen=True)
class MachineModel:
    """Analytic cost model of a distributed-memory machine."""

    name: str = "curie-like"
    cores_per_node: int = 16
    clock_hz: float = 2.7e9
    flops_per_cycle: float = 8.0            # AVX double precision
    #: sustained memory bandwidth of one core / one saturated socket pair
    stream_bw_core: float = 6.0e9           # bytes/s
    stream_bw_node: float = 6.0e10          # bytes/s (saturation)
    #: network: latency (s) and inverse bandwidth (s/byte) per link
    alpha: float = 1.5e-6
    beta: float = 1.0 / 3.2e9               # QDR ~ 3.2 GB/s effective
    #: fraction of peak reached by compute-bound kernels
    blas3_efficiency: float = 0.85
    #: bytes of factor/matrix traffic per flop for memory-bound kernels
    bytes_per_flop_membound: float = 6.0

    @property
    def peak_core(self) -> float:
        return self.clock_hz * self.flops_per_cycle

    def memory_bandwidth(self, threads: int) -> float:
        """Aggregate bandwidth of ``threads`` cores on one node (saturating)."""
        threads = max(1, threads)
        bw = self.stream_bw_core * threads
        return min(bw, self.stream_bw_node)

    def rate(self, kernel: str, *, block_width: int = 1) -> float:
        """Effective flop rate (flops/s/core) of one kernel class.

        ``block_width`` models the arithmetic-intensity gain of fused
        multi-RHS kernels: an SpMM with ``p`` columns streams the matrix
        once for ``p`` times the flops, so its effective rate approaches
        the compute bound as ``p`` grows (paper section V-B2).
        """
        peak = self.peak_core * self.blas3_efficiency
        mem_rate = self.stream_bw_core / self.bytes_per_flop_membound
        if kernel in (Kernel.BLAS3, Kernel.FACTORIZATION, Kernel.EIG, Kernel.QR):
            return peak
        if kernel in (Kernel.SPMV, Kernel.BLAS1, Kernel.BLAS2, Kernel.PRECOND):
            return mem_rate
        if kernel == Kernel.SPMM:
            # streaming the matrix once amortized over block_width columns
            p = max(1, block_width)
            return min(peak, mem_rate * p)
        return mem_rate

    def reduction_time(self, nranks: int, nbytes: int = 8) -> float:
        """One tree all-reduce over ``nranks`` processes."""
        if nranks <= 1:
            return 0.0
        hops = 2.0 * np.ceil(np.log2(nranks))
        return hops * (self.alpha + nbytes * self.beta)

    def p2p_time(self, messages: float, nbytes: float) -> float:
        return messages * self.alpha + nbytes * self.beta


#: the default model used by all scaling benchmarks
CURIE = MachineModel()
