"""Counts pinned where the benchmark reads them.

``benchmarks/e2e`` compares ``reductions`` and ``krylov.iterations`` of a
change against its parent commit; a kernel change that shifts either one
should fail here, in pytest, not in the pipeline's parent/change comparison.
Tiny copies of the four workloads — the benchmark's own classes, hence its
solver configurations — are run once on seed 0 and held to the values
recorded at the commit that introduced this file, except the two Laplace
copies' reductions, re-recorded when the default ``cgs`` step folded
``C_k`` into its one stacked Gram and its recycled pair took the one-QR
repair (74 -> 75 and 328 -> 256, iterations unchanged).

Sizes are ``benchmarks/e2e/selftest.py``'s, plus one Laplace copy tall
enough that its basis slab no longer fits a core's L2: the 48 x 48
Laplacian, n = 2 304 (id suffix ``_panelled``, kept from when slabs of 512
rows or more ran in 256-row panels; the column-major slab is one GEMM at
every height, and these counts are the same under both).  The heat grid
differs too: at ``nx = 12`` (n = 144) the AMG hierarchy is one level, i.e.
an exact solve, every step converges in one iteration, and the only
data-dependent count —
the ``cgs2_1r`` cancellation guard's honest re-norm — is then decided by
rounding noise (72 reductions at the parent, 74 with the BLAS projector,
same 8 iterations).  ``nx = 24`` has a real hierarchy and real iterations.
"""

import sys
from pathlib import Path

import pytest

from repro.util import ledger
from repro.util.ledger import CostLedger, Kernel

sys.path.insert(0, str(Path(__file__).resolve().parents[1]
                       / "benchmarks" / "e2e"))
from workloads import (HeatEnsembleAmg, LaplaceBlockUnprec,  # noqa: E402
                       MaxwellOrasBlock, TrafficAsync)

#: (workload, iterations, reductions) on seed 0
PINNED = [
    (LaplaceBlockUnprec(grid=16, p=4), 36, 75),
    (LaplaceBlockUnprec(grid=48, p=4), 116, 256),
    (MaxwellOrasBlock(n=4, n_antennas=4, block=2, nparts=2), 2, 13),
    (HeatEnsembleAmg(nx=24, n_steps=8, epoch_length=4), 61, 226),
    (TrafficAsync(n_requests=120), 12, 48),
]


def _id(wl) -> str:
    """The workload's name; the tall Laplace copy keeps its old suffix."""
    return wl.name + ("_panelled" if getattr(wl, "grid", 0) >= 48 else "")


@pytest.mark.parametrize("wl,iterations,reductions", PINNED,
                         ids=[_id(wl) for wl, _, _ in PINNED])
def test_workload_counts_are_the_recorded_ones(wl, iterations, reductions):
    state = wl.setup(0)
    with ledger.install(CostLedger()) as led:
        out = wl.run_pass(state)
    assert not wl.check(state, out).failures
    assert out.iterations == iterations
    assert led.reductions == reductions
    assert "deflation_rejected" not in led.calls


def test_heat_copy_charges_only_the_live_sparse_products():
    """The V-cycle's share of the ledger, so dead products cannot come back.

    With the textbook Chebyshev loop (one ``A d`` after the last update of
    ``x``, twice per level and V-cycle) and uncharged grid transfers this
    copy read 12 121 536 SPMM flops and 1 565 ``operator_apply`` columns;
    244 V-cycle columns x 2 dead products = the 488 that are gone.
    """
    wl = next(wl for wl, _, _ in PINNED if isinstance(wl, HeatEnsembleAmg))
    with ledger.install(CostLedger()) as led:
        wl.run_pass(wl.setup(0))
    assert led.calls["amg_vcycle"] == 244
    assert led.calls["operator_apply"] == 1077
    assert led.flops[Kernel.SPMM] == 10753184.0
