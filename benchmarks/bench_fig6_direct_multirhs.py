"""Fig. 6 — scalability of a sparse direct solver with multiple RHSs.

The paper factorizes a 300k-unknown complex Maxwell system once (PARDISO)
and measures the solve phase for 1..128 RHSs on 1..16 threads:
single-thread efficiency is *superlinear* in the RHS count (BLAS-2 ->
BLAS-3), and at 16 threads the efficiency collapses to 10% for p = 2 but
recovers past p = 64.

Reproduction in two halves:

* **measured** (this host has one core = the P = 1 row): our own blocked
  level-scheduled triangular solves on a complex Maxwell factorization —
  the sweep takes a few dozen steps whatever p is, so what grows with p
  is the rate at which the factor's entries are multiplied (the ``GF/s``
  column), and E(1, p) is read against the paper's 1.0 -> 2.43;
* **modeled** (the P > 1 rows): the calibrated mechanistic model of
  :mod:`repro.perfmodel.directmodel`, checked entry-by-entry against the
  paper's own Fig. 6b table.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.direct.solver import SparseLU
from repro.perfmodel.directmodel import (PAPER_FIG6B, DirectSolveModel,
                                         efficiency_table)
from repro.problems.maxwell import maxwell_chamber

from common import format_table, write_result

RHS_COUNTS = (1, 2, 4, 8, 16, 32, 64)


@pytest.fixture(scope="module")
def factorization():
    prob = maxwell_chamber(7, omega=8.0, cylinder=False)
    lu = SparseLU(prob.a)
    rng = np.random.default_rng(42)
    n = prob.n
    rhs = {p: (rng.standard_normal((n, p))
               + 1j * rng.standard_normal((n, p))) for p in RHS_COUNTS}
    return prob, lu, rhs


def _measure(lu, b, repeats=3):
    lu.solve(b)  # warm-up
    t0 = time.perf_counter()
    for _ in range(repeats):
        lu.solve(b)
    return (time.perf_counter() - t0) / repeats


def test_fig6_measured_superlinear_efficiency(benchmark, factorization):
    """Measured single-thread half: E(1, p) grows superlinearly with p."""
    prob, lu, rhs = factorization
    benchmark(lu.solve, rhs[8])  # kernel: one blocked 8-RHS solve

    times = {p: _measure(lu, rhs[p]) for p in RHS_COUNTS}
    t11 = times[1]
    eff = {p: p * t11 / times[p] for p in RHS_COUNTS}
    # one complex multiply-add per factor entry and right-hand side
    gflops = {p: 8.0 * lu.factor_nnz * p / times[p] * 1e-9 for p in RHS_COUNTS}
    steps = sum(lu.n_levels)
    # superlinear like Curie's P = 1 row, and of its magnitude: an
    # efficiency in the tens would be per-step interpreter overhead
    # amortized over the block, not the factor streamed once per block
    assert 1.5 < eff[64] < 8.0, eff
    assert gflops[64] >= 2.0 * gflops[1], gflops
    # monotone-ish growth (allow small timing noise)
    assert eff[64] >= eff[4] >= 0.9 * eff[1]

    rows = [(p, steps, round(times[p] * 1e3, 3),
             round(times[p] / p * 1e3, 3), round(gflops[p], 2),
             round(eff[p], 2)) for p in RHS_COUNTS]
    table = format_table(
        ["p (RHSs)", "steps", "solve (ms)", "per-RHS (ms)", "GF/s",
         "efficiency E(1,p)"],
        rows,
        title=f"Fig. 6 (measured, P=1) - blocked triangular solves on a "
              f"complex Maxwell factorization\n(n={prob.n}, factor nnz="
              f"{lu.factor_nnz}, sweep steps (L, U) {lu.n_levels})",
        note="steps: sweep steps of one solve (L + U), independent of p.  "
             "GF/s: 8 * factor nnz * p / solve time.\n"
             "Paper P=1 row: E grows 1.0 -> 2.43 by p=128 (superlinear: "
             "the factor is streamed once per block,\nBLAS-2 becomes "
             "BLAS-3).  Here the same entries are multiplied at a rate "
             "that grows with p; the row-level\nsweep this replaced "
             "measured E(1,64) = 15-25 (868 + 866 steps then; this factor "
             "has 509 + 509 row\nlevels), which was interpreter overhead "
             "per step amortized over the block.  The rate is over\nfewer "
             "entries than before SparseLU ordered the symmetric structure "
             "(MMD on A + A^T, threshold\ndiagonal pivoting): COLAMD with "
             "partial pivoting left 465651 in this factor, swept in "
             "36 + 32 steps.")
    write_result("fig6_measured", table)


def test_fig6_model_matches_paper_table(benchmark, factorization):
    """Modeled threaded half: calibrated model vs the paper's Fig. 6b."""
    model = DirectSolveModel()
    benchmark(efficiency_table, model)

    tab = efficiency_table(model)
    ratio = tab["times"] / PAPER_FIG6B["times"]
    assert ratio.max() < 1.5 and ratio.min() > 0.6, \
        f"model drifted from the paper table: [{ratio.min()}, {ratio.max()}]"
    assert model.efficiency(16, 2) == pytest.approx(0.10, abs=0.03)
    assert model.efficiency(16, 64) > 1.0 > model.efficiency(16, 32)
    assert 2.2 < model.efficiency(1, 128) < 2.6

    lines = ["Fig. 6b (modeled) - solve times in seconds, threads x RHSs",
             "", "model:"]
    hdr = "P\\p " + "".join(f"{p:>8}" for p in tab["rhs"])
    lines.append(hdr)
    for ti, tp in enumerate(tab["threads"]):
        lines.append(f"{tp:>3} " + "".join(f"{tab['times'][ti, pi]:>8.2f}"
                                           for pi in range(len(tab["rhs"]))))
    lines += ["", "paper:"]
    lines.append(hdr)
    for ti, tp in enumerate(PAPER_FIG6B["threads"]):
        lines.append(f"{tp:>3} " + "".join(
            f"{PAPER_FIG6B['times'][ti, pi]:>8.2f}"
            for pi in range(len(PAPER_FIG6B["rhs"]))))
    lines += ["", "Fig. 6a (modeled) - efficiency E(P,p):", hdr]
    for ti, tp in enumerate(tab["threads"]):
        lines.append(f"{tp:>3} " + "".join(
            f"{tab['efficiency'][ti, pi]:>8.2f}"
            for pi in range(len(tab["rhs"]))))
    lines.append("")
    lines.append(f"max model/paper time ratio: {ratio.max():.2f}, "
                 f"min: {ratio.min():.2f}")
    write_result("fig6_model", "\n".join(lines) + "\n")
