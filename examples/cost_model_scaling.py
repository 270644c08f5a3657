#!/usr/bin/env python
"""Communication accounting and modeled scaling — the paper's §III-D.

The paper's scalability argument is a *counting* argument: a GCRO-DR cycle
costs ``2(m - k)`` global reductions where a GMRES cycle costs ``m``, and
CholQR keeps every distributed tall-skinny QR at a single reduction.  This
example makes those counts visible:

1. solve one system with GMRES(30) and with GCRO-DR(30,10) on a
   row-partitioned operator, with the cost ledger recording every
   reduction, halo message, and flop;
2. print the measured per-cycle reduction counts next to the paper's
   formulas;
3. feed the measured event stream to the Curie-like machine model and
   print the modeled time breakdown at the paper's process counts —
   showing where the log2(P) reduction tree starts to dominate.

Run:  python examples/cost_model_scaling.py [n]
"""

import sys

import numpy as np
import scipy.sparse as sp

from repro import Options, Solver, as_operator, install_ledger
from repro.perfmodel.estimate import modeled_time
from repro.perfmodel.machine import CURIE


def run(n: int = 800) -> dict:
    """Print the counts and the modeled times; return ``{label: (result,
    ledger)}`` of the two solves."""
    # mildly shifted 1-D Laplacian: hard enough to need many restart
    # cycles, easy enough that plain GMRES(30) still converges
    a = sp.diags([-np.ones(n - 1), 2.05 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1]).tocsr()
    nranks = 8
    dist = as_operator(a, nranks=nranks)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)

    print(f"1-D Laplacian, {n} unknowns, distributed over "
          f"{nranks} virtual ranks\n")

    events = {}
    for label, opts in [
            ("GMRES(30)", Options(krylov_method="gmres", gmres_restart=30,
                                  tol=1e-8, max_it=20000)),
            ("GCRO-DR(30,10)", Options(krylov_method="gcrodr",
                                       gmres_restart=30, recycle=10,
                                       tol=1e-8, max_it=20000))]:
        s = Solver(options=opts)
        with install_ledger() as led:
            res = s.solve(dist, b)
        assert res.converged.all(), label
        events[label] = (res, led)
        per_cycle = led.reductions / max(res.restarts, 1)
        per_it = led.reductions / max(res.iterations, 1)
        print(f"{label:>16}: {res.iterations:5d} iterations, "
              f"{res.restarts:3d} cycles, {led.reductions:5d} reductions "
              f"({per_it:.1f}/iteration, {per_cycle:.0f}/cycle)")
        print(f"{'':>16}  halo: {led.p2p_messages} messages, "
              f"{led.p2p_bytes / 1e3:.0f} kB; flops: {led.total_flops():.2e}")
    print()
    print("paper §III-D: a GMRES cycle needs m reductions, a GCRO-DR cycle "
          "2(m-k);\nwith k = m/3 both methods synchronize at a similar "
          "per-cycle rate while GCRO-DR\nconverges in far fewer cycles.\n")

    res, led = events["GCRO-DR(30,10)"]
    print("modeled time of the GCRO-DR solve on a Curie-like machine:")
    print(f"{'ranks':>7} {'total':>12} {'compute':>12} {'reductions':>12} "
          f"{'halo':>10}")
    for p in (8, 64, 512, 4096):
        t = modeled_time(led, p, machine=CURIE)
        print(f"{p:>7} {t.total:>11.2e}s {t.compute:>11.2e}s "
              f"{t.reduction:>11.2e}s {t.p2p:>9.2e}s")
    print("\nAt this (laptop) problem size the log2(P) reduction tree "
          "dominates beyond a few\nhundred ranks — the regime in which the "
          "paper's fewer-synchronizations engineering\n(CholQR, strategy B, "
          "same-system fast path) is the difference between scaling and "
          "not.")
    return events


if __name__ == "__main__":
    run(int(sys.argv[1]) if len(sys.argv) > 1 else 800)
