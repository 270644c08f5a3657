#!/usr/bin/env python
"""Implicit heat equation: recycling across right-hand sides (paper §IV-B).

One Poisson operator (the steady-state heat operator), the paper's four
successive right-hand sides f_i(x, y; nu_i) — "like one would have to do
when solving a time-dependent problem" — solved three ways:

1. GMRES(30) with an SSOR preconditioner (the PETSc-default-strength
   regime of the paper's artifact sanity check, appendix E);
2. GCRO-DR(30,10) with the same preconditioner and the same-system fast
   path (``-hpddm_recycle_same_system``);
3. FGMRES vs FGCRO-DR under a *variable* GMRES(3)-smoothed AMG — the
   exact solver pairing of Fig. 2a (at laptop scale the AMG is so strong
   that both need only a handful of iterations; the recycling gain of the
   paper's 283M-unknown runs comes from the slow modes such a small
   problem does not have — see EXPERIMENTS.md).

Run:  python examples/poisson_heat_sequence.py [grid_size]
"""

import sys
import time

import numpy as np

from repro import Options, Solver
from repro.precond.amg import SmoothedAggregationAMG
from repro.precond.simple import SSORPreconditioner
from repro.problems.poisson import PAPER_NUS, poisson_2d


def solve_sequence(prob, m, options, label):
    print(label)
    print(f"{'RHS':>4} {'nu':>8} {'iters':>6} {'time (s)':>9}")
    s = Solver(m, options=options)
    tot_it = tot_t = 0
    for nu in PAPER_NUS:
        b = prob.rhs(nu)
        t0 = time.perf_counter()
        res = s.solve(prob.a, b)
        dt = time.perf_counter() - t0
        assert res.converged.all(), f"{label} failed to converge"
        print(f"{'':>4} {nu:>8g} {res.iterations:>6} {dt:>9.3f}")
        tot_it += res.iterations
        tot_t += dt
    print(f"{'sum':>4} {'':>8} {tot_it:>6} {tot_t:>9.3f}\n")
    return tot_it, tot_t


def run(nx: int = 96) -> None:
    prob = poisson_2d(nx)
    print(f"2-D Poisson / implicit heat operator, {prob.n} unknowns\n")

    # ---- artifact-style regime: moderate preconditioner ------------------
    ssor = SSORPreconditioner(prob.a)
    gmres_o = Options(krylov_method="gmres", gmres_restart=30, tol=1e-8,
                      variant="right", max_it=20000)
    gcro_o = gmres_o.replace(krylov_method="gcrodr", recycle=10,
                             recycle_same_system=True)
    i1, t1 = solve_sequence(prob, ssor, gmres_o, "GMRES(30) + SSOR")
    i2, t2 = solve_sequence(prob, ssor, gcro_o, "GCRO-DR(30,10) + SSOR")
    print(f"=> recycling gain: {100 * (i1 - i2) / i1:+.0f}% iterations, "
          f"{100 * (t1 - t2) / t1:+.0f}% time\n")

    # ---- Fig. 2a pairing: variable AMG, so right runs flexible ---------
    t0 = time.perf_counter()
    amg = SmoothedAggregationAMG(prob.a, smoother="gmres",
                                 smoother_iterations=3)
    print(f"GAMG-like AMG setup: {time.perf_counter() - t0:.2f}s, "
          f"{amg.n_levels} levels (variable => flexible methods)\n")
    i3, t3 = solve_sequence(prob, amg, gmres_o, "FGMRES(30) + AMG[GMRES(3)]")
    i4, t4 = solve_sequence(prob, amg, gcro_o,
                            "FGCRO-DR(30,10) + AMG[GMRES(3)]")
    print(f"=> with a strong AMG at this scale both converge in a handful "
          f"of iterations ({i3} vs {i4}); recycling is neutral, as expected.")


if __name__ == "__main__":
    run(int(sys.argv[1]) if len(sys.argv) > 1 else 96)
