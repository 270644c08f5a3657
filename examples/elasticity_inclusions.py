#!/usr/bin/env python
"""Shape-optimization-style elasticity sequence (paper §IV-C / Fig. 3).

Four *varying* 3-D linear-elasticity operators — a small spherical
inclusion moves and changes stiffness between solves, exactly the paper's
parameter sets.  Because the operator changes, GCRO-DR re-orthonormalizes
``A_i U_k`` at each new system (paper lines 3-7) and refreshes the
recycled space through the generalized eigenproblem of eq. (3).

Two comparisons, mirroring Fig. 3:

* **Fig. 3c/d regime** — a *linear* preconditioner of moderate strength
  (SSOR; the paper's Chebyshev-smoothed AMG leaves nothing to recycle at
  laptop scale — see EXPERIMENTS.md) with right preconditioning:
  GMRES(30) vs LGMRES(30,10) vs GCRO-DR(30,10).  The paper's ranking
  (GCRO-DR converges in ~35% fewer iterations than LGMRES) reproduces.
* **Fig. 3a/b pairing** — rigid-body-mode AMG with a CG(4) smoother: the
  smoother makes the preconditioner *variable*, so FGMRES / FGCRO-DR are
  mandatory: right preconditioning runs them (it stores ``Z = M(V)``), and
  attempting ``variant="left"`` raises.

Run:  python examples/elasticity_inclusions.py [ne]
"""

import sys
import time

import numpy as np

from repro import Options, Solver
from repro.krylov.lgmres import lgmres
from repro.precond.amg import SmoothedAggregationAMG
from repro.precond.simple import SSORPreconditioner
from repro.problems.elasticity import PAPER_INCLUSIONS, elasticity_3d


def run_methods(systems, make_prec, methods, label):
    print(label)
    print(f"{'method':>16} " + " ".join(f"{'sys' + str(i + 1):>6}" for i in range(4))
          + f" {'total':>6} {'time':>8}")
    totals = {}
    for method_label, options in methods:
        s = Solver(options=options)
        its, t_all = [], 0.0
        for prob in systems:
            m = make_prec(prob)
            t0 = time.perf_counter()
            if options.krylov_method == "lgmres":
                res = lgmres(prob.a, prob.rhs_vector, m, options=options)
            else:
                res = s.solve(prob.a, prob.rhs_vector, m=m)
            t_all += time.perf_counter() - t0
            assert res.converged.all(), f"{method_label} failed to converge"
            its.append(res.iterations)
        print(f"{method_label:>16} " + " ".join(f"{i:>6}" for i in its)
              + f" {sum(its):>6} {t_all:>7.2f}s")
        totals[method_label] = sum(its)
    print()
    return totals


def run(ne: int = 9) -> None:
    print(f"assembling 4 varying elasticity systems (ne={ne}) ...")
    systems = [elasticity_3d(ne, inclusion=inc) for inc in PAPER_INCLUSIONS]
    print(f"  {systems[0].n} unknowns each\n")

    # ---- Fig. 3c/d regime: linear preconditioner, right side -------------
    base = Options(krylov_method="gmres", gmres_restart=30, tol=1e-8,
                   variant="right", max_it=8000)
    t = run_methods(
        systems, lambda p: SSORPreconditioner(p.a),
        [("GMRES(30)", base),
         ("LGMRES(30,10)", base.replace(krylov_method="lgmres", recycle=10)),
         ("GCRO-DR(30,10)", base.replace(krylov_method="gcrodr", recycle=10))],
        "Fig. 3c/d regime - linear preconditioner (SSOR), right side")
    print(f"  GCRO-DR vs LGMRES: {100 * (t['LGMRES(30,10)'] - t['GCRO-DR(30,10)']) / t['LGMRES(30,10)']:+.0f}% "
          f"iterations (paper: 173 vs 269 = -36%)")
    print(f"  GCRO-DR vs GMRES : {100 * (t['GMRES(30)'] - t['GCRO-DR(30,10)']) / t['GMRES(30)']:+.0f}%\n")

    # ---- Fig. 3a/b pairing: variable AMG, so right runs flexible ---------
    flex = Options(krylov_method="gmres", gmres_restart=30, tol=1e-8,
                   max_it=4000)
    def amg_cg(p):
        return SmoothedAggregationAMG(p.a, nullspace=p.nullspace,
                                      block_size=3, smoother="cg",
                                      smoother_iterations=4)
    run_methods(
        systems, amg_cg,
        [("FGMRES(30)", flex),
         ("FGCRO-DR(30,10)", flex.replace(krylov_method="gcrodr", recycle=10))],
        "Fig. 3a/b pairing - AMG with CG(4) smoother (variable preconditioner)")

    # show that the variable-preconditioner guard is active
    try:
        Solver(options=Options(krylov_method="gcrodr", recycle=10,
                               variant="left")).solve(
            systems[0].a, systems[0].rhs_vector, m=amg_cg(systems[0]))
    except ValueError as exc:
        print(f"left-preconditioned GCRO-DR with a variable M is rejected:"
              f"\n  ValueError: {exc}")


if __name__ == "__main__":
    run(int(sys.argv[1]) if len(sys.argv) > 1 else 9)
