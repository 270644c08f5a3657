"""Ablation studies for the design choices DESIGN.md calls out.

Not figures of the paper, but quantifications of its engineering claims:

* **recycle strategy A vs B** (eq. 3a vs 3b): B is communication-free,
  A pays one extra fused reduction per recycle update; iteration counts
  are problem-dependent (paper section III-C / artifact note G);
* **orthogonalization schemes** (section III-D): CholQR/TSQR cost one
  reduction per distributed QR where CGS costs p and MGS p(p+1)/2;
* **recycle dimension k**: the paper picks k = 10 of m = 30 "after some
  preliminary experiments, but it can be set between 1 and m-1";
* **same-system fast path** (section III-B): skipping lines 3-7/31-38
  eliminates all eigenproblem work on fixed-operator sequences.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro import Options, Solver, install_ledger
from repro.la.orthogonalization import (cholqr, classical_gram_schmidt_qr,
                                        modified_gram_schmidt_qr, tsqr)
from repro.util.ledger import Kernel

from common import format_table, write_result


def _laplacian(n):
    return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1]).tocsr()


@pytest.fixture(scope="module")
def sequence_problem():
    rng = np.random.default_rng(11)
    n = 600
    # mild shift keeps the sequence solvable by every strategy: the paper
    # notes the A-vs-B choice is problem-dependent, and on nearly singular
    # operators strategy B's communication-free eigenproblem can stall
    base = _laplacian(n) + 0.02 * sp.eye(n)
    mats = [(base + 0.02 * i * sp.eye(n)).tocsr() for i in range(4)]
    rhss = [rng.standard_normal(n) for _ in range(4)]
    return mats, rhss


def test_ablation_strategy_a_vs_b(benchmark, sequence_problem):
    """Strategy B saves the extra reduction of eq. (3a) at equal quality."""
    mats, rhss = sequence_problem
    benchmark(lambda: mats[0] @ rhss[0])

    results = {}
    for strat in ("A", "B"):
        opts = Options(krylov_method="gcrodr", gmres_restart=30, recycle=10,
                       tol=1e-8, max_it=6000, recycle_strategy=strat)
        s = Solver(options=opts)
        with install_ledger() as led:
            its = []
            for a, b in zip(mats, rhss):
                res = s.solve(a, b, same_system=False)
                assert res.converged.all()
                its.append(res.iterations)
        results[strat] = (its, led.reductions, led.calls["recycle_update"])
    its_a, red_a, upd_a = results["A"]
    its_b, red_b, upd_b = results["B"]
    # both converge with comparable iteration counts ("problem-dependent",
    # paper section III-C)
    assert abs(sum(its_a) - sum(its_b)) <= 0.5 * sum(its_a)
    # strategy A performs one extra fused reduction per recycle update
    if upd_a == upd_b and its_a == its_b:
        assert red_a == red_b + upd_a
    else:
        assert red_a / max(upd_a, 1) >= red_b / max(upd_b, 1) - 5

    table = format_table(
        ["strategy", "sys1", "sys2", "sys3", "sys4", "total its",
         "reductions", "recycle updates"],
        [("A (eq. 3a)",) + tuple(its_a) + (sum(its_a), red_a, upd_a),
         ("B (eq. 3b)",) + tuple(its_b) + (sum(its_b), red_b, upd_b)],
        title="Ablation - generalized-eigenproblem RHS strategy (GCRO-DR, "
              "4 varying systems)",
        note="Strategy B builds W = G_m^H [I; 0] locally; strategy A "
             "requires the fused reduction for [C V]^H U~ (paper §III-C).")
    write_result("ablation_strategy", table)


def test_ablation_orthogonalization(benchmark):
    """Reduction counts of the distributed QR schemes (paper §III-D)."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4000, 16))
    benchmark(cholqr, x)

    rows = []
    for label, fn in [("CholQR", cholqr), ("TSQR", tsqr),
                      ("CGS", classical_gram_schmidt_qr),
                      ("MGS", modified_gram_schmidt_qr)]:
        with install_ledger() as led:
            t0 = time.perf_counter()
            q, r = fn(x)
            dt = time.perf_counter() - t0
        orth = float(np.linalg.norm(q.T @ q - np.eye(16)))
        rows.append((label, led.reductions, round(dt * 1e3, 2),
                     f"{orth:.1e}"))
    # the paper's claim: CholQR/TSQR need one reduction; CGS p-ish; MGS p^2/2
    reds = {r[0]: r[1] for r in rows}
    assert reds["CholQR"] == 1 and reds["TSQR"] == 1
    assert reds["CGS"] == 2 * 16 - 1
    assert reds["MGS"] == 16 * 17 // 2

    table = format_table(
        ["scheme", "reductions", "time (ms)", "orthogonality error"],
        rows,
        title="Ablation - distributed QR of a 4000 x 16 block "
              "(paper lines 11/24)",
        note="One reduction per QR is why HPDDM uses CholQR; MGS trades "
             "communication for robustness.")
    write_result("ablation_orthogonalization", table)


def test_ablation_recycle_dimension(benchmark):
    """Sweep k in GCRO-DR(30, k) on a fixed-operator sequence."""
    rng = np.random.default_rng(5)
    n = 600
    a = _laplacian(n)
    rhss = [rng.standard_normal(n) for _ in range(3)]
    benchmark(lambda: a @ rhss[0])

    gmres_its = None
    rows = []
    s0 = Solver(options=Options(krylov_method="gmres", gmres_restart=30,
                                tol=1e-8, max_it=8000))
    gmres_its = sum(s0.solve(a, b).iterations for b in rhss)
    totals = {}
    for k in (2, 5, 10, 15, 20):
        opts = Options(krylov_method="gcrodr", gmres_restart=30, recycle=k,
                       tol=1e-8, max_it=8000, recycle_same_system=True)
        s = Solver(options=opts)
        its = [s.solve(a, b).iterations for b in rhss]
        assert all(r.converged.all() for r in s.results)
        totals[k] = sum(its)
        rows.append((k,) + tuple(its) + (sum(its),))
    # recycling helps for every k on this restart-limited SPD problem
    assert all(t < gmres_its for t in totals.values()), (totals, gmres_its)

    table = format_table(
        ["k", "sys1", "sys2", "sys3", "total"],
        rows,
        title=f"Ablation - recycle dimension k in GCRO-DR(30, k), 1-D "
              f"Laplacian (n={n}); GMRES(30) reference total: {gmres_its}",
        note="The paper: \"this dimension was chosen after some preliminary "
             "experiments, but it can be set between 1 and m-1\"; k = m/3 "
             "is the usual sweet spot.")
    write_result("ablation_recycle_k", table)


def test_ablation_two_level_schwarz(benchmark):
    """One-level ORAS's iteration growth (Fig. 7: 54 -> 94 over 8x ranks)
    and the classic two-level (Nicolaides) cure — an extension the paper
    leaves open."""
    from repro import solve
    from repro.precond.schwarz import SchwarzPreconditioner
    from repro.problems.poisson import poisson_2d
    rng = np.random.default_rng(31)
    prob = poisson_2d(48)
    b = rng.standard_normal(prob.n)
    benchmark(lambda: prob.a @ b)

    o = Options(tol=1e-8, variant="right", max_it=600)
    rows = []
    growth = {}
    for coarse in (False, True):
        its = []
        for nparts in (4, 8, 16, 32):
            m = SchwarzPreconditioner(prob.a, nparts=nparts, overlap=2,
                                      coarse=coarse)
            res = solve(prob.a, b, m, options=o)
            assert res.converged.all()
            its.append(res.iterations)
        label = "two-level (Nicolaides)" if coarse else "one-level (paper)"
        growth[coarse] = its[-1] / its[0]
        rows.append((label,) + tuple(its) + (f"{growth[coarse]:.1f}x",))
    # the coarse space tames the growth
    assert growth[True] < growth[False]

    table = format_table(
        ["preconditioner", "N=4", "N=8", "N=16", "N=32", "growth 4->32"],
        rows,
        title="Ablation - one- vs two-level Schwarz iteration growth "
              "(2-D Poisson, RAS, GMRES(30))",
        note="The paper's one-level ORAS shows the same mild growth in "
             "Fig. 7 (54 -> 94 over 512 -> 4096\nsubdomains); a Nicolaides "
             "coarse space is the textbook remedy, provided here as an "
             "extension.")
    write_result("ablation_two_level", table)


def test_ablation_recycling_vs_deflated_restarting(benchmark):
    """Section II's core claim: GMRES-DR equals GCRO-DR on one system but
    cannot carry its deflation space to the next solve — GCRO-DR can."""
    from repro.krylov.gcrodr import gcrodr
    from repro.krylov.gmresdr import gmresdr
    rng = np.random.default_rng(17)
    n = 600
    a = _laplacian(n)
    rhss = [rng.standard_normal(n) for _ in range(3)]
    benchmark(lambda: a @ rhss[0])

    opts = Options(krylov_method="gcrodr", gmres_restart=30, recycle=10,
                   tol=1e-8, max_it=8000)
    # GMRES-DR: every solve starts from scratch
    dr_its = []
    for b in rhss:
        res = gmresdr(a, b, options=opts.replace(krylov_method="gmresdr"))
        assert res.converged.all()
        dr_its.append(res.iterations)
    # GCRO-DR: recycles between solves
    rec = None
    gc_its = []
    for b in rhss:
        res = gcrodr(a, b, options=opts, recycle=rec,
                     same_system=rec is not None)
        assert res.converged.all()
        rec = res.info["recycle"]
        gc_its.append(res.iterations)

    # identical on the first system (Parks et al.; GMRES-DR is single-system
    # GCRO-DR by construction), recycling wins after
    assert dr_its[0] == gc_its[0]
    assert sum(gc_its[1:]) < 0.8 * sum(dr_its[1:])

    table = format_table(
        ["method", "sys1", "sys2", "sys3", "total"],
        [("GMRES-DR(30,10)",) + tuple(dr_its) + (sum(dr_its),),
         ("GCRO-DR(30,10)",) + tuple(gc_its) + (sum(gc_its),)],
        title="Ablation - deflated restarting vs recycling on a 3-RHS "
              "sequence (fixed operator)",
        note="Identical on system 1 (the Parks et al. equivalence); from "
             "system 2 on, GCRO-DR starts\nfrom its recycled space while "
             "GMRES-DR must rediscover the slow modes — the paper's "
             "section II\nargument against PETSc's DGMRES/LGMRES for "
             "sequences.")
    write_result("ablation_recycling_vs_dr", table)


def test_ablation_block_reduction(benchmark):
    """Block-size reduction vs plain rank-revealing restarts (paper §V-C).

    The paper detects breakdowns with rank-revealing CholQR but does not
    reduce the block size ("residuals appear to be far from being colinear
    in our application").  On a contrived nearly-colinear RHS block the
    reduction pays: same convergence, fewer operator columns.
    """
    rng = np.random.default_rng(21)
    n = 400
    a = _laplacian(n) + 0.4 * sp.eye(n)
    v = rng.standard_normal(n)
    b = np.column_stack([v, 2 * v + 1e-9 * rng.standard_normal(n),
                         2.5 * v + 1e-9 * rng.standard_normal(n),
                         rng.standard_normal(n)])
    benchmark(lambda: a @ b)

    from repro.krylov.bgmres import bgmres
    rows = []
    apps = {}
    for red in (False, True):
        o = Options(krylov_method="bgmres", gmres_restart=30, tol=1e-9,
                    max_it=3000, block_reduction=red, deflation_tol=1e-7)
        with install_ledger() as led:
            t0 = time.perf_counter()
            res = bgmres(a, b, options=o)
            dt = time.perf_counter() - t0
        assert res.converged.all()
        apps[red] = led.calls["operator_apply"]
        rows.append(("on" if red else "off", res.iterations,
                     led.calls["operator_apply"],
                     led.calls["block_reduction"], round(dt, 3)))
    assert apps[True] <= apps[False]

    table = format_table(
        ["block reduction", "block iterations", "operator columns",
         "reductions applied", "time (s)"],
        rows,
        title="Ablation - BGMRES block-size reduction on a nearly-colinear "
              "4-RHS block",
        note="The paper leaves this off for its application (residuals far "
             "from colinear) — here the\nrestart-level reduction variant "
             "shows what it buys when RHSs are (nearly) dependent.")
    write_result("ablation_block_reduction", table)


def test_ablation_same_system(benchmark):
    """The non-variable fast path removes all recycle-update eigenwork."""
    rng = np.random.default_rng(9)
    n = 600
    a = _laplacian(n)
    rhss = [rng.standard_normal(n) for _ in range(4)]
    benchmark(lambda: a @ rhss[0])

    rows = []
    stats = {}
    for fast in (True, False):
        opts = Options(krylov_method="gcrodr", gmres_restart=30, recycle=10,
                       tol=1e-8, max_it=8000)
        s = Solver(options=opts)
        with install_ledger() as led:
            t0 = time.perf_counter()
            its = []
            for i, b in enumerate(rhss):
                res = s.solve(a, b, same_system=(fast and i > 0) or
                              (None if fast else False))
                assert res.converged.all()
                its.append(res.iterations)
            dt = time.perf_counter() - t0
        label = "same-system fast path" if fast else "general (updates on)"
        stats[fast] = (sum(its), led.calls["recycle_update"], led.reductions)
        rows.append((label,) + tuple(its)
                    + (sum(its), led.calls["recycle_update"],
                       round(dt, 3)))
    # after the first solve the fast path performs no recycle updates;
    # the general path keeps paying for them
    assert stats[False][1] > stats[True][1]

    table = format_table(
        ["mode", "sys1", "sys2", "sys3", "sys4", "total its",
         "recycle updates", "time (s)"],
        rows,
        title="Ablation - -hpddm_recycle_same_system on a fixed-operator "
              "sequence (paper §III-B)",
        note="The fast path skips qr(A U_k) on lines 3-7 and the whole "
             "eigen-update block (lines 31-38)\nafter the first solve; "
             "updates continue during solve 1 to refine the space.")
    write_result("ablation_same_system", table)
