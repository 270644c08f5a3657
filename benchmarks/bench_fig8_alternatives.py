"""Fig. 8 — eight alternatives for solving the 32-RHS Maxwell system.

The paper's headline table (section V-C): a chamber with an immersed
plastic cylinder, 32 antenna RHSs, ORAS preconditioning, and eight ways to
organize the solves — consecutive GMRES(50) (the reference, 3078s),
consecutive GCRO-DR, pseudo-block and true block GMRES, and
pseudo-block/block GCRO-DR on the full block or sub-blocks of 8.  Every
alternative beats the reference by at least ~2x; the wall-clock winner is
BGCRO-DR on sub-blocks (4.5x), and BGMRES/BGCRO-DR on the full block
divide the iteration count by two orders of magnitude.

Reproduction at laptop scale: 16 antennas on the inclusion phantom,
sub-blocks of 4.  The speedups of the block alternatives come from SpMM
fusion and blocked subdomain solves, both measured here; the *recycling*
increments are muted because per-antenna iteration counts are ~60 instead
of the paper's 627 (see EXPERIMENTS.md).

The shape is gated on counts the run takes anyway — block iterations (one
blocked ORAS application each) and the columns pushed through the
preconditioner (the ``schwarz_apply`` event of a ledger installed around
each alternative).  The wall speedups shrink every time a kernel the
width-1 reference leans on gets faster (12.5x -> 1.6x for alternative 3
since the triangular sweep was blocked), so they are the recorded table,
not a gate.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Options, Solver, install_ledger, solve
from repro.precond.schwarz import SchwarzPreconditioner
from repro.problems.maxwell import (antenna_ring_rhs, decompose_maxwell,
                                    maxwell_chamber)

from common import format_table, write_result

N = 8
OMEGA = 8.0
N_ANTENNAS = 16
SUB = 4
TOL = 1e-8


@pytest.fixture(scope="module")
def fig8_setup():
    prob = maxwell_chamber(N, omega=OMEGA, inclusion_radius=0.15)
    b = antenna_ring_rhs(prob, n_antennas=N_ANTENNAS)
    t0 = time.perf_counter()
    dec = decompose_maxwell(prob, 8, overlap=2, impedance=True)
    m = SchwarzPreconditioner(prob.a, variant="oras",
                              decomposition=dec.decomposition,
                              local_matrices=dec.local_matrices)
    t_setup = time.perf_counter() - t0
    return prob, b, m, t_setup


def _run_alternatives(prob, b, m):
    base = Options(krylov_method="gmres", gmres_restart=50, tol=TOL,
                   variant="right", max_it=4000)
    alts = []

    def consecutive(label, options, width):
        with install_ledger() as led:
            t0 = time.perf_counter()
            s = Solver(m, options=options)
            tot = 0
            for j in range(0, N_ANTENNAS, width):
                res = s.solve(prob.a, b[:, j: j + width])
                assert res.converged.all(), label
                tot += res.iterations
            dt = time.perf_counter() - t0
        alts.append((label, width, dt, tot, led.calls["schwarz_apply"]))

    def single(label, options):
        with install_ledger() as led:
            t0 = time.perf_counter()
            res = solve(prob.a, b, m, options=options)
            assert res.converged.all(), label
            dt = time.perf_counter() - t0
        alts.append((label, N_ANTENNAS, dt, res.iterations,
                     led.calls["schwarz_apply"]))

    gcro = base.replace(krylov_method="gcrodr", recycle=10,
                        recycle_same_system=True)
    bgcro = gcro.replace(krylov_method="bgcrodr")
    consecutive("1) consecutive GMRES(50)", base, 1)
    consecutive("2) consecutive GCRO-DR(50,10)", gcro, 1)
    single("3) pseudo-BGMRES(50)", base)
    single("4) BGMRES(50)", base.replace(krylov_method="bgmres"))
    consecutive(f"5) pseudo-BGCRO-DR(50,10) x{N_ANTENNAS // SUB}, p={SUB}",
                gcro, SUB)
    single("6) pseudo-BGCRO-DR(50,10), full block", gcro)
    consecutive(f"7) BGCRO-DR(50,10) x{N_ANTENNAS // SUB}, p={SUB}",
                bgcro, SUB)
    single("8) BGCRO-DR(50,10), full block", bgcro)
    return alts


def test_fig8_alternatives(benchmark, fig8_setup):
    prob, b, m, t_setup = fig8_setup
    benchmark(m.apply, b[:, :SUB])   # kernel: one blocked ORAS application

    alts = _run_alternatives(prob, b, m)
    t_ref = alts[0][2]
    its = {label: it for label, _, _, it, _ in alts}
    cols = {label: c for label, _, _, _, c in alts}
    ref = "1) consecutive GMRES(50)"

    # --- shape assertions, on counts (who wins, by roughly what factor) ---
    # every (pseudo-)block alternative applies the preconditioner — one
    # blocked ORAS application per block iteration — far less often than
    # the reference (paper: >= 2.0x faster for all of 3-8)
    for label in list(its)[2:]:
        assert 1.8 * its[label] < its[ref], (label, its)
    # a true-block alternative pushes the fewest columns through the
    # subdomain solves (paper: alt 7 is the wall-clock winner)
    best = min(cols, key=cols.get)
    assert "BG" in best and "pseudo" not in best, cols
    assert 2.0 * cols[best] < cols[ref], cols
    # the full-block methods crush the iteration count (paper: 20068 -> 127)
    assert its["4) BGMRES(50)"] < 0.1 * its[ref]
    assert its["8) BGCRO-DR(50,10), full block"] <= its["4) BGMRES(50)"] + 20

    rows = [(label, p, round(dt, 1), it, c, f"{t_ref / dt:.1f}x")
            for label, p, dt, it, c in alts]
    table = format_table(
        ["alternative", "p", "solve (s)", "iterations", "ORAS columns",
         "speedup"],
        rows,
        title=f"Fig. 8 reproduction - Maxwell chamber with plastic-cylinder "
              f"inclusion\n({prob.n} complex unknowns, {N_ANTENNAS} antenna "
              f"RHSs, ORAS on 8 subdomains; setup {t_setup:.1f}s, paid once)",
        note="Paper (32 RHSs, 89M unknowns): every alternative beats the "
             "reference; block iterations advance all\ncolumns at once "
             "(iteration counts of p>1 rows are block iterations, not "
             "per-RHS; ORAS columns = right-hand\nsides pushed through the "
             "subdomain solves).  Gated on the two count columns; the wall "
             "columns are\nthis run's record.\nPaper speedups: 1.7 / 2.0 / "
             "4.2 / 2.3 / 2.2 / 4.5 / 3.1 for alternatives 2-8.")
    write_result("fig8_alternatives", table)
