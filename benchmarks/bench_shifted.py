"""Benchmark of the shifted-system family engine on sweep workloads.

Two paper-shaped sweeps, each solved twice — once as a *family* on one
shared block-Arnoldi basis (``api.solve(..., shifts=[...])``) and once as
per-shift sequential solves (the universal baseline practice and the
bit-exact convergence oracle):

* **Maxwell frequency sweep** — edge-element stiffness/mass pair
  ``(K, M)`` on a tetrahedral box (PEC walls eliminated), solved at
  ``k`` damped frequencies ``sigma_i = -omega_i^2 (eps + i sigma/omega)``
  with uniform chamber materials: one ``SparseLU(M)`` and one Arnoldi
  sweep answer the whole frequency response;
* **Tikhonov lambda-sweep** — regularized normal equations
  ``(A^T A + lambda_i I) w_i = z_i`` across a log-spaced regularization
  path, one random GCV probe ``z_i`` per ``lambda_i`` (the randomized
  generalized-cross-validation workload).  The sweep is sized in the
  enlarged-basis regime (``restart * k`` on the order of ``n``) where one
  shared 8-wide cycle captures the whole path; outside it the family
  still pays far fewer reductions, but the width-8 flop term can eat the
  modeled win on this very ill-conditioned Gram operator.

Every number is ledger-derived: reductions per family, and modeled
seconds from :func:`repro.perfmodel.modeled_time` at ``nranks=64`` (the
paper's Curie configuration) — no wall clock, so the checked-in JSON is
byte-deterministic.

Gates (``--check``):

* modeled-time speedup of shared-basis over sequential >= ``GATE_SPEEDUP``
  (3x) at ``k = 8`` shifts, nranks=64, on **both** workloads;
* the reduction headline: the k=8 family pays <= ``GATE_FAMILY_RATIO``
  (1.25x) the global reductions of a single (k=1) solve;
* every shift of every workload converges, family and sequential alike.

Usage::

    PYTHONPATH=src python benchmarks/bench_shifted.py            # full
    PYTHONPATH=src python benchmarks/bench_shifted.py --quick    # CI-sized
    PYTHONPATH=src python benchmarks/bench_shifted.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # one BLAS thread, set before numpy loads: a threaded GEMM on a skinny
    # block measures thread contention, not the kernel
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    # allow running without PYTHONPATH=src
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import numpy as np
import scipy.sparse as sp

from repro import api
from repro.krylov.shifted import sequential_shifted_solves, shifted_matrix
from repro.perfmodel import modeled_time
from repro.util import ledger
from repro.util.ledger import CostLedger
from repro.util.options import Options

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_shifted.json"

NRANKS = 64               #: rank count for modeled time (paper's Curie runs)
GATE_SPEEDUP = 3.0        #: shared-basis over sequential, modeled, k=8
GATE_FAMILY_RATIO = 1.25  #: k=8 family reductions over a single solve

#: mesh resolution, Tikhonov operator size and restart, family width
FULL = {"mesh_n": 6, "tikhonov_n": 700, "tikhonov_restart": 90, "k": 8}
QUICK = {"mesh_n": 4, "tikhonov_n": 400, "tikhonov_restart": 60, "k": 8}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def maxwell_sweep(mesh_n: int, k: int):
    """Edge-element ``(K, M)`` pair + ``k`` damped frequency shifts."""
    from repro.problems.maxwell import (box_tet_mesh, _scatter_assemble,
                                        edge_element_matrices)

    mesh = box_tet_mesh(mesh_n)
    ke, me = edge_element_matrices(mesh)
    k_full = _scatter_assemble(mesh, ke)
    m_full = _scatter_assemble(mesh, me)
    free = np.setdiff1d(np.arange(mesh.n_edges), mesh.boundary_edges)
    stiff = sp.csr_matrix(k_full[free][:, free])
    mass = sp.csr_matrix(m_full[free][:, free])
    omegas = np.linspace(1.0, 2.0, k)
    eps_bg, sigma_bg = 2.0, 1.0  # uniform chamber materials
    shifts = [-(w ** 2) * (eps_bg + 1j * sigma_bg / w) for w in omegas]
    b = np.random.default_rng(42).standard_normal(stiff.shape[0])
    opts = Options(krylov_method="bgmres", gmres_restart=40, tol=1e-8,
                   max_it=6000, orthogonalization="cgs2_1r")
    return {"a": stiff, "mass": mass, "b": b, "shifts": shifts,
            "options": opts, "omegas": [float(w) for w in omegas]}


def tikhonov_sweep(n: int, k: int, restart: int):
    """Regularized normal equations across a log-spaced lambda path."""
    rng = np.random.default_rng(7)
    # mildly ill-posed second-difference-smoothed operator
    d = sp.diags([-np.ones(n - 1), np.ones(n)], [-1, 0], format="csr")
    a_op = (d.T @ d + 0.01 * sp.eye(n)).tocsr()
    gram = (a_op.T @ a_op).tocsr()
    b = rng.standard_normal((n, k))  # one GCV probe per lambda
    shifts = [float(s) for s in np.logspace(-3, -2, k)]
    opts = Options(krylov_method="bgcrodr", gmres_restart=restart,
                   recycle=10, tol=1e-8, max_it=6000,
                   orthogonalization="cgs2_1r")
    return {"a": gram, "mass": None, "b": b, "shifts": shifts,
            "options": opts}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
def _ledgered(fn):
    led = CostLedger()
    with ledger.install(led):
        out = fn()
    return out, led


def measure(workload: dict, name: str) -> dict:
    a, mass, b = workload["a"], workload["mass"], workload["b"]
    shifts, opts = workload["shifts"], workload["options"]
    k = len(shifts)

    b_one = b[:, :1] if b.ndim == 2 else b  # single solve, single probe
    fam, led_fam = _ledgered(lambda: api.solve(
        a, b, options=opts, shifts=shifts, mass=mass))
    one, led_one = _ledgered(lambda: api.solve(
        a, b_one, options=opts, shifts=shifts[:1], mass=mass))
    seq, led_seq = _ledgered(lambda: sequential_shifted_solves(
        a, b, shifts, mass=mass, options=opts))

    # oracle parity: family and sequential land on the same solutions
    max_gap = 0.0
    for i, (sigma, rf) in enumerate(zip(fam.shifts, fam.results)):
        b_i = b[:, i] if b.ndim == 2 else b
        rel = (np.linalg.norm(b_i - shifted_matrix(a, sigma, mass)
                              @ np.ravel(rf.x))
               / np.linalg.norm(b_i))
        max_gap = max(max_gap, float(rel))

    t_fam = float(modeled_time(led_fam, NRANKS, block_width=k).total)
    t_seq = float(modeled_time(led_seq, NRANKS, block_width=1).total)
    reds_fam = led_fam.counts()[0]
    reds_one = led_one.counts()[0]
    reds_seq = led_seq.counts()[0]
    return {
        "workload": name,
        "n": int(a.shape[0]),
        "k": k,
        "method": fam.method,
        "all_converged": bool(fam.converged.all()
                              and seq.converged.all()
                              and one.converged.all()),
        "family_iterations": int(fam.iterations),
        "sequential_iterations": int(seq.iterations),
        "max_true_residual": max_gap,
        "reductions": {
            "family_k": reds_fam,
            "single_solve": reds_one,
            "sequential_k": reds_seq,
            "family_over_single": reds_fam / reds_one,
            "sequential_over_family": reds_seq / reds_fam,
        },
        "modeled_seconds": {
            "family": t_fam,
            "sequential": t_seq,
            "nranks": NRANKS,
        },
        "modeled_speedup": t_seq / t_fam,
    }


def run(profile: dict, out_path: Path | None) -> dict:
    wall0 = time.perf_counter()
    k = profile["k"]
    maxwell = measure(maxwell_sweep(profile["mesh_n"], k), "maxwell")
    tikhonov = measure(tikhonov_sweep(profile["tikhonov_n"], k,
                                      profile["tikhonov_restart"]),
                       "tikhonov")
    wall = time.perf_counter() - wall0

    worst_speedup = min(maxwell["modeled_speedup"],
                        tikhonov["modeled_speedup"])
    worst_ratio = max(maxwell["reductions"]["family_over_single"],
                      tikhonov["reductions"]["family_over_single"])
    converged = maxwell["all_converged"] and tikhonov["all_converged"]
    gate = {
        "required_speedup": GATE_SPEEDUP,
        "speedup_maxwell": maxwell["modeled_speedup"],
        "speedup_tikhonov": tikhonov["modeled_speedup"],
        "family_ratio_max": GATE_FAMILY_RATIO,
        "family_over_single_maxwell":
            maxwell["reductions"]["family_over_single"],
        "family_over_single_tikhonov":
            tikhonov["reductions"]["family_over_single"],
        "all_converged": converged,
        "passed": (worst_speedup >= GATE_SPEEDUP
                   and worst_ratio <= GATE_FAMILY_RATIO
                   and converged),
    }
    report = {
        "description": "frequency/regularization sweeps solved as one "
                       "shared-basis shift family vs per-shift sequential "
                       "solves; reductions from the ledger, seconds from "
                       f"the perfmodel at nranks={NRANKS}",
        "profile": {key: profile[key] for key in sorted(profile)},
        "wall_seconds_informational": wall,
        "maxwell_frequency_sweep": maxwell,
        "tikhonov_lambda_sweep": tikhonov,
        "gate": gate,
    }
    if out_path is not None:
        out_path.parent.mkdir(exist_ok=True)
        payload = dict(report)
        payload.pop("wall_seconds_informational")  # keep the file diffable
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n")
    return report


def print_report(report: dict) -> None:
    print(f"# shifted-family engine, modeled at nranks={NRANKS}")
    for key in ("maxwell_frequency_sweep", "tikhonov_lambda_sweep"):
        r = report[key]
        reds = r["reductions"]
        print(f"{r['workload']:>9}: n={r['n']} k={r['k']} "
              f"[{r['method']}]  reductions family/single/seq = "
              f"{reds['family_k']}/{reds['single_solve']}/"
              f"{reds['sequential_k']}  "
              f"modeled speedup {r['modeled_speedup']:.1f}x  "
              f"converged {r['all_converged']} "
              f"(worst residual {r['max_true_residual']:.1e})")
    g = report["gate"]
    print(f" gate: speedup >= {g['required_speedup']:.0f}x "
          f"(maxwell {g['speedup_maxwell']:.1f}x, "
          f"tikhonov {g['speedup_tikhonov']:.1f}x) | "
          f"k-family <= {g['family_ratio_max']}x one solve "
          f"(maxwell {g['family_over_single_maxwell']:.2f}x, "
          f"tikhonov {g['family_over_single_tikhonov']:.2f}x) | "
          f"{'PASS' if g['passed'] else 'FAIL'}")


def test_shifted_gates():
    """Pytest entry: the quick gate, runnable as part of the bench suite."""
    report = run(QUICK, out_path=None)
    assert report["gate"]["passed"], report["gate"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized problems instead of the full profile")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless all gates pass")
    ap.add_argument("--out", type=Path, default=None,
                    help=f"JSON output path (default {RESULTS_PATH}; "
                         "--quick runs do not write unless --out is given)")
    args = ap.parse_args(argv)
    profile = QUICK if args.quick else FULL
    out_path = args.out if args.out is not None else (
        None if args.quick else RESULTS_PATH)
    report = run(profile, out_path)
    print_report(report)
    if out_path is not None:
        print(f"\nwrote {out_path}")
    if args.check and not report["gate"]["passed"]:
        print("PERF GATE FAILED:", json.dumps(report["gate"], indent=2))
        return 1
    if args.check:
        print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
