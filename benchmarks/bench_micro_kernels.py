"""Microbenchmarks of the kernels the solvers spend their time in.

Each section times a shipped kernel against the reference formulation it
replaced (kept as a test oracle under ``tests/fixtures/``) and records the
counts that pin it — reductions per orthogonalization step, flops one
deflation extraction or one AMG V-cycle is charged, sweep steps of the
blocked triangular solve — in ``benchmarks/results/BENCH_kernels.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_micro_kernels.py           # full
    PYTHONPATH=src python benchmarks/bench_micro_kernels.py --quick   # CI
    PYTHONPATH=src python benchmarks/bench_micro_kernels.py --quick --check

``--check`` exits nonzero unless the low-synchronization orthogonalization
engine meets its budget (CGS2-1r: <= 2 reductions per Arnoldi step on the
40-block p=8 basis, where MGS pays 321, at equal final orthogonality; its
wall-clock ratio over MGS is recorded and held to the previous trajectory
entry by ``scripts/bench_compare.py``, not to an absolute floor — it reads
1.2-1.8x on an untouched checkout), AND the
blocked triangular sweep needs at most a quarter of the row levels on the
global LU factor while storing at most 1.25 nnz, AND the BLAS pseudo-block
projector cores beat their einsum oracle by >= 2x, AND the live-work AMG
V-cycle / vectorized SA set-up / p = 1 Givens update beat their first
formulations by >= 1.2x / 2x / 3x with the same bytes (AMG) or the same
answer and ledger charge (Givens) — the repo's perf regression gates.  The
``deflation`` section records what one thin-QR / reordered-Schur extraction
is charged and how it compares with the Gram + QZ oracle (tracked by
``scripts/bench_compare.py``, not gated here).

Everything runs on one BLAS thread (set before numpy loads when run as a
script; ``benchmarks/conftest.py`` refuses more under pytest).
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
# the reference formulations the new kernels are timed against are the
# test oracles (tests/fixtures/reference_{deflation,pb_projector,amg,
# hessenberg}.py, tests/fixtures/rowlevel_trisolve.py)
_tests = Path(__file__).resolve().parent.parent / "tests"
if str(_tests) not in sys.path:
    sys.path.insert(0, str(_tests))

import numpy as np
import scipy.sparse as sp

from repro.direct.triangular import TriangularFactor, _levels_frontier

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_kernels.json"

# grid 96 -> n = 9216, the size regime of the repo's simulated scaling
# studies (benchmarks/bench_fig7_strong_scaling.py and friends)
FULL = {"grid": 96, "p": 8, "repeats": 11, "ortho_blocks": 40}
QUICK = {"grid": 64, "p": 8, "repeats": 3, "ortho_blocks": 40}


def laplacian_2d(nx: int) -> sp.csr_matrix:
    e = np.ones(nx)
    t = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1])
    eye = sp.eye(nx)
    return (sp.kron(eye, t) + sp.kron(t, eye)).tocsr()


def _time(fn, repeats: int) -> float:
    """Best-of-N wall time in seconds (min is robust to scheduler noise)."""
    fn()  # warm up caches / lazy builds
    fn()
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_pair(fn, ref, repeats: int) -> tuple[float, float]:
    """Best-of-N of ``fn`` and of ``ref``, timed in alternation so that a
    slow phase of the host falls on both and their ratio survives it."""
    fn(), ref()
    best = [np.inf, np.inf]
    for _ in range(repeats):
        for i, f in enumerate((fn, ref)):
            t0 = time.perf_counter()
            f()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best[0], best[1]


def bench_level_schedule(cfg: dict) -> tuple[list[dict], dict]:
    """Level analysis (frontier-batched vs per-row reference) and the
    blocked sweep built on it.

    Two DAG shapes, matching where triangular factors are analysed in
    practice:

    * ``global_lu`` — the L factor of the benchmark Laplacian's LU: deep
      and skinny (the adaptive fallback handles the narrow tail);
    * ``block_diag`` — 64 subdomain factors side by side, the shape of the
      Schwarz preconditioner's batched factor: wide frontiers, where the
      batched propagation wins by an order of magnitude.

    Returns the timing rows and, per workload, what a
    :class:`~repro.direct.triangular.TriangularFactor` makes of it: levels
    of the row DAG, sweep steps of a solve (levels of the block DAG) and
    stored entries over ``nnz`` — counts, exact for a fixed config.
    """
    import scipy.sparse.linalg as spla

    a = laplacian_2d(cfg["grid"]).tocsc()
    sub = laplacian_2d(max(cfg["grid"] // 4, 4)).tocsc()
    workloads = {
        "global_lu": sp.tril(sp.csr_matrix(spla.splu(a).L), k=-1).tocsr(),
        "block_diag": sp.block_diag(
            [sp.tril(sp.csr_matrix(spla.splu(sub).L), k=-1)] * 64,
            format="csr"),
    }
    from fixtures.rowlevel_trisolve import levels_by_row

    impls = {"reference": levels_by_row,
             "frontier": _levels_frontier}
    rows, sweep = [], {}
    for workload, strict in workloads.items():
        n = strict.shape[0]
        ref = impls["reference"](n, strict.indptr, strict.indices)
        assert np.array_equal(ref, impls["frontier"](
            n, strict.indptr, strict.indices))
        tri = TriangularFactor(strict + sp.eye(n), lower=True,
                               unit_diagonal=True)
        sweep[workload] = {"row_levels": int(ref.max()) + 1,
                           "solve_steps": tri.n_levels,
                           "stored_over_nnz": tri.stored_nnz / tri.nnz}
        for mode, fn in impls.items():
            seconds = _time(lambda: fn(n, strict.indptr, strict.indices),
                            cfg["repeats"])
            rows.append({"kernel": "level_schedule", "workload": workload,
                         "nnz": int(strict.nnz), "n": n, "mode": mode,
                         "seconds": seconds})
    return rows, sweep


def bench_orthogonalization(cfg: dict) -> dict:
    """Low-synchronization block Arnoldi engines vs the MGS oracle.

    Builds a ``cfg["ortho_blocks"]``-block, width-``p`` orthonormal basis
    (the 40-block p=8 configuration of the headline claim) with each engine
    and with column-wise MGS, measuring wall time, ledger-counted
    reductions per step, and the final loss of orthogonality
    ``|I - Q^H Q|_F``.  CGS2-1r must deliver MGS-quality orthogonality at
    <= 2 reductions per step — the gate in :func:`check_gate`; the wall
    ratio over MGS is recorded (``speedup_over_mgs``), not gated here.
    """
    from repro.krylov.basis import BasisArena
    from repro.la.orthogonalization import (LOW_SYNC_SCHEMES, householder_qr,
                                            make_arnoldi_engine, project_out)
    from repro.util import ledger as ledger_mod
    from repro.util.ledger import CostLedger

    n, p = cfg["grid"] ** 2, cfg["p"]
    blocks = cfg["ortho_blocks"]
    rng = np.random.default_rng(20260705)
    v1, _ = householder_qr(rng.standard_normal((n, p)))
    ws = [rng.standard_normal((n, p)) for _ in range(blocks)]

    def build(scheme):
        led = CostLedger()
        per_step = []
        with ledger_mod.install(led):
            if scheme == "mgs":
                q_mat = v1
                for w in ws:
                    before = led.counts()[0]
                    w2, _ = project_out(q_mat, w, scheme="mgs")
                    q, _ = householder_qr(w2)
                    per_step.append(led.counts()[0] - before)
                    q_mat = np.concatenate([q_mat, q], axis=1)
                qfull = q_mat
            else:
                eng = make_arnoldi_engine(scheme, max_cols=(blocks + 1) * p)
                eng.begin(v1)
                arena = BasisArena(n, p, 0, blocks, v1.dtype)
                arena.bind(v1, None, max_steps=blocks)
                for w in ws:
                    arena.slot()[:] = w
                    before = led.counts()[0]
                    q, _h, _r, _rank, _e = eng.step(arena.stacked(), p)
                    per_step.append(led.counts()[0] - before)
                    arena.slot()[:] = q
                    arena.advance()
                qfull = arena.basis()
        g = qfull.T @ qfull
        loo = float(np.linalg.norm(g - np.eye(g.shape[0])))
        return per_step, loo

    out = {}
    for scheme in ("mgs",) + tuple(LOW_SYNC_SCHEMES):
        per_step, loo = build(scheme)
        seconds = _time(lambda: build(scheme), cfg["repeats"])
        out[scheme] = {
            "seconds": seconds, "loss_of_orthogonality": loo,
            "reductions_total": int(sum(per_step)),
            "reductions_per_step_max": int(max(per_step)),
            "reductions_last_step": int(per_step[-1]),
        }
    for scheme, row in out.items():
        row["speedup_over_mgs"] = out["mgs"]["seconds"] / row["seconds"]
    return out


def bench_deflation(cfg: dict) -> dict:
    """One restart extraction (paper line 33) on a fixed 258 x 250 pencil.

    ``G_m`` as ``bgcrodr(m=40, k=10)`` at p = 8 builds it after a full
    30-step cycle — diagonal ``D_k``, dense ``E_k``, block-Hessenberg
    ``H-bar`` — with the strategy-B right factor.  Records what the
    thin-QR / reordered-Schur extraction charges the ledger (a formula of
    the shape: exact) and its wall time against the Gram + QZ +
    eigenvector-splitting oracle, whose subspace it must reproduce.
    """
    from fixtures.reference_deflation import (
        make_pencil, reference_generalized_ritz_vectors)

    from repro.krylov.deflation import generalized_ritz_vectors
    from repro.util import ledger as ledger_mod

    k = 10
    gm, w_hat = make_pencil(np.random.default_rng(20260705), np.float64, "B",
                            k=k, j=30, p=8, offdiag=0.3)    # cond(G_m) ~ 50
    rows, cols = gm.shape
    repeats = max(cfg["repeats"], 9)     # 30-100 ms calls: best-of-3 is noise
    with ledger_mod.install() as led:
        pk = generalized_ritz_vectors(gm, w_hat, k, dtype=gm.dtype)
    ref = reference_generalized_ritz_vectors(gm, w_hat, k, dtype=gm.dtype)
    seconds, seconds_reference = _time_pair(
        lambda: generalized_ritz_vectors(gm, w_hat, k, dtype=gm.dtype),
        lambda: reference_generalized_ritz_vectors(gm, w_hat, k,
                                                   dtype=gm.dtype), repeats)
    out = {
        "problem": {"rows": rows, "cols": cols, "k": k, "strategy": "B"},
        "flops_charged": dict(led.flops),
        "eig_flops_charged": led.total_flops(),
        "qz_flops_charged": 50.0 * cols ** 3,      # what QZ was charged
        "subspace_gap": float(np.linalg.norm(ref - pk @ (pk.T @ ref), 2)),
        "seconds": seconds, "seconds_reference": seconds_reference,
    }
    out["speedup_over_reference"] = out["seconds_reference"] / out["seconds"]
    return out


def bench_pb_projector(cfg: dict) -> dict:
    """BLAS pseudo-block projector cores vs their einsum oracle.

    One ``cgs2_1r`` step (two dots + two updates, what ``heat_ensemble_amg``
    runs) and one ``cgs`` step at n = 4096, p = 4 against a 25-deep basis:
    the shipped cores on the ``(cols, p, n)``-stored tensor, the einsum
    cores of ``tests/fixtures/reference_pb_projector.py`` on the
    ``(cols, n, p)`` storage they were written for.
    """
    from fixtures import reference_pb_projector as ref

    from repro.la import orthogonalization as ortho

    n, p, depth = 4096, 4, 25
    rng = np.random.default_rng(20260705)
    q, _ = np.linalg.qr(rng.standard_normal((n, depth * p)))
    old = np.ascontiguousarray(q.reshape(n, depth, p).transpose(1, 0, 2))
    new = ortho.pseudo_block_tensor(depth, n, p, q.dtype)
    new[:] = old
    w = rng.standard_normal((n, p))
    repeats = max(cfg["repeats"], 25)    # sub-millisecond calls
    out = {"problem": {"n": n, "p": p, "depth": depth}, "cores": {}}
    for name, kwargs in (("_pb_step_cgs2_1r", {}),
                         ("_pb_step_cgs", {"iterated": False})):
        blas, einsum = getattr(ortho, name), getattr(ref, name)
        gap = float(np.linalg.norm(blas(new, w, **kwargs)[0]
                                   - einsum(old, w, **kwargs)[0]))
        seconds, seconds_reference = _time_pair(
            lambda: blas(new, w, **kwargs), lambda: einsum(old, w, **kwargs),
            repeats)
        row = {"seconds": seconds, "seconds_reference": seconds_reference,
               "remainder_gap": gap}
        row["speedup_over_reference"] = (row["seconds_reference"]
                                         / row["seconds"])
        out["cores"][name] = row
    return out


def bench_amg(cfg: dict) -> dict:
    """One V-cycle and one set-up on ``heat_ensemble_amg``'s first operator.

    The 64 x 64 implicit heat operator of the e2e workload (4 096 -> 704 ->
    80 unknowns), a p = 4 block, default AMG options.  The production
    kernels against ``tests/fixtures/reference_amg.py``: the same bytes out
    of ``apply`` and the same hierarchy, fewer sparse products (the SPMM
    charge is a formula of the hierarchy: exact), and the set-up without
    per-node / per-aggregate Python.
    """
    from fixtures import reference_amg as ref

    from repro.direct.solver import SparseLU
    from repro.precond.amg import SmoothedAggregationAMG
    from repro.problems.transient import HeatSequence
    from repro.util import ledger as ledger_mod
    from repro.util.ledger import Kernel

    seq = HeatSequence(nx=64, n_steps=1, dt0=5e-4, epoch_length=15,
                       growth=1.25)
    a = seq.operator(seq.steps()[0])
    amg = SmoothedAggregationAMG(a)
    x = np.random.default_rng(20260705).standard_normal((a.shape[0], 4))
    with ledger_mod.install() as led:
        y = amg.apply(x)
    with ledger_mod.install() as led_ref:
        y_ref = ref.apply(amg, x)
    levels = ref.build_levels(a)
    same_hierarchy = len(levels) == amg.n_levels and all(
        (lv.a != a_ref).nnz == 0 and np.array_equal(lv.diag, diag_ref)
        and (lv.p is None if p_ref is None else (lv.p != p_ref).nnz == 0)
        for lv, (a_ref, p_ref, diag_ref) in zip(amg.levels, levels))
    repeats = max(cfg["repeats"], 25)    # ~1 ms calls
    apply_s, apply_ref_s = _time_pair(lambda: amg.apply(x),
                                      lambda: ref.apply(amg, x), repeats)

    def setup_reference():       # like for like: the coarse LU included
        SparseLU(ref.build_levels(a)[-1][0])

    setup_s, setup_ref_s = _time_pair(lambda: SmoothedAggregationAMG(a),
                                      setup_reference, max(cfg["repeats"], 5))
    return {
        "problem": {"n": a.shape[0], "p": 4,
                    "levels": [lv.a.shape[0] for lv in amg.levels]},
        "vcycle_spmm_flops": led.flops[Kernel.SPMM],
        "vcycle_spmm_flops_reference": led_ref.flops[Kernel.SPMM],
        "operator_apply_columns": led.calls["operator_apply"],
        "operator_apply_columns_reference": led_ref.calls["operator_apply"],
        "apply_bytes_identical": y.tobytes() == y_ref.tobytes(),
        "hierarchy_identical": bool(same_hierarchy),
        "apply": {"seconds": apply_s, "seconds_reference": apply_ref_s,
                  "speedup_over_reference": apply_ref_s / apply_s},
        "setup": {"seconds": setup_s, "seconds_reference": setup_ref_s,
                  "speedup_over_reference": setup_ref_s / setup_s},
    }


def bench_hessenberg_p1(cfg: dict) -> dict:
    """30 columns through a ``p = 1`` Hessenberg QR: Givens rotations vs
    the 2 x 2-panel oracle of ``tests/fixtures/reference_hessenberg.py``
    (what every column of a pseudo-block solve pays per iteration)."""
    from fixtures.reference_hessenberg import ReferenceBlockHessenbergQR

    from repro.la.blockqr import BlockHessenbergQR
    from repro.util import ledger as ledger_mod

    m = 30
    rng = np.random.default_rng(20260705)
    cols = [rng.standard_normal((j + 2, 1)) for j in range(m)]
    s1 = np.array([[2.5]])

    def feed(cls):
        hqr = cls(m, 1, s1)
        for c in cols:
            hqr.add_column(c)
        return hqr

    with ledger_mod.install() as led:
        new = feed(BlockHessenbergQR)
    with ledger_mod.install() as led_ref:
        old = feed(ReferenceBlockHessenbergQR)
    seconds, seconds_reference = _time_pair(
        lambda: feed(BlockHessenbergQR),
        lambda: feed(ReferenceBlockHessenbergQR), max(cfg["repeats"], 25))
    y_new, y_old = new.solve(), old.solve()
    return {
        "problem": {"columns": m, "p": 1},
        "solution_gap": float(np.abs(y_new - y_old).max()
                              / np.abs(y_old).max()),
        "counts_identical": led.counts() == led_ref.counts(),
        "seconds": seconds, "seconds_reference": seconds_reference,
        "speedup_over_reference": seconds_reference / seconds,
    }


def run(cfg: dict, out_path: Path | None) -> dict:
    ortho = bench_orthogonalization(cfg)
    sched_rows, sched_sweep = bench_level_schedule(cfg)
    deflation = bench_deflation(cfg)
    pb_projector = bench_pb_projector(cfg)
    amg = bench_amg(cfg)
    hessenberg_p1 = bench_hessenberg_p1(cfg)
    sched_t = {(r["workload"], r["mode"]): r["seconds"] for r in sched_rows}
    report = {
        "description": "shipped kernels against their reference "
                       "formulations; seconds are best-of-N wall times on "
                       "one BLAS thread",
        "problem": {"matrix": f"2-D Laplacian {cfg['grid']}x{cfg['grid']}",
                    "n": cfg["grid"] ** 2, "block_width_p": cfg["p"],
                    "repeats": cfg["repeats"]},
        "orthogonalization": {
            "problem": {"n": cfg["grid"] ** 2, "p": cfg["p"],
                        "blocks": cfg["ortho_blocks"]},
            "schemes": ortho,
        },
        "level_schedule": {
            "results": sched_rows,
            "speedup_frontier_over_reference": {
                w: sched_t[(w, "reference")] / sched_t[(w, "frontier")]
                for w in {r["workload"] for r in sched_rows}},
            "sweep": sched_sweep,
        },
        "deflation": deflation,
        "pb_projector": pb_projector,
        "amg": amg,
        "hessenberg_p1": hessenberg_p1,
    }
    if out_path is not None:
        out_path.parent.mkdir(exist_ok=True)
        out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def print_report(report: dict) -> None:
    print(f"# {report['problem']['matrix']}, p={report['problem']['block_width_p']}")
    ortho = report.get("orthogonalization")
    if ortho:
        prob = ortho["problem"]
        print(f"\n# orthogonalization: {prob['blocks']}-block p={prob['p']} "
              f"basis, n={prob['n']}")
        print(f"{'scheme':>10} {'seconds':>12} {'vs mgs':>8} "
              f"{'reds/step':>10} {'loo':>10}")
        for scheme, row in ortho["schemes"].items():
            print(f"{scheme:>10} {row['seconds']:>12.3e} "
                  f"{row['speedup_over_mgs']:>7.1f}x "
                  f"{row['reductions_per_step_max']:>10d} "
                  f"{row['loss_of_orthogonality']:>10.1e}")
    sched = report.get("level_schedule")
    if sched:
        st = {(r["workload"], r["mode"]): r for r in sched["results"]}
        print(f"\n{'level_schedule':>14} {'workload':>11} {'reference':>12} "
              f"{'frontier':>12} {'speedup':>8}")
        for w, ratio in sorted(sched["speedup_frontier_over_reference"].items()):
            rr, fr = st[(w, "reference")], st[(w, "frontier")]
            print(f"{'nnz=' + str(rr['nnz']):>14} {w:>11} "
                  f"{rr['seconds']:>12.3e} {fr['seconds']:>12.3e} "
                  f"{ratio:>7.1f}x")
        for w, row in sorted(sched["sweep"].items()):
            print(f"{'blocked sweep':>14} {w:>11} {row['row_levels']:>6d} row "
                  f"levels -> {row['solve_steps']:>4d} steps, stored/nnz "
                  f"{row['stored_over_nnz']:.3f}")
    defl = report.get("deflation")
    if defl:
        prob = defl["problem"]
        print(f"\n# deflation: one restart extraction, {prob['rows']} x "
              f"{prob['cols']} pencil, k={prob['k']}")
        print(f"{'thin QR+Schur':>14} {defl['seconds']:>12.3e}  charged "
              f"{defl['eig_flops_charged']:.3e} flops")
        print(f"{'Gram+QZ':>14} {defl['seconds_reference']:>12.3e}  charged "
              f"{defl['qz_flops_charged']:.3e} flops "
              f"({defl['speedup_over_reference']:.1f}x slower; subspace gap "
              f"{defl['subspace_gap']:.1e})")
    pb = report.get("pb_projector")
    if pb:
        prob = pb["problem"]
        print(f"\n# pseudo-block projector: n={prob['n']} p={prob['p']} "
              f"depth={prob['depth']}")
        print(f"{'core':>18} {'einsum':>12} {'blas':>12} {'speedup':>8}")
        for name, row in pb["cores"].items():
            print(f"{name:>18} {row['seconds_reference']:>12.3e} "
                  f"{row['seconds']:>12.3e} "
                  f"{row['speedup_over_reference']:>7.1f}x")
    amg = report.get("amg")
    if amg:
        prob = amg["problem"]
        print(f"\n# amg: heat operator n={prob['n']} p={prob['p']}, levels "
              f"{' -> '.join(map(str, prob['levels']))}")
        print(f"{'':>18} {'reference':>12} {'shipped':>12} {'speedup':>8}")
        for name in ("apply", "setup"):
            row = amg[name]
            print(f"{name:>18} {row['seconds_reference']:>12.3e} "
                  f"{row['seconds']:>12.3e} "
                  f"{row['speedup_over_reference']:>7.1f}x")
        print(f"{'V-cycle SPMM flops':>18} "
              f"{amg['vcycle_spmm_flops_reference']:>12.0f} "
              f"{amg['vcycle_spmm_flops']:>12.0f}  (same bytes: "
              f"{amg['apply_bytes_identical']}, same hierarchy: "
              f"{amg['hierarchy_identical']})")
    hp1 = report.get("hessenberg_p1")
    if hp1:
        print(f"\n# hessenberg p=1: {hp1['problem']['columns']} columns")
        print(f"{'panels':>18} {hp1['seconds_reference']:>12.3e}")
        print(f"{'givens':>18} {hp1['seconds']:>12.3e} "
              f"{hp1['speedup_over_reference']:>7.1f}x  (solution gap "
              f"{hp1['solution_gap']:.1e}, same charge: "
              f"{hp1['counts_identical']})")


def check_gate(report: dict) -> list[str]:
    """Regression gates.

    1. the low-sync orthogonalization headline: CGS2-1r builds the
       40-block p=8 basis in <= 2 reductions per step at every depth
       (MGS: 321 at the last), at equivalent final orthogonality — counts;
       the wall ratio over MGS is a trajectory ``ratio`` metric;
    2. the blocked triangular sweep: at most a quarter of the row levels
       on the global LU factor, stored entries within 1.25 nnz on both
       factor shapes (counts, not timers);
    3. the pseudo-block projector: the BLAS ``cgs2_1r`` core >= 2x its
       einsum oracle at n = 4096, p = 4, depth 25 (a stride ``np.matmul``
       cannot hand to BLAS falls back to a scalar loop *silently* and
       reads ~1x), with equal remainders;
    4. the AMG kernels against their first formulations: one V-cycle
       >= 1.2x, one set-up >= 2x, same ``apply`` bytes, same hierarchy;
    5. the ``p = 1`` Hessenberg update: Givens rotations >= 3x the 2 x 2
       panels over 30 columns, same solution (1e-12), same ledger charge.
    """
    failures = []
    amg = report.get("amg")
    if amg is None:
        failures.append("amg: no measurement")
    else:
        for name, gate in (("apply", 1.2), ("setup", 2.0)):
            ratio = amg[name]["speedup_over_reference"]
            if ratio < gate:
                failures.append(f"amg: {name} only {ratio:.2f}x over the "
                                f"reference formulation (gate: {gate}x)")
        if not amg["apply_bytes_identical"]:
            failures.append("amg: apply output differs from the reference "
                            "V-cycle (must be the same bytes)")
        if not amg["hierarchy_identical"]:
            failures.append("amg: hierarchy differs from the reference "
                            "set-up")
    hp1 = report.get("hessenberg_p1")
    if hp1 is None:
        failures.append("hessenberg_p1: no measurement")
    else:
        if hp1["speedup_over_reference"] < 3.0:
            failures.append(f"hessenberg_p1: Givens only "
                            f"{hp1['speedup_over_reference']:.2f}x over the "
                            "panel update (gate: 3x)")
        if hp1["solution_gap"] > 1e-12 or not hp1["counts_identical"]:
            failures.append(f"hessenberg_p1: Givens and panel updates "
                            f"disagree (solution gap "
                            f"{hp1['solution_gap']:.1e}, same charge: "
                            f"{hp1['counts_identical']})")
    core = report.get("pb_projector", {}).get("cores", {}).get(
        "_pb_step_cgs2_1r")
    if core is None:
        failures.append("pb_projector: no measurement")
    else:
        if core["speedup_over_reference"] < 2.0:
            failures.append(f"pb_projector: BLAS cgs2_1r core only "
                            f"{core['speedup_over_reference']:.2f}x over the "
                            "einsum oracle (gate: 2x)")
        if core["remainder_gap"] > 1e-12:
            failures.append(f"pb_projector: BLAS and einsum remainders "
                            f"differ by {core['remainder_gap']:.1e}")
    sweep = report.get("level_schedule", {}).get("sweep", {})
    for workload in ("global_lu", "block_diag"):
        row = sweep.get(workload)
        if row is None:
            failures.append(f"level_schedule: no sweep counts for {workload}")
            continue
        if row["stored_over_nnz"] > 1.25:
            failures.append(f"level_schedule: {workload} sweep stores "
                            f"{row['stored_over_nnz']:.2f}x nnz (cap: 1.25)")
        if (workload == "global_lu"
                and row["solve_steps"] > row["row_levels"] / 4):
            failures.append(f"level_schedule: global_lu sweep takes "
                            f"{row['solve_steps']} steps for "
                            f"{row['row_levels']} row levels (gate: 1/4)")
    ortho = report.get("orthogonalization", {}).get("schemes")
    if not ortho:
        failures.append("orthogonalization: no measurements")
        return failures
    mgs, low = ortho["mgs"], ortho["cgs2_1r"]
    if low["reductions_per_step_max"] > 2:
        failures.append(f"cgs2_1r: {low['reductions_per_step_max']} "
                        "reductions in a step (budget: 2)")
    loo_cap = max(10.0 * mgs["loss_of_orthogonality"], 1e-12)
    if low["loss_of_orthogonality"] > loo_cap:
        failures.append(f"cgs2_1r: LOO {low['loss_of_orthogonality']:.1e} > "
                        f"{loo_cap:.1e} (10x the MGS oracle)")
    if ortho["cholqr2"]["reductions_per_step_max"] > 2:
        failures.append("cholqr2: reduction budget exceeded")
    if ortho["sketched"]["reductions_per_step_max"] > 1:
        failures.append("sketched: reduction budget exceeded")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small problem, few repeats (CI-sized)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if a kernel misses its gate")
    ap.add_argument("--out", type=Path, default=None,
                    help=f"JSON output path (default {RESULTS_PATH}; "
                         "--quick runs do not write unless --out is given)")
    args = ap.parse_args(argv)
    cfg = QUICK if args.quick else FULL
    out_path = args.out if args.out is not None else (
        None if args.quick else RESULTS_PATH)
    report = run(cfg, out_path)
    print_report(report)
    if out_path is not None:
        print(f"\nwrote {out_path}")
    if args.check:
        failures = check_gate(report)
        if failures:
            print("PERF GATE FAILED:\n  " + "\n  ".join(failures))
            return 1
        print("perf gate passed: every kernel meets its gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
