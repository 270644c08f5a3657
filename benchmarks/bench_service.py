"""Benchmark of the solve service: coalescing + setup caching vs sequential.

Submits ``n_requests`` independent Poisson solves (distinct random RHS,
one shared operator) two ways and compares the *amortized per-request
cost*:

* **sequential** — one :func:`repro.solve` call per request, each
  rebuilding the Schwarz-style LU setup from scratch (what a caller
  without the service does);
* **coalesced** — the same requests through a
  :class:`~repro.service.SolveService` with an LRU
  :class:`~repro.service.cache.SetupCache`: RHS sharing the operator
  fingerprint are batched into ``n x p`` block solves (``service_pmax``
  columns) and setup is charged once, on the first batch.

Cost is deterministic: ledgers record reductions / messages / flops, and
:func:`repro.perfmodel.estimate.modeled_time` converts them to modeled
seconds on the reference machine at ``nranks`` — wall time is reported
for information only.  The per-request attribution is taken from
``result.info["service"]["cost"]`` (sum over requests equals the batch
totals exactly; see ``tests/test_service.py``).

Every solve runs with ``verify="cheap"`` (the PR-2 invariant checker) and
the script asserts zero violations on the service path, plus equal final
residual quality between the two strategies.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick    # CI
    PYTHONPATH=src python benchmarks/bench_service.py --quick --check

``--check`` exits nonzero unless the coalesced amortized cost is at least
``GATE_SPEEDUP`` times cheaper than sequential (the repo's perf gate for
this subsystem).
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

from repro import Options, solve
from repro.perfmodel.estimate import modeled_time
from repro.service import SolveService
from repro.util import ledger
from repro.util.ledger import CostLedger

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_service.json"

#: the acceptance gate: coalesced amortized modeled cost must beat
#: sequential by at least this factor at the full configuration
GATE_SPEEDUP = 2.0

FULL = {"grid": 40, "n_requests": 16, "pmax": 16, "nranks": 64,
        "tol": 1e-8}
QUICK = {"grid": 24, "n_requests": 16, "pmax": 16, "nranks": 64,
         "tol": 1e-8}


def laplacian_2d(nx: int) -> sp.csr_matrix:
    e = np.ones(nx)
    t = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1])
    eye = sp.eye(nx)
    return (sp.kron(eye, t) + sp.kron(t, eye)).tocsr()


def _solver_options(cfg: dict, **extra) -> Options:
    return Options(krylov_method="gmres", tol=cfg["tol"], gmres_restart=40,
                   verify="cheap", **extra)


def _counts_json(led: CostLedger) -> dict:
    """The ledger's exactly-comparable counts, as JSON-friendly scalars."""
    return {
        "reductions": int(led.reductions),
        "reduction_bytes": int(led.reduction_bytes),
        "p2p_messages": int(led.p2p_messages),
        "p2p_bytes": int(led.p2p_bytes),
        "flops": {str(getattr(k, "name", k)).lower(): float(v)
                  for k, v in led.flops.items()},
    }


def _residuals(a, xs, rhs) -> list[float]:
    return [float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))
            for x, b in zip(xs, rhs)]


def run_sequential(cfg: dict, a, rhs) -> dict:
    """One solve per request, setup rebuilt every time (no cache)."""
    from repro.direct.solver import SparseLU

    opts = _solver_options(cfg)
    t0 = time.perf_counter()
    xs, per_request, setup_costs = [], [], []
    total = CostLedger()
    for b in rhs:
        led = CostLedger()
        with ledger.install(led):
            lu = SparseLU(a)             # rebuilt per request
            res = solve(a, b, lu.as_preconditioner(), options=opts)
        assert res.converged.all()
        assert res.info["verify"]["violations"] == []
        xs.append(np.asarray(res.x))
        setup_costs.append(lu.setup_cost)
        per_request.append(led)
        total.merge(led)
    seconds = time.perf_counter() - t0
    modeled = [modeled_time(led, cfg["nranks"]).total for led in per_request]
    return {
        "strategy": "sequential",
        "wall_seconds": seconds,
        "residuals": _residuals(a, xs, rhs),
        "modeled_cost_per_request": modeled,
        "amortized_modeled_cost": float(np.mean(modeled)),
        "setup_builds": len(setup_costs),
        "setup_modeled_cost": float(sum(
            modeled_time(c, cfg["nranks"]).total for c in setup_costs)),
        "total_counts": _counts_json(total),
        "xs": xs,
    }


def run_coalesced(cfg: dict, a, rhs) -> dict:
    """All requests through the service: block solves + cached setup."""
    opts = _solver_options(cfg, service_pmax=cfg["pmax"],
                           service_flush="queue_drained")
    svc = SolveService(options=opts, preconditioner="lu")
    t0 = time.perf_counter()
    with ledger.install() as ambient:
        reqs = [svc.submit(a, b) for b in rhs]
        svc.flush()
    seconds = time.perf_counter() - t0
    xs, modeled = [], []
    for req in reqs:
        res = req.result
        assert res.converged.all()
        assert res.info["verify"]["violations"] == []
        xs.append(np.asarray(res.x))
        modeled.append(
            modeled_time(res.info["service"]["cost"], cfg["nranks"],
                         block_width=res.info["service"]["batch_width"]).total)
    # attribution conservation: per-request shares sum to the ambient total
    attributed = CostLedger()
    for req in reqs:
        attributed.merge(req.result.info["service"]["cost"])
    assert attributed.counts() == ambient.counts(), \
        "per-request attribution does not conserve the batch ledger"
    # repeat traffic against the same operator: every batch must hit the
    # cached factorization — setup stays charged exactly once overall
    repeat = [svc.submit(a, b) for b in rhs]
    svc.flush()
    repeat_modeled = [
        modeled_time(r.result.info["service"]["cost"], cfg["nranks"],
                     block_width=r.result.info["service"]["batch_width"]).total
        for r in repeat]
    stats = svc.cache.stats()
    setup_hits = [rep["setup_cache_hit"] for rep in svc.batches]
    assert setup_hits.count(False) == 1, \
        f"setup should build exactly once, got {setup_hits}"
    assert all(setup_hits[len(setup_hits) // 2:]), \
        "repeat batches must hit the setup cache"
    assert stats["total_hits"] > 0
    return {
        "strategy": "coalesced",
        "wall_seconds": seconds,
        "residuals": _residuals(a, xs, rhs),
        "modeled_cost_per_request": modeled,
        "amortized_modeled_cost": float(np.mean(modeled)),
        "batches": [{k: rep[k] for k in
                     ("batch", "requests", "width", "method", "iterations",
                      "setup_cache_hit")} for rep in svc.batches],
        "setup_builds": setup_hits.count(False),
        "repeat_amortized_modeled_cost": float(np.mean(repeat_modeled)),
        "cache": {k: stats[k] for k in
                  ("entries", "total_hits", "total_misses", "evictions")},
        "total_counts": _counts_json(ambient),
        "xs": xs,
    }


def run(cfg: dict, out_path: Path | None) -> dict:
    a = laplacian_2d(cfg["grid"])
    rng = np.random.default_rng(20260705)
    rhs = [rng.standard_normal(a.shape[0]) for _ in range(cfg["n_requests"])]
    seq = run_sequential(cfg, a, rhs)
    coa = run_coalesced(cfg, a, rhs)
    # equal final residual quality: both strategies meet the same tolerance
    worst = {s["strategy"]: max(s["residuals"]) for s in (seq, coa)}
    assert all(r < cfg["tol"] * 10 for r in worst.values()), worst
    for s in (seq, coa):
        s.pop("xs")
    speedup = seq["amortized_modeled_cost"] / coa["amortized_modeled_cost"]
    report = {
        "description": "amortized per-request cost: coalesced block solves "
                       "with cached setup vs one-at-a-time solves; costs "
                       "are modeled seconds from ledger counts "
                       f"(nranks={cfg['nranks']}), wall time informational",
        "problem": {"matrix": f"2-D Laplacian {cfg['grid']}x{cfg['grid']}",
                    "n": cfg["grid"] ** 2, "n_requests": cfg["n_requests"],
                    "pmax": cfg["pmax"], "tol": cfg["tol"],
                    "nranks_model": cfg["nranks"], "verify": "cheap"},
        "sequential": seq,
        "coalesced": coa,
        "amortized_speedup": speedup,
        "gate": {"required_speedup": GATE_SPEEDUP,
                 "passed": speedup >= GATE_SPEEDUP},
    }
    if out_path is not None:
        out_path.parent.mkdir(exist_ok=True)
        out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def print_report(report: dict) -> None:
    prob = report["problem"]
    print(f"# {prob['matrix']}, {prob['n_requests']} requests, "
          f"pmax={prob['pmax']}, modeled at nranks={prob['nranks_model']}")
    for strategy in ("sequential", "coalesced"):
        s = report[strategy]
        print(f"{strategy:>11}: amortized {s['amortized_modeled_cost']:.3e} "
              f"modeled s/request, setup builds {s['setup_builds']}, "
              f"worst residual {max(s['residuals']):.2e}, "
              f"wall {s['wall_seconds']:.2f}s")
    coa = report["coalesced"]
    print(f"   batches: {[(b['width'], b['setup_cache_hit']) for b in coa['batches']]}")
    print(f"   cache:   {coa['cache']}")
    print(f"   repeat round (warm cache): "
          f"{coa['repeat_amortized_modeled_cost']:.3e} modeled s/request")
    print(f"   amortized speedup: {report['amortized_speedup']:.2f}x "
          f"(gate {report['gate']['required_speedup']:.1f}x: "
          f"{'PASS' if report['gate']['passed'] else 'FAIL'})")


def test_service_amortized_speedup():
    """Pytest entry: the quick gate, runnable as part of the bench suite."""
    report = run(QUICK, out_path=None)
    assert report["gate"]["passed"], report["amortized_speedup"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller operator (CI-sized)")
    ap.add_argument("--check", action="store_true",
                    help=f"exit 1 unless amortized speedup >= {GATE_SPEEDUP}x")
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
    if args.check and not report["gate"]["passed"]:
        print(f"PERF GATE FAILED: amortized speedup "
              f"{report['amortized_speedup']:.2f}x < {GATE_SPEEDUP}x")
        return 1
    if args.check:
        print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
