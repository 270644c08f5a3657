#!/usr/bin/env python3
"""Two-clock end-to-end benchmark of the block-Krylov / recycling stack.

    python benchmarks/e2e/run.py                  # four workloads, untraced
    python benchmarks/e2e/run.py --traced         # ... then each one traced
    python benchmarks/e2e/run.py --aa             # suite twice, A/A compared
    python benchmarks/e2e/run.py --selftest       # < 30 s, tiny sizes

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

The last form is one *run*: one workload in this very process, one JSON
object on the last line of stdout (``BENCHMARK.json`` documents it).  The
first three spawn one such child per (workload, mode), strictly one after
another — two cores, so nothing may run beside a measurement — and write
``report.json`` under ``--out``.

Process model, fixed here: BLAS is pinned to one thread *before* numpy is
imported (two OpenBLAS threads on two cores measure oversubscription: CPU
time doubles, wall time gets worse), and a run refuses to report if the
pin did not take.  See ``README.md`` for workloads, metrics and rules.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from metrics import END_TO_END

CHILD_TIMEOUT_S = 600.0
SETUP_AA_FLOOR_S = 0.02   #: A/A: set-ups closer than this are not compared


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# one run, in this process
# ---------------------------------------------------------------------------
def run_one(args) -> int:
    import harness
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    measure = harness.measure_traced if args.trace else harness.measure
    report = measure(wl, args.seed, args.seconds)
    spans = report.pop("spans", None)
    if args.detail_out is not None:
        args.detail_out.parent.mkdir(parents=True, exist_ok=True)
        args.detail_out.write_text(json.dumps(report, indent=1) + "\n")
        if spans is not None:   # raw spans of set-up and the last traced pass
            args.detail_out.with_suffix(".spans.json").write_text(
                json.dumps(spans) + "\n")
    print_run(report)
    print(json.dumps({k: report[k] for k in ("correct", "attempted",
                                             "failed", "metrics")}))
    return harness.exit_code(report)


# ---------------------------------------------------------------------------
# the suite: one child per (workload, mode)
# ---------------------------------------------------------------------------
def spawn(workload: str, *, seed: int, seconds: int, trace: int,
          out_dir: Path, tag: str) -> dict:
    """Run one child to completion; a dead child is a failed workload."""
    detail = out_dir / f"{tag}_{workload}.json"
    detail.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--detail-out", str(detail)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stderr = -1, f"child exceeded {CHILD_TIMEOUT_S:.0f} s\n" \
            + (exc.stderr or "")
    if detail.exists():   # exit code 1 with a report: failed operations
        return json.loads(detail.read_text())
    # containment: the workload counts as failed, the suite goes on
    return {"workload": workload, "mode": "traced" if trace else "untraced",
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "detail": {"fail_frac": 1.0, "failure_reasons": [
                f"child exited with code {code}: "
                + " | ".join(stderr.strip().splitlines()[-12:])]}}


def print_run(report: dict) -> None:
    detail = report["detail"]
    print(f"\n== {report['workload']} [{report['mode']}]  "
          f"failed {report['failed']} of {report['attempted']}")
    for name, m in report["metrics"].items():
        print(f"{name:>34} = {m['value']:.6g} {m['unit']}")
    if report["mode"] == "untraced" and report["metrics"]:
        q1, q2, q3 = detail["solve_wall_quartiles_s"]
        print(f"{'fail_frac':>34} = {detail['fail_frac']:.6g} ratio")
        print(f"{'solve_wall_s quartiles':>34} = {q1:.4g} / {q2:.4g} / "
              f"{q3:.4g} s over R = {detail['passes']} passes")
    for reason in detail["failure_reasons"]:
        print(f"{'FAILED':>34} : {reason}")
    if "layer_self_wall_s" in detail:
        wall = detail["traced_solve_wall_s"]
        shares = ", ".join(f"{k} {v / wall:.1%}" for k, v in sorted(
            detail["layer_self_wall_s"].items(), key=lambda kv: -kv[1]))
        print(f"{'layer self / traced pass':>34} : {shares}")


def run_suite(args, *, tag: str, traced: bool) -> list[dict]:
    reports = []
    for workload in args.workloads:
        for trace in (0, 1) if traced else (0,):
            report = spawn(workload, seed=args.seed, seconds=args.seconds,
                           trace=trace, out_dir=args.out,
                           tag=f"{tag}_trace{trace}")
            print_run(report)
            reports.append(report)
    return reports


def write_report(args, name: str, body: dict) -> None:
    path = args.out / name
    path.write_text(json.dumps(
        {"claim": None, "seed": args.seed, "seconds": args.seconds, **body},
        indent=1) + "\n")
    print(f"\nwrote {path}")


def suite(args) -> int:
    reports = run_suite(args, tag="suite", traced=args.traced)
    write_report(args, "report.json", {"runs": reports})
    bad = [r["workload"] for r in reports if not r["correct"]]
    if bad:
        print(f"FAILED: {sorted(set(bad))}")
    return 1 if bad else 0


def aa(args) -> int:
    """Same commit, same seed, twice: do the benchmark's own bounds hold?"""
    first = run_suite(args, tag="aa1", traced=False)
    second = run_suite(args, tag="aa2", traced=False)
    rows, bad = [], 0
    print(f"\n{'workload':<22}{'metric':<15}{'A':>13}{'B':>13}"
          f"{'B worse by':>12}{'bound':>9}")
    for a, b in zip(first, second):
        if not (a["correct"] and b["correct"]):
            bad += 1
            print(f"{a['workload']:<22}FAILED RUN")
            continue
        for m in END_TO_END:
            va = a["metrics"][m.name]["value"]
            vb = b["metrics"][m.name]["value"]
            worse = (vb - va) / va if m.better == "lower" else (va - vb) / va
            if m.exact:
                ok = va == vb
            elif m.name == "setup_s" and abs(vb - va) < SETUP_AA_FLOOR_S:
                ok = True
            else:
                ok = worse <= m.bound
            bad += not ok
            rows.append({"workload": a["workload"], "metric": m.name,
                         "a": va, "b": vb, "b_worse_by": worse,
                         "bound": 0.0 if m.exact else m.bound, "ok": ok})
            print(f"{a['workload']:<22}{m.name:<15}{va:>13.6g}{vb:>13.6g}"
                  f"{worse:>+12.2%}{'exact' if m.exact else f'{m.bound:.0%}':>9}"
                  f"{'' if ok else '  <-- DISAGREE'}")
    write_report(args, "report_aa.json",
                 {"pairs": rows, "runs": first + second})
    print("A/A " + ("FAILED" if bad else "passed"))
    return 1 if bad else 0


# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in contract()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="one run of this workload in this process")
    ap.add_argument("--seed", type=int, default=0,
                    help="feeds only the generated inputs (default 0)")
    ap.add_argument("--seconds", type=int,
                    default=contract()["run_seconds"],
                    help="timed-pass budget of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 = per-layer metrics")
    ap.add_argument("--detail-out", type=Path, default=None,
                    help="with --workload: also write the full run report")
    ap.add_argument("--traced", action="store_true",
                    help="suite: repeat each workload with tracing wrappers")
    ap.add_argument("--aa", action="store_true",
                    help="run the untraced suite twice and compare")
    ap.add_argument("--selftest", action="store_true",
                    help="check the benchmark itself on tiny sizes")
    ap.add_argument("--workloads", type=lambda s: s.split(","), default=names,
                    help="suite: comma-separated subset")
    ap.add_argument("--out", type=Path, default=HERE / "out",
                    help="suite: report directory (git-ignored)")
    args = ap.parse_args(argv)
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is not None:
        return run_one(args)
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        ap.error(f"unknown workloads {unknown}; expected a subset of {names}")
    args.out.mkdir(parents=True, exist_ok=True)
    return aa(args) if args.aa else suite(args)


if __name__ == "__main__":
    sys.exit(main())
