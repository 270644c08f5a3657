#!/usr/bin/env python
"""Staged CI runner — the single entry point (``python scripts/ci.py``).

Stages, in order:

==============  ====================================================  ======
name             what runs                                            --fast
===============  ===================================================  ======
lint             ``scripts/lint_repro.py`` (determinism lint)         yes
tier1            ``pytest -x -q`` (the tier-1 suite)                  yes
slow             ``pytest -x -q -m slow`` (full conformance matrix)   no
coverage         ``scripts/coverage_floor.py``                        no
perf-gates       quick microkernel + service + traffic benches     yes
                 with ``--check``, then ``scripts/bench_compare.py``
                 on their output (regression vs the bench
                 trajectory, which it extends)
traffic          ``bench_traffic --quick --check`` twice: the       yes
                 bench's own p99 / rejection-rate / speedup gates,
                 plus byte-identical JSON across the two runs (the
                 seeded-traffic determinism contract); the wall
                 us per request of the replay joins the bench
                 trajectory as an ungated ``info`` metric
macro-gates      ``bench_transient --quick --check`` twice: the     yes
                 end-to-end reuse-multiple gate of the transient
                 sequence workload (>= 3x over the no-reuse
                 oracle, ledger-verified, every step converged),
                 plus byte-identical JSON across the two runs
e2e-selftest     ``benchmarks/e2e/run.py --selftest`` — the          yes
                 end-to-end benchmark checks itself (~5 s): its
                 contract file, answer checks, tracer neutrality
trace-gate       ``tests/trace_gate.py::run_gate()`` — reduction     yes
                 shapes from exported spans
determinism      byte-identical chrome traces and ledger counts       yes
                 across repeated solves, order-stable
                 ``CostLedger.split``
===============  ===================================================  ======

Every stage runs with one BLAS / OpenMP thread (``THREAD_VARS``).
Each stage reports wall seconds; in-process stages that solve under a
ledger (trace-gate, determinism) also report *modeled* seconds from
``perfmodel`` at nranks=64.  Failed stages carry a machine-readable
``reason`` code (``subprocess-failed``, ``gate-failed``,
``determinism-broken``, ``stage-exception``, ...).  The two bench-gate
stages (``perf-gates``, ``macro-gates``) are retried once on failure —
benches gate on modeled numbers but still shell out, and a transient
subprocess hiccup should not fail the pipeline; both attempts are
recorded in the summary.  A machine-readable ``ci_summary.json`` is
written next to the repo root after every run, pass or fail
(``--json`` additionally prints it to stdout).

``--changed-since <ref>`` maps the paths touched since a git ref to the
minimal stage set via :func:`stages_for_paths`: a pure-docs diff runs
lint only, a tests-only diff runs lint + tier1 (plus trace-gate when it
touches the gate or its engine fixture, ``TRACE_GATE_PATHS``), a
bench-only diff adds the bench-gate stages (``benchmarks/e2e/`` and
``BENCHMARK.json``: the e2e self-check), and anything under ``src/`` (or
any path the map does not recognize) runs the full ``--fast`` set.

    PYTHONPATH=src python scripts/ci.py            # everything
    PYTHONPATH=src python scripts/ci.py --fast     # skip slow + coverage
    PYTHONPATH=src python scripts/ci.py --stage lint --stage trace-gate
    PYTHONPATH=src python scripts/ci.py --fast --json --changed-since main
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUMMARY = os.path.join(ROOT, "ci_summary.json")
TRAJECTORY = os.path.join(ROOT, "benchmarks", "results",
                          "BENCH_trajectory.json")
FAST_STAGES = ("lint", "tier1", "perf-gates", "traffic", "macro-gates",
               "e2e-selftest", "trace-gate", "determinism")
ALL_STAGES = ("lint", "tier1", "slow", "coverage", "perf-gates", "traffic",
              "macro-gates", "e2e-selftest", "trace-gate", "determinism")
#: the test files the ``trace-gate`` stage runs, beyond ``tier1``'s reach
TRACE_GATE_PATHS = ("tests/trace_gate.py", "tests/fixtures/sketched_engine.py")
#: stages retried once on failure (shell out to bench subprocesses)
BENCH_GATE_STAGES = ("perf-gates", "macro-gates")


def stages_for_paths(paths: list[str]) -> set[str]:
    """Minimal fast-stage set for a change touching exactly ``paths``.

    Pure (no git, no filesystem) so it is unit-testable.  Unknown paths
    — and anything under ``src/`` or the CI scripts themselves — map to
    the full fast set: when in doubt, run everything.
    """
    needed: set[str] = set()
    for path in paths:
        p = path.replace(os.sep, "/")
        if (p.startswith("docs/") or p.startswith(".github/")
                or p.endswith(".md") or p.endswith(".rst")):
            needed.add("lint")
        elif p in TRACE_GATE_PATHS:
            needed |= {"lint", "tier1", "trace-gate"}
        elif p.startswith("tests/"):
            needed |= {"lint", "tier1"}
        elif p.startswith("benchmarks/e2e/") or p == "BENCHMARK.json":
            needed |= {"lint", "e2e-selftest"}
        elif p.startswith("benchmarks/") or p == "scripts/bench_compare.py":
            needed |= {"lint", "tier1", "perf-gates", "traffic",
                       "macro-gates"}
        else:  # src/, scripts/ci.py, config files, anything unmapped
            return set(FAST_STAGES)
    return needed or set(FAST_STAGES)


def changed_paths(ref: str) -> list[str]:
    """Paths touched between ``ref`` and the working tree (incl. dirty)."""
    proc = subprocess.run(
        ["git", "diff", "--name-only", ref, "--"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ci: git diff --name-only {ref} failed: "
                         f"{proc.stderr.strip()}")
    return [line for line in proc.stdout.splitlines() if line.strip()]


#: BLAS / OpenMP pools pinned to one thread in every stage: a threaded
#: GEMM reorders its sums, so counts and gates would depend on the host
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list[str], *, capture: bool = False) -> dict:
    """Run a subprocess stage; stream output through.

    With ``capture`` the output is echoed once the command ends and also
    returned under ``"stdout"`` (for the caller to pop and read).
    """
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)
    out = {"ok": proc.returncode == 0, "exit": proc.returncode,
           "command": " ".join(os.path.relpath(c, ROOT)
                               if os.path.isabs(c) else c for c in cmd)}
    if capture:
        sys.stdout.write(proc.stdout)
        out["stdout"] = proc.stdout
    if not out["ok"]:
        out["reason"] = "subprocess-failed"
    return out


# ----------------------------------------------------------------------
def stage_lint() -> dict:
    return _run([sys.executable, os.path.join(ROOT, "scripts",
                                              "lint_repro.py")])


def stage_tier1() -> dict:
    return _run([sys.executable, "-m", "pytest", "-x", "-q"])


def stage_slow() -> dict:
    return _run([sys.executable, "-m", "pytest", "-x", "-q", "-m", "slow"])


def stage_coverage() -> dict:
    return _run([sys.executable, os.path.join(ROOT, "scripts",
                                              "coverage_floor.py")])


def stage_perf_gates() -> dict:
    """Quick benches with their built-in ``--check`` gates, then the
    trajectory comparison reusing the same JSON (no double bench runs)."""
    with tempfile.TemporaryDirectory() as tmp:
        k_json = os.path.join(tmp, "kernels.json")
        s_json = os.path.join(tmp, "service.json")
        t_json = os.path.join(tmp, "traffic.json")
        f_json = os.path.join(tmp, "shifted.json")
        n_json = os.path.join(tmp, "transient.json")
        for script, out in (("bench_micro_kernels.py", k_json),
                            ("bench_service.py", s_json),
                            ("bench_traffic.py", t_json),
                            ("bench_shifted.py", f_json),
                            ("bench_transient.py", n_json)):
            res = _run([sys.executable,
                        os.path.join(ROOT, "benchmarks", script),
                        "--quick", "--check", "--out", out])
            if not res["ok"]:
                res["reason"] = "gate-failed"
                return res
        current = ["--current-kernels", k_json, "--current-service", s_json,
                   "--current-traffic", t_json, "--current-shifted", f_json,
                   "--current-transient", n_json]
        res = _run([sys.executable,
                    os.path.join(ROOT, "scripts", "bench_compare.py"),
                    "--self-test"] + current)
        if not res["ok"]:
            return res
        res = _run([sys.executable,
                    os.path.join(ROOT, "scripts", "bench_compare.py")]
                   + current)
        if not res["ok"]:
            res["reason"] = "trajectory-regression"
        return res


#: ``bench_traffic.WALL_LINE`` as the traffic stage reads it back
_WALL_US_RE = re.compile(r"= ([0-9.]+) us per request")


def wall_us_per_request(stdout: str) -> float | None:
    """The wall us/request a ``bench_traffic`` run printed, if it did."""
    match = _WALL_US_RE.search(stdout)
    return float(match.group(1)) if match else None


def append_wall_entry(metrics: dict[str, float], *, config: str,
                      path: str = TRAJECTORY) -> None:
    """Append wall-clock data to the bench trajectory, ungated.

    The entry carries its own ``config`` (never ``"quick"``), so
    ``bench_compare`` — which gates against the latest *same-config*
    entry — neither compares these values nor loses its baseline to an
    entry without the gated metrics; the ``info`` kind says the same to
    anyone reading the file.
    """
    trajectory = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory.append({
        "date": time.strftime("%Y-%m-%d"),
        "config": config,
        "metrics": {name: {"value": value, "kind": "info"}
                    for name, value in sorted(metrics.items())},
        "compared_against": "nothing (wall clock, informational)",
    })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1, sort_keys=True)
        fh.write("\n")


def stage_traffic() -> dict:
    """Seeded-traffic gates + byte-determinism of the replay harness.

    Runs the quick (10^3-request) traffic bench twice: each run enforces
    the bench's own gates (async >= 1.5x sync modeled throughput, p99
    tail-latency ceiling, bounded burst rejection rate) and the two JSON
    payloads must be byte-identical — two invocations of one seeded
    config may not differ anywhere, reports and metric snapshots
    included.  The wall us per replayed request (the faster of the two
    runs; the bench prints it, the JSON never carries it) is reported and
    appended to the bench trajectory as an ungated ``info`` metric.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"traffic_{i}.json") for i in (1, 2)]
        walls = []
        for path in paths:
            res = _run([sys.executable,
                        os.path.join(ROOT, "benchmarks", "bench_traffic.py"),
                        "--quick", "--check", "--out", path], capture=True)
            walls.append(wall_us_per_request(res.pop("stdout")))
            if not res["ok"]:
                return res
        with open(paths[0], "rb") as fh:
            first = fh.read()
        with open(paths[1], "rb") as fh:
            second = fh.read()
        if first != second:
            return {"ok": False, "reason": "determinism-broken",
                    "error": "two seeded traffic runs produced different "
                             "payloads (determinism contract broken)"}
        print("traffic: gates passed twice, payloads byte-identical "
              f"({len(first)} bytes)")
        if None in walls:
            return {"ok": False, "reason": "stage-failed",
                    "error": "bench_traffic printed no wall us per request"}
        wall_us = min(walls)
        append_wall_entry({"traffic_wall_us_per_request": wall_us},
                          config="quick-wall")
        print(f"traffic: {wall_us:.1f} us wall per replayed request "
              "(ungated; appended to BENCH_trajectory.json)")
        return {"ok": True, "wall_us_per_request": wall_us}


def stage_macro_gates() -> dict:
    """Transient-sequence macro gate + byte-determinism of its report.

    Runs the quick transient bench twice: each run enforces the bench's
    own gates (end-to-end reuse multiple >= 3x over the no-reuse oracle,
    every step of every rung converged, per-step cost shares merging
    bit-for-bit to the batch ledgers, sync/async iteration parity) and
    the two JSON payloads must be byte-identical.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"transient_{i}.json") for i in (1, 2)]
        for path in paths:
            res = _run([sys.executable,
                        os.path.join(ROOT, "benchmarks",
                                     "bench_transient.py"),
                        "--quick", "--check", "--out", path])
            if not res["ok"]:
                res["reason"] = "gate-failed"
                return res
        with open(paths[0], "rb") as fh:
            first = fh.read()
        with open(paths[1], "rb") as fh:
            second = fh.read()
        if first != second:
            return {"ok": False, "reason": "determinism-broken",
                    "error": "two transient macro-bench runs produced "
                             "different payloads (the sequence workload "
                             "must be byte-deterministic)"}
        print("macro-gates: reuse-multiple gate passed twice, payloads "
              f"byte-identical ({len(first)} bytes)")
        return {"ok": True}


def stage_e2e_selftest() -> dict:
    """The end-to-end benchmark's self-check (it does not measure)."""
    return _run([sys.executable, os.path.join(ROOT, "benchmarks", "e2e",
                                              "run.py"), "--selftest"])


def _modeled_seconds(led) -> float:
    from repro.perfmodel import modeled_time
    return modeled_time(led, 64).total


def stage_trace_gate() -> dict:
    tests = os.path.join(ROOT, "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    from trace_gate import GateError, run_gate
    from repro.util import ledger
    outer = ledger.CostLedger()
    try:
        with ledger.install(outer):
            report = run_gate()
    except GateError as exc:
        print(f"trace-gate FAILED: {exc}", file=sys.stderr)
        return {"ok": False, "error": str(exc)}
    shapes = report["reductions_per_cycle"]
    shifted = report["shifted"]["bgmres"]
    print(f"trace-gate: gmres {shapes['gmres']} reductions/cycle, "
          f"gcrodr {shapes['gcrodr']} = 2(m-k) under cgs2_1r and cgs; "
          f"cgs2_1r <= 2/step; "
          f"shifted k=8 family at {shifted['headline_ratio']:.2f}x the "
          f"reductions of k=1; attribution conserved")
    return {"ok": True, "report": report,
            "modeled_seconds": _modeled_seconds(outer)}


def stage_determinism() -> dict:
    """Same inputs => byte-identical exports and bit-identical counts."""
    import numpy as np
    import scipy.sparse as sp

    from repro import api
    from repro.trace import chrome_trace_json, counts_signature
    from repro.trace.tracer import Tracer, install
    from repro.util import ledger
    from repro.util.ledger import CostLedger, Kernel
    from repro.util.options import Options

    rs = np.random.RandomState(99)
    a = sp.random(300, 300, density=0.02, random_state=rs, format="csr")
    a = a + sp.eye(300, format="csr") * 4.0
    b = np.random.default_rng(99).standard_normal(300)
    outer = CostLedger()

    def traced_solve() -> tuple[tuple, str]:
        opts = Options(krylov_method="gcrodr", recycle=5, tol=1e-10,
                       trace="summary")
        tr = Tracer(level="summary")
        led = CostLedger()
        with install(tr), ledger.install(led):
            api.solve(a, b, options=opts)
        outer.merge(led)
        return counts_signature(led), chrome_trace_json(tr)

    sig1, trace1 = traced_solve()
    sig2, trace2 = traced_solve()
    if trace1 != trace2:
        return {"ok": False, "error": "chrome trace differs between "
                                      "identical runs"}
    if sig1 != sig2:
        return {"ok": False, "error": "ledger counts differ between "
                                      "identical runs"}

    # CostLedger.split share-rounding must be order-stable
    led = CostLedger()
    led.reduction(nbytes=123, count=7)
    led.p2p(messages=5, nbytes=77)
    for kern in (Kernel.SPMV, Kernel.BLAS3, Kernel.QR):
        led.flop(kern, 1e7 / 3)
    for name in ("alpha", "beta", "gamma"):
        led.event(name, 11)
    shares = [led.split(3) for _ in range(5)]
    first = [tuple(s.counts()[:4]) + (tuple(sorted(s.flops.items())),
                                      tuple(sorted(s.calls.items())))
             for s in shares[0]]
    for rep in shares[1:]:
        again = [tuple(s.counts()[:4]) + (tuple(sorted(s.flops.items())),
                                          tuple(sorted(s.calls.items())))
                 for s in rep]
        if again != first:
            return {"ok": False,
                    "error": "CostLedger.split is not order-stable"}
    print("determinism: repeated solves byte-identical, split order-stable")
    return {"ok": True, "modeled_seconds": _modeled_seconds(outer)}


STAGES = {
    "lint": stage_lint,
    "tier1": stage_tier1,
    "slow": stage_slow,
    "coverage": stage_coverage,
    "perf-gates": stage_perf_gates,
    "traffic": stage_traffic,
    "macro-gates": stage_macro_gates,
    "e2e-selftest": stage_e2e_selftest,
    "trace-gate": stage_trace_gate,
    "determinism": stage_determinism,
}
assert tuple(STAGES) == ALL_STAGES


def _attempt(name: str) -> dict:
    """Run one stage attempt; normalize to a summary entry."""
    t0 = time.perf_counter()
    try:
        result = STAGES[name]()
    except Exception as exc:  # a stage crashing is a stage failing
        result = {"ok": False, "reason": "stage-exception",
                  "error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - t0
    entry = {"name": name, "ok": bool(result.pop("ok")),
             "wall_seconds": round(wall, 3),
             "modeled_seconds": result.pop("modeled_seconds", None)}
    if not entry["ok"]:
        entry["reason"] = result.pop("reason", "stage-failed")
    entry.update({k: v for k, v in result.items()
                  if k not in ("report", "reason")})
    return entry


def run_stage(name: str) -> dict:
    """Run a stage, retrying the bench-gate stages once on failure.

    The retry exists for subprocess flakiness (a bench shelling out),
    not for nondeterministic gates — both attempts are recorded so a
    retried pass is visible in ``ci_summary.json``, never silent.
    """
    entry = _attempt(name)
    if entry["ok"] or name not in BENCH_GATE_STAGES:
        return entry
    print(f"-- {name}: attempt 1 failed "
          f"({entry.get('reason')}); retrying once")
    retry = _attempt(name)
    retry["attempts"] = [entry, dict(retry)]
    retry["retried"] = True
    return retry


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fast", action="store_true",
                    help=f"run only {', '.join(FAST_STAGES)}")
    ap.add_argument("--stage", action="append", choices=ALL_STAGES,
                    help="run only the named stage(s); repeatable")
    ap.add_argument("--changed-since", metavar="REF", default=None,
                    help="run only the stages the paths touched since "
                         "REF need (pure-docs diff => lint only)")
    ap.add_argument("--json", action="store_true",
                    help="print the ci_summary.json payload to stdout")
    ns = ap.parse_args(argv)

    changed = None
    if ns.stage:
        selected = [s for s in ALL_STAGES if s in set(ns.stage)]
    elif ns.changed_since:
        changed = changed_paths(ns.changed_since)
        needed = stages_for_paths(changed)
        selected = [s for s in FAST_STAGES if s in needed]
        print(f"ci: {len(changed)} path(s) changed since "
              f"{ns.changed_since} -> stages: {', '.join(selected)}")
    elif ns.fast:
        selected = list(FAST_STAGES)
    else:
        selected = list(ALL_STAGES)

    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    # the in-process stages (trace-gate, determinism) import numpy here,
    # after this: pin their pools as _env() pins the subprocesses'
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

    summary = {"selected": selected, "stages": [], "passed": True}
    if changed is not None:
        summary["changed_since"] = ns.changed_since
        summary["changed_paths"] = changed
    for name in selected:
        print(f"\n== stage: {name} ==")
        entry = run_stage(name)
        summary["stages"].append(entry)
        status = "ok" if entry["ok"] else f"FAILED ({entry.get('reason')})"
        if entry.get("retried"):
            status += " [after retry]"
        modeled = (f", modeled {entry['modeled_seconds']:.3e}s"
                   if entry["modeled_seconds"] is not None else "")
        print(f"-- {name}: {status} ({entry['wall_seconds']:.1f}s "
              f"wall{modeled})")
        if not entry["ok"]:
            summary["passed"] = False
            break  # fail fast; later stages assume earlier ones held

    with open(SUMMARY, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    if ns.json:
        print(json.dumps(summary, indent=1))
    print(f"\nci: {'all stages passed' if summary['passed'] else 'FAILED'}"
          f" — summary in {os.path.relpath(SUMMARY, ROOT)}")
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
