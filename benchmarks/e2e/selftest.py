"""``run.py --selftest``: does the benchmark itself work?  Tiny sizes, < 30 s.

Checks, per workload: the answer check trips when the solver returns a
perturbed ``x``; a traced and an untraced pass report identical
iterations, reductions and modeled time; every wrapped attribute is
restored.  Once: ``BENCHMARK.json`` lists what ``metrics.py`` defines; the
hand-driven ``traffic_async`` replay reproduces ``run_traffic`` bit for
bit; a pass that raises is contained as failed operations.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.service.traffic import run_traffic

import harness
import tracing
from metrics import END_TO_END, PER_LAYER
from workloads import (WORKLOADS, HeatEnsembleAmg, LaplaceBlockUnprec,
                       MaxwellOrasBlock, TrafficAsync)

TINY = (LaplaceBlockUnprec(grid=16, p=4),
        MaxwellOrasBlock(n=4, n_antennas=4, block=2, nparts=2),
        HeatEnsembleAmg(nx=12, n_steps=8, epoch_length=4),
        TrafficAsync(n_requests=120))


def _perturbing(solve):
    """A solver that answers every system slightly wrong."""
    def stub(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.x = res.x * (1.0 + 1e-3)
        return res
    return stub


class _Raising(LaplaceBlockUnprec):
    def run_pass(self, state, **overrides):
        raise RuntimeError("injected failure")


def check_contract() -> list[str]:
    doc = json.loads((Path(__file__).resolve().parents[2]
                      / "BENCHMARK.json").read_text())
    problems = []
    if doc["workloads"] != [{"name": w.name, "why": w.why}
                            for w in WORKLOADS.values()]:
        problems.append("workloads differ from workloads.WORKLOADS")
    known = {m.name for m in END_TO_END} | {"-"}
    problems += [f"{m.name} moves unknown metric {moved!r}" for m in PER_LAYER
                 for moved in m.moves.split(", ") if moved not in known]
    if doc["end_to_end"] != [{"name": m.name, "unit": m.unit,
                              "better": m.better, "bound": m.bound}
                             for m in END_TO_END]:
        problems.append("end_to_end differs from metrics.END_TO_END")
    if doc["per_layer"] != [{"name": m.name, "unit": m.unit,
                             "better": m.better} for m in PER_LAYER]:
        problems.append("per_layer differs from metrics.PER_LAYER")
    return problems


def check_workload(wl) -> list[str]:
    problems = []
    state = wl.setup(0)
    plain = harness.run_pass(wl, state)
    if plain.verdict.failures:
        problems.append(f"healthy pass failed: {plain.verdict.failures[:2]}")

    rec = tracing.Recorder()
    handle = tracing.install(rec)
    sites = handle.sites
    try:
        traced = harness.run_pass(wl, state)
        folded, _ = tracing.layer_metrics(rec.take())
    finally:
        handle.restore()
    for owner, attr, original in sites:
        if vars(owner)[attr] is not original:
            problems.append(f"{owner.__name__}.{attr} was not restored")
    same = (plain.iterations, plain.reductions, plain.modeled_r64_s) == (
        traced.iterations, traced.reductions, traced.modeled_r64_s)
    if not same or folded["krylov.iterations"] != plain.iterations:
        problems.append(
            f"traced pass differs: iterations {plain.iterations} / "
            f"{traced.iterations} / spans {folded['krylov.iterations']}, "
            f"reductions {plain.reductions} / {traced.reductions}, modeled "
            f"{plain.modeled_r64_s!r} / {traced.modeled_r64_s!r}")

    with tracing.rebind("repro.api:solve", _perturbing):
        report = harness.measure(wl, 0, 0)
    if report["failed"] == 0 or report["correct"] \
            or harness.exit_code(report) == 0:
        problems.append("a perturbed x was not counted as a failure")
    return problems


def check_traffic_replay() -> list[str]:
    wl = TINY[-1]
    state = wl.setup(7)
    out = wl.run_pass(state)
    ref = run_traffic(wl.config(7), "async")
    mine = (out.modeled_r64_s, out.service["service.batches"],
            out.service["service.modeled_p99_latency_s"])
    theirs = (ref["makespan"], ref["batches"]["count"], ref["latency"]["p99"])
    return [] if mine == theirs else [f"replay {mine} != run_traffic {theirs}"]


def check_containment() -> list[str]:
    wl = _Raising(grid=8, p=2)
    record = harness.run_pass(wl, wl.setup(0))
    if len(record.verdict.failures) != wl.ops \
            or "injected failure" not in record.verdict.failures[0]:
        return [f"raising pass not contained: {record.verdict.failures}"]
    return []


def main() -> int:
    checks = [("BENCHMARK.json agrees with metrics.py", check_contract),
              *((f"{wl.name}: check trips, tracing is neutral and undone",
                 lambda wl=wl: check_workload(wl)) for wl in TINY),
              ("traffic replay == run_traffic(cfg, 'async')",
               check_traffic_replay),
              ("a raising pass becomes failed operations", check_containment)]
    failed = 0
    for label, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok':>4}  {label}")
        for line in problems:
            print(f"      {line}")
    print("selftest " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0
