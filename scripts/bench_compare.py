#!/usr/bin/env python
"""Bench-trajectory regression gate.

Re-runs the five quick perf benches (``bench_micro_kernels --quick``,
``bench_service --quick``, ``bench_traffic --quick``,
``bench_shifted --quick``, ``bench_transient --quick``), reduces them to
a small set of named metrics,
compares against the most recent same-config entry of
``benchmarks/results/BENCH_trajectory.json`` (bootstrapping from the
checked-in full-config ``BENCH_*.json`` gates when the trajectory is
empty), exits nonzero on regression, and appends a dated entry so the
trajectory grows one point per CI run.

Metric kinds and their tolerances:

* ``ratio`` — wall-clock-derived speedups (CGS2-1R over MGS, a kernel
  over its reference formulation, ...).  Noisy run-to-run, so the gate only
  requires ``current >= previous / RATIO_TOLERANCE`` (default 1.6x): a
  genuine 2x slowdown is caught, scheduler jitter is not.
* ``modeled`` — derived from ledger counts through the performance model
  (service amortized speedup).  Deterministic for a fixed config; compared
  to 1e-6 relative.
* ``exact`` — invariants of a fixed config (reductions per
  orthogonalization step, setup builds per coalesced batch, sweep steps of
  the blocked triangular solve on the global LU factor, flops one deflation
  extraction or one AMG V-cycle is charged).  Compared exactly.
* ``info`` — recorded in the trajectory, never gated (the wall µs per
  request of the traffic replay, which ``scripts/ci.py`` adds).

A metric the baseline entry has and the current run lacks fails the
comparison unless it is listed, with its reason, in ``RETIRED``: a gate
that silently stops being computed is a gate that passes forever.

``--rebaseline METRIC --reason TEXT`` (repeatable METRIC) accepts a move of
a ``modeled`` metric that a change of rounding explains: the comparison
skips the named metrics and the appended entry records, under
``"rebaselined"``, each one's old and new value and the reason.  ``exact``
(and ``ratio`` / ``info``) metrics cannot be re-based.

``--self-test`` injects a synthetic 2x slowdown into the current metrics
and verifies the comparison logic rejects it (the gate that gates the
gate), then that a 4e-5 move of a ``modeled`` metric fails without
``--rebaseline`` and passes with it, and that an ``exact`` one is refused.

    PYTHONPATH=src python scripts/bench_compare.py [--self-test] ...
    PYTHONPATH=src python scripts/bench_compare.py --rebaseline NAME --reason TEXT ...
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "benchmarks", "results")
TRAJECTORY = os.path.join(RESULTS, "BENCH_trajectory.json")

RATIO_TOLERANCE = 1.6
MODELED_RTOL = 1e-6
#: the only metric kind ``--rebaseline`` accepts
REBASEABLE = "modeled"

#: metrics of earlier trajectory entries that no run produces any more
RETIRED = {
    "transient_cache_recycle_shifted_time_per_sim_second":
        "the sequence_mode='shifted' rung lost to doing nothing (0.793 vs "
        "0.577 modeled s / simulated s for no_reuse) and left with the option",
    **dict.fromkeys(
        ("plan_compiled_speedup", "plan_oracle_identical",
         "plan_optimizer_fused"),
        "the plan compiler was deleted: compiled / interpret read 0.947, "
        "1.277 and 0.877 in three records and 0.96 / 1.005 / 1.03 on whole "
        "solves (96^2 Laplacian, restart 40 / recycle 10, bgcrodr cgs2_1r "
        "p = 8, gcrodr cgs2_1r p = 4, bgcrodr cholqr2 p = 8) at identical "
        "iterations and reductions — no edge outside noise for 1 230 lines"),
    **{f"kernel_speedup64_{kern}":
       f"the per-rank execution of the simulated-MPI substrate left src/ for "
       f"tests/fixtures/per_rank_substrate.py (an oracle held to "
       f"bit-identical counts, never timed), so there is no second mode to "
       f"be faster than; the last three quick readings of the {kern} "
       f"speedup at 64 ranks were {readings}"
       for kern, readings in (("spmm", "12.91 / 10.67 / 11.41"),
                              ("col_dots", "5.96 / 6.27 / 6.60"),
                              ("cholqr", "6.16 / 6.99 / 5.40"))},
    **dict.fromkeys(
        ("recycle_modeled_speedup_sketched",
         "recycle_reductions_per_cycle_sketched",
         "recycle_solve_overhead_per_cycle",
         "recycle_solve_convergence_equal"),
        "feature deleted: the sketch-whitened recycle space "
        "(recycle_space='sketched') lost on both clocks wherever recycling "
        "pays (convection-diffusion sequence, GCRO-DR(30,10): 1 583 vs 690 "
        "iterations, 46.2 vs 26.1 ms modeled at 64 ranks); these metrics "
        "timed its pair maintenance alone (last quick readings 2.06x "
        "modeled, 0.125 reductions / cycle, 4.0 overhead / cycle, equal "
        "convergence)"),
}


def run_quick_benches(tmpdir: str) -> tuple[dict, dict, dict, dict]:
    """Run the quick benches with ``--check`` and return their JSON."""
    out = {}
    for script, name in (("bench_micro_kernels.py", "kernels"),
                         ("bench_service.py", "service"),
                         ("bench_traffic.py", "traffic"),
                         ("bench_shifted.py", "shifted"),
                         ("bench_transient.py", "transient")):
        path = os.path.join(tmpdir, f"{name}.json")
        cmd = [sys.executable, os.path.join(ROOT, "benchmarks", script),
               "--quick", "--check", "--out", path]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"bench_compare: {script} --check failed "
                             f"(exit {proc.returncode})")
        with open(path, encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return (out["kernels"], out["service"], out["traffic"], out["shifted"],
            out["transient"])


def extract_metrics(kernels: dict, service: dict,
                    traffic: dict | None = None,
                    shifted: dict | None = None,
                    transient: dict | None = None) -> dict[str, dict]:
    """Reduce raw bench JSON to ``{metric: {value, kind}}``."""
    m: dict[str, dict] = {}
    schemes = kernels["orthogonalization"]["schemes"]
    m["ortho_cgs2_1r_reductions_per_step"] = {
        "value": int(schemes["cgs2_1r"]["reductions_per_step_max"]),
        "kind": "exact"}
    m["ortho_cgs2_1r_speedup_over_mgs"] = {
        "value": float(schemes["cgs2_1r"]["speedup_over_mgs"]),
        "kind": "ratio"}
    level = kernels["level_schedule"]["speedup_frontier_over_reference"]
    m["triangular_block_diag_speedup"] = {
        "value": float(level["block_diag"]), "kind": "ratio"}
    m["triangular_global_lu_solve_steps"] = {
        "value": int(kernels["level_schedule"]["sweep"]["global_lu"]
                     ["solve_steps"]), "kind": "exact"}
    # what one restart extraction is charged is a formula of the fixed
    # pencil's shape; its wall ratio over the Gram + QZ oracle is noisy
    defl = kernels["deflation"]
    m["deflation_eig_flops_charged"] = {
        "value": float(defl["eig_flops_charged"]), "kind": "exact"}
    m["deflation_speedup_over_qz"] = {
        "value": float(defl["speedup_over_reference"]), "kind": "ratio"}
    m["pb_projector_speedup_over_einsum"] = {
        "value": float(kernels["pb_projector"]["cores"]["_pb_step_cgs2_1r"]
                       ["speedup_over_reference"]), "kind": "ratio"}
    # one V-cycle's SPMM charge is a formula of the fixed hierarchy (dead
    # products coming back, or a transfer going uncharged, moves it); the
    # walls over the first formulations are noisy
    amg = kernels["amg"]
    m["amg_vcycle_spmm_flops"] = {
        "value": float(amg["vcycle_spmm_flops"]), "kind": "exact"}
    m["amg_apply_speedup_over_reference"] = {
        "value": float(amg["apply"]["speedup_over_reference"]),
        "kind": "ratio"}
    m["amg_setup_speedup_over_reference"] = {
        "value": float(amg["setup"]["speedup_over_reference"]),
        "kind": "ratio"}
    m["hessenberg_p1_speedup_over_panels"] = {
        "value": float(kernels["hessenberg_p1"]["speedup_over_reference"]),
        "kind": "ratio"}
    m["service_amortized_speedup"] = {
        "value": float(service["amortized_speedup"]), "kind": "modeled"}
    m["service_setup_builds_coalesced"] = {
        "value": int(service["coalesced"]["setup_builds"]), "kind": "exact"}
    if traffic is not None:
        # everything here is ledger-derived modeled time: deterministic
        # for a fixed config, so tracked at 1e-6 relative
        m["traffic_async_speedup"] = {
            "value": float(traffic["throughput_speedup_async_over_sync"]),
            "kind": "modeled"}
        m["traffic_async_p99"] = {
            "value": float(traffic["async"]["latency"]["p99"]),
            "kind": "modeled"}
        m["traffic_burst_rejection_rate"] = {
            "value": float(traffic["burst_bounded_queue"]["rejection_rate"]),
            "kind": "modeled"}
        m["traffic_cache_hit_rate"] = {
            "value": float(traffic["async"]["cache"]["hit_rate"]),
            "kind": "modeled"}
        m["traffic_all_converged"] = {
            "value": int(traffic["sync"]["all_converged"]
                         and traffic["async"]["all_converged"]),
            "kind": "exact"}
    if shifted is not None:
        # ledger counts + perfmodel at fixed config: deterministic
        for key, short in (("maxwell_frequency_sweep", "maxwell"),
                           ("tikhonov_lambda_sweep", "tikhonov")):
            work = shifted[key]
            m[f"shifted_{short}_modeled_speedup"] = {
                "value": float(work["modeled_speedup"]), "kind": "modeled"}
            m[f"shifted_{short}_family_over_single"] = {
                "value": float(work["reductions"]["family_over_single"]),
                "kind": "modeled"}
        m["shifted_all_converged"] = {
            "value": int(shifted["gate"]["all_converged"]), "kind": "exact"}
    if transient is not None:
        # ledger counts + perfmodel at fixed config: deterministic
        m["transient_reuse_multiple"] = {
            "value": float(transient["reuse_multiple"]), "kind": "modeled"}
        for rung in ("no_reuse", "cache_only", "cache_recycle"):
            m[f"transient_{rung}_time_per_sim_second"] = {
                "value": float(transient["heat_ladder"][rung]
                               ["time_per_simulated_second"]),
                "kind": "modeled"}
        m["transient_all_converged"] = {
            "value": int(transient["gate"]["all_converged"]),
            "kind": "exact"}
        m["transient_ledger_verified"] = {
            "value": int(transient["gate"]["ledger_verified"]),
            "kind": "exact"}
        m["transient_parity_identical"] = {
            "value": int(transient["gate"]["parity_iterations_identical"]),
            "kind": "exact"}
    return m


def compare(current: dict[str, dict], baseline: dict[str, dict],
            *, label: str, rebaseline: frozenset[str] = frozenset()
            ) -> list[str]:
    """Return a list of regression messages (empty = pass).  Metrics in
    ``rebaseline`` (checked by :func:`rebaseline_errors`) are not gated."""
    failures = [f"{name}: in {label} but not produced by this run — restore "
                f"it, or list it in RETIRED with the reason it went"
                for name in sorted(set(baseline) - set(current))
                if name not in RETIRED]
    for name, cur in sorted(current.items()):
        if name not in baseline or name in rebaseline:
            continue  # added after the baseline entry, or re-based
        base_v, cur_v = baseline[name]["value"], cur["value"]
        kind = cur["kind"]
        if kind == "info":
            continue
        if kind == "ratio":
            floor = base_v / RATIO_TOLERANCE
            if cur_v < floor:
                failures.append(
                    f"{name}: {cur_v:.3f} < {floor:.3f} "
                    f"(= {label} {base_v:.3f} / {RATIO_TOLERANCE}x tolerance)")
        elif kind == "modeled":
            if abs(cur_v - base_v) > MODELED_RTOL * max(abs(base_v), 1.0):
                failures.append(
                    f"{name}: {cur_v!r} != {label} {base_v!r} "
                    f"(modeled metric must be deterministic)")
        elif kind == "exact":
            if cur_v != base_v:
                failures.append(f"{name}: {cur_v!r} != {label} {base_v!r}")
        else:  # pragma: no cover - metric table is static
            failures.append(f"{name}: unknown kind {kind!r}")
    return failures


def rebaseline_errors(current: dict[str, dict], names: frozenset[str],
                      reason: str | None) -> list[str]:
    """Why ``--rebaseline names --reason reason`` is refused (empty = ok)."""
    errors = [] if reason or not names else \
        ["--rebaseline needs --reason: the entry records why"]
    for name in sorted(names):
        if name not in current:
            errors.append(f"{name}: not produced by this run")
        elif current[name]["kind"] != REBASEABLE:
            errors.append(f"{name}: kind {current[name]['kind']!r} cannot be "
                          f"re-based (only {REBASEABLE!r} metrics can)")
    return errors


def rebaseline_record(current: dict[str, dict], baseline: dict[str, dict],
                      names: frozenset[str], reason: str) -> dict[str, dict]:
    """The ``"rebaselined"`` field of the appended entry."""
    return {name: {"from": baseline.get(name, {}).get("value"),
                   "to": current[name]["value"], "reason": reason}
            for name in sorted(names)}


def bootstrap_floors(current: dict[str, dict]) -> list[str]:
    """First run ever: check the config-independent absolute gates that the
    full-config ``BENCH_*.json`` baselines also enforce."""
    failures = []
    if current["ortho_cgs2_1r_reductions_per_step"]["value"] != 2:
        failures.append("ortho_cgs2_1r_reductions_per_step != 2")
    if current["service_amortized_speedup"]["value"] < 2.0:
        failures.append("service_amortized_speedup < 2.0")
    if current["service_setup_builds_coalesced"]["value"] != 1:
        failures.append("service_setup_builds_coalesced != 1")
    if current["pb_projector_speedup_over_einsum"]["value"] < 2.0:
        failures.append("pb_projector_speedup_over_einsum < 2.0 (a stride "
                        "np.matmul cannot hand to BLAS reads ~1x)")
    for name, floor in (("amg_apply_speedup_over_reference", 1.2),
                        ("amg_setup_speedup_over_reference", 2.0),
                        ("hessenberg_p1_speedup_over_panels", 3.0)):
        if current[name]["value"] < floor:
            failures.append(f"{name} < {floor}")
    if "traffic_async_speedup" in current:
        if current["traffic_async_speedup"]["value"] < 1.5:
            failures.append("traffic_async_speedup < 1.5")
        if current["traffic_all_converged"]["value"] != 1:
            failures.append("traffic_all_converged != 1")
        rej = current["traffic_burst_rejection_rate"]["value"]
        if not 0.0 < rej <= 0.5:
            failures.append(f"traffic_burst_rejection_rate {rej} "
                            f"outside (0, 0.5]")
    if "shifted_all_converged" in current:
        for short in ("maxwell", "tikhonov"):
            if current[f"shifted_{short}_modeled_speedup"]["value"] < 3.0:
                failures.append(f"shifted_{short}_modeled_speedup < 3.0 "
                                f"(shared basis must beat sequential)")
            ratio = current[f"shifted_{short}_family_over_single"]["value"]
            if ratio > 1.25:
                failures.append(f"shifted_{short}_family_over_single "
                                f"{ratio} > 1.25 (k-shift family must cost "
                                f"about one solve in reductions)")
        if current["shifted_all_converged"]["value"] != 1:
            failures.append("shifted_all_converged != 1")
    if "transient_reuse_multiple" in current:
        if current["transient_reuse_multiple"]["value"] < 3.0:
            failures.append("transient_reuse_multiple < 3.0 (end-to-end "
                            "engine must beat the no-reuse oracle 3x)")
        for name in ("transient_all_converged", "transient_ledger_verified",
                     "transient_parity_identical"):
            if current[name]["value"] != 1:
                failures.append(f"{name} != 1")
    return failures


def load_trajectory() -> list[dict]:
    if not os.path.exists(TRAJECTORY):
        return []
    with open(TRAJECTORY, encoding="utf-8") as fh:
        return json.load(fh)


def self_test(current: dict[str, dict]) -> int:
    """Inject a 2x slowdown and require the comparator to catch it."""
    degraded = json.loads(json.dumps(current))
    for name, entry in degraded.items():
        if entry["kind"] == "ratio":
            entry["value"] /= 2.0          # the kernel got 2x slower
        elif entry["kind"] == "modeled":
            entry["value"] /= 2.0          # coalescing stopped amortizing
    failures = compare(degraded, current, label="pre-slowdown")
    ratio_hits = [f for f in failures if "tolerance" in f]
    if not ratio_hits:
        print("bench_compare --self-test: injected 2x slowdown was NOT "
              "caught", file=sys.stderr)
        return 1
    print(f"bench_compare --self-test: injected 2x slowdown caught "
          f"({len(failures)} metric(s) flagged):")
    for f in failures:
        print(f"  {f}")
    return self_test_rebaseline(current)


def self_test_rebaseline(current: dict[str, dict]) -> int:
    """A rounding-level (4e-5) move of a ``modeled`` metric fails without
    ``--rebaseline`` and passes with it; an ``exact`` metric is refused."""
    name = min(n for n, e in current.items() if e["kind"] == REBASEABLE)
    exact = min(n for n, e in current.items() if e["kind"] == "exact")
    moved = json.loads(json.dumps(current))
    moved[name]["value"] *= 1.0 + 4e-5
    names = frozenset({name})
    checks = {
        "fails without the flag": bool(compare(moved, current, label="t")),
        "passes with it": not compare(moved, current, label="t",
                                      rebaseline=names)
        and not rebaseline_errors(moved, names, "rounding"),
        "needs a reason": bool(rebaseline_errors(moved, names, None)),
        "refuses an exact metric": bool(rebaseline_errors(
            moved, frozenset({exact}), "rounding")),
    }
    for what, ok in checks.items():
        print(f"bench_compare --self-test: 4e-5 move of {name} "
              f"{what}: {'ok' if ok else 'NO'}")
    return 0 if all(checks.values()) else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current-kernels", type=str, default=None,
                    help="reuse an existing quick bench_micro_kernels JSON "
                         "instead of re-running")
    ap.add_argument("--current-service", type=str, default=None,
                    help="reuse an existing quick bench_service JSON")
    ap.add_argument("--current-traffic", type=str, default=None,
                    help="reuse an existing quick bench_traffic JSON")
    ap.add_argument("--current-shifted", type=str, default=None,
                    help="reuse an existing quick bench_shifted JSON")
    ap.add_argument("--current-transient", type=str, default=None,
                    help="reuse an existing quick bench_transient JSON")
    ap.add_argument("--no-append", action="store_true",
                    help="compare only; do not extend the trajectory")
    ap.add_argument("--self-test", action="store_true",
                    help="verify an injected 2x slowdown is caught, then exit")
    ap.add_argument("--rebaseline", action="append", default=[],
                    metavar="METRIC",
                    help="accept this modeled metric's move (repeatable); "
                         "needs --reason, recorded in the appended entry")
    ap.add_argument("--reason", type=str, default=None,
                    help="why the --rebaseline metrics moved")
    ns = ap.parse_args(argv)
    rebased = frozenset(ns.rebaseline)

    if ns.current_kernels and ns.current_service:
        with open(ns.current_kernels, encoding="utf-8") as fh:
            kernels = json.load(fh)
        with open(ns.current_service, encoding="utf-8") as fh:
            service = json.load(fh)
        traffic = None
        if ns.current_traffic:
            with open(ns.current_traffic, encoding="utf-8") as fh:
                traffic = json.load(fh)
        shifted = None
        if ns.current_shifted:
            with open(ns.current_shifted, encoding="utf-8") as fh:
                shifted = json.load(fh)
        transient = None
        if ns.current_transient:
            with open(ns.current_transient, encoding="utf-8") as fh:
                transient = json.load(fh)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            (kernels, service, traffic, shifted,
             transient) = run_quick_benches(tmp)
    current = extract_metrics(kernels, service, traffic, shifted, transient)

    if ns.self_test:
        return self_test(current)
    errors = rebaseline_errors(current, rebased, ns.reason)
    if errors:
        for e in errors:
            print(f"bench_compare: --rebaseline {e}", file=sys.stderr)
        return 2

    trajectory = load_trajectory()
    same_config = [e for e in trajectory if e.get("config") == "quick"]
    if same_config:
        baseline = same_config[-1]["metrics"]
        failures = compare(current, baseline,
                           label=f"trajectory[{same_config[-1]['date']}]",
                           rebaseline=rebased)
        mode = f"vs trajectory entry {same_config[-1]['date']}"
    else:
        baseline = {}
        failures = bootstrap_floors(current)
        mode = "bootstrap (absolute floors; trajectory was empty)"

    print(f"bench_compare: {mode}")
    if rebased:
        print(f"bench_compare: re-based {', '.join(sorted(rebased))}: "
              f"{ns.reason}")
    for name, entry in sorted(current.items()):
        print(f"  {name:<38} {entry['value']:>12.4f}  [{entry['kind']}]")
    if failures:
        print(f"\nbench_compare: {len(failures)} regression(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1

    if not ns.no_append:
        entry = {
            "date": time.strftime("%Y-%m-%d"),
            "config": "quick",
            "metrics": current,
            "compared_against": mode,
        }
        if rebased:
            entry["rebaselined"] = rebaseline_record(current, baseline,
                                                     rebased, ns.reason)
        trajectory.append(entry)
        with open(TRAJECTORY, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"bench_compare: appended entry #{len(trajectory)} to "
              f"{os.path.relpath(TRAJECTORY, ROOT)}")
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
