"""One run of one workload: set-up, warm-up, timed passes, answer check.

A *run* is one process (see ``run.py`` for the process model).  Every pass
executes under ``ledger.install(CostLedger())`` so wall clock and modeled
clock come from the same passes; the answer check runs after each pass,
outside its timed region.  ``measure`` returns the untraced end-to-end
metrics; ``measure_traced`` alternates untraced and traced passes and
returns the per-layer metrics (end-to-end numbers never come from it).
"""

from __future__ import annotations

import ctypes
import faulthandler
import gc
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any

import numpy as np
import scipy

from repro.perfmodel import modeled_time
from repro.util import ledger
from repro.util.ledger import CostLedger

import tracing
from metrics import END_TO_END, MODEL_RANKS, PER_LAYER
from workloads import NO_ANSWER, PassOutput, Verdict

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3          #: timed passes, however short ``--seconds`` is
SETUP_TIMEOUT_S = 150.0
MAX_REASONS = 20        #: failure reasons kept in the report


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------
def blas_threads() -> dict[str, dict[str, Any]]:
    """Thread count and version of every OpenBLAS this process has loaded.

    numpy and scipy wheels each vendor their own copy under a prefixed
    symbol name; ask each one directly instead of trusting the environment.
    """
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", ""),
                               ("scipy_", "64_")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get is None:
                continue
            cfg = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            cfg.restype = ctypes.c_char_p
            out[os.path.basename(path)] = {"threads": int(get()),
                                           "config": cfg().decode()}
            break
    return out


def provenance(seed: int) -> dict[str, Any]:
    root = Path(__file__).resolve().parents[2]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None   # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def pin_to_one_cpu() -> None:
    """Keep this process on one CPU (the last it may use), where the OS can.

    A run is single-threaded; left free it migrates between the two cores
    and pass times of one seed scatter by 8 % instead of 3 %.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def check_thread_pin(prov: dict[str, Any]) -> None:
    """Refuse to report numbers from an oversubscribed BLAS."""
    loose = {lib: info["threads"] for lib, info in prov["blas"].items()
             if info["threads"] != 1}
    if loose:
        raise SystemExit(f"BLAS thread pin did not take: {loose}; "
                         f"refusing to report (2 BLAS threads on 2 cores "
                         f"measure oversubscription, not work)")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------
class PassRecord:
    """One executed pass: its clocks, its exact counts, its verdict."""

    def __init__(self, wall: float, led: CostLedger, out: PassOutput | None,
                 verdict: Verdict):
        self.wall = wall
        self.ledger = led
        self.service = out.service if out is not None else {}
        self.iterations = out.iterations if out is not None else -1
        self.reductions = led.reductions
        self.modeled_r64_s = (
            out.modeled_r64_s if out is not None
            and out.modeled_r64_s is not None
            else modeled_time(led, MODEL_RANKS).total)
        self.verdict = verdict


def run_pass(wl, state: dict, **overrides) -> PassRecord:
    """Time one pass from cold solver state, then check its answers.

    A pass that raises is contained: all its operations count as failed,
    with the exception as the reason.  A pass that hangs is killed by the
    watchdog with a traceback on stderr and a non-zero exit; ``run.py``'s
    suite mode turns that into failed operations of this workload.
    """
    gc.collect()
    led = CostLedger()
    out = error = None
    faulthandler.dump_traceback_later(wl.pass_timeout_s, exit=True)
    t0 = time.perf_counter()
    try:
        with ledger.install(led):
            out = wl.run_pass(state, **overrides)
    except Exception as exc:   # boundary: the remaining passes still run
        error = f"pass raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    faulthandler.cancel_dump_traceback_later()
    if out is None:
        verdict = Verdict(wl.ops, [error] * wl.ops, NO_ANSWER)
    else:
        try:
            verdict = wl.check(state, out)
        except Exception as exc:   # an unreadable answer is a wrong answer
            verdict = Verdict(wl.ops, [f"check raised {type(exc).__name__}: "
                                       f"{exc}"] * wl.ops, NO_ANSWER)
    return PassRecord(wall, led, out, verdict)


def timed_setup(wl, seed: int) -> tuple[dict, float]:
    gc.collect()
    faulthandler.dump_traceback_later(SETUP_TIMEOUT_S, exit=True)
    t0 = time.perf_counter()
    state = wl.setup(seed)
    dt = time.perf_counter() - t0
    faulthandler.cancel_dump_traceback_later()
    return state, dt


def repeat_setup(wl, seed: int, first: float) -> list[float]:
    """Set-up times: 5 in all when one takes > 1 s, 15 otherwise."""
    return [first] + [timed_setup(wl, seed)[1]
                      for _ in range((5 if first > 1.0 else 15) - 1)]


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3


def _tally(passes: list[PassRecord]) -> dict[str, Any]:
    attempted = sum(p.verdict.attempted for p in passes)
    reasons = [r for p in passes for r in p.verdict.failures]
    return {"attempted": attempted, "failed": len(reasons),
            "reasons": reasons[:MAX_REASONS],
            "relres_max": max(p.verdict.relres_max for p in passes)}


def _exact_agree(passes: list[PassRecord]) -> bool:
    """Iterations, reductions and the modeled clock must not vary by pass."""
    return len({(p.iterations, p.reductions, p.modeled_r64_s)
                for p in passes}) == 1


def exit_code(report: dict[str, Any]) -> int:
    return 0 if report["correct"] else 1


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------
def measure(wl, seed: int, seconds: float) -> dict[str, Any]:
    """Untraced run: the six end-to-end metrics."""
    pin_to_one_cpu()
    prov = provenance(seed)
    check_thread_pin(prov)
    state, first_setup = timed_setup(wl, seed)
    warmup = run_pass(wl, state)
    timed: list[PassRecord] = []
    spent = 0.0
    while len(timed) < MIN_PASSES or \
            spent + statistics.median(p.wall for p in timed) <= seconds:
        timed.append(run_pass(wl, state))
        spent += timed[-1].wall
        if len(timed) == MIN_PASSES:
            # the high-water mark of a fixed amount of work — one set-up,
            # the warm-up and MIN_PASSES passes — so that neither the
            # number of passes a run fits nor the set-up repetitions show
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times = repeat_setup(wl, seed, first_setup)
    walls = [p.wall for p in timed]
    tally = _tally([warmup] + timed)
    exact_ok = _exact_agree(timed)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solve_wall_s": statistics.median(walls),
        "modeled_r64_s": timed[0].modeled_r64_s,
        "reductions": float(timed[0].reductions),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - tally["failed"] / tally["attempted"],
    }
    units = {m.name: m.unit for m in END_TO_END}
    return {
        "workload": wl.name,
        "mode": "untraced",
        "correct": tally["failed"] == 0 and exact_ok,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "detail": {
            "provenance": prov,
            "sizes": dict(vars(wl)),
            "unknowns": state["n"],
            "passes": len(timed),
            "solve_wall_quartiles_s": _quartiles(walls),
            "samples": {"setup_s": setup_times, "warmup_s": warmup.wall,
                        "solve_wall_s": walls},
            "fail_frac": tally["failed"] / tally["attempted"],
            "failure_reasons": tally["reasons"],
            "exact_metrics_identical_across_passes": exact_ok,
            "true_relres_max": tally["relres_max"],
        },
    }


def _perfmodel_metrics(led: CostLedger, unknowns: int) -> dict[str, float]:
    at64 = modeled_time(led, MODEL_RANKS)
    return {
        "perfmodel.modeled_r1_s": modeled_time(led, 1).total,
        "perfmodel.modeled_r16_s": modeled_time(led, 16).total,
        "perfmodel.modeled_r1024_s": modeled_time(led, 1024).total,
        "perfmodel.reduce_share_r64":
            at64.reduction / at64.total if at64.total else 0.0,
        "perfmodel.unknowns_per_rank_r64": unknowns / MODEL_RANKS,
        "perfmodel.p2p_messages": float(led.p2p_messages),
        "perfmodel.flops_total": led.total_flops(),
    }


def measure_traced(wl, seed: int, seconds: float) -> dict[str, Any]:
    """Traced run: per-layer metrics from wrappers placed by ``tracing``.

    Set-up once (traced), one warm-up, then untraced and traced passes
    alternate for ``seconds`` less the two closing passes that price
    ``trace="full"`` and ``verify="cheap"`` against the untraced median.
    """
    pin_to_one_cpu()
    prov = provenance(seed)
    check_thread_pin(prov)
    rec = tracing.Recorder()
    with tracing.install(rec):
        state, _ = timed_setup(wl, seed)
        setup_spans = rec.take()
    warmup = run_pass(wl, state)
    budget = seconds - 2.0 * warmup.wall
    plain: list[PassRecord] = []
    traced: list[PassRecord] = []
    per_pass: list[dict[str, float]] = []
    layer_self: list[dict[str, float]] = []
    waves: list[float] = []
    spans: list[tuple] = []
    spent = 0.0
    while len(traced) < 2 or spent + 2.0 * statistics.median(
            p.wall for p in traced) <= budget:
        plain.append(run_pass(wl, state))
        with tracing.install(rec):
            traced.append(run_pass(wl, state))
            spans = rec.take()
        folded, by_layer = tracing.layer_metrics(spans)
        per_pass.append(folded)
        layer_self.append(by_layer)
        waves.extend(tracing.wave_walls(spans))
        spent += plain[-1].wall + traced[-1].wall
    base = statistics.median(p.wall for p in plain)
    full = None if getattr(wl, "installs_tracer", False) \
        else run_pass(wl, state, trace="full")
    verified = run_pass(wl, state, verify="cheap")

    setup_m, _ = tracing.layer_metrics(setup_spans)
    values = {k: setup_m[k] + statistics.median(m[k] for m in per_pass)
              for k in setup_m}
    values.update({k: statistics.median(p.service.get(k, 0.0) for p in traced)
                   for k in ("service.batches", "service.batch_width_mean",
                             "service.setup_cache_hit_ratio",
                             "service.recycle_cache_hit_ratio",
                             "service.rejected",
                             "service.modeled_p99_latency_s",
                             "service.modeled_throughput_rps")})
    waves.sort()
    values["service.wave_wall_p50_s"] = tracing.quantile(waves, 0.50)
    values["service.wave_wall_p95_s"] = tracing.quantile(waves, 0.95)
    values.update(_perfmodel_metrics(plain[0].ledger, state["n"]))
    everything = [warmup, verified] + plain + traced \
        + ([full] if full is not None else [])
    tally = _tally(everything)
    plain_walls = [p.wall for p in plain]
    q1, _, q3 = _quartiles(plain_walls)
    values.update({
        "trace.on_cost_frac": full.wall / base - 1.0 if full else 0.0,
        "verify.on_cost_frac": verified.wall / base - 1.0,
        "verify.true_relres_max": tally["relres_max"],
        "bench.wrap_overhead_frac":
            statistics.median(p.wall for p in traced) / base - 1.0,
        "bench.warmup_s": warmup.wall,
        "bench.solve_wall_iqr_s": q3 - q1,
        "bench.passes": float(len(plain)),
        "bench.traced_coverage_frac": statistics.median(
            m["covered_wall_s"] / p.wall for m, p in zip(per_pass, traced)),
    })
    # identical work, traced or not: the wrappers must not change a count,
    # and the iterations seen from outside are the ones the results report
    exact_ok = _exact_agree(plain + traced) and all(
        m["krylov.iterations"] == p.iterations
        for m, p in zip(per_pass, traced))
    return {
        "workload": wl.name,
        "mode": "traced",
        "correct": tally["failed"] == 0 and exact_ok,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m.name: {"value": float(values[m.name]), "unit": m.unit}
                    for m in PER_LAYER},
        "detail": {
            "provenance": prov,
            "passes": {"untraced": len(plain), "traced": len(traced)},
            "samples": {"untraced_wall_s": plain_walls,
                        "traced_wall_s": [p.wall for p in traced],
                        "trace_full_wall_s": full.wall if full else None,
                        "verify_cheap_wall_s": verified.wall,
                        "waves": len(waves)},
            "layer_self_wall_s": {
                layer: statistics.median(m.get(layer, 0.0)
                                         for m in layer_self)
                for layer in sorted({k for m in layer_self for k in m})},
            "untraced_solve_wall_s": base,
            "traced_solve_wall_s": statistics.median(p.wall for p in traced),
            "failure_reasons": tally["reasons"],
            "exact_metrics_identical_traced_and_untraced": exact_ok,
            "setup_call_tree": tracing.call_tree(setup_spans),
            "last_pass_call_tree": tracing.call_tree(spans),
        },
        "spans": {"columns": ["id", "name", "parent", "start", "end",
                              "reductions", "value"],
                  "setup": setup_spans, "last_pass": spans},
    }
