"""Benchmark of the async service under seeded multi-tenant traffic.

Replays one deterministic :class:`~repro.service.traffic.TrafficConfig`
schedule — Zipf-skewed operator popularity, exponential open-loop
arrivals, bursty tenants — through both service front ends and compares
them on *modeled* time (ledger counts through the perfmodel at
``nranks=64``; no wall clock anywhere, so every number in the report is
byte-deterministic):

* **sync** — the blocking :class:`repro.SolveService` oracle on one
  serial lane (the PR-3 behaviour);
* **async** — :class:`repro.AsyncSolveService`: consistent-hash sharding
  across independent lanes, earliest-deadline-first dispatch, and
  cross-batch pipelining.

A third scenario re-runs the async mode with bursty arrivals against a
bounded per-shard queue (``service_queue_depth``) to measure admission
control: the rejection rate must be strictly positive (backpressure
fires) but bounded (the service still absorbs most of the burst).

A fourth scenario turns on ``family_fraction``: a slice of the schedule
arrives as shifted-family requests (``shifts=[...]``), which the service
coalesces by ``(operator, rhs)`` and solves on one shared block-Arnoldi
basis per dispatch.

Gates (``--check``):

* async modeled throughput >= ``GATE_SPEEDUP`` x sync at equal inputs,
  with every admitted request converged in both modes;
* async p99 latency <= ``GATE_P99_MAX`` modeled seconds;
* bounded-queue rejection rate in ``(0, GATE_REJECTION_MAX]``;
* the family scenario solves every family request it admits, in
  strictly fewer family batches than family requests (coalescing).

Usage::

    PYTHONPATH=src python benchmarks/bench_traffic.py            # full, 10^4
    PYTHONPATH=src python benchmarks/bench_traffic.py --quick    # CI, 10^3
    PYTHONPATH=src python benchmarks/bench_traffic.py --quick --check
"""

from __future__ import annotations

import argparse
import dataclasses
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

from repro.service.traffic import TrafficConfig, run_traffic

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_traffic.json"

GATE_SPEEDUP = 1.5        #: async over sync modeled throughput
GATE_P99_MAX = 5e-3       #: modeled seconds, async open-loop p99
GATE_REJECTION_MAX = 0.5  #: bounded-burst scenario must reject <= this

#: the one wall-clock line of the report: never gated, never written to the
#: JSON (which must stay byte-deterministic); ``scripts/ci.py`` parses it
WALL_LINE = ("  wall: {seconds:.2f} s for the four replays = {us:.1f} us per "
             "request (informational)")

#: open-loop rate just under async capacity (~5.5e5/s at this config):
#: the async queues stay stable so tail latency is bounded, while the
#: sync lane (~2e5/s) saturates — the throughput gap the gate measures
FULL = TrafficConfig(n_requests=10_000, n_operators=8, grid=8, zipf_s=1.1,
                     arrival="open", rate=4.5e5, shards=4, pmax=16,
                     queue_depth=0)
QUICK = dataclasses.replace(FULL, n_requests=1_000)

#: the admission-control scenario: bursty tenants at ~20% overload
#: against bounded per-shard queues (rejections expected, not dominant)
def _burst_config(base: TrafficConfig) -> TrafficConfig:
    return dataclasses.replace(base, rate=6e5, burst_every=16,
                               burst_size=12, queue_depth=16, deadline=2e-3)


#: the shifted-family scenario: 15% of arrivals carry ``shifts=[...]``
#: (frequency-sweep style families); rate is lowered because each family
#: is a k-wide block solve, several times the work of a scalar request
def _family_config(base: TrafficConfig) -> TrafficConfig:
    return dataclasses.replace(base, rate=1e5, family_fraction=0.15,
                               family_shifts=4)


def run(cfg: TrafficConfig, out_path: Path | None) -> dict:
    wall0 = time.perf_counter()
    sync = run_traffic(cfg, "sync")
    async_ = run_traffic(cfg, "async")
    burst = run_traffic(_burst_config(cfg), "async")
    family = run_traffic(_family_config(cfg), "async")
    wall = time.perf_counter() - wall0
    replayed = sum(r["n_requests"] for r in (sync, async_, burst, family))

    speedup = async_["throughput"] / sync["throughput"]
    equal_correctness = (sync["all_converged"] and async_["all_converged"]
                         and sync["n_admitted"] == async_["n_admitted"])
    fam = family["family"]
    family_ok = (family["all_converged"]
                 and fam["requests"] > 0
                 and 0 < fam["batches"] < fam["requests"])
    gate = {
        "required_speedup": GATE_SPEEDUP,
        "speedup": speedup,
        "p99_max": GATE_P99_MAX,
        "p99": async_["latency"]["p99"],
        "rejection_max": GATE_REJECTION_MAX,
        "burst_rejection_rate": burst["rejection_rate"],
        "equal_correctness": equal_correctness,
        "family_requests": fam["requests"],
        "family_batches": fam["batches"],
        "family_coalesced_and_converged": family_ok,
        "passed": (speedup >= GATE_SPEEDUP
                   and equal_correctness
                   and async_["latency"]["p99"] <= GATE_P99_MAX
                   and 0.0 < burst["rejection_rate"] <= GATE_REJECTION_MAX
                   and family_ok),
    }
    # informational only — everything gated is modeled and deterministic
    report = {
        "description": "seeded Zipf/bursty traffic replayed through the "
                       "sync oracle and the async sharded scheduler; all "
                       "latencies/throughputs are modeled seconds from "
                       "ledger counts (nranks=64)",
        "wall_seconds_informational": wall,
        "wall_us_per_request_informational": 1e6 * wall / replayed,
        "sync": sync,
        "async": async_,
        "burst_bounded_queue": burst,
        "family_mix": family,
        "throughput_speedup_async_over_sync": speedup,
        "gate": gate,
    }
    if out_path is not None:
        out_path.parent.mkdir(exist_ok=True)
        payload = dict(report)
        for key in ("wall_seconds_informational",   # keep the file diffable
                    "wall_us_per_request_informational"):
            payload.pop(key)
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n")
    return report


def print_report(report: dict) -> None:
    cfg = report["sync"]["config"]
    print(f"# {cfg['n_requests']} requests, {cfg['n_operators']} operators "
          f"(zipf {cfg['zipf_s']}), {cfg['shards']} shards, "
          f"pmax={cfg['pmax']}, open-loop rate {cfg['rate']:.0e}/s")
    for mode in ("sync", "async"):
        r = report[mode]
        lat = r["latency"]
        print(f"{mode:>6}: throughput {r['throughput']:>12.0f}/s  "
              f"p50 {lat['p50']:.2e}  p99 {lat['p99']:.2e}  "
              f"batches {r['batches']['count']} "
              f"(mean width {r['batches']['mean_width']:.1f})  "
              f"cache hit {r['cache']['hit_rate']:.2f}  "
              f"converged {r['all_converged']}")
    b = report["burst_bounded_queue"]
    print(f" burst: rejection rate {b['rejection_rate']:.3f} "
          f"({b['n_rejected']}/{b['n_requests']}, "
          f"reasons {b['rejection_reasons']}), "
          f"queue high water {max(b['queue_high_water'])}, "
          f"deadline misses {b['deadline_misses']}")
    fam = report["family_mix"]["family"]
    print(f"family: {fam['requests']} family requests coalesced into "
          f"{fam['batches']} batches ({fam['shifts_solved']} shifts "
          f"solved), converged {report['family_mix']['all_converged']}")
    g = report["gate"]
    print(f" speedup async/sync: {g['speedup']:.2f}x "
          f"(gate {g['required_speedup']:.1f}x) | p99 {g['p99']:.2e} "
          f"(max {g['p99_max']:.0e}) | "
          f"burst rejections {g['burst_rejection_rate']:.3f} "
          f"(0 < r <= {g['rejection_max']}) | "
          f"families {g['family_requests']}->{g['family_batches']} batches | "
          f"{'PASS' if g['passed'] else 'FAIL'}")
    # scripts/ci.py reads this line (``WALL_LINE``) off the traffic stage
    print(WALL_LINE.format(
        seconds=report["wall_seconds_informational"],
        us=report["wall_us_per_request_informational"]))


def test_traffic_gates():
    """Pytest entry: the quick gate, runnable as part of the bench suite."""
    report = run(QUICK, out_path=None)
    assert report["gate"]["passed"], report["gate"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="10^3 requests (CI-sized) instead of 10^4")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless all gates pass")
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
        print("PERF GATE FAILED:", json.dumps(report["gate"], indent=2))
        return 1
    if args.check:
        print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
