"""Macro-benchmark: transient PDE sequences through the reuse ladder.

Drives a four-tenant *ensemble* of adaptive-``dt`` heat sequences
(:class:`repro.problems.transient.HeatSequence`; identical operator
schedule, phase-shifted sources, operator fingerprint changes every
``epoch_length`` steps) end to end through the solve service, one rung
of the reuse ladder at a time:

* **no_reuse** — the oracle: every tenant-step is an independent cold
  solve through a fresh service + fresh setup cache, so each pays a
  width-1 batch and a full recycle harvest from scratch.  This is what
  ``tenants`` independent single-tenant runs would cost.
* **cache_only** — one shared service: repeat operators hit the setup
  cache and the ensemble's step-``t`` solves coalesce into one
  width-``tenants`` batch (the batch's reductions are shared, so each
  tenant's ledger share shrinks by the width), but recycle artifacts
  are never reused — every step harvests fresh.
* **cache_recycle** — the end-to-end engine: coalescing plus
  setup-cache hits, the same-system fast path on unchanged
  fingerprints, and recycle-space carry-over across epoch boundaries
  via ``SetupCache.adopt_from`` (adopted pairs are repaired, never
  trusted).  **The headline gate compares this rung to the oracle.**

Every number is *modeled* seconds — ledger counts through the perfmodel
at ``nranks=64``, where reduction latency dominates — so the whole
report is byte-deterministic.  The headline is the **end-to-end reuse
multiple**: modeled time of the no-reuse oracle over the
``cache_recycle`` engine rung, ledger-verified (per-step cost shares
merge bit-for-bit back to the batch ledger totals).

Also measured: a two-tenant sync-vs-async parity leg (identical
iteration counts through both front ends while the async scheduler
coalesces across tenants), and a small time-harmonic Maxwell frequency
ramp (operator fingerprints + adoption).

Gates (``--check``):

* end-to-end reuse multiple >= ``GATE_REUSE_MULTIPLE`` (3x);
* every step of every rung converged;
* every rung ledger-verified;
* the engine rung actually exercised carry-over (>= 1 adoption repair)
  and the fast path (>= half its steps on unchanged fingerprints);
* async parity: same per-step iteration counts as the sync front end.

Usage::

    PYTHONPATH=src python benchmarks/bench_transient.py           # 200 steps
    PYTHONPATH=src python benchmarks/bench_transient.py --quick   # CI-sized
    PYTHONPATH=src python benchmarks/bench_transient.py --quick --check
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
    # one BLAS thread, set before numpy loads (as benchmarks/e2e/run.py
    # does): the Maxwell ramp's iteration counts move with the thread count
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    # allow running without PYTHONPATH=src
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import numpy as np

from repro.problems.poisson import PAPER_NUS
from repro.problems.transient import HeatSequence, MaxwellRampSequence
from repro.service.sequence import SequenceDriver
from repro.service.service import SolveService
from repro.service.scheduler import AsyncSolveService
from repro.trace.export import counts_signature
from repro.util.ledger import CostLedger
from repro.util.options import Options

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_transient.json"

GATE_REUSE_MULTIPLE = 3.0  #: no-reuse oracle over the cache_recycle rung
NRANKS = 64


@dataclasses.dataclass(frozen=True)
class TransientConfig:
    """One deterministic transient scenario (no RNG anywhere)."""

    nx: int = 20             #: heat grid (n = nx^2 unknowns)
    n_steps: int = 200       #: heat time steps (one solve each)
    dt0: float = 5e-4        #: initial time step
    epoch_length: int = 25   #: steps per dt epoch (fp changes at each)
    growth: float = 1.25     #: per-epoch dt growth
    theta: float = 1.0       #: 1.0 = backward Euler
    tenants: int = 4         #: ensemble width (phase-shifted sources)
    m: int = 30              #: GMRES restart
    k: int = 10              #: recycle dimension
    tol: float = 1e-8
    parity_steps: int = 20   #: two-tenant sync/async parity leg
    maxwell_n: int = 3       #: Maxwell mesh resolution
    maxwell_steps: int = 6
    maxwell_epoch: int = 3
    nranks: int = NRANKS

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


FULL = TransientConfig()
QUICK = dataclasses.replace(FULL, nx=10, n_steps=60, epoch_length=15,
                            parity_steps=10)


def _heat_options(cfg: TransientConfig, **over) -> Options:
    base = dict(krylov_method="gcrodr", gmres_restart=cfg.m, recycle=cfg.k,
                orthogonalization="cgs2_1r", tol=cfg.tol, max_it=20000,
                recycle_same_system=False, service_flush="explicit")
    base.update(over)
    return Options(**base)


def _phase_source(phase: int, dt0: float):
    """The paper's nu-family pulse, phase-shifted per ensemble member.

    Identical operators across tenants (they coalesce into one batch per
    wave); distinct right-hand sides (the block solve is not degenerate).
    """

    def source(points: np.ndarray, t: float) -> np.ndarray:
        nu = PAPER_NUS[(int(round(t / dt0)) + phase) % len(PAPER_NUS)]
        x, y = points[:, 0], points[:, 1]
        return (np.exp(-(1 - x) ** 2 / nu) * np.exp(-(1 - y) ** 2 / nu)) / nu

    return source


def _heat_sequence(cfg: TransientConfig, phase: int = 0, *,
                   n_steps: int | None = None) -> HeatSequence:
    return HeatSequence(nx=cfg.nx, n_steps=n_steps or cfg.n_steps,
                        dt0=cfg.dt0, epoch_length=cfg.epoch_length,
                        growth=cfg.growth, theta=cfg.theta,
                        source=_phase_source(phase, cfg.dt0))


class _NoRecycleReuseService(SolveService):
    """cache_only rung: setup cache + coalescing on, recycle reuse off.

    Every recycle probe misses, so each solve harvests its space from
    scratch — isolating coalescing + setup cache from recycling.
    """

    def _cached_recycle(self, fp, okey, p):
        return None, False


def _ledger_verified(records: list[dict], batches: list[dict]) -> bool:
    """Per-step cost shares must merge bit-for-bit to the batch totals."""
    shares = CostLedger()
    for rec in records:
        shares.merge(rec["cost"])
    totals = CostLedger()
    for batch in batches:
        totals.merge(batch["ledger"])
    return counts_signature(shares) == counts_signature(totals)


def _rung_report(records: list[dict], batches: list[dict],
                 simulated: float) -> dict:
    modeled = sum(r["modeled_seconds"] for r in records)
    return {
        "steps": len(records),
        "iterations": sum(r["iterations"] for r in records),
        "all_converged": all(r["converged"] for r in records),
        "modeled_seconds": modeled,
        "simulated_seconds": simulated,
        "time_per_simulated_second": modeled / simulated,
        "mean_batch_width": (sum(r["batch_width"] for r in records)
                             / len(records)),
        "setup_cache_hits": sum(1 for r in records
                                if r.get("setup_cache_hit")),
        "recycle_fast_path_steps": sum(1 for r in records
                                       if r.get("recycle_cache_hit")),
        "adoptions": sum(1 for r in records if r.get("recycle_adopted")),
        "adoption_repairs": sum(1 for r in records
                                if r.get("adopted_kinds")),
        "ledger_verified": _ledger_verified(records, batches),
    }


def _run_driver_rung(cfg: TransientConfig, *,
                     service_cls=SolveService) -> dict:
    opts = _heat_options(cfg)
    svc = service_cls(options=opts)
    driver = SequenceDriver(svc, nranks=cfg.nranks)
    for phase in range(cfg.tenants):
        driver.add(_heat_sequence(cfg, phase), options=opts,
                   tenant=f"t{phase}")
    records = driver.run()
    simulated = sum(h.sequence.total_time for h in driver.handles)
    return _rung_report(records, svc.batches, simulated)


def _run_no_reuse_rung(cfg: TransientConfig) -> dict:
    """The oracle: every tenant-step is its own fresh service + cache."""
    opts = _heat_options(cfg)
    seqs = [_heat_sequence(cfg, phase) for phase in range(cfg.tenants)]
    fields = [seq.u0() for seq in seqs]
    records: list[dict] = []
    batches: list[dict] = []
    for wave in range(cfg.n_steps):
        for i, seq in enumerate(seqs):
            svc = SolveService(options=opts)
            driver = SequenceDriver(svc, nranks=cfg.nranks)
            # one-step sub-sequence sharing the parent's state: reuse
            # the driver's submit/complete plumbing so cost attribution
            # and span shapes are identical to the reusing rungs
            handle = driver.add(_OneStep(seq, seq.steps()[wave], fields[i]),
                                options=opts, tenant=f"t{i}")
            driver.run()
            fields[i] = handle.u
            records.append(handle.records[0])
            batches.extend(svc.batches)
    simulated = sum(seq.total_time for seq in seqs)
    return _rung_report(records, batches, simulated)


class _OneStep:
    """A single step of a parent sequence, as a sequence of its own."""

    depends_on_previous = True

    def __init__(self, parent: HeatSequence, step, u_prev):
        self._parent = parent
        self._step = dataclasses.replace(step, index=0)
        self._orig = step
        self._u = u_prev
        self.n_epochs = 1
        self.total_time = step.dt

    def steps(self):
        return [self._step]

    def u0(self):
        return self._u

    def operator(self, step):
        return self._parent.operator(self._orig)

    def rhs(self, step, u_prev):
        return self._parent.rhs(self._orig, u_prev)


def _run_parity(cfg: TransientConfig) -> dict:
    """Two tenants, sync vs async: same solves, same iteration counts."""
    out = {}
    for label, service_cls in (("sync", SolveService),
                               ("async", AsyncSolveService)):
        opts = _heat_options(cfg)
        svc = service_cls(options=opts)
        driver = SequenceDriver(svc, nranks=cfg.nranks)
        for phase, tenant in enumerate(("t0", "t1")):
            driver.add(_heat_sequence(cfg, phase,
                                      n_steps=cfg.parity_steps),
                       options=opts, tenant=tenant)
        records = driver.run()
        out[label] = {
            "steps": len(records),
            "iterations_per_step": [r["iterations"] for r in records],
            "all_converged": all(r["converged"] for r in records),
            "coalesced_batches": len(svc.batches),
            "mean_batch_width": (sum(b["width"] for b in svc.batches)
                                 / len(svc.batches)),
            "modeled_seconds": sum(r["modeled_seconds"] for r in records),
        }
        if label == "async":
            out[label]["makespan"] = svc.makespan
    out["iterations_identical"] = (out["sync"]["iterations_per_step"]
                                   == out["async"]["iterations_per_step"])
    return out


def _run_maxwell(cfg: TransientConfig) -> dict:
    """Frequency ramp: one fingerprint per rung, adoption across rungs."""
    opts = _heat_options(cfg, gmres_restart=60, recycle=10, tol=1e-7)
    svc = SolveService(options=opts)
    driver = SequenceDriver(svc, nranks=cfg.nranks)
    seq = MaxwellRampSequence(n=cfg.maxwell_n, n_steps=cfg.maxwell_steps,
                              omega0=6.0, epoch_length=cfg.maxwell_epoch,
                              omega_growth=1.1, n_antennas=4)
    driver.add(seq, options=opts, tenant="mx")
    records = driver.run()
    return {"operator": _rung_report(records, svc.batches, seq.total_time)}


def run(cfg: TransientConfig, out_path: Path | None) -> dict:
    wall0 = time.perf_counter()
    ladder = {
        "no_reuse": _run_no_reuse_rung(cfg),
        "cache_only": _run_driver_rung(cfg,
                                       service_cls=_NoRecycleReuseService),
        "cache_recycle": _run_driver_rung(cfg),
    }
    parity = _run_parity(cfg)
    maxwell = _run_maxwell(cfg)
    wall = time.perf_counter() - wall0

    engine = ladder["cache_recycle"]
    reuse_multiple = (ladder["no_reuse"]["modeled_seconds"]
                      / engine["modeled_seconds"])
    best = min(("cache_only", "cache_recycle"),
               key=lambda r: ladder[r]["modeled_seconds"])
    all_converged = (all(r["all_converged"] for r in ladder.values())
                     and parity["sync"]["all_converged"]
                     and parity["async"]["all_converged"]
                     and all(m["all_converged"] for m in maxwell.values()))
    ledger_verified = all(r["ledger_verified"] for r in ladder.values())
    engine_exercised = (engine["adoption_repairs"] >= 1
                        and engine["recycle_fast_path_steps"]
                        >= engine["steps"] // 2)
    gate = {
        "required_reuse_multiple": GATE_REUSE_MULTIPLE,
        "reuse_multiple": reuse_multiple,
        "engine_rung": "cache_recycle",
        "best_rung": best,
        "all_converged": all_converged,
        "ledger_verified": ledger_verified,
        "engine_exercised_carry_over_and_fast_path": engine_exercised,
        "parity_iterations_identical": parity["iterations_identical"],
        "passed": (reuse_multiple >= GATE_REUSE_MULTIPLE
                   and all_converged
                   and ledger_verified
                   and engine_exercised
                   and parity["iterations_identical"]),
    }
    report = {
        "description": "four-tenant ensemble of adaptive-dt heat "
                       "sequences (fp changes every epoch) through the "
                       "reuse ladder {no_reuse, cache_only, "
                       "cache_recycle}; modeled seconds per simulated "
                       "second from ledger counts "
                       f"at nranks={cfg.nranks}",
        "wall_seconds_informational": wall,
        "config": cfg.as_dict(),
        "heat_ladder": ladder,
        "reuse_multiple": reuse_multiple,
        "parity": parity,
        "maxwell_ramp": maxwell,
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
    cfg = report["config"]
    print(f"# heat {cfg['nx']}x{cfg['nx']} grid, {cfg['tenants']} tenants, "
          f"{cfg['n_steps']} steps, dt epoch every {cfg['epoch_length']} "
          f"(x{cfg['growth']}), GCRO-DR({cfg['m']},{cfg['k']}), "
          f"nranks={cfg['nranks']}")
    for rung, r in report["heat_ladder"].items():
        print(f"{rung:>22}: {r['time_per_simulated_second']:>10.4g} "
              f"modeled s/sim-s  ({r['iterations']:>5} its, "
              f"width {r['mean_batch_width']:.1f}, "
              f"{r['recycle_fast_path_steps']:>3} fast-path, "
              f"{r['adoptions']} adoptions, "
              f"conv {r['all_converged']}, "
              f"ledger {'OK' if r['ledger_verified'] else 'BAD'})")
    par = report["parity"]
    print(f"parity: sync {par['sync']['modeled_seconds']:.4g}s vs async "
          f"{par['async']['modeled_seconds']:.4g}s "
          f"(mean width {par['async']['mean_batch_width']:.1f}, "
          f"iterations identical: {par['iterations_identical']})")
    for label, m in report["maxwell_ramp"].items():
        print(f"maxwell {label:>9}: {m['modeled_seconds']:.4g}s modeled, "
              f"{m['iterations']} its, conv {m['all_converged']}")
    g = report["gate"]
    print(f"reuse multiple: {g['reuse_multiple']:.2f}x over no-reuse "
          f"(gate {g['required_reuse_multiple']:.1f}x on "
          f"{g['engine_rung']}; best rung {g['best_rung']}) | "
          f"{'PASS' if g['passed'] else 'FAIL'}")


def test_transient_gates():
    """Pytest entry: the quick gate, runnable as part of the bench suite."""
    report = run(QUICK, out_path=None)
    assert report["gate"]["passed"], report["gate"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="60-step CI-sized sequence instead of 200 steps")
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
        print("MACRO GATE FAILED:", json.dumps(report["gate"], indent=2))
        return 1
    if args.check:
        print("macro gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
