"""Deterministic traffic generator and replay harness for the service.

The ROADMAP north-star is a solve service under heavy multi-tenant
traffic; this module makes that workload *reproducible*.  A frozen
:class:`TrafficConfig` seeds every random choice, :func:`generate`
expands it into an explicit arrival schedule (Zipf-skewed operator
popularity, exponential open-loop inter-arrival gaps, optional
simultaneous-arrival bursts, tenant/priority tags), and
:func:`run_traffic` replays that schedule through either service front
end:

* ``mode="async"`` drives :class:`~repro.service.scheduler.AsyncSolveService`
  — sharded, deadline-scheduled, pipelined — in simulated time;
* ``mode="sync"`` replays the same schedule through the blocking
  :class:`~repro.service.service.SolveService` oracle on a single serial
  lane whose timeline is reconstructed from the batch ledgers
  (dispatch at ``max(lane free, last member's arrival)``).

Nothing reads the wall clock: all times are modeled seconds from
:func:`repro.perfmodel.modeled_time`, so two runs of one config are
byte-identical — reports, metric snapshots, and digests.  That is the
contract the golden-replay tests and the ``traffic`` CI stage pin.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.sparse as sp

from ..trace import Tracer, install as install_tracer
from ..util.options import Options
from .scheduler import DEFAULT_NRANKS, AsyncSolveService
from .service import SolveService

__all__ = ["TrafficConfig", "Arrival", "generate", "build_operators",
           "base_operator", "run_traffic"]


@dataclass(frozen=True)
class TrafficConfig:
    """Seeded description of one traffic scenario (all times modeled)."""

    seed: int = 20260705
    n_requests: int = 1000
    n_operators: int = 8
    grid: int = 8                 #: operators are ``grid^2``-dim Laplacians
    zipf_s: float = 1.1           #: operator-popularity skew (Zipf exponent)
    arrival: str = "open"         #: ``"open"`` | ``"closed"``
    rate: float = 50_000.0        #: open loop: mean arrivals per second
    users: int = 32               #: closed loop: synchronized users per wave
    think_time: float = 0.0       #: closed loop: pause between waves
    burst_every: int = 0          #: every k-th arrival starts a burst (0=off)
    burst_size: int = 8           #: simultaneous arrivals per burst
    n_tenants: int = 4
    priorities: int = 2           #: priority levels drawn uniformly
    deadline: float = 0.0         #: relative deadline per request (0 = none)
    method: str = "gmres"
    pmax: int = 16
    shards: int = 4
    queue_depth: int = 0          #: per-shard admission bound (0 = unbounded)
    cache_entries: int = 32
    family_fraction: float = 0.0  #: fraction of arrivals sent as families
    family_shifts: int = 4        #: shifts per family request


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: all scheduling inputs, no arrays."""

    time: float
    op: int          #: operator index into :func:`build_operators`
    seed: int        #: RHS seed (deterministic per request)
    tenant: str
    priority: int
    deadline: float  #: relative; 0 = none
    shifts: tuple = ()  #: non-empty = family request on the base Laplacian


def generate(cfg: TrafficConfig) -> list[Arrival]:
    """Expand a config into its deterministic arrival schedule.

    Operator popularity is Zipf(``zipf_s``): operator ``i`` is drawn with
    probability proportional to ``1 / (i + 1)^s``, so a handful of hot
    operators dominates — the regime where setup caching pays.  With
    ``burst_every > 0``, every ``burst_every``-th arrival collapses the
    following ``burst_size`` arrivals onto its timestamp (a tenant burst).
    Closed-loop schedules carry ``time=0.0``; the replay driver paces
    them by completions instead.

    With ``family_fraction > 0`` that fraction of arrivals becomes
    *family* requests: the operator population is shifted 2-D Laplacians
    ``lap2 + 0.05 (i+1) I``, so instead of solving one member as a
    standalone operator (its own fingerprint, its own setup) the arrival
    asks for ``family_shifts`` consecutive members of the sweep at once —
    ``shifts = (0.05 (op+1), 0.05 (op+2), ...)`` on the *base* Laplacian
    — exercising the shared-basis family path.  Family arrivals model
    sweep consumers reading a *shared* per-operator dataset (their RHS
    seed is the operator index, not the arrival index), so concurrent
    sweeps of the same operator coalesce to one family dispatch.  The
    family flags come from an independent seeded stream, so the base
    schedule (operators, tenants, times) of a config is unchanged by
    the knob.
    """
    if cfg.arrival not in ("open", "closed"):
        raise ValueError(f"unknown arrival process {cfg.arrival!r}")
    if not 0.0 <= cfg.family_fraction <= 1.0:
        raise ValueError(
            f"family_fraction must be in [0, 1], got {cfg.family_fraction}")
    rng = np.random.default_rng([cfg.seed, 0xA11])
    n = cfg.n_requests
    weights = 1.0 / np.power(np.arange(1, cfg.n_operators + 1), cfg.zipf_s)
    probs = weights / weights.sum()
    ops = rng.choice(cfg.n_operators, size=n, p=probs)
    tenants = rng.integers(0, cfg.n_tenants, size=n)
    priorities = rng.integers(0, cfg.priorities, size=n)
    if cfg.arrival == "open":
        times = np.cumsum(rng.exponential(1.0 / cfg.rate, size=n))
        if cfg.burst_every > 0:
            for j in range(cfg.burst_every, n, cfg.burst_every):
                times[j:j + cfg.burst_size] = times[j]
    else:
        times = np.zeros(n)
    if cfg.family_fraction > 0.0:
        fam_rng = np.random.default_rng([cfg.seed, 0xFA31])
        is_family = fam_rng.random(n) < cfg.family_fraction
        width = min(cfg.family_shifts, cfg.n_operators)
    else:
        is_family = np.zeros(n, dtype=bool)
        width = 0
    return [Arrival(time=float(times[i]), op=int(ops[i]),
                    seed=int(ops[i]) if is_family[i] else i,
                    tenant=f"tenant{int(tenants[i])}",
                    priority=int(priorities[i]), deadline=cfg.deadline,
                    shifts=tuple(
                        0.05 * ((int(ops[i]) + d) % cfg.n_operators + 1)
                        for d in range(width)) if is_family[i] else ())
            for i in range(n)]


def schedule_digest(arrivals: list[Arrival]) -> str:
    """Stable digest of a schedule (the golden-replay identity)."""
    payload = repr([dataclasses.astuple(a) for a in arrivals]).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def build_operators(cfg: TrafficConfig) -> list[sp.csr_matrix]:
    """The config's operator population: shifted 2D Laplacians.

    Distinct diagonal shifts give every operator its own value
    fingerprint while keeping conditioning mild enough that every
    request converges (the equal-correctness leg of the bench gate).
    """
    lap2 = base_operator(cfg)
    n = lap2.shape[0]
    return [(lap2 + (0.05 * (i + 1)) * sp.eye(n)).tocsr()
            for i in range(cfg.n_operators)]


def base_operator(cfg: TrafficConfig) -> sp.csr_matrix:
    """The unshifted 2-D Laplacian every population member is a shift of.

    Family requests are ``submit(base, b, shifts=[...])`` — the member
    operators of :func:`build_operators` are exactly
    ``base + 0.05 (i+1) I``, so a family answers several population
    members from one shared basis.
    """
    g = cfg.grid
    lap1 = sp.diags([-np.ones(g - 1), 2.0 * np.ones(g), -np.ones(g - 1)],
                    [-1, 0, 1])
    eye = sp.eye(g)
    return (sp.kron(lap1, eye) + sp.kron(eye, lap1)).tocsr()


def _rhs(cfg: TrafficConfig, arrival: Arrival) -> np.ndarray:
    return np.random.default_rng(
        [cfg.seed, arrival.seed]).standard_normal(cfg.grid * cfg.grid)


def _options(cfg: TrafficConfig, mode: str) -> Options:
    return Options(krylov_method=cfg.method, service_mode=mode,
                   service_pmax=cfg.pmax, service_shards=cfg.shards,
                   service_queue_depth=cfg.queue_depth,
                   service_deadline=cfg.deadline,
                   service_cache_entries=cfg.cache_entries)


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile — index arithmetic only, reproducible."""
    if not sorted_vals:
        return 0.0
    i = min(len(sorted_vals) - 1, int(math.ceil(q * len(sorted_vals))) - 1)
    return sorted_vals[max(i, 0)]


def _latency_summary(latencies: list[float]) -> dict[str, float]:
    vals = sorted(latencies)
    return {
        "p50": _percentile(vals, 0.50),
        "p90": _percentile(vals, 0.90),
        "p99": _percentile(vals, 0.99),
        "mean": sum(vals) / len(vals) if vals else 0.0,
        "max": vals[-1] if vals else 0.0,
    }


def _submit(svc: SolveService, cfg: TrafficConfig, ar: Arrival,
            base: sp.csr_matrix, ops: list[sp.csr_matrix], **kwargs):
    """Submit one arrival: a family on the base operator, or a plain
    request on its population member."""
    if ar.shifts:
        return svc.submit(base, _rhs(cfg, ar), shifts=list(ar.shifts),
                          **kwargs)
    return svc.submit(ops[ar.op], _rhs(cfg, ar), **kwargs)


def _submit_async(svc: AsyncSolveService, cfg: TrafficConfig, ar: Arrival,
                  base: sp.csr_matrix, ops: list[sp.csr_matrix]):
    return _submit(svc, cfg, ar, base, ops,
                   deadline=ar.deadline if ar.deadline > 0 else None,
                   priority=ar.priority, tenant=ar.tenant)


def _run_async(cfg: TrafficConfig, arrivals: list[Arrival],
               ops: list[sp.csr_matrix], svc: AsyncSolveService) -> list:
    base = base_operator(cfg)
    reqs = []
    if cfg.arrival == "open":
        for ar in arrivals:
            svc.advance_to(ar.time)
            reqs.append(_submit_async(svc, cfg, ar, base, ops))
        svc.drain()
    else:
        # closed loop: waves of `users` synchronized clients, each wave
        # paced by the completion of the previous one plus think time
        for w0 in range(0, len(arrivals), cfg.users):
            for ar in arrivals[w0:w0 + cfg.users]:
                reqs.append(_submit_async(svc, cfg, ar, base, ops))
            svc.drain()
            svc.advance_to(svc.makespan + cfg.think_time)
    return reqs


def _run_sync(cfg: TrafficConfig, arrivals: list[Arrival],
              ops: list[sp.csr_matrix], svc: SolveService
              ) -> tuple[list, dict[int, float], float]:
    """Replay through the blocking oracle; returns a serial timeline.

    The sync service has one lane and no clock of its own, so the replay
    reconstructs one: each batch starts when the lane is free *and* its
    last member has arrived, and runs for its modeled duration.
    """
    from ..perfmodel.estimate import modeled_time

    base = base_operator(cfg)
    reqs = []
    arrival_time = {}
    for ar in arrivals:
        req = _submit(svc, cfg, ar, base, ops)
        arrival_time[req.index] = ar.time
        reqs.append(req)
    svc.flush()
    clock = 0.0
    completion: dict[int, float] = {}
    for rec in svc.batches:
        duration = float(modeled_time(rec["ledger"], DEFAULT_NRANKS,
                                      block_width=rec["width"]).total)
        ready = max(arrival_time[i] for i in rec["request_indices"])
        start = max(clock, ready)
        clock = start + duration
        rec.update(dispatch_time=start, completion_time=clock,
                   modeled_duration=duration)
        for i in rec["request_indices"]:
            completion[i] = clock
    return reqs, completion, clock


def run_traffic(cfg: TrafficConfig, mode: str = "async") -> dict[str, Any]:
    """Replay a seeded schedule through one service mode; return a report.

    The report is JSON-serializable and — for a fixed ``(cfg, mode)`` —
    byte-identical across runs (``json.dumps(..., sort_keys=True)`` of
    two invocations compares equal).  The embedded metrics snapshot comes
    from a private tracer installed for the run's duration.
    """
    arrivals = generate(cfg)
    ops = build_operators(cfg)
    opts = _options(cfg, mode)
    tracer = Tracer("summary")
    with install_tracer(tracer):
        if mode == "async":
            svc = AsyncSolveService(options=opts, preconditioner="lu")
            reqs = _run_async(cfg, arrivals, ops, svc)
            admitted = [r for r in reqs if r.rejected is None]
            rejected = [r for r in reqs if r.rejected is not None]
            if cfg.queue_depth > 0:
                # backpressure contract: admission may never let a shard
                # queue exceed its bound (the mutation test disables
                # admission and expects this to trip)
                assert max(svc.queue_high_water) <= cfg.queue_depth, (
                    f"shard queue high water {max(svc.queue_high_water)} "
                    f"exceeded service_queue_depth={cfg.queue_depth}")
            latencies = [r.latency for r in admitted]
            makespan = svc.makespan
            deadline_misses = svc.deadline_misses
            extra: dict[str, Any] = {
                "queue_high_water": list(svc.queue_high_water),
                "shard_batches": [
                    sum(1 for rec in svc.batches if rec["shard"] == s)
                    for s in range(svc.n_shards)],
            }
        elif mode == "sync":
            svc = SolveService(options=opts, preconditioner="lu")
            reqs, completion, makespan = _run_sync(cfg, arrivals, ops, svc)
            admitted, rejected = reqs, []
            latencies = [completion[r.index] - ar.time
                         for r, ar in zip(reqs, arrivals)]
            deadline_misses = sum(
                1 for r, ar in zip(reqs, arrivals)
                if ar.deadline > 0
                and completion[r.index] > ar.time + ar.deadline)
            extra = {}
        else:
            raise ValueError(f"unknown service mode {mode!r}")

    assert len(admitted) + len(rejected) == len(arrivals)
    assert all(r.done for r in admitted)
    n = len(arrivals)
    cache = svc.cache.stats()
    probes = cache["total_hits"] + cache["total_misses"]
    widths = [rec["width"] for rec in svc.batches]
    snapshot = tracer.metrics.snapshot()
    report = {
        "config": dataclasses.asdict(cfg),
        "mode": mode,
        "n_requests": n,
        "n_admitted": len(admitted),
        "n_rejected": len(rejected),
        "rejection_rate": len(rejected) / n,
        "rejection_reasons": sorted({r.rejected for r in rejected}),
        "all_converged": bool(all(
            np.atleast_1d(r.result.converged).all() for r in admitted)),
        "makespan": float(makespan),
        "throughput": len(admitted) / makespan if makespan else 0.0,
        "latency": _latency_summary(latencies),
        "deadline_misses": int(deadline_misses),
        "deadline_miss_rate": deadline_misses / len(admitted)
        if admitted else 0.0,
        "batches": {
            "count": len(widths),
            "mean_width": sum(widths) / len(widths) if widths else 0.0,
            "max_width": max(widths, default=0),
        },
        "family": {
            "requests": sum(1 for ar in arrivals if ar.shifts),
            "batches": sum(1 for rec in svc.batches
                           if rec.get("family")),
            "shifts_solved": sum(rec["width"] for rec in svc.batches
                                 if rec.get("family")),
        },
        "cache": {
            "hit_rate": cache["total_hits"] / probes if probes else 0.0,
            "total_hits": cache["total_hits"],
            "total_misses": cache["total_misses"],
            "evictions": cache["evictions"],
        },
        "schedule_digest": schedule_digest(arrivals),
        "metrics_digest": hashlib.blake2b(
            snapshot.encode(), digest_size=16).hexdigest(),
        "metrics_snapshot": snapshot,
    }
    report.update(extra)
    # the report must survive a JSON round-trip unchanged (determinism
    # gates compare serialized payloads)
    assert json.loads(json.dumps(report, sort_keys=True)) == report
    return report
