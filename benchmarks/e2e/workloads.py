"""The four workloads: inputs from a seed, one pass, and the answer check.

Each workload is an object with

``setup(seed)``
    builds the inputs (operators, right-hand sides, schedules) and any
    preconditioner that is built once and reused — the time ``setup_s``
    reports.  Only this step sees the seed.
``run_pass(state, **overrides)``
    the whole solve sequence of the workload from a *cold* solver/service
    (new ``Solver`` / service and setup cache every pass); ``overrides``
    are ``Options`` fields (``trace="full"``, ``verify="cheap"``).  The
    harness runs it under ``ledger.install(CostLedger())``.
``check(state, out)``
    recomputes every answer's true relative residual with scipy, outside
    the timed region, and returns the failed operations.

Sizes are the constructor arguments, so ``--selftest`` can run tiny copies.
See ``README.md`` for why these four and what each cannot show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro
from repro.precond.schwarz import SchwarzPreconditioner
from repro.problems.maxwell import (antenna_ring_rhs, decompose_maxwell,
                                    maxwell_chamber)
from repro.problems.poisson import PAPER_NUS
from repro.problems.transient import HeatSequence
from repro.service.scheduler import AsyncSolveService
from repro.service.sequence import SequenceDriver
from repro.service.service import SolveService
from repro.service.traffic import TrafficConfig, build_operators, generate
from repro.trace import Tracer, install as install_tracer
from repro.util.options import Options

from metrics import MODEL_RANKS

TOL = 1e-8            #: solver tolerance on every workload
RELRES_LIMIT = 1e-7   #: an answer whose true ||b-Ax||/||b|| exceeds this failed
FIELD_LIMIT = 1e-6    #: heat: final field vs the splu reference stepping
NO_ANSWER = 1.0       #: relres of an operation with no answer: that of x = 0


@dataclass
class PassOutput:
    """What one pass hands to the harness and to ``check``."""

    answers: Any                       #: workload-specific, for ``check``
    iterations: int                    #: solver iterations, as the results say
    modeled_r64_s: float | None = None  #: None: modeled_time(pass ledger, 64)
    service: dict[str, float] = field(default_factory=dict)


@dataclass
class Verdict:
    attempted: int
    failures: list[str]     #: one reason per failed operation
    relres_max: float


def _relres(a, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column true relative residual, computed with scipy/numpy only."""
    x = x.reshape(b.shape[0], -1)
    b = b.reshape(b.shape[0], -1)
    r = b - a @ x
    return np.linalg.norm(r, axis=0) / np.linalg.norm(b, axis=0)


def _judge(labels: list[str], relres: np.ndarray, converged: np.ndarray
           ) -> Verdict:
    failures = []
    for label, rr, ok in zip(labels, relres, converged):
        if not ok:
            failures.append(f"{label}: not converged")
        elif not rr <= RELRES_LIMIT:       # also catches NaN
            failures.append(f"{label}: true relres {rr:.3e} > {RELRES_LIMIT}")
    finite = relres[np.isfinite(relres)]
    return Verdict(len(labels), failures,
                   float(finite.max()) if finite.size else NO_ANSWER)


def _cache_ratios(cache_stats: dict) -> dict[str, float]:
    """Setup-artifact and recycle-artifact hit ratios of one service cache."""
    def ratio(pick) -> float:
        hits = sum(n for k, n in cache_stats["hits"].items() if pick(k))
        miss = sum(n for k, n in cache_stats["misses"].items() if pick(k))
        return hits / (hits + miss) if hits + miss else 0.0

    def is_recycle(kind: str) -> bool:
        return "recycle" in kind

    return {"service.setup_cache_hit_ratio":
            ratio(lambda k: not is_recycle(k)),
            "service.recycle_cache_hit_ratio": ratio(is_recycle)}


def _batch_stats(batches: list[dict]) -> dict[str, float]:
    widths = [rec["width"] for rec in batches]
    return {"service.batches": float(len(widths)),
            "service.batch_width_mean":
                sum(widths) / len(widths) if widths else 0.0}


# ---------------------------------------------------------------------------
class LaplaceBlockUnprec:
    """ROADMAP's reference solve: one unpreconditioned BGCRO-DR(40,10), p = 8."""

    name = "laplace_block_unprec"
    why = ("no preconditioner, SpMM < 5 %: Krylov cycle self time, "
           "orthogonalization and dense eigensolves are the pass")

    def __init__(self, grid: int = 96, p: int = 8):
        self.grid, self.p = grid, p
        self.ops = p                   #: operations per pass: RHS columns
        self.pass_timeout_s = 60.0

    def setup(self, seed: int) -> dict:
        g = self.grid
        lap1 = sp.diags([-np.ones(g - 1), 2.0 * np.ones(g), -np.ones(g - 1)],
                        [-1, 0, 1])
        a = (sp.kron(lap1, sp.eye(g)) + sp.kron(sp.eye(g), lap1)).tocsr()
        # ROADMAP's reference block (237 block iterations, 715 reductions at
        # the default sizes) plus a seeded 5 % Gaussian perturbation: every
        # seed spans another block Krylov space of about the same difficulty
        # (8 independent Gaussian blocks scatter over 215..237 iterations,
        # which would drown a 10 % wall-clock bound in input variance)
        shape = (g * g, self.p)
        b = np.random.default_rng(0).standard_normal(shape) \
            + 0.05 * np.random.default_rng([seed, 1]).standard_normal(shape)
        return {"a": a, "b": b, "n": g * g}

    def run_pass(self, state: dict, **overrides) -> PassOutput:
        opts = Options(krylov_method="bgcrodr", gmres_restart=40, recycle=10,
                       tol=TOL, **overrides)
        res = repro.solve(state["a"], state["b"], options=opts)
        return PassOutput(res, res.iterations)

    def check(self, state: dict, out: PassOutput) -> Verdict:
        res = out.answers
        return _judge([f"rhs {j}" for j in range(self.p)],
                      _relres(state["a"], np.asarray(res.x), state["b"]),
                      np.atleast_1d(res.converged))


# ---------------------------------------------------------------------------
class MaxwellOrasBlock:
    """Paper Fig. 8, alternative 7: ORAS + BGCRO-DR(50,10) on sub-blocks."""

    name = "maxwell_oras_block"
    why = ("the paper's application: complex ORAS apply and multi-RHS "
           "triangular solves dominate; recycle space read across blocks")

    def __init__(self, n: int = 8, n_antennas: int = 16, block: int = 8,
                 nparts: int = 8):
        self.n, self.n_antennas, self.block = n, n_antennas, block
        self.nparts = nparts
        self.ops = n_antennas          #: operations per pass: RHS columns
        self.pass_timeout_s = 90.0

    def setup(self, seed: int) -> dict:
        # the seed places the antenna ring: radius and height of the ring
        # move within the tolerance of a mounted array, so every seed gives
        # another set of 16 dipole right-hand sides on the same chamber
        rng = np.random.default_rng([seed, 2])
        radius = 0.35 + 0.02 * rng.uniform(-1.0, 1.0)
        ring_z = 0.5 + 0.05 * rng.uniform(-1.0, 1.0)
        prob = maxwell_chamber(self.n, omega=8.0, inclusion_radius=0.15)
        b = antenna_ring_rhs(prob, n_antennas=self.n_antennas,
                             radius=radius, ring_z=ring_z)
        dec = decompose_maxwell(prob, self.nparts, overlap=2, impedance=True)
        m = SchwarzPreconditioner(prob.a, variant="oras",
                                  decomposition=dec.decomposition,
                                  local_matrices=dec.local_matrices)
        return {"a": prob.a, "b": b, "m": m, "n": prob.n}

    def run_pass(self, state: dict, **overrides) -> PassOutput:
        opts = Options(krylov_method="bgcrodr", gmres_restart=50, recycle=10,
                       tol=TOL, variant="right", recycle_same_system=True,
                       max_it=4000, **overrides)
        solver = repro.Solver(state["m"], options=opts)
        b = state["b"]
        results = [solver.solve(state["a"], b[:, j:j + self.block])
                   for j in range(0, b.shape[1], self.block)]
        return PassOutput(results, sum(r.iterations for r in results))

    def check(self, state: dict, out: PassOutput) -> Verdict:
        x = np.hstack([np.asarray(r.x) for r in out.answers])
        conv = np.concatenate([np.atleast_1d(r.converged)
                               for r in out.answers])
        return _judge([f"antenna {j}" for j in range(x.shape[1])],
                      _relres(state["a"], x, state["b"]), conv)


# ---------------------------------------------------------------------------
def _phase_source(phase: int, dt0: float, center: tuple[float, float]):
    """``bench_transient._phase_source`` with a movable pulse centre.

    The paper's nu-family pulse, phase-shifted per ensemble member:
    identical operators across tenants (they coalesce into one batch per
    wave), distinct right-hand sides.  ``center = (1, 1)`` is the original.
    """
    cx, cy = center

    def source(points: np.ndarray, t: float) -> np.ndarray:
        nu = PAPER_NUS[(int(round(t / dt0)) + phase) % len(PAPER_NUS)]
        x, y = points[:, 0], points[:, 1]
        return (np.exp(-(cx - x) ** 2 / nu) * np.exp(-(cy - y) ** 2 / nu)) / nu

    return source


class HeatEnsembleAmg:
    """Four phase-shifted adaptive-dt heat tenants through a sync AMG service."""

    name = "heat_ensemble_amg"
    why = ("many short solves on a changing operator: AMG apply and "
           "per-epoch re-setup, cache misses, adoption and repair (writes)")

    def __init__(self, nx: int = 64, n_steps: int = 60, epoch_length: int = 15,
                 tenants: int = 4, dt0: float = 5e-4, growth: float = 1.25):
        self.nx, self.n_steps, self.epoch_length = nx, n_steps, epoch_length
        self.tenants, self.dt0, self.growth = tenants, dt0, growth
        self.ops = tenants * n_steps   #: operations per pass: tenant-steps
        self.pass_timeout_s = 90.0

    def _options(self, **overrides) -> Options:
        # bench_transient._heat_options, right-preconditioned
        return Options(krylov_method="gcrodr", gmres_restart=30, recycle=10,
                       orthogonalization="cgs2_1r", tol=TOL, max_it=20000,
                       recycle_same_system=False, service_flush="explicit",
                       sequence_adopt=True, variant="right", **overrides)

    def setup(self, seed: int) -> dict:
        # the seed moves each tenant's source pulse off the (1, 1) corner
        rng = np.random.default_rng([seed, 3])
        centers = 1.0 - 0.25 * rng.uniform(size=(self.tenants, 2))
        seqs = [HeatSequence(nx=self.nx, n_steps=self.n_steps, dt0=self.dt0,
                             epoch_length=self.epoch_length,
                             growth=self.growth,
                             source=_phase_source(i, self.dt0,
                                                  tuple(centers[i])))
                for i in range(self.tenants)]
        return {"seqs": seqs, "n": seqs[0].problem.n, "reference": None}

    def run_pass(self, state: dict, **overrides) -> PassOutput:
        opts = self._options(**overrides)
        svc = SolveService(options=opts, preconditioner="amg")
        driver = SequenceDriver(svc, nranks=MODEL_RANKS)
        handles = [driver.add(seq, options=opts, tenant=f"t{i}")
                   for i, seq in enumerate(state["seqs"])]
        records = driver.run(strict=False)
        service = {**_batch_stats(svc.batches),
                   **_cache_ratios(svc.cache.stats())}
        return PassOutput({"records": records,
                           "fields": [h.u for h in handles]},
                          sum(rec["iterations"] for rec in svc.batches),
                          modeled_r64_s=sum(r["modeled_seconds"]
                                            for r in records),
                          service=service)

    def _reference_fields(self, state: dict) -> list[np.ndarray]:
        """Final fields by direct (splu) stepping of the same sequences."""
        if state["reference"] is None:
            fields = []
            for seq in state["seqs"]:
                u, lu, epoch = seq.u0(), None, None
                for step in seq.steps():
                    if step.epoch != epoch:
                        lu = spla.splu(sp.csc_matrix(seq.operator(step)))
                        epoch = step.epoch
                    u = lu.solve(seq.rhs(step, u))
                fields.append(u)
            state["reference"] = fields
        return state["reference"]

    def check(self, state: dict, out: PassOutput) -> Verdict:
        failures = [f"{r['tenant']} step {r['step']}: not converged"
                    for r in out.answers["records"] if not r["converged"]]
        failures += ["tenant-step never ran"] * (
            self.ops - len(out.answers["records"]))
        worst = 0.0
        for i, (u, ref) in enumerate(zip(out.answers["fields"],
                                         self._reference_fields(state))):
            err = float(np.linalg.norm(u - ref) / np.linalg.norm(ref))
            worst = max(worst, err)
            if not err <= FIELD_LIMIT:
                failures.append(f"t{i}: final field off the splu reference "
                                f"by {err:.3e} > {FIELD_LIMIT}")
        # the field check covers every step of a tenant at once: the state
        # of step t feeds step t+1, so a wrong answer anywhere ends up here
        return Verdict(self.ops, failures[:self.ops], worst)


# ---------------------------------------------------------------------------
class TrafficAsync:
    """Open-loop Zipf traffic replayed by hand into the async service."""

    name = "traffic_async"
    why = ("n = 64 per request: service, scheduler, tracer and ledger "
           "overhead per request; setup and recycle caches hit (reads)")

    #: the replay installs its own tracer, as ``run_traffic`` does, so
    #: ``Options(trace="full")`` changes nothing and is not priced
    installs_tracer = True

    def __init__(self, n_requests: int = 4000):
        self.n_requests = n_requests
        self.ops = n_requests          #: operations per pass: requests
        self.pass_timeout_s = 90.0

    def config(self, seed: int) -> TrafficConfig:
        # rate: 3.6x the ~5.5e5/s capacity of this configuration, so every
        # coalescing group fills to pmax and the batch count barely depends
        # on the seed (255..259).  Just under capacity (4.5e5, the rate of
        # bench_traffic) it scatters over 341..365, and the wall clock,
        # quadratic in it, spreads 8 % across seeds.
        return TrafficConfig(n_requests=self.n_requests, n_operators=8,
                             grid=8, zipf_s=1.1, arrival="open", rate=2e6,
                             shards=4, pmax=16, queue_depth=0, seed=seed)

    def setup(self, seed: int) -> dict:
        cfg = self.config(seed)
        arrivals = generate(cfg)
        ops = build_operators(cfg)
        n = cfg.grid * cfg.grid
        rhs = [np.random.default_rng([cfg.seed, ar.seed]).standard_normal(n)
               for ar in arrivals]
        return {"cfg": cfg, "arrivals": arrivals, "ops": ops, "rhs": rhs,
                "n": n}

    def run_pass(self, state: dict, **overrides) -> PassOutput:
        cfg = state["cfg"]
        # traffic._options(cfg, "async"), field for field
        opts = Options(krylov_method=cfg.method, service_mode="async",
                       service_pmax=cfg.pmax, service_shards=cfg.shards,
                       service_queue_depth=cfg.queue_depth,
                       service_deadline=cfg.deadline,
                       service_cache_entries=cfg.cache_entries, **overrides)
        ops, reqs = state["ops"], []
        with install_tracer(Tracer("summary")):
            svc = AsyncSolveService(options=opts, preconditioner="lu")
            for ar, b in zip(state["arrivals"], state["rhs"]):
                svc.advance_to(ar.time)
                reqs.append(svc.submit(
                    ops[ar.op], b,
                    deadline=ar.deadline if ar.deadline > 0 else None,
                    priority=ar.priority, tenant=ar.tenant))
            svc.drain()
        latencies = sorted(r.latency for r in reqs if r.rejected is None
                           and r.latency is not None)
        # nearest-rank, the arithmetic of repro.service.traffic._percentile
        p99 = latencies[max(0, min(len(latencies) - 1, int(math.ceil(
            0.99 * len(latencies))) - 1))] if latencies else 0.0
        makespan = svc.makespan
        service = {**_batch_stats(svc.batches),
                   **_cache_ratios(svc.cache.stats()),
                   "service.rejected":
                       float(sum(r.rejected is not None for r in reqs)),
                   "service.modeled_p99_latency_s": p99,
                   "service.modeled_throughput_rps":
                       len(latencies) / makespan if makespan else 0.0}
        return PassOutput(reqs, sum(rec["iterations"] for rec in svc.batches),
                          modeled_r64_s=makespan, service=service)

    def check(self, state: dict, out: PassOutput) -> Verdict:
        failures, relres = [], []
        for i, (req, ar) in enumerate(zip(out.answers, state["arrivals"])):
            if req.rejected is not None:
                failures.append(f"request {i}: rejected ({req.rejected})")
            elif req.result is None:
                failures.append(f"request {i}: never completed")
            elif not np.all(req.result.converged):
                failures.append(f"request {i}: not converged")
            else:
                rr = float(_relres(state["ops"][ar.op],
                                   np.asarray(req.result.x),
                                   state["rhs"][i])[0])
                relres.append(rr)
                if not rr <= RELRES_LIMIT:
                    failures.append(f"request {i}: true relres {rr:.3e} "
                                    f"> {RELRES_LIMIT}")
        failures += ["request never submitted"] * (
            len(state["arrivals"]) - len(out.answers))
        finite = [r for r in relres if np.isfinite(r)]
        return Verdict(len(state["arrivals"]), failures,
                       max(finite) if finite else NO_ANSWER)


WORKLOADS = {w.name: w for w in (LaplaceBlockUnprec, MaxwellOrasBlock,
                                 HeatEnsembleAmg, TrafficAsync)}
