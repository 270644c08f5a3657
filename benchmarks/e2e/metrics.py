"""Metric catalogue of the end-to-end benchmark — the single source of truth.

``BENCHMARK.json`` at the repo root lists the same names, units and
directions (``run.py --selftest`` asserts the two agree); the README's
tables add the prose.  A per-layer metric is named ``<layer>.<what>``,
the layer being a package under ``src/repro/`` (``bench`` is the
benchmark's own noise floor); ``moves`` names the end-to-end metric a
change to that layer is expected to move.
"""

from __future__ import annotations

from typing import NamedTuple

MODEL_RANKS = 64  #: rank count of the modeled clock (``modeled_r64_s``)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    exact: bool  #: identical across passes and across runs of one seed


class PerLayer(NamedTuple):
    name: str    #: ``<layer>.<what>``
    unit: str
    better: str
    moves: str   #: end-to-end metrics it should move, ``-`` for none


# Bounds are sized by what ten runs on ten seeds scatter on this container
# (README, "Noise floor"): wall clocks by the host's noisy phases, the exact
# metrics by how iteration counts differ from seed to seed.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, False),
    EndToEnd("solve_wall_s", "s", "lower", 0.25, False),
    EndToEnd("modeled_r64_s", "s", "lower", 0.15, True),
    EndToEnd("reductions", "count", "lower", 0.10, True),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15, False),
    EndToEnd("ok_frac", "ratio", "higher", 0.0001, True),
)

_S, _N, _R = "s", "count", "ratio"
_WALL = "solve_wall_s"
_COUNTS = "reductions, modeled_r64_s"

PER_LAYER = (
    PerLayer("api.solve_calls", _N, "lower", _WALL),
    PerLayer("api.solve_wall_s", _S, "lower", _WALL),
    PerLayer("api.self_wall_s", _S, "lower", _WALL),
    PerLayer("krylov.driver_calls", _N, "lower", _WALL),
    PerLayer("krylov.iterations", _N, "lower", _COUNTS),
    PerLayer("krylov.self_wall_s", _S, "lower", _WALL),
    PerLayer("krylov.reductions_self", _N, "lower", _COUNTS),
    PerLayer("krylov.spmm_calls", _N, "lower", _WALL),
    PerLayer("krylov.spmm_wall_s", _S, "lower", _WALL),
    PerLayer("krylov.deflation_calls", _N, "lower", _WALL),
    PerLayer("krylov.deflation_wall_s", _S, "lower", _WALL),
    PerLayer("la.ortho_calls", _N, "lower", _WALL),
    PerLayer("la.ortho_wall_s", _S, "lower", _WALL),
    PerLayer("la.ortho_reductions", _N, "lower", _COUNTS),
    PerLayer("la.qr_calls", _N, "lower", _WALL),
    PerLayer("la.qr_wall_s", _S, "lower", _WALL),
    PerLayer("la.dense_calls", _N, "lower", _WALL),
    PerLayer("la.dense_wall_s", _S, "lower", _WALL),
    PerLayer("precond.setup_calls", _N, "lower", "setup_s, solve_wall_s"),
    PerLayer("precond.setup_wall_s", _S, "lower", "setup_s, solve_wall_s"),
    PerLayer("precond.apply_calls", _N, "lower", _WALL),
    PerLayer("precond.apply_cols", _N, "lower", _WALL),
    PerLayer("precond.apply_wall_s", _S, "lower", _WALL),
    PerLayer("precond.apply_self_wall_s", _S, "lower", _WALL),
    PerLayer("direct.factor_calls", _N, "lower", "setup_s, solve_wall_s"),
    PerLayer("direct.factor_wall_s", _S, "lower",
             "setup_s, solve_wall_s, peak_rss_mb"),
    PerLayer("direct.trisolve_calls", _N, "lower", _WALL),
    PerLayer("direct.trisolve_cols", _N, "lower", _WALL),
    PerLayer("direct.trisolve_wall_s", _S, "lower", _WALL),
    PerLayer("problems.assemble_wall_s", _S, "lower",
             "setup_s, solve_wall_s"),
    PerLayer("service.submit_calls", _N, "lower", _WALL),
    PerLayer("service.submit_wall_s", _S, "lower", _WALL),
    PerLayer("service.fingerprint_calls", _N, "lower", _WALL),
    PerLayer("service.fingerprint_wall_s", _S, "lower", _WALL),
    PerLayer("service.dispatch_self_wall_s", _S, "lower", _WALL),
    PerLayer("service.batches", _N, "lower", _WALL),
    PerLayer("service.batch_width_mean", _N, "higher", _COUNTS),
    PerLayer("service.setup_cache_hit_ratio", _R, "higher", _WALL),
    PerLayer("service.recycle_cache_hit_ratio", _R, "higher", _COUNTS),
    PerLayer("service.adoptions", _N, "higher", _COUNTS),
    PerLayer("service.rejected", _N, "lower", "ok_frac"),
    PerLayer("service.wave_wall_p50_s", _S, "lower", _WALL),
    PerLayer("service.wave_wall_p95_s", _S, "lower", _WALL),
    PerLayer("service.modeled_p99_latency_s", _S, "lower", "modeled_r64_s"),
    PerLayer("service.modeled_throughput_rps", "1/s", "higher",
             "modeled_r64_s"),
    PerLayer("trace.summary_calls", _N, "lower", _WALL),
    PerLayer("trace.summary_wall_s", _S, "lower", _WALL),
    PerLayer("trace.spans", _N, "lower", _WALL),
    PerLayer("trace.on_cost_frac", _R, "lower", _WALL),
    PerLayer("verify.on_cost_frac", _R, "lower", _WALL),
    PerLayer("verify.true_relres_max", _R, "lower", "ok_frac"),
    PerLayer("ledger.snapshot_calls", _N, "lower", _WALL),
    PerLayer("ledger.snapshot_wall_s", _S, "lower", _WALL),
    PerLayer("perfmodel.modeled_r1_s", _S, "lower", "modeled_r64_s"),
    PerLayer("perfmodel.modeled_r16_s", _S, "lower", "modeled_r64_s"),
    PerLayer("perfmodel.modeled_r1024_s", _S, "lower", "modeled_r64_s"),
    PerLayer("perfmodel.reduce_share_r64", _R, "lower", "modeled_r64_s"),
    PerLayer("perfmodel.unknowns_per_rank_r64", _N, "higher",
             "modeled_r64_s"),
    PerLayer("perfmodel.p2p_messages", _N, "lower", "modeled_r64_s"),
    PerLayer("perfmodel.flops_total", _N, "lower", "modeled_r64_s"),
    PerLayer("plan.compiled_cycle_calls", _N, "higher", _WALL),
    PerLayer("bench.wrap_overhead_frac", _R, "lower", "-"),
    PerLayer("bench.warmup_s", _S, "lower", "-"),
    PerLayer("bench.solve_wall_iqr_s", _S, "lower", "-"),
    PerLayer("bench.passes", _N, "higher", "-"),
    PerLayer("bench.traced_coverage_frac", _R, "higher", "-"),
)
