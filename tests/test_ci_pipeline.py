"""The CI pipeline itself: stage lists, path mapping, retry, reasons.

``scripts/ci.py`` is the single source of truth for what CI runs; the
GitHub workflow mirrors its stage lists in env vars.  These tests pin
the two in sync and unit-test the pure pieces of the runner (the
path->stage map, the bench-gate retry, the failure reason codes)
without shelling out to any real stage.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def _load_script(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def ci():
    return _load_script(ROOT / "scripts" / "ci.py", "repro_ci_script")


# -- stage registry ----------------------------------------------------
def test_stage_registry_matches_declared_order(ci):
    assert tuple(ci.STAGES) == ci.ALL_STAGES
    # fast stages are a subsequence of all stages, in the same order
    assert [s for s in ci.ALL_STAGES if s in ci.FAST_STAGES] \
        == list(ci.FAST_STAGES)
    assert set(ci.BENCH_GATE_STAGES) <= set(ci.FAST_STAGES)
    assert "macro-gates" in ci.FAST_STAGES


def _workflow_env(name: str) -> list[str]:
    text = WORKFLOW.read_text(encoding="utf-8")
    match = re.search(rf'^\s*{name}:\s*"([^"]+)"', text, re.MULTILINE)
    assert match, f"{name} not found in {WORKFLOW}"
    return match.group(1).split()


def test_workflow_stage_lists_in_sync(ci):
    """ci.py and .github/workflows/ci.yml must agree on the stages."""
    assert _workflow_env("CI_FAST_STAGES") == list(ci.FAST_STAGES)
    assert _workflow_env("CI_ALL_STAGES") == list(ci.ALL_STAGES)


def test_workflow_invokes_ci_runner_and_uploads_artifacts():
    text = WORKFLOW.read_text(encoding="utf-8")
    assert "python scripts/ci.py --fast" in text
    assert re.search(r"python scripts/ci\.py --json\s*$", text,
                     re.MULTILINE), "full run must invoke ci.py unfiltered"
    assert "ci_summary.json" in text
    assert "BENCH_trajectory.json" in text
    assert "schedule:" in text  # the nightly full run


# -- watchdog: a hung test dumps its stacks instead of stalling the stage --
def test_pytest_runs_under_a_faulthandler_watchdog(pytestconfig):
    tomllib = pytest.importorskip("tomllib")
    ini = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["tool"]["pytest"]["ini_options"]
    assert ini["faulthandler_timeout"] == 300
    assert float(pytestconfig.getini("faulthandler_timeout")) == 300.0


def test_every_stage_runs_single_threaded(ci, monkeypatch):
    """Tier-1 and the gates see one BLAS thread whatever the host sets."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "8")
        assert var in ci.THREAD_VARS
        assert ci._env()[var] == "1"


def test_every_bench_main_pins_one_blas_thread(ci):
    """A bench run as a script sets the thread variables before anything
    loads numpy (``benchmarks/conftest.py`` does the same under pytest)."""
    import ast

    def loads_numpy(node):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom)
                 else [])
        return any(n.split(".")[0] in ("numpy", "scipy", "repro")
                   for n in names)

    pinned = []
    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        mains = [i for i, node in enumerate(body)
                 if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'"]
        if not mains:
            continue
        pin = ast.unparse(body[mains[0]])
        assert "os.environ[_var] = '1'" in pin, path.name
        assert all(var in pin for var in ci.THREAD_VARS), path.name
        assert not any(loads_numpy(node) for node in body[:mains[0]]), \
            f"{path.name} loads numpy before it pins the thread count"
        pinned.append(path.name)
    assert pinned == ["bench_micro_kernels.py", "bench_service.py",
                      "bench_shifted.py", "bench_traffic.py",
                      "bench_transient.py"]


def test_tier1_hypothesis_profile_is_derandomized(pytestconfig):
    from hypothesis import settings
    if pytestconfig.getoption("markexpr") == "slow":
        pytest.skip("-m slow keeps random exploration")
    assert settings.default.derandomize
    assert settings.default.database is None


# -- path -> stage mapping ---------------------------------------------
def test_docs_only_diff_maps_to_lint(ci):
    assert ci.stages_for_paths(["docs/TRANSIENT.md"]) == {"lint"}
    assert ci.stages_for_paths(["README.md", "docs/TESTING.md",
                                ".github/workflows/ci.yml"]) == {"lint"}


def test_tests_only_diff_maps_to_lint_tier1(ci):
    assert ci.stages_for_paths(["tests/test_transient.py"]) \
        == {"lint", "tier1"}


def test_bench_diff_maps_to_bench_gates(ci):
    stages = ci.stages_for_paths(["benchmarks/bench_transient.py"])
    assert stages == {"lint", "tier1", "perf-gates", "traffic",
                      "macro-gates"}
    assert ci.stages_for_paths(["scripts/bench_compare.py"]) == stages


def test_e2e_benchmark_diff_maps_to_its_selftest(ci):
    assert "e2e-selftest" in ci.FAST_STAGES
    assert ci.stages_for_paths(["benchmarks/e2e/workloads.py"]) \
        == {"lint", "e2e-selftest"}
    assert ci.stages_for_paths(["BENCHMARK.json"]) == {"lint", "e2e-selftest"}


def test_src_or_unknown_diff_maps_to_full_fast_set(ci):
    full = set(ci.FAST_STAGES)
    assert ci.stages_for_paths(["src/repro/service/sequence.py"]) == full
    assert ci.stages_for_paths(["scripts/ci.py"]) == full
    assert ci.stages_for_paths(["pyproject.toml"]) == full
    # one src file taints an otherwise docs-only diff
    assert ci.stages_for_paths(["docs/TRANSIENT.md",
                                "src/repro/api.py"]) == full
    # empty diff: nothing to narrow on, run everything
    assert ci.stages_for_paths([]) == full


# -- retry-once for the bench-gate stages ------------------------------
def test_bench_gate_stage_retried_once_and_both_attempts_recorded(
        ci, monkeypatch):
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) == 1:
            return {"ok": False, "reason": "gate-failed"}
        return {"ok": True}

    monkeypatch.setitem(ci.STAGES, "macro-gates", flaky)
    entry = ci.run_stage("macro-gates")
    assert len(calls) == 2
    assert entry["ok"] and entry["retried"]
    assert len(entry["attempts"]) == 2
    assert entry["attempts"][0]["ok"] is False
    assert entry["attempts"][0]["reason"] == "gate-failed"
    assert entry["attempts"][1]["ok"] is True


def test_bench_gate_stage_not_retried_on_success(ci, monkeypatch):
    calls = []
    monkeypatch.setitem(ci.STAGES, "perf-gates",
                        lambda: calls.append(1) or {"ok": True})
    entry = ci.run_stage("perf-gates")
    assert len(calls) == 1
    assert entry["ok"] and "attempts" not in entry


def test_non_bench_stage_fails_without_retry(ci, monkeypatch):
    calls = []
    monkeypatch.setitem(
        ci.STAGES, "lint",
        lambda: calls.append(1) or {"ok": False, "reason": "gate-failed"})
    entry = ci.run_stage("lint")
    assert len(calls) == 1
    assert not entry["ok"] and "attempts" not in entry


# -- failure reason codes ----------------------------------------------
def test_stage_exception_reason_code(ci, monkeypatch):
    def boom():
        raise RuntimeError("kaput")

    monkeypatch.setitem(ci.STAGES, "lint", boom)
    entry = ci.run_stage("lint")
    assert entry["ok"] is False
    assert entry["reason"] == "stage-exception"
    assert "kaput" in entry["error"]


def test_stage_failure_default_reason_code(ci, monkeypatch):
    monkeypatch.setitem(ci.STAGES, "lint", lambda: {"ok": False})
    entry = ci.run_stage("lint")
    assert entry["reason"] == "stage-failed"


def test_successful_stage_has_no_reason(ci, monkeypatch):
    monkeypatch.setitem(ci.STAGES, "lint", lambda: {"ok": True})
    entry = ci.run_stage("lint")
    assert entry["ok"] is True and "reason" not in entry


# -- wall clock of the traffic stage: reported, recorded, never gated ----
def test_traffic_stage_reads_the_wall_line_the_bench_prints(ci):
    bench = _load_script(ROOT / "benchmarks" / "bench_traffic.py",
                         "repro_bench_traffic")
    line = bench.WALL_LINE.format(seconds=2.375, us=593.8)
    assert ci.wall_us_per_request(f"family: ...\n{line}\nperf gate passed\n") \
        == 593.8
    assert ci.wall_us_per_request("no such line") is None


def test_wall_entry_is_ungated_and_invisible_to_the_gate(ci, tmp_path):
    import json

    compare = _load_script(ROOT / "scripts" / "bench_compare.py",
                           "repro_bench_compare")
    path = tmp_path / "trajectory.json"
    gated = {"date": "2026-01-01", "config": "quick",
             "metrics": {"service_amortized_speedup":
                         {"value": 2.5, "kind": "modeled"}}}
    path.write_text(json.dumps([gated]))
    ci.append_wall_entry({"traffic_wall_us_per_request": 402.9},
                         config="quick-wall", path=str(path))
    trajectory = json.loads(path.read_text())
    assert trajectory[0] == gated and len(trajectory) == 2
    entry = trajectory[1]
    assert entry["metrics"] == {"traffic_wall_us_per_request":
                                {"value": 402.9, "kind": "info"}}
    # bench_compare baselines on the latest *quick* entry: still the gated one
    assert [e for e in trajectory if e.get("config") == "quick"] == [gated]
    # and an info metric never fails a comparison, whatever it reads
    assert compare.compare(
        {"traffic_wall_us_per_request": {"value": 1e9, "kind": "info"}},
        entry["metrics"], label="wall") == []


# -- a metric that stops being produced fails unless it is retired -------
def test_metric_missing_from_the_run_fails_unless_retired():
    compare = _load_script(ROOT / "scripts" / "bench_compare.py",
                           "repro_bench_compare")
    kept = {"service_setup_builds_coalesced": {"value": 1, "kind": "exact"}}
    gone = {"value": 0.5, "kind": "modeled"}
    failures = compare.compare(kept, {**kept, "some_rung_time": gone},
                               label="t")
    assert len(failures) == 1 and failures[0].startswith("some_rung_time:")
    assert set(compare.RETIRED) == {
        "transient_cache_recycle_shifted_time_per_sim_second",
        "plan_compiled_speedup", "plan_oracle_identical",
        "plan_optimizer_fused", "kernel_speedup64_spmm",
        "kernel_speedup64_col_dots", "kernel_speedup64_cholqr",
        "recycle_modeled_speedup_sketched",
        "recycle_reductions_per_cycle_sketched",
        "recycle_solve_overhead_per_cycle",
        "recycle_solve_convergence_equal"}
    assert compare.compare(kept, {**kept, **dict.fromkeys(compare.RETIRED,
                                                          gone)},
                           label="t") == []


# -- a rounding-level move of a modeled metric is re-based, with a reason --
def test_rebaseline_accepts_modeled_moves_only_with_a_reason():
    compare = _load_script(ROOT / "scripts" / "bench_compare.py",
                           "repro_bench_compare")
    base = {"service_amortized_speedup": {"value": 2.5, "kind": "modeled"},
            "service_setup_builds_coalesced": {"value": 1, "kind": "exact"}}
    moved = {k: dict(v) for k, v in base.items()}
    moved["service_amortized_speedup"]["value"] = 2.5 * (1 + 4e-5)
    names = frozenset({"service_amortized_speedup"})
    assert compare.compare(moved, base, label="t")
    assert compare.compare(moved, base, label="t", rebaseline=names) == []
    assert compare.rebaseline_errors(moved, names, "rounding") == []
    assert compare.rebaseline_errors(moved, names, None)
    assert compare.rebaseline_errors(
        moved, frozenset({"service_setup_builds_coalesced"}), "rounding")
    assert compare.rebaseline_errors(moved, frozenset({"gone"}), "rounding")
    assert compare.rebaseline_record(moved, base, names, "rounding") == {
        "service_amortized_speedup": {"from": 2.5, "to": 2.5 * (1 + 4e-5),
                                      "reason": "rounding"}}
    assert compare.self_test_rebaseline(base) == 0


# -- lint: the option census ----------------------------------------------
@pytest.fixture(scope="module")
def lint():
    return _load_script(ROOT / "scripts" / "lint_repro.py", "repro_lint")


def test_lint_option_census_names_the_unread_field(lint, tmp_path):
    util = tmp_path / "src" / "repro" / "util"
    util.mkdir(parents=True)
    (util / "options.py").write_text(
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass\nclass Options:\n"
        "    tol: float = 1e-8\n"
        "    verbosity: int = 0\n"
        "    extra: dict = field(default_factory=dict)"
        "  # lint: allow(option-census)\n\n"
        "    def validate(self):\n"
        "        return self.verbosity >= 0\n")    # its own module: no read
    (tmp_path / "src" / "repro" / "solver.py").write_text(
        "def run(options):\n    return options.tol\n")
    findings = lint.option_census(str(tmp_path))
    assert [(rule, line) for rule, line, _ in findings] \
        == [("option-census", 7)]
    assert "Options.verbosity" in findings[0][2]
    assert lint.option_census() == []       # the repository itself is clean


# -- blocked triangular sweep: gated on counts, tracked exactly ----------
def test_sweep_counts_are_gated_and_tracked_as_exact():
    import copy
    import json

    results = ROOT / "benchmarks" / "results"
    kernels = json.loads((results / "BENCH_kernels.json").read_text())
    service = json.loads((results / "BENCH_service.json").read_text())
    sweep = kernels["level_schedule"]["sweep"]
    assert set(sweep) == {"global_lu", "block_diag"}

    compare = _load_script(ROOT / "scripts" / "bench_compare.py",
                           "repro_bench_compare")
    metric = compare.extract_metrics(kernels, service)[
        "triangular_global_lu_solve_steps"]
    assert metric == {"value": sweep["global_lu"]["solve_steps"],
                      "kind": "exact"}
    deeper = {"triangular_global_lu_solve_steps":
              {"value": metric["value"] + 1, "kind": "exact"}}
    assert compare.compare(deeper, {"triangular_global_lu_solve_steps":
                                    metric}, label="t")

    bench = _load_script(ROOT / "benchmarks" / "bench_micro_kernels.py",
                         "repro_bench_micro_kernels")

    def sweep_failures(report):
        return [f for f in bench.check_gate(report)
                if f.startswith("level_schedule")]

    assert sweep_failures(kernels) == []
    deep = copy.deepcopy(kernels)
    row = deep["level_schedule"]["sweep"]["global_lu"]
    row["solve_steps"] = row["row_levels"] // 4 + 1
    assert len(sweep_failures(deep)) == 1
    fat = copy.deepcopy(kernels)
    fat["level_schedule"]["sweep"]["block_diag"]["stored_over_nnz"] = 1.3
    assert len(sweep_failures(fat)) == 1
    del fat["level_schedule"]["sweep"]
    assert len(sweep_failures(fat)) == 2


# -- deflation charge tracked exactly, BLAS projector gated on its ratio ---
def test_deflation_charge_and_projector_ratio_are_tracked_and_gated():
    import copy
    import json

    results = ROOT / "benchmarks" / "results"
    kernels = json.loads((results / "BENCH_kernels.json").read_text())
    service = json.loads((results / "BENCH_service.json").read_text())
    defl, cores = kernels["deflation"], kernels["pb_projector"]["cores"]
    rows, cols = defl["problem"]["rows"], defl["problem"]["cols"]
    assert (rows, cols) == (258, 250)
    # the charge is the formula of the shape tests/test_deflation.py asserts
    assert defl["eig_flops_charged"] == pytest.approx(
        4.0 * rows * cols**2 - 4.0 * cols**3 / 3.0       # thin QR
        + 2.0 * rows * cols**2 + cols**3                  # Q^H W-hat, trsm
        + 25.0 * cols**3, rel=1e-12)                      # Schur + reorder
    assert defl["eig_flops_charged"] < 0.65 * defl["qz_flops_charged"]
    assert defl["subspace_gap"] <= 1e-8

    compare = _load_script(ROOT / "scripts" / "bench_compare.py",
                           "repro_bench_compare")
    metrics = compare.extract_metrics(kernels, service)
    assert metrics["deflation_eig_flops_charged"] == {
        "value": defl["eig_flops_charged"], "kind": "exact"}
    assert metrics["deflation_speedup_over_qz"]["kind"] == "ratio"
    assert metrics["pb_projector_speedup_over_einsum"] == {
        "value": cores["_pb_step_cgs2_1r"]["speedup_over_reference"],
        "kind": "ratio"}
    dearer = {"deflation_eig_flops_charged":
              {"value": defl["qz_flops_charged"], "kind": "exact"}}
    assert compare.compare(dearer, metrics, label="t")

    bench = _load_script(ROOT / "benchmarks" / "bench_micro_kernels.py",
                         "repro_bench_micro_kernels")

    def projector_failures(report):
        return [f for f in bench.check_gate(report)
                if f.startswith("pb_projector")]

    assert projector_failures(kernels) == []
    slow = copy.deepcopy(kernels)
    slow["pb_projector"]["cores"]["_pb_step_cgs2_1r"][
        "speedup_over_reference"] = 1.1      # what a non-BLAS stride reads
    assert len(projector_failures(slow)) == 1
    del slow["pb_projector"]
    assert len(projector_failures(slow)) == 1


# -- AMG V-cycle charge tracked exactly, AMG / Givens ratios gated ---------
def test_amg_charge_and_kernel_ratios_are_tracked_and_gated():
    import copy
    import json

    results = ROOT / "benchmarks" / "results"
    kernels = json.loads((results / "BENCH_kernels.json").read_text())
    service = json.loads((results / "BENCH_service.json").read_text())
    amg, hp1 = kernels["amg"], kernels["hessenberg_p1"]
    assert amg["problem"] == {"n": 4096, "p": 4, "levels": [4096, 704, 80]}
    # the workload's hierarchy: 4 products + 2 transfers per level where
    # the reference paid 6 products and charged no transfer
    assert amg["vcycle_spmm_flops"] == 1033600.0
    assert amg["vcycle_spmm_flops_reference"] == 1263360.0
    assert (amg["operator_apply_columns"],
            amg["operator_apply_columns_reference"]) == (24, 40)
    assert amg["apply_bytes_identical"] and amg["hierarchy_identical"]
    assert hp1["counts_identical"] and hp1["solution_gap"] <= 1e-12

    compare = _load_script(ROOT / "scripts" / "bench_compare.py",
                           "repro_bench_compare")
    metrics = compare.extract_metrics(kernels, service)
    assert metrics["amg_vcycle_spmm_flops"] == {
        "value": amg["vcycle_spmm_flops"], "kind": "exact"}
    for name, value in (
            ("amg_apply_speedup_over_reference",
             amg["apply"]["speedup_over_reference"]),
            ("amg_setup_speedup_over_reference",
             amg["setup"]["speedup_over_reference"]),
            ("hessenberg_p1_speedup_over_panels",
             hp1["speedup_over_reference"])):
        assert metrics[name] == {"value": value, "kind": "ratio"}
    dead = {"amg_vcycle_spmm_flops":
            {"value": amg["vcycle_spmm_flops_reference"], "kind": "exact"}}
    assert compare.compare(dead, metrics, label="t")

    bench = _load_script(ROOT / "benchmarks" / "bench_micro_kernels.py",
                         "repro_bench_micro_kernels")

    def failures(report, prefix):
        return [f for f in bench.check_gate(report) if f.startswith(prefix)]

    assert failures(kernels, "amg") == failures(kernels, "hessenberg") == []
    slow = copy.deepcopy(kernels)
    slow["amg"]["apply"]["speedup_over_reference"] = 1.1
    slow["amg"]["setup"]["speedup_over_reference"] = 1.9
    slow["amg"]["apply_bytes_identical"] = False
    slow["hessenberg_p1"]["speedup_over_reference"] = 2.9
    assert len(failures(slow, "amg")) == 3
    assert len(failures(slow, "hessenberg_p1")) == 1
    del slow["amg"], slow["hessenberg_p1"]
    assert len(failures(slow, "amg")) == len(
        failures(slow, "hessenberg_p1")) == 1


# -- the alternating e2e A/B: its summarizer on canned runs ------------------
def _e2e_run(**values):
    units = {"setup_s": "s", "solve_wall_s": "s", "modeled_r64_s": "s",
             "reductions": "count", "peak_rss_mb": "MiB", "ok_frac": "ratio"}
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def test_e2e_ab_summarizes_medians_wins_and_exact_mismatches():
    ab = _load_script(ROOT / "scripts" / "e2e_ab.py", "repro_e2e_ab")
    assert ab.parse_seeds("1-3,7") == [1, 2, 3, 7]
    base = dict(setup_s=0.5, modeled_r64_s=2e-3, reductions=100,
                peak_rss_mb=200.0, ok_frac=1.0)
    pairs = [{"seed": s,
              "parent": _e2e_run(solve_wall_s=1.0, **base),
              "change": _e2e_run(solve_wall_s=wall, **base)}
             for s, wall in ((1, 0.70), (2, 0.80), (3, 1.10))]
    pairs[2]["change"]["metrics"]["reductions"]["value"] = 101
    summary = ab.summarize(pairs, ab.contract())
    wall = summary["metrics"]["solve_wall_s"]
    assert wall["median_ratio"] == pytest.approx(0.80)
    assert (wall["wins"], wall["pairs"], wall["within"]) == (2, 3, True)
    assert [s["seed"] for s in wall["seeds"]] == [1, 2, 3]
    assert wall["differ"] == []          # a wall clock is never "exact"
    red = summary["metrics"]["reductions"]
    assert red["differ"] == [3] and red["bound"] == 0.1
    assert summary["metrics"]["ok_frac"]["differ"] == []
    text = ab.render("traffic_async", summary)
    assert "DIFFERS on seeds [3]" in text and "OVER BOUND" not in text
    # a median past its bound is called out; a failed run is not summarized
    slow = [{**p, "change": _e2e_run(solve_wall_s=1.5, **base)}
            for p in pairs]
    slow[0]["change"]["correct"] = False
    summary = ab.summarize(slow, ab.contract())
    assert summary["failed"] == [1]
    assert summary["metrics"]["solve_wall_s"]["pairs"] == 2
    assert not summary["metrics"]["solve_wall_s"]["within"]
    assert "OVER BOUND" in ab.render("w", summary)


def test_e2e_ab_judges_a_claim_by_wins_and_the_parent_iqr():
    """``--claim``: nine tenths of the pairs won (ties count for neither
    side) and a median gap wider than the parent's q3 - q1."""
    ab = _load_script(ROOT / "scripts" / "e2e_ab.py", "repro_e2e_ab")
    base = dict(solve_wall_s=1.0, modeled_r64_s=1e-3, reductions=50,
                peak_rss_mb=200.0, ok_frac=1.0)

    def claim(parent, change, metric="setup_s"):
        pairs = [{"seed": s,
                  "parent": _e2e_run(setup_s=a, **base),
                  "change": _e2e_run(setup_s=b, **base)}
                 for s, (a, b) in enumerate(zip(parent, change), 1)]
        return ab.judge_claim(ab.summarize(pairs, ab.contract())["metrics"]
                              .get(metric))

    parent = [0.80, 0.62, 0.81, 0.70, 0.75, 0.79, 0.66, 0.72, 0.77, 0.69]
    won = claim(parent, [0.48, 0.44, 0.48, 0.46, 0.47, 0.45, 0.44, 0.47,
                         0.46, 0.45])
    assert won["met"] and won["pairs"] == 10 and won["wins"] == 10
    assert won["gap"] > won["iqr"] > 0
    # 8 of 10: one loss and one tie (a tie is no win) -> not met
    split = claim(parent, [0.48, 0.70, 0.48, 0.46, 0.47, 0.45, 0.44, 0.47,
                           0.46, 0.69])
    assert (split["wins"], split["met"]) == (8, False)
    # every pair won, but by less than the parent's own spread -> not met
    close = claim(parent, [p - 0.01 for p in parent])
    assert close["wins"] == 10 and close["gap"] < close["iqr"]
    assert not close["met"]
    # a higher-is-better metric is judged in its own direction
    pairs = [{"seed": s, "parent": _e2e_run(ok_frac=0.5, **{
                  k: v for k, v in base.items() if k != "ok_frac"}),
              "change": _e2e_run(ok_frac=1.0, **{
                  k: v for k, v in base.items() if k != "ok_frac"})}
             for s in range(1, 11)]
    ok = ab.judge_claim(ab.summarize(pairs, ab.contract())["metrics"]
                        ["ok_frac"])
    assert ok["met"] and ok["gap"] == pytest.approx(0.5)
    assert not ab.judge_claim(None)["met"]
    assert "claim not met" in ab.render_claim("setup_s", split)
    assert "claim met" in ab.render_claim("setup_s", won)


def test_e2e_ab_labels_noisy_metrics_unresolved():
    """A parent spread (IQR / median across seeds) wider than the bound
    makes a timed metric ``unresolved`` unless every change run beats
    every parent run; exact metrics are never unresolved."""
    ab = _load_script(ROOT / "scripts" / "e2e_ab.py", "repro_e2e_ab")
    assert ab.quartiles([2.0]) == [2.0, 2.0, 2.0]

    def pairs_of(parent_setup, change_setup):
        return [{"seed": s,
                 "parent": _e2e_run(setup_s=a, solve_wall_s=1.0,
                                    modeled_r64_s=1e-3 * s, reductions=s * 50,
                                    peak_rss_mb=200.0, ok_frac=1.0),
                 "change": _e2e_run(setup_s=b, solve_wall_s=0.9,
                                    modeled_r64_s=1e-3 * s, reductions=s * 50,
                                    peak_rss_mb=200.0, ok_frac=1.0)}
                for s, (a, b) in enumerate(zip(parent_setup, change_setup), 1)]

    # heat-like set-up: the parent scatters 0.010..0.016 (spread ~40 %), and
    # the change reads 16 % "worse" in the median while overlapping it
    noisy = pairs_of([0.010, 0.016, 0.011, 0.015], [0.014, 0.016, 0.013, 0.017])
    summary = ab.summarize(noisy, ab.contract())
    setup = summary["metrics"]["setup_s"]
    assert setup["spread"] > setup["bound"]
    assert setup["unresolved"] and not setup["separated"]
    q1, q2, q3 = setup["quartiles"]["parent"]
    assert q1 <= q2 <= q3 and q2 == pytest.approx(0.013)
    # the per-seed spread of an exact metric is the workload, not noise
    reds = summary["metrics"]["reductions"]
    assert reds["spread"] > reds["bound"] and not reds["unresolved"]
    assert not summary["metrics"]["solve_wall_s"]["unresolved"]
    text = ab.render("heat_ensemble_amg", summary)
    setup_line = next(l for l in text.splitlines() if "setup_s" in l)
    assert "unresolved" in setup_line and "OVER BOUND" not in setup_line
    assert "parent q1/q2/q3" in text and "change q1/q2/q3" in text

    # the same parent spread, but every change run beats every parent run
    clear = pairs_of([0.010, 0.016, 0.011, 0.015], [0.008, 0.009, 0.008, 0.009])
    setup = ab.summarize(clear, ab.contract())["metrics"]["setup_s"]
    assert setup["separated"] and not setup["unresolved"] and setup["within"]
