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


@pytest.fixture(scope="module")
def ci():
    spec = importlib.util.spec_from_file_location(
        "repro_ci_script", ROOT / "scripts" / "ci.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
