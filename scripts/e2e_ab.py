#!/usr/bin/env python
"""Alternating A/B of the end-to-end benchmark: a git ref against this tree.

    python scripts/e2e_ab.py --workload traffic_async --seeds 1-5
    python scripts/e2e_ab.py --workload heat_ensemble_amg \\
        --workload traffic_async --ref HEAD~1 --seeds 1,2,3 --out ab.json

The committed files of ``--ref`` (default ``HEAD``) are extracted into a
temporary directory with ``git archive`` — the files a benchmark of that
commit would run, with nothing registered in this repository's ``.git``.
For every workload and seed, the unmodified
``benchmarks/e2e/run.py --workload W --seed S --trace 0`` then runs once in
that tree ("parent") and once in this checkout, uncommitted edits included
("change"), one after the other; which side goes first alternates from
seed to seed, so a drift of the host moves both sides alike.

Printed per workload: every end-to-end metric's parent -> change value per
seed, each side's quartiles across the seeds, the median change / parent
ratio against its ``BENCHMARK.json`` bound (read, never written), how many
seeds the change won, and a flag on each seed where an exact metric
(``reductions``, ``ok_frac``, ``modeled_r64_s``) differs.  A failed run is
reported, not summarized.

A timed metric whose parent runs spread wider than its bound (interquartile
range / median across the seeds) cannot show a move of that size: it is
labelled ``unresolved`` rather than ``ok`` or ``OVER BOUND``, unless every
change run beats every parent run.  Exact metrics are compared seed by
seed, so their spread across seeds is not noise and never unresolves them.
The exit code is 1 on a failed run or an exact-metric difference, and
``unresolved`` does not change it.

``--claim METRIC`` also judges a claimed gain on every workload by the
rule for a small sandbox: the change wins at least nine tenths of the
pairs (a tie counts for neither side), and the medians of the two sides
differ, in the metric's better direction, by more than the parent's
interquartile range.  It prints ``claim met`` or ``claim not met`` per
workload and exits 1 on "not met".

    python scripts/e2e_ab.py --workload maxwell_oras_block --seeds 1-10 \\
        --claim setup_s
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("benchmarks") / "e2e" / "run.py"
#: metrics that must be equal per seed: counts and the modeled clock
EXACT = ("reductions", "ok_frac", "modeled_r64_s")


def parse_seeds(text: str) -> list[int]:
    """``"1-5"`` -> ``[1, 2, 3, 4, 5]``; ``"1,3,7"`` -> ``[1, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def contract() -> dict[str, dict]:
    """``BENCHMARK.json``'s end-to-end metrics by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def run_one(tree: Path, workload: str, seed: int, seconds: int | None
            ) -> dict:
    """One ``run.py`` child; its last stdout line is the run's JSON."""
    cmd = [sys.executable, str(tree / RUN), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {},
                "error": proc.stderr.strip().splitlines()[-12:]}


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]`` (one value: itself three times)."""
    return statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3


def _value(run: dict, name: str) -> float | None:
    metric = run.get("metrics", {}).get(name)
    return None if metric is None else float(metric["value"])


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Reduce ``[{"seed", "parent": run, "change": run}, ...]`` of one
    workload to per-metric rows: per-seed values and ratios, the median
    ratio, the seeds the change won and — for :data:`EXACT` metrics — the
    seeds where the two differ.  ``worse`` is the median's move in the bad
    direction; ``within`` compares it with the metric's bound.  ``spread``
    is the parent's IQR / median across seeds, ``separated`` says every
    change run beat every parent run, and ``unresolved`` is a timed metric
    whose spread exceeds its bound without that separation."""
    failed = [p["seed"] for p in pairs
              if not (p["parent"].get("correct") and p["change"].get("correct"))]
    good = [p for p in pairs if p["seed"] not in failed]
    rows = {}
    for name, spec in metrics.items():
        seeds, ratios, wins, differ = [], [], 0, []
        for p in good:
            a, b = _value(p["parent"], name), _value(p["change"], name)
            if a is None or b is None:
                continue
            ratio = b / a if a else (1.0 if b == a else float("inf"))
            seeds.append({"seed": p["seed"], "parent": a, "change": b,
                          "ratio": ratio})
            ratios.append(ratio)
            wins += (b < a) if spec["better"] == "lower" else (b > a)
            if name in EXACT and a != b:
                differ.append(p["seed"])
        if not ratios:
            continue
        median = statistics.median(ratios)
        lower = spec["better"] == "lower"
        worse = median - 1.0 if lower else 1.0 - median
        par = [s["parent"] for s in seeds]
        chg = [s["change"] for s in seeds]
        pq, cq = quartiles(par), quartiles(chg)
        spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else 0.0
        separated = max(chg) < min(par) if lower else min(chg) > max(par)
        rows[name] = {"seeds": seeds, "median_ratio": median, "wins": wins,
                      "better": spec["better"],
                      "pairs": len(ratios), "bound": spec["bound"],
                      "worse": worse, "within": worse <= spec["bound"],
                      "differ": differ,
                      "quartiles": {"parent": pq, "change": cq},
                      "spread": spread, "separated": separated,
                      "unresolved": name not in EXACT and not separated
                      and spread > spec["bound"]}
    return {"failed": failed, "metrics": rows}


def judge_claim(row: dict | None) -> dict:
    """Is a claimed gain shown by one metric's row of :func:`summarize`?
    ``wins`` must reach nine tenths of the pairs, and ``gap`` — the move of
    the median in the better direction — must exceed the parent's
    interquartile range ``iqr``.  A metric no pair measured is not met."""
    if row is None:
        return {"met": False, "wins": 0, "pairs": 0, "gap": 0.0, "iqr": 0.0}
    (p1, p2, p3), c2 = row["quartiles"]["parent"], row["quartiles"]["change"][1]
    gap = p2 - c2 if row["better"] == "lower" else c2 - p2
    return {"met": row["wins"] >= 0.9 * row["pairs"] and gap > p3 - p1,
            "wins": row["wins"], "pairs": row["pairs"], "gap": gap,
            "iqr": p3 - p1}


def render(workload: str, summary: dict) -> str:
    lines = [f"== {workload}"]
    if summary["failed"]:
        lines.append(f"  FAILED runs on seeds {summary['failed']}")
    for name, row in summary["metrics"].items():
        per_seed = "  ".join(f"s{s['seed']} {s['parent']:.6g} -> "
                             f"{s['change']:.6g}" for s in row["seeds"])
        quarts = "  ".join(
            f"{side} q1/q2/q3 " + "/".join(f"{v:.6g}" for v in qs)
            for side, qs in row["quartiles"].items())
        verdict = ("unresolved" if row["unresolved"]
                   else "ok" if row["within"] else "OVER BOUND")
        lines.append(
            f"  {name:<14} median change/parent {row['median_ratio']:.4f}"
            f"  won {row['wins']}/{row['pairs']}"
            f"  bound {row['bound']:.0%} {verdict}")
        lines.append(f"  {'':<14} {quarts}  parent spread "
                     f"{row['spread']:.1%}")
        lines.append(f"  {'':<14} {per_seed}")
        if row["differ"]:
            lines.append(f"  {'':<14} DIFFERS on seeds {row['differ']}")
    return "\n".join(lines)


def render_claim(metric: str, claim: dict) -> str:
    return (f"  {metric:<14} {'claim met' if claim['met'] else 'claim not met'}"
            f" (won {claim['wins']}/{claim['pairs']}, need 9/10; median gap "
            f"{claim['gap']:.6g} vs parent q3-q1 {claim['iqr']:.6g})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True,
                    help="a BENCHMARK.json workload (repeatable)")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"),
                    help="e.g. 1-5 or 1,3,7 (default 1-5)")
    ap.add_argument("--ref", default="HEAD",
                    help="the parent side, a git ref (default HEAD)")
    ap.add_argument("--seconds", type=int, default=None,
                    help="timed-pass budget per run (default: run.py's)")
    ap.add_argument("--out", type=Path, default=None,
                    help="also write every run and summary as JSON")
    ap.add_argument("--claim", metavar="METRIC", default=None,
                    help="judge a claimed gain in METRIC on every workload "
                         "(exit 1 when not met)")
    args = ap.parse_args(argv)
    metrics = contract()
    report, bad = {}, False
    with tempfile.TemporaryDirectory(prefix="e2e_ab_") as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive,
                       check=True)
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                sides = {"parent": parent, "change": ROOT}
                order = ["parent", "change"][:: 1 if i % 2 == 0 else -1]
                runs = {side: run_one(sides[side], workload, seed,
                                      args.seconds) for side in order}
                pairs.append({"seed": seed, "first": order[0], **runs})
                print(f"{workload} seed {seed} done ({order[0]} first)",
                      file=sys.stderr)
            summary = summarize(pairs, metrics)
            print(render(workload, summary))
            bad |= bool(summary["failed"]) or any(
                row["differ"] for row in summary["metrics"].values())
            if args.claim is not None:
                claim = judge_claim(summary["metrics"].get(args.claim))
                print(render_claim(args.claim, claim))
                summary["claim"] = {"metric": args.claim, **claim}
                bad |= not claim["met"]
            report[workload] = {"pairs": pairs, "summary": summary}
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"ref": args.ref, "seeds": args.seeds, "workloads": report},
            indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
