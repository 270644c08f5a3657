"""Trace-based reduction-shape gate (the CI ``trace-gate`` stage).

The paper's central scalability claim is a *shape* statement about
communication: GMRES(m) pays one global reduction per Arnoldi step (``m``
per cycle with a one-reduction scheme), while GCRO-DR(m, k) on the
same-system fast path pays ``2(m-k)`` per cycle — fewer, non-variable, and
independent of the recycle update machinery.  The gate re-derives those
numbers **from exported trace spans** rather than from the solvers'
bookkeeping, so a regression in either the solvers, the orthogonalization
engines, or the tracer's cost attribution trips it.

Checks (all from span trees produced by real solves):

* GMRES + ``sketched``: every full cycle has exactly ``m`` ``arnoldi_step``
  spans and their reductions sum to exactly ``m`` (one per step).
* GCRO-DR + ``cgs2_1r`` + ``same_system``: every full cycle has ``m - k``
  steps summing to exactly ``2 (m - k)`` reductions, the per-cycle count
  never varies across cycles, and no ``recycle_update`` span appears.
* ``cgs2_1r`` low-synchronization bound: **every** ``arnoldi_step`` span
  carries at most 2 reductions, recycling included.
* GCRO-DR + ``sketched`` on a different system (harvest and updates
  running): every ``arnoldi_step`` span carries at most 1 reduction, at
  two restart lengths.
* Conservation: the per-span exclusive costs sum bit-for-bit to the root
  span's ledger window (checked via :func:`counts_signature`, so flops,
  p2p and event counts are included — not just reductions).

No service is involved in the conservation checks: conservation is a
*per-ledger* statement and the service's batch ledger would mix two ledgers
in one tree.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from ..util import ledger
from ..util.ledger import CostLedger
from ..util.options import Options
from .export import counts_signature
from .tracer import Span, Tracer, install

__all__ = ["GateError", "check_conservation", "check_gcrodr_shape",
           "check_gmres_shape", "check_sequence_shape",
           "check_shifted_shape",
           "check_step_reduction_bound", "run_gate"]


class GateError(AssertionError):
    """A trace-gate assertion failed (subclass of AssertionError so the
    gate composes with pytest and plain ``assert``-style CI runners)."""


def _steps(cycle: Span) -> list[Span]:
    return cycle.find("arnoldi_step")


def check_gmres_shape(root: Span, m: int) -> dict[str, Any]:
    """Every full GMRES cycle: exactly ``m`` steps, ``m`` reductions.

    The last cycle of a solve may be short (convergence mid-cycle); it must
    still pay exactly one reduction per step it ran.
    """
    cycles = root.find("cycle")
    if not cycles:
        raise GateError("gmres trace has no cycle spans")
    full = 0
    for cyc in cycles:
        steps = _steps(cyc)
        reds = sum(s.cost.reductions for s in steps)
        if reds != len(steps):
            raise GateError(
                f"gmres cycle {cyc.attrs.get('index')}: {len(steps)} steps "
                f"but {reds} reductions (expected one per step)")
        if len(steps) == m:
            full += 1
            if reds != m:
                raise GateError(
                    f"gmres full cycle {cyc.attrs.get('index')}: expected "
                    f"exactly {m} reductions, got {reds}")
    if full == 0:
        raise GateError(f"gmres trace has no full m={m} cycle to check")
    return {"cycles": len(cycles), "full_cycles": full,
            "reductions_per_full_cycle": m}


def check_gcrodr_shape(root: Span, m: int, k: int) -> dict[str, Any]:
    """Same-system GCRO-DR cycles: ``m - k`` steps, ``2 (m - k)``
    reductions, a per-cycle count that never varies, and zero
    ``recycle_update`` spans."""
    updates = root.find("recycle_update")
    if updates:
        raise GateError(
            f"same-system GCRO-DR trace contains {len(updates)} "
            f"recycle_update span(s); the fast path must not update")
    cycles = [c for c in root.find("cycle")
              if c.attrs.get("kind") == "gcrodr"]
    if not cycles:
        raise GateError("gcrodr trace has no recycled cycle spans")
    per_full_cycle: set[int] = set()
    full = 0
    for cyc in cycles:
        steps = _steps(cyc)
        reds = sum(s.cost.reductions for s in steps)
        if reds != 2 * len(steps):
            raise GateError(
                f"gcrodr cycle {cyc.attrs.get('index')}: {len(steps)} steps "
                f"but {reds} reductions (expected 2 per step with cgs2_1r)")
        if len(steps) == m - k:
            full += 1
            per_full_cycle.add(reds)
    if full == 0:
        raise GateError(
            f"gcrodr trace has no full (m-k)={m - k}-step cycle to check")
    if per_full_cycle != {2 * (m - k)}:
        raise GateError(
            f"gcrodr full-cycle reduction count is variable or wrong: "
            f"{sorted(per_full_cycle)} (expected exactly {{{2 * (m - k)}}})")
    return {"cycles": len(cycles), "full_cycles": full,
            "reductions_per_full_cycle": 2 * (m - k)}


def check_step_reduction_bound(root: Span, bound: int = 2) -> dict[str, Any]:
    """``cgs2_1r`` promise: no Arnoldi step pays more than ``bound``
    reductions, anywhere in the tree."""
    steps = root.find("arnoldi_step")
    if not steps:
        raise GateError("trace has no arnoldi_step spans")
    worst = max(s.cost.reductions for s in steps)
    if worst > bound:
        raise GateError(
            f"an arnoldi_step span pays {worst} reductions "
            f"(low-synchronization bound is {bound})")
    return {"steps": len(steps), "max_reductions_per_step": worst}


def check_shifted_shape(roots: dict[int, Span], ratio_cap: float = 1.25
                        ) -> dict[str, Any]:
    """Shifted-family shape: reductions per cycle independent of #shifts.

    ``roots`` maps the number of shifts ``k`` to the root span of a family
    solve of the *same* system at that width (full-rank right-hand-side
    blocks, so every width runs the identical cycle structure).  Derived
    from spans alone:

    * every ``least_squares`` span pays **0** reductions in shared-basis
      mode and exactly **1** in recycled mode (the one fused family Gram
      ``[C|U]^H [U|V]``) — the per-shift Hessenberg/augmented solves are
      local dense work, so the count cannot grow with ``k``;
    * for every cycle length that occurs at several widths, the
      per-cycle reduction count is **identical** across all of them — the
      shape statement "one family pays the reductions of one solve";
    * the paper-shaped headline: total reductions at the widest ``k`` are
      at most ``ratio_cap`` (default 1.25) times the total at the
      narrowest — re-deriving the tests' ledger assertion from the trace.
    """
    if len(roots) < 2:
        raise GateError("check_shifted_shape needs solves at >= 2 widths")
    per_k: dict[int, dict[str, Any]] = {}
    for k, root in sorted(roots.items()):
        cycles = [c for c in root.find("cycle")
                  if c.attrs.get("kind") == "shifted"]
        if not cycles:
            raise GateError(f"shifted trace (k={k}) has no family cycle "
                            f"spans")
        for ls in root.find("least_squares"):
            expected = 1 if ls.attrs.get("recycled") else 0
            if ls.cost.reductions != expected:
                raise GateError(
                    f"shifted least_squares span at k={k} pays "
                    f"{ls.cost.reductions} reductions (expected {expected}"
                    f": per-shift solves are local dense work"
                    + (", plus the one fused family Gram"
                       if expected else "") + ")")
        by_steps: dict[int, int] = {}
        for cyc in cycles:
            steps = len(_steps(cyc))
            reds = cyc.cost.reductions
            if by_steps.setdefault(steps, reds) != reds:
                raise GateError(
                    f"shifted trace (k={k}): two {steps}-step cycles pay "
                    f"different reduction counts "
                    f"({by_steps[steps]} vs {reds})")
        per_k[k] = {"by_steps": by_steps,
                    "total": root.cost.reductions,
                    "cycles": len(cycles)}
    ks = sorted(per_k)
    base = per_k[ks[0]]["by_steps"]
    for k in ks[1:]:
        for steps, reds in per_k[k]["by_steps"].items():
            if steps in base and base[steps] != reds:
                raise GateError(
                    f"reductions per {steps}-step family cycle depend on "
                    f"the number of shifts: k={ks[0]} pays {base[steps]}, "
                    f"k={k} pays {reds}")
    lo, hi = per_k[ks[0]]["total"], per_k[ks[-1]]["total"]
    if hi > ratio_cap * lo:
        raise GateError(
            f"a k={ks[-1]} shift family pays {hi} total reductions vs "
            f"{lo} for k={ks[0]} (> {ratio_cap}x: the shared basis is "
            f"not amortizing)")
    return {"widths": ks,
            "reductions_per_cycle": {
                k: dict(sorted(per_k[k]["by_steps"].items()))
                for k in ks},
            "total_reductions": {k: per_k[k]["total"] for k in ks},
            "headline_ratio": hi / lo if lo else float("inf")}


def check_sequence_shape(root: Span) -> dict[str, Any]:
    """Transient-sequence shape: reuse must be visible in the spans.

    ``root`` holds a :class:`repro.service.SequenceDriver` run
    (``sequence.run`` > ``sequence.wave`` > ``service.batch`` +
    ``sequence.step`` leaves).  Derived from spans alone:

    * every ``sequence.step`` leaf maps (by its ``batch`` attribute) to a
      ``service.batch`` span in the same tree;
    * a step with **unchanged fingerprint** (``fp_changed=False``) hits
      the same-system fast path: its batch contains **zero** ``setup.*``
      spans (the setup cache served the preconditioner), **zero**
      ``recycle_update`` spans (no recycle-harvest reductions), and every
      recycled cycle in it carries ``same_system=True``;
    * an **adoption-boundary** step (``adopted=True``: the epoch changed
      and the recycle space was carried over via
      ``SetupCache.adopt_from``) must be *repaired, never trusted*: its
      batch must run at least one ``recycle_update`` or
      ``recycle_repair`` span, and none of its recycled cycles may claim
      ``same_system=True``.
    """
    runs = root.find("sequence.run")
    if not runs:
        raise GateError("trace has no sequence.run span")
    steps = root.find("sequence.step")
    if not steps:
        raise GateError("sequence trace has no sequence.step leaves")
    batches = {b.attrs.get("batch"): b for b in root.find("service.batch")}
    fast, adoptions = 0, 0
    for leaf in steps:
        tag = (f"step {leaf.attrs.get('step')} of tenant "
               f"{leaf.attrs.get('tenant')!r}")
        batch = batches.get(leaf.attrs.get("batch"))
        if batch is None:
            raise GateError(
                f"sequence.step leaf ({tag}) references batch "
                f"{leaf.attrs.get('batch')!r} with no service.batch span")
        setups = [s for s in batch.walk() if s.name.startswith("setup.")]
        updates = batch.find("recycle_update")
        repairs = batch.find("recycle_repair")
        recycled_cycles = [c for c in batch.find("cycle")
                           if c.attrs.get("kind") == "gcrodr"]
        if not leaf.attrs.get("fp_changed"):
            fast += 1
            if setups:
                raise GateError(
                    f"unchanged-fingerprint {tag} paid "
                    f"{len(setups)} setup span(s) "
                    f"({sorted({s.name for s in setups})}); the setup "
                    f"cache must serve repeat operators")
            if updates:
                harvest_reds = sum(u.cost.reductions for u in updates)
                raise GateError(
                    f"unchanged-fingerprint {tag} ran {len(updates)} "
                    f"recycle_update span(s) ({harvest_reds} harvest "
                    f"reductions); the same-system fast path must not "
                    f"update")
            for cyc in recycled_cycles:
                if not cyc.attrs.get("same_system"):
                    raise GateError(
                        f"unchanged-fingerprint {tag} ran a recycled "
                        f"cycle with same_system="
                        f"{cyc.attrs.get('same_system')!r}")
        elif leaf.attrs.get("adopted"):
            adoptions += 1
            if not updates and not repairs:
                raise GateError(
                    f"adoption-boundary {tag} ran neither recycle_update "
                    f"nor recycle_repair; adopted spaces must be "
                    f"repaired, never trusted")
            for cyc in recycled_cycles:
                if cyc.attrs.get("same_system"):
                    raise GateError(
                        f"adoption-boundary {tag} claimed same_system="
                        f"True against a changed operator")
    return {"steps": len(steps), "fast_path_steps": fast,
            "adoptions": adoptions, "batches": len(batches)}


def check_conservation(root: Span) -> dict[str, Any]:
    """Per-span exclusive costs must sum back to the root window.

    Every discrete counter (reductions, reduction/p2p bytes, messages,
    per-name call counts) must match **bit-for-bit**.  Flop totals are
    float sums re-associated by the tree walk, so they are compared to
    within a few ULP instead (1e-12 relative) — exact equality there would
    assert a property float addition does not have.

    Valid only for trees recorded against a single ledger (no service
    batches): spans on a different ledger are skipped by ``exclusive`` and
    would make the sum undercount.
    """
    total = CostLedger()
    for span in root.walk():
        ex = span.exclusive()
        if ex is not None:
            total.merge(ex)
    lhs, rhs = counts_signature(total), counts_signature(root.cost)
    # counts() layout: (reductions, reduction_bytes, p2p_messages,
    # p2p_bytes, flops-dict, calls-dict) with flops at index 4
    lhs_flops, rhs_flops = lhs[4], rhs[4]
    if lhs[:4] + lhs[5:] != rhs[:4] + rhs[5:]:
        raise GateError(
            f"span cost attribution is not conservative:\n"
            f"  sum of exclusives: {lhs}\n  root window:       {rhs}")
    if set(lhs_flops) != set(rhs_flops) or any(
            abs(lhs_flops[kern] - rhs_flops[kern])
            > 1e-12 * max(abs(rhs_flops[kern]), 1.0)
            for kern in rhs_flops):
        raise GateError(
            f"span flop attribution drifted beyond reassociation error:\n"
            f"  sum of exclusives: {lhs_flops}\n"
            f"  root window:       {rhs_flops}")
    return {"entries": len(lhs)}


# ----------------------------------------------------------------------
def _gate_problem(n: int = 400) -> tuple[sp.csr_matrix, np.ndarray]:
    """Deterministic, well-conditioned sparse test system."""
    rs = np.random.RandomState(1234)
    a = sp.random(n, n, density=0.02, random_state=rs, format="csr")
    a = a + sp.eye(n, format="csr") * 4.0
    rng = np.random.default_rng(1234)
    b = rng.standard_normal((n, 3))
    return sp.csr_matrix(a), b


def run_gate(m: int = 10, k: int = 4) -> dict[str, Any]:
    """Run the full reduction-shape gate; returns a report dict.

    Raises :class:`GateError` on the first violated invariant.
    """
    from .. import api   # late import: api imports this package

    a, b_cols = _gate_problem()
    report: dict[str, Any] = {"m": m, "k": k}

    # --- GMRES(m) with a one-reduction scheme: m reductions/cycle ---
    opts = Options(krylov_method="gmres", gmres_restart=m,
                   orthogonalization="sketched", tol=1e-12, max_it=60,
                   trace="summary")
    tr = Tracer(level="summary")
    led = CostLedger()
    with install(tr), ledger.install(led):
        res = api.solve(a, b_cols[:, 0], options=opts)
    ledger.current().merge(led)   # gate cost shows up in outer ledgers
    root = tr.roots[-1]
    report["gmres"] = check_gmres_shape(root, m)
    report["gmres"]["iterations"] = res.iterations
    check_conservation(root)

    # --- GCRO-DR(m, k) same-system fast path: 2(m-k)/cycle ----------
    opts = Options(krylov_method="gcrodr", gmres_restart=m, recycle=k,
                   orthogonalization="cgs2_1r", tol=1e-12, max_it=90,
                   trace="summary")
    tr = Tracer(level="summary")
    led = CostLedger()
    with install(tr), ledger.install(led):
        first = api.solve(a, b_cols[:, 1], options=opts)
        res = api.solve(a, b_cols[:, 2], options=opts,
                        recycle=first.info["recycle"], same_system=True)
    ledger.current().merge(led)
    seed_root, root = tr.roots[-2], tr.roots[-1]
    report["gcrodr"] = check_gcrodr_shape(root, m, k)
    report["gcrodr"]["iterations"] = res.iterations
    report["cgs2_1r_bound"] = check_step_reduction_bound(root)
    check_step_reduction_bound(seed_root)
    check_conservation(seed_root)
    check_conservation(root)

    # --- GCRO-DR(m, k) + sketched, different system: 1/step ---------
    # Harvest and updates run for real (same_system=False), at two
    # restart lengths.
    sk_report: dict[str, Any] = {}
    for m_s in (m, 2 * m):
        opts = Options(krylov_method="gcrodr", gmres_restart=m_s,
                       recycle=k, orthogonalization="sketched", tol=1e-10,
                       max_it=150, trace="summary")
        tr = Tracer(level="summary")
        led = CostLedger()
        with install(tr), ledger.install(led):
            first = api.solve(a, b_cols[:, 1], options=opts)
            res = api.solve(a, b_cols[:, 2], options=opts,
                            recycle=first.info["recycle"],
                            same_system=False)
        ledger.current().merge(led)
        for root in tr.roots[-2:]:
            check_step_reduction_bound(root, bound=1)
            check_conservation(root)
        sk_report[f"m={m_s}"] = {"iterations": res.iterations,
                                 "reductions": led.reductions}
    report["sketched_gcrodr"] = sk_report

    # --- shifted families: reductions/cycle independent of #shifts --
    # Full-rank RHS blocks so every width runs the same cycle shape;
    # shared-basis and unprojected-recycled engines both checked.
    rng = np.random.default_rng(77)
    b_fam = rng.standard_normal((a.shape[0], 8))
    shifts = [0.05 * (i + 1) for i in range(8)]
    sh_report: dict[str, Any] = {}
    for label, extra in (("bgmres", {}), ("bgcrodr", {"recycle": k})):
        roots: dict[int, Span] = {}
        for kf in (1, 4, 8):
            opts = Options(krylov_method=label, gmres_restart=2 * m,
                           orthogonalization="cgs2_1r", tol=1e-10,
                           max_it=120, trace="summary", **extra)
            tr = Tracer(level="summary")
            led = CostLedger()
            with install(tr), ledger.install(led):
                api.solve(a, b_fam[:, :kf], options=opts,
                          shifts=shifts[:kf])
            ledger.current().merge(led)
            roots[kf] = tr.roots[-1]
            check_conservation(roots[kf])
            check_step_reduction_bound(roots[kf])
        sh_report[label] = check_shifted_shape(roots)
    report["shifted"] = sh_report

    # --- transient sequences: reuse must be visible in the spans ----
    # Two heat tenants through the sync service with an LU-cached
    # preconditioner: unchanged-fp steps must show zero setup and
    # zero recycle-harvest work; the epoch boundary must adopt+repair.
    # (No conservation check here — service batches run on private
    # ledgers, which check_conservation explicitly excludes.)
    from ..problems.transient import HeatSequence
    from ..service.sequence import SequenceDriver
    from ..service.service import SolveService
    seq_opts = Options(krylov_method="gcrodr", gmres_restart=m,
                       recycle=k, orthogonalization="cgs2_1r",
                       tol=1e-10, max_it=2000,
                       recycle_same_system=False,
                       service_flush="explicit", trace="summary")
    tr = Tracer(level="summary")
    led = CostLedger()
    with install(tr), ledger.install(led):
        # Schwarz (not exact LU) keeps the per-step solves non-trivial
        # so harvested recycle spaces are non-empty and adoption has
        # something to repair; setup.schwarz spans still mark setup.
        svc = SolveService(options=seq_opts, preconditioner="schwarz",
                           precond_opts={"nparts": 2})
        driver = SequenceDriver(svc)
        for tenant in ("t0", "t1"):
            driver.add(HeatSequence(nx=7, n_steps=6, dt0=1e-3,
                                    epoch_length=3, growth=1.5),
                       options=seq_opts, tenant=tenant)
        driver.run()
    ledger.current().merge(led)
    report["sequence"] = check_sequence_shape(tr.roots[-1])
    if report["sequence"]["adoptions"] == 0:
        raise GateError("sequence gate scenario produced no "
                        "adoption-boundary steps")

    report["reductions_per_cycle"] = {"gmres": m, "gcrodr": 2 * (m - k)}
    return report
