"""Compiled block-Arnoldi cycle: lowering, optimization, execution.

``compiled_block_arnoldi_cycle`` is the ``-hpddm_plan compiled`` twin of
:func:`repro.krylov.cycle.block_arnoldi_cycle` for the low-synchronization
schemes (``cgs2_1r``, ``cholqr2``, ``sketched``).  The per-cycle loop is
lowered once into a flat stream of :class:`~repro.plan.ir.PlanNode`
primitives (SpMM, stacked-Gram, project, normalize, small-GEMM, allreduce),
the optimizer hoists / fuses / batches / pre-binds the stream, and the
executor replays it under the interpreter's exact trace-span boundaries.

The interpreter remains the oracle.  Three disciplines keep the compiled
path bit-identical in both iterates and ``CostLedger.counts()``:

* every node body computes the *same NumPy expression* the interpreted
  kernel computes, via the shared uncharged cores in
  ``la/orthogonalization.py`` — arena views substitute for the
  interpreter's freshly concatenated operands (bitwise-equal GEMMs), and
  every self-Gram materializes ``np.ascontiguousarray`` first so NumPy's
  syrk dispatch matches the interpreter's contiguous operand;
* node charges are the interpreter's formulas evaluated at lowering time
  into pre-bound tables; data-dependent paths (breakdown fallbacks,
  cancellation guards) are explicit branch outcomes with their own tables;
* the operator and preconditioner stay opaque callables that charge
  themselves (their costs are already table-driven in ``distla``), so the
  compiled cycle inherits their exec-mode-exact accounting.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..krylov.basis import BasisArena
from ..la.orthogonalization import (SketchArena, SketchState,
                                    _apply_sketch_core, _chol_from_gram,
                                    _chol_normalize_core, _cholqr_rr_core,
                                    _right_solve, _thin_contig, conj_gram,
                                    sketch_size)
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import column_norms
from .ir import (Plan, PlanNode, ZERO_COST, event_cost, flop_cost,
                 reduction_cost, run_nodes)
from .optimize import optimize

__all__ = ["compiled_block_arnoldi_cycle", "lower_cycle"]


def _cycle_state(**kw):
    # CycleState lives in krylov.cycle, which imports this module lazily;
    # mirror the laziness to keep the import graph acyclic.
    from ..krylov.cycle import CycleState
    return CycleState(**kw)


class _Ctx:
    """Mutable execution context threaded through one cycle's nodes."""

    def __init__(self, *, op_apply, inner_m, v1, s1, ck, k, n, p, dtype,
                 tol, seed, identity_m, max_steps, steps):
        self.op_apply = op_apply
        self.inner_m = inner_m
        self.v1 = v1
        self.s1 = s1
        self.ck = ck if k else None
        self.k = k
        self.n, self.p = n, p
        self.dtype = dtype
        self.tol = tol
        self.seed = seed
        self.identity_m = identity_m
        self.max_steps = max_steps
        self.steps = steps
        self.arena: BasisArena | None = None
        self.bound = False  # arena re-bound for this cycle (scaffold node)
        self.qs_arena: SketchArena | None = None
        self.hqr = None
        self.e_cols: list[np.ndarray] = []
        self.s = 0          # sketch dimension
        self.sck = None     # sketched C_k
        self.t0 = None      # sketch whitener
        self.e0 = None      # C_k^H v1 seed coefficients
        self.j = 0
        self.rank = p
        self.res = None


# ---------------------------------------------------------------------------
# node bodies (module-level so the lowered stream is closure-light; per-step
# shape data rides on ctx / default args)
# ---------------------------------------------------------------------------


def _run_ck_seed(ctx):
    e0 = conj_gram(np.asarray(ctx.ck), ctx.v1)
    ctx.v1 = ctx.v1 - ctx.ck @ e0
    ctx.e0 = e0


def _run_scaffold(ctx):
    """Cycle-invariant setup: Hessenberg-QR scaffolding + arena bind.

    Idempotent — emitted once in the prologue and once per step (the hoist
    pass drops the step copies), so un-optimized plans still execute.
    """
    if ctx.hqr is None:
        from ..la.blockqr import BlockHessenbergQR
        ctx.hqr = BlockHessenbergQR(ctx.max_steps, ctx.p,
                                    np.asarray(ctx.s1, dtype=ctx.dtype),
                                    dtype=ctx.dtype)
    if not ctx.bound:
        ctx.arena.bind(ctx.v1, ctx.ck, max_steps=ctx.steps)
        ctx.bound = True


def _run_precond(ctx):
    vj = np.ascontiguousarray(ctx.arena.block(ctx.j))
    zj = vj if ctx.identity_m else \
        np.asarray(ctx.inner_m(vj)).astype(ctx.dtype, copy=False)
    if ctx.arena.zslab is not None:
        ctx.arena.zslab[:, ctx.j * ctx.p:(ctx.j + 1) * ctx.p] = zj
    ctx.zj = zj


def _run_spmm_slot(ctx):
    ctx.arena.slot()[:] = ctx.op_apply(ctx.zj)


def _run_spmm_fresh(ctx):
    ctx.w = ctx.op_apply(ctx.zj)


def _run_gram1(ctx):
    g = conj_gram(_thin_contig(ctx.arena.stacked(), ctx.p),
                  _thin_contig(ctx.arena.slot(), 1))
    c = ctx.arena.cols
    ctx.c1, ctx.wg0 = g[:c], g[c:]


def _run_project1(ctx):
    slot = ctx.arena.slot()
    np.subtract(slot, ctx.arena.basis() @ ctx.c1, out=slot)


def _run_gram2(ctx):
    g = conj_gram(_thin_contig(ctx.arena.stacked(), ctx.p),
                  _thin_contig(ctx.arena.slot(), 1))
    c = ctx.arena.cols
    ctx.c2, ctx.wg1 = g[:c], g[c:]


def _run_project2(ctx):
    slot = ctx.arena.slot()
    np.subtract(slot, ctx.arena.basis() @ ctx.c2, out=slot)


def _run_downdate_cgs2(ctx):
    wgram = ctx.wg1 - ctx.c2.conj().T @ ctx.c2
    wgram = 0.5 * (wgram + wgram.conj().T)
    d, d1 = np.diag(wgram).real, np.diag(ctx.wg1).real
    out = "ok"
    if np.any(d < 0.25 * d1) or np.any(d < 0.0):
        w2c = np.ascontiguousarray(ctx.arena.slot())
        wgram = conj_gram(w2c, w2c)
        out = "recompute"
    ctx.wgram = wgram
    ctx.scale = float(np.sqrt(max(np.max(np.diag(ctx.wg0).real,
                                         initial=0.0), 0.0)))
    coeffs = ctx.c1 + ctx.c2
    ctx.e_col = coeffs[:ctx.k] if ctx.k else None
    ctx.h = coeffs[ctx.k:]
    return out


def _run_normalize_cgs2(ctx):
    slot = ctx.arena.slot()
    d = np.diag(ctx.wgram).real
    floor = max(ctx.tol * ctx.scale, np.finfo(float).tiny) ** 2
    try:
        if np.any(d <= floor):
            raise np.linalg.LinAlgError
        q, r = _chol_normalize_core(slot, ctx.wgram, shift=False)
        rank = ctx.p
        out = "chol"
    except np.linalg.LinAlgError:
        q, r, rank = _cholqr_rr_core(np.ascontiguousarray(slot),
                                     tol=ctx.tol, scale=ctx.scale)
        out = "rr" if rank else "rr0"
    slot[:] = q
    ctx.s_fac, ctx.rank = r, rank
    if ctx.k:
        ctx.e_cols.append(ctx.e_col)
    return out


def _run_downdate_cholqr2(ctx):
    g1 = ctx.wg0 - ctx.c1.conj().T @ ctx.c1
    ctx.g1 = 0.5 * (g1 + g1.conj().T)
    ctx.d0 = np.diag(ctx.wg0).real
    ctx.scale = float(np.sqrt(max(np.max(ctx.d0, initial=0.0), 0.0)))
    ctx.e_col = ctx.c1[:ctx.k] if ctx.k else None
    ctx.h = ctx.c1[ctx.k:]


def _run_normalize_cholqr2(ctx):
    slot = ctx.arena.slot()
    d = np.diag(ctx.g1).real
    floor = max(ctx.tol * ctx.scale, np.finfo(float).tiny) ** 2
    stage = "pre"
    try:
        if np.any(d <= floor) or np.any(d < 1e-10 * np.maximum(ctx.d0,
                                                               floor)):
            raise np.linalg.LinAlgError
        q1, r1 = _chol_normalize_core(slot, ctx.g1, shift=True)
        stage = "chol1"
        gq = conj_gram(q1, q1)
        q, r2 = _chol_from_gram(q1, gq)        # reduction 2: the "2"
        r, rank = r2 @ r1, ctx.p
        out = "chol2"
    except np.linalg.LinAlgError:
        q, r, rank = _cholqr_rr_core(np.ascontiguousarray(slot),
                                     tol=ctx.tol, scale=ctx.scale)
        if stage == "pre":
            out = "rr" if rank else "rr0"
        else:
            out = "chol2f_rr" if rank else "chol2f_rr0"
    slot[:] = q
    ctx.s_fac, ctx.rank = r, rank
    if ctx.k:
        ctx.e_cols.append(ctx.e_col)
    return out


def _run_sketch_ck(ctx):
    ctx.sck = _apply_sketch_core(ctx.ck, ctx.s, ctx.seed)


def _run_sketch_v1(ctx):
    ctx.sv = _apply_sketch_core(np.concatenate([ctx.v1], axis=1), ctx.s,
                                ctx.seed)


def _run_sketch_whiten(ctx):
    qs, t0 = np.linalg.qr(ctx.sv)
    ctx.t0 = t0
    ctx.qs_arena.seed(qs)
    del ctx.sv


def _run_sketch_w(ctx):
    ctx.sw = _apply_sketch_core(ctx.w, ctx.s, ctx.seed)
    ctx.scale_s = float(np.max(column_norms(ctx.sw), initial=0.0))


def _run_sketch_ck_project(ctx):
    e_col = conj_gram(ctx.ck, ctx.w)
    ctx.w = ctx.w - ctx.ck @ e_col
    ctx.sw = ctx.sw - ctx.sck @ e_col
    ctx.e_cols.append(e_col)


def _run_sketch_coeffs(ctx):
    qs = _thin_contig(ctx.qs_arena.view(), ctx.p)
    c = conj_gram(qs, ctx.sw)
    y = c.copy()
    w0 = ctx.t0.shape[0]
    if w0:
        y[:w0] = sla.solve_triangular(ctx.t0, c[:w0])
    ctx.c_sk, ctx.y = c, y


def _run_sketch_project(ctx):
    basis = ctx.arena.v()
    if basis.shape[1] != ctx.qs_arena.cols:
        raise ValueError(
            f"sketched engine state holds {ctx.qs_arena.cols} basis "
            f"columns but step received {basis.shape[1]}; the engine "
            "must see every appended block (begin + successive steps)")
    ctx.w2 = ctx.w - basis @ ctx.y


def _run_sketch_residual(ctx):
    rs = ctx.sw - ctx.qs_arena.view() @ ctx.c_sk
    qn, rfac = np.linalg.qr(rs)
    d = np.abs(np.diag(rfac))
    ref = max(ctx.scale_s, np.finfo(float).tiny)
    ctx.sk_rank = int(np.count_nonzero(d > ctx.tol * ref))
    ctx.qn, ctx.rfac = qn, rfac


def _run_sketch_finish(ctx):
    slot = ctx.arena.slot()
    ctx.h = ctx.y
    if ctx.sk_rank < ctx.p:
        # breakdown: exact rank-revealing fallback, as the interpreter
        scale = float(np.max(column_norms(ctx.w), initial=0.0))
        q, r, rank = _cholqr_rr_core(ctx.w2, tol=ctx.tol, scale=scale)
        slot[:] = q
        # the sketch-space verdict stands (nothing joins the sketch basis)
        ctx.s_fac, ctx.rank = r, min(rank, ctx.p - 1)
        return "bd_rr" if rank else "bd_rr0"
    slot[:] = _right_solve(ctx.w2, ctx.rfac)
    ctx.qs_arena.append(ctx.qn)
    ctx.s_fac, ctx.rank = ctx.rfac, ctx.sk_rank
    return "norm"


def _run_hqr(ctx):
    h_col = np.concatenate([ctx.h, ctx.s_fac], axis=0)
    ctx.res = ctx.hqr.add_column(h_col, charge=False)


def _run_advance(ctx):
    ctx.arena.advance()


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------


def _rr_cost(n: int, p: int, itemsize: int, rank_nonzero: bool):
    """Pre-bound charge of ``cholqr_rr`` on an n x p block."""
    cost = (flop_cost(Kernel.BLAS3, 2.0 * n * p * p)
            + reduction_cost(p * p * itemsize)
            + flop_cost(Kernel.EIG, 9.0 * p**3))
    if rank_nonzero:
        cost = cost + flop_cost(Kernel.BLAS3, 2.0 * n * p * p)
    return cost


def lower_cycle(*, ortho: str, n: int, p: int, k: int, steps: int,
                max_steps: int, dtype, sck_s: int = 0) -> Plan:
    """Lower one block-Arnoldi cycle to a plan (un-optimized).

    ``sck_s`` (sketched scheme only) is the sketch dimension of a
    *pre-sketched* recycled space carried by the sketched recycler: the
    prologue then fuses the ``C_k^H v1`` seed projection with the ``S v1``
    assembly into ONE reduction and skips the ``S C_k`` sketch entirely,
    mirroring the interpreter's ``begin_recycled`` path.
    """
    itemsize = np.dtype(dtype).itemsize
    plan = Plan(meta={"ortho": ortho, "n": n, "p": p, "k": k,
                      "steps": steps, "sck_s": sck_s})

    recycled_sketch = bool(sck_s and k and ortho == "sketched")
    if k and not recycled_sketch:
        plan.prologue.append(PlanNode(
            kind="project", label="ck_seed_project", phase="prologue",
            run=_run_ck_seed,
            cost=flop_cost(Kernel.BLAS3, 4.0 * n * k * p)
            + reduction_cost(k * p * itemsize)))
    if ortho == "sketched":
        s = sck_s if recycled_sketch \
            else sketch_size(n, (max_steps + 1) * p + k)
        log_n = np.log2(max(n, 2))
        if recycled_sketch:
            # sketched recycling: S C_k is maintained across cycles, so the
            # seed projection and the S v1 assembly share ONE fused
            # reduction (the interpreter's begin_recycled charge)
            plan.prologue.append(PlanNode(
                kind="project", label="ck_seed_project", phase="prologue",
                run=_run_ck_seed,
                cost=flop_cost(Kernel.BLAS3, 4.0 * n * k * p)
                + reduction_cost((s + k) * p * itemsize)))
        else:
            plan.prologue.append(PlanNode(
                kind="allreduce", label="sketch_setup_assemble",
                phase="prologue",
                cost=reduction_cost(s * (p + k) * itemsize)))
            if k:
                plan.prologue.append(PlanNode(
                    kind="sketch", label="sketch_ck", phase="prologue",
                    run=_run_sketch_ck, batch_key="sketch_setup",
                    cost=flop_cost(Kernel.BLAS3, 2.0 * n * log_n * k)))
        plan.prologue.append(PlanNode(
            kind="sketch", label="sketch_v1", phase="prologue",
            run=_run_sketch_v1, batch_key="sketch_setup",
            cost=flop_cost(Kernel.BLAS3, 2.0 * n * log_n * p)))
        plan.prologue.append(PlanNode(
            kind="small_qr", label="sketch_whiten", phase="prologue",
            run=_run_sketch_whiten,
            cost=flop_cost(Kernel.QR, 4.0 * s * p**2)))
    plan.prologue.append(PlanNode(
        kind="setup", label="scaffold", phase="prologue",
        run=_run_scaffold, invariant_key="cycle_scaffold"))

    if ortho == "sketched":
        for j in range(steps):
            plan.steps.append(_lower_step_sketched(
                j, n=n, p=p, k=k, itemsize=itemsize, s=s))
    else:
        lower_step = {"cgs2_1r": _lower_step_cgs2_1r,
                      "cholqr2": _lower_step_cholqr2}[ortho]
        for j in range(steps):
            plan.steps.append(lower_step(j, n=n, p=p, k=k,
                                         itemsize=itemsize))
    return plan


def _pre_nodes(j: int, *, sketched: bool) -> list[PlanNode]:
    return [
        PlanNode(kind="setup", label="scaffold", phase="pre",
                 run=_run_scaffold, invariant_key="cycle_scaffold"),
        PlanNode(kind="precond", label=f"precond[{j}]", phase="pre",
                 run=_run_precond, fusable=True),
        PlanNode(kind="spmm", label=f"spmm[{j}]", phase="pre",
                 run=_run_spmm_fresh if sketched else _run_spmm_slot,
                 fusable=True),
    ]


def _post_nodes(j: int, *, p: int) -> list[PlanNode]:
    return [
        PlanNode(kind="small_gemm", label=f"hqr[{j}]", phase="post",
                 run=_run_hqr,
                 cost_thunk=lambda j=j, p=p:
                 flop_cost(Kernel.BLAS3, 2.0 * (2 * p) ** 2 * p * (j + 1))
                 + flop_cost(Kernel.QR, 16.0 * p**3)),
        PlanNode(kind="event", label=f"step_event[{j}]", phase="tail",
                 cost=event_cost("arnoldi_step")),
        PlanNode(kind="advance", label=f"advance[{j}]", phase="next",
                 run=_run_advance, fusable=True),
    ]


def _lower_step_cgs2_1r(j: int, *, n: int, p: int, k: int,
                        itemsize: int) -> list[PlanNode]:
    cols = k + (j + 1) * p
    gram_cost = lambda cols=cols: (
        flop_cost(Kernel.BLAS3, 2.0 * n * (cols + p) * p)
        + reduction_cost((cols + p) * p * itemsize))
    proj_cost = lambda cols=cols: flop_cost(Kernel.BLAS3, 2.0 * n * cols * p)
    rr = _rr_cost(n, p, itemsize, True)
    rr0 = _rr_cost(n, p, itemsize, False)
    nodes = _pre_nodes(j, sketched=False)
    nodes += [
        PlanNode(kind="stacked_gram", label=f"gram1[{j}]", phase="ortho",
                 run=_run_gram1, cost_thunk=gram_cost, fusable=True),
        PlanNode(kind="project", label=f"project1[{j}]", phase="ortho",
                 run=_run_project1, cost_thunk=proj_cost, fusable=True),
        PlanNode(kind="stacked_gram", label=f"gram2[{j}]", phase="ortho",
                 run=_run_gram2, cost_thunk=gram_cost, fusable=True),
        PlanNode(kind="project", label=f"project2[{j}]", phase="ortho",
                 run=_run_project2, cost_thunk=proj_cost, fusable=True),
        PlanNode(kind="small_gemm", label=f"downdate[{j}]", phase="ortho",
                 run=_run_downdate_cgs2,
                 branches={"ok": ZERO_COST,
                           "recompute":
                           flop_cost(Kernel.BLAS3, 2.0 * n * p * p)
                           + reduction_cost(p * p * itemsize)}),
        PlanNode(kind="normalize", label=f"normalize[{j}]", phase="ortho",
                 run=_run_normalize_cgs2,
                 branches={"chol":
                           flop_cost(Kernel.FACTORIZATION, p**3 / 3.0)
                           + flop_cost(Kernel.BLAS3, 1.0 * n * p**2),
                           "rr": rr, "rr0": rr0}),
    ]
    return nodes + _post_nodes(j, p=p)


def _lower_step_cholqr2(j: int, *, n: int, p: int, k: int,
                        itemsize: int) -> list[PlanNode]:
    cols = k + (j + 1) * p
    gram_pp = (flop_cost(Kernel.BLAS3, 2.0 * n * p * p)
               + reduction_cost(p * p * itemsize))
    chol1 = (flop_cost(Kernel.FACTORIZATION, p**3 / 3.0)
             + flop_cost(Kernel.BLAS3, 1.0 * n * p**2))
    rr = _rr_cost(n, p, itemsize, True)
    rr0 = _rr_cost(n, p, itemsize, False)
    nodes = _pre_nodes(j, sketched=False)
    nodes += [
        PlanNode(kind="stacked_gram", label=f"gram1[{j}]", phase="ortho",
                 run=_run_gram1,
                 cost_thunk=lambda cols=cols: (
                     flop_cost(Kernel.BLAS3, 2.0 * n * (cols + p) * p)
                     + reduction_cost((cols + p) * p * itemsize)),
                 fusable=True),
        PlanNode(kind="project", label=f"project1[{j}]", phase="ortho",
                 run=_run_project1,
                 cost_thunk=lambda cols=cols:
                 flop_cost(Kernel.BLAS3, 2.0 * n * cols * p),
                 fusable=True),
        PlanNode(kind="small_gemm", label=f"downdate[{j}]", phase="ortho",
                 run=_run_downdate_cholqr2, fusable=True),
        PlanNode(kind="normalize", label=f"normalize[{j}]", phase="ortho",
                 run=_run_normalize_cholqr2,
                 branches={"chol2": chol1 + gram_pp
                           + flop_cost(Kernel.BLAS3, 1.0 * n * p**2),
                           "rr": rr, "rr0": rr0,
                           "chol2f_rr": chol1 + gram_pp + rr,
                           "chol2f_rr0": chol1 + gram_pp + rr0}),
    ]
    return nodes + _post_nodes(j, p=p)


def _lower_step_sketched(j: int, *, n: int, p: int, k: int,
                         itemsize: int, s: int) -> list[PlanNode]:
    log_n = np.log2(max(n, 2))
    rr = _rr_cost(n, p, itemsize, True)
    rr0 = _rr_cost(n, p, itemsize, False)
    nodes = _pre_nodes(j, sketched=True)
    # ONE fused step reduction: the sketched candidate stacked with the
    # exact C_k^H w payload
    nodes.append(PlanNode(
        kind="sketch", label=f"sketch[{j}]", phase="ortho",
        run=_run_sketch_w,
        cost_thunk=lambda: (
            reduction_cost((s + k) * p * itemsize)
            + flop_cost(Kernel.BLAS3, 2.0 * n * log_n * p))))
    if k:
        nodes.append(PlanNode(
            kind="project", label=f"ck_project[{j}]", phase="ortho",
            run=_run_sketch_ck_project,
            cost_thunk=lambda: flop_cost(Kernel.BLAS3, 4.0 * n * k * p)))
    nodes += [
        PlanNode(kind="small_gemm", label=f"sk_coeffs[{j}]", phase="ortho",
                 run=_run_sketch_coeffs, fusable=True),
        PlanNode(kind="project", label=f"sk_project[{j}]", phase="ortho",
                 run=_run_sketch_project,
                 cost_thunk=lambda j=j:
                 flop_cost(Kernel.BLAS3, 2.0 * n * (j + 1) * p * p),
                 fusable=True),
        PlanNode(kind="small_qr", label=f"sk_residual[{j}]", phase="ortho",
                 run=_run_sketch_residual,
                 cost_thunk=lambda: flop_cost(Kernel.QR, 4.0 * s * p**2),
                 fusable=True),
        PlanNode(kind="normalize", label=f"sk_finish[{j}]", phase="ortho",
                 run=_run_sketch_finish,
                 branches={"norm":
                           flop_cost(Kernel.BLAS3, 1.0 * n * p**2),
                           "bd_rr": reduction_cost(p * 8) + rr,
                           "bd_rr0": reduction_cost(p * 8) + rr0}),
    ]
    return nodes + _post_nodes(j, p=p)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

_PHASES = ("pre", "ortho", "post", "tail", "next")


def _split_phases(nodes: list[PlanNode]) -> dict[str, list[PlanNode]]:
    groups: dict[str, list[PlanNode]] = {ph: [] for ph in _PHASES}
    for node in nodes:
        groups[node.phase].append(node)
    return groups


def compiled_block_arnoldi_cycle(op_apply, inner_m, v1, s1, *,
                                 arena: BasisArena,
                                 max_steps: int,
                                 ck: np.ndarray | None = None,
                                 ortho: str = "cgs2_1r",
                                 qr_scheme: str = "cholqr",
                                 deflation_tol: float = 1e-12,
                                 targets: np.ndarray | None = None,
                                 history=None,
                                 identity_m: bool = False,
                                 iteration_budget: int | None = None,
                                 sck: np.ndarray | None = None):
    """Plan-compiled twin of ``block_arnoldi_cycle`` (low-sync schemes).

    Same signature and contract (``arena`` is required: the interpreter
    entry point allocates one when the caller has none); ``qr_scheme`` is accepted for symmetry but
    unused (the low-sync engines carry their own normalizers, exactly as in
    the interpreter).  ``sck`` is the pre-sketched recycled space of
    ``recycle_space="sketched"`` (see the interpreter's docstring).  The
    returned :class:`CycleState` additionally carries ``plan_stats``
    (optimizer counters).
    """
    del qr_scheme
    dtype = v1.dtype
    n, p = v1.shape
    k = ck.shape[1] if ck is not None else 0
    led = ledger.current()
    tr = trace.current()
    recycled_sketch = sck is not None and k and ortho == "sketched"

    steps = max_steps
    if iteration_budget is not None:
        steps = min(steps, max(iteration_budget, 0))

    ctx = _Ctx(op_apply=op_apply, inner_m=inner_m, v1=v1,
               s1=s1, ck=ck, k=k, n=n, p=p, dtype=dtype,
               tol=deflation_tol, seed=0, identity_m=identity_m,
               max_steps=max_steps, steps=steps)
    ctx.arena = arena
    if ortho == "sketched":
        ctx.s = int(sck.shape[0]) if recycled_sketch \
            else sketch_size(n, (max_steps + 1) * p + k)
        ctx.qs_arena = SketchArena(ctx.s, (steps + 1) * p, dtype)
        if recycled_sketch:
            ctx.sck = sck

    plan = optimize(lower_cycle(ortho=ortho, n=n, p=p, k=k, steps=steps,
                                max_steps=max_steps, dtype=dtype,
                                sck_s=ctx.s if recycled_sketch else 0))
    phased = [_split_phases(step) for step in plan.steps]

    run_nodes(plan.prologue, ctx, led)
    breakdown = False
    converged_early = False
    steps_taken = 0
    for j in range(steps):
        ctx.j = j
        groups = phased[j]
        with tr.span("arnoldi_step", j=j):
            run_nodes(groups["pre"], ctx, led)
            with tr.span("ortho", scheme=ortho):
                run_nodes(groups["ortho"], ctx, led)
            run_nodes(groups["post"], ctx, led)
            steps_taken = j + 1
        if history is not None:
            history.append(ctx.res)
        run_nodes(groups["tail"], ctx, led)
        if ctx.rank < p:
            breakdown = True
            break
        run_nodes(groups["next"], ctx, led)
        if targets is not None and np.all(ctx.res <= targets):
            converged_early = True
            break

    # V_0..V_steps are committed whatever the optimizer did with the last
    # ``advance`` node — on a breakdown the slot holds the zero-padded
    # rank-revealing block, exactly as the interpreter commits it
    ctx.arena.cols = ctx.arena.k + (steps_taken + 1) * p
    state = _cycle_state(
        arena=ctx.arena, hqr=ctx.hqr, e_cols=ctx.e_cols,
        steps=steps_taken, breakdown=breakdown,
        converged_early=converged_early, e0=ctx.e0)
    if ortho == "sketched":
        # same state surface the interpreter's engine exports, so the
        # sketched recycling machinery works identically under both plans
        state.sketch = SketchState(s=ctx.s, seed=ctx.seed,
                                   qs=ctx.qs_arena.view(), t0=ctx.t0,
                                   sck=ctx.sck)
    state.plan_stats = dict(plan.stats)
    return state
