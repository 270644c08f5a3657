"""Pseudo-block GCRO-DR — fused independent recurrences (paper §V-B1).

The pseudo-block idea ("operations for each RHS are fused together"):
every right-hand side keeps its *own* Krylov recurrence, Hessenberg matrix
and recycled pair ``(U_l, C_l)``, but the expensive distributed kernels —
the SpMM, the preconditioner application, the batched inner products —
process all columns at once.  Fig. 8's alternatives 3, 5 and 6 are this
method (for GMRES the fusion lives in :func:`repro.krylov.gmres.gmres`).

Cycles run in lockstep: all active columns restart together after
``m - k`` inner steps (or ``m`` during the initial harvest cycle), and
converged columns are frozen.  This is the natural fused organization —
it trades a handful of extra iterations on early-converging columns for
one global synchronization pattern shared by the whole block, which is
the entire point of pseudo-blocking (fewer, fatter messages).
"""

from __future__ import annotations

import numpy as np

from ..la.blockqr import BlockHessenbergQR
from ..la.orthogonalization import pseudo_block_tensor
from ..plan.pseudoblock import make_pseudo_block_orthogonalizer
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import as_block, column_norms
from ..util.options import Options
from ..verify import checker_for
from .base import (ConvergenceHistory, IdentityPreconditioner, SolveResult,
                   as_operator, initial_state, residual_targets)
from .basis import AugmentedTensorArena
from .deflation import harmonic_ritz_vectors
from .gcrodr import (_exact_pair, _harvest, _project_solve,
                     _restart_extract, _tidy_pair)
from .gmres import setup_preconditioning
from .recycling import RecycledSubspace
from .sketch_recycle import SketchedRecycler

__all__ = ["pgcrodr", "PseudoBlockRecycle"]


class PseudoBlockRecycle:
    """Per-column recycled pairs for a pseudo-block sequence.

    ``fingerprint`` is the optional value-level operator identity stamped
    by cache-backed callers (see
    :class:`repro.krylov.recycling.RecycledSubspace`).
    """

    def __init__(self, spaces: list[RecycledSubspace | None], op_tag=None,
                 fingerprint=None):
        self.spaces = spaces
        self.op_tag = op_tag
        self.fingerprint = fingerprint

    @property
    def p(self) -> int:
        return len(self.spaces)

    def matches_operator(self, tag) -> bool:
        return self.op_tag is not None and self.op_tag == tag

    def matches_fingerprint(self, fingerprint) -> bool:
        """Value-level match (stricter than ``matches_operator``)."""
        return self.fingerprint is not None and self.fingerprint == fingerprint


def _sketch_tidy_column(rec: SketchedRecycler, u: np.ndarray, c: np.ndarray,
                        op_apply) -> tuple[np.ndarray, np.ndarray, bool]:
    """Sketch-whiten one column's fresh pair, falling back to exact repair.

    Returns ``(u, c, exact)`` with the same contract as the block solver's
    ``_tidy``: ``exact=False`` means the pair is sketch-whitened
    only, and the caller owes one :func:`_exact_pair` before packaging.
    """
    u2, c2, ok = rec.whiten(u, c)
    if ok:
        return u2, c2, False
    with trace.current().span("recycle_repair", kind="sketch_drift"):
        ledger.current().event("recycle_repair")
        rec.repairs += 1
        u2, c2 = _exact_pair(u, c, op_apply)
        rec.adopt(u2, c2)
    return u2, c2, True


class _Column:
    """One RHS's private GCRO-DR state."""

    def __init__(self, l: int, dtype):
        self.l = l
        self.dtype = dtype
        self.u: np.ndarray | None = None      # n x k
        self.c: np.ndarray | None = None
        self.hqr: BlockHessenbergQR | None = None
        self.e_cols: list[np.ndarray] = []
        self.active = True
        self.steps = 0
        self.chr_prev: np.ndarray | None = None

    @property
    def k(self) -> int:
        return 0 if self.u is None else self.u.shape[1]


def pgcrodr(a, b, m=None, *, options: Options | None = None,
            x0: np.ndarray | None = None,
            recycle: PseudoBlockRecycle | None = None,
            same_system: bool | None = None) -> SolveResult:
    """Solve ``A X = B`` with pseudo-block GCRO-DR(m, k).

    Accepts/returns a :class:`PseudoBlockRecycle` (one recycled pair per
    column) through ``recycle`` / ``result.info["recycle"]``.
    """
    options = options or Options(krylov_method="gcrodr", recycle=10)
    k = options.recycle
    if k <= 0:
        raise ValueError("GCRO-DR requires options.recycle (k) > 0")
    a = as_operator(a)
    op_apply, inner_m, left_m = setup_preconditioning(a, m, options)
    b_in = as_block(b)
    squeeze = np.asarray(b).ndim == 1

    x, b2, r = initial_state(a, b_in, x0)
    if left_m is not None:
        b2 = np.asarray(left_m(b2))
        r = np.asarray(left_m(r)) if x0 is not None else b2.copy()
    n, p = b2.shape
    dtype = x.dtype
    targets = residual_targets(b2, options.tol)
    identity_m = isinstance(inner_m, IdentityPreconditioner)
    led = ledger.current()
    tr = trace.current()
    chk = checker_for(options, context="pgcrodr")

    history = ConvergenceHistory(rhs_norms=column_norms(b2))
    rn = column_norms(r)
    history.append(rn)
    converged = rn <= targets

    m_restart = options.gmres_restart
    total_it = 0
    cycles = 0

    cols = [_Column(l, dtype) for l in range(p)]
    # sketched recycle carrying: one recycler (maintained S U_l, S C_l) per
    # column; whitening replaces the per-cycle full-space re-derivation and
    # the exact repair is deferred to the packaging boundary
    sketched_mode = options.recycle_space == "sketched"
    skr_cols: list[SketchedRecycler | None] = [None] * p
    pair_exact = [True] * p

    def _col_recycler(l: int) -> SketchedRecycler:
        if skr_cols[l] is None:
            skr_cols[l] = SketchedRecycler(n=n, max_cols=m_restart + 1 + k)
        return skr_cols[l]

    def _tidy_column(l: int, col: _Column, what: str) -> None:
        """Repair column ``l``'s freshly mixed pair and check it."""
        if sketched_mode:
            col.u, col.c, pair_exact[l] = _sketch_tidy_column(
                _col_recycler(l), col.u, col.c, op_apply)
        else:
            col.u, col.c, pair_exact[l] = _tidy_pair(
                col.u, col.c, op_apply, options.orthogonalization)
        chk.check_recycle(col.u, col.c, op_apply=op_apply,
                          what=f"{what} recycle space (column {l})")

    # ---- adopt incoming recycled spaces ---------------------------------
    if recycle is not None and recycle.p == p:
        if same_system is None:
            same_system = options.recycle_same_system or \
                recycle.matches_operator(a.tag)
        for col, space in zip(cols, recycle.spaces):
            if space is None or space.k == 0:
                continue
            col.u = np.asarray(space.u, dtype=dtype).copy()
            col.c = np.asarray(space.c, dtype=dtype).copy()
        if not same_system:
            import scipy.linalg as sla
            for col in cols:
                if col.u is None:
                    continue
                au = op_apply(col.u)
                q, rfac, piv = sla.qr(au, mode="economic", pivoting=True)
                led.reduction(nbytes=col.k ** 2 * au.itemsize)
                d = np.abs(np.diagonal(rfac))
                rank = int(np.count_nonzero(
                    d > options.deflation_tol * max(d[0], 1e-300))) if d.size else 0
                if rank == 0:
                    col.u = col.c = None
                else:
                    col.c = np.ascontiguousarray(q[:, :rank])
                    col.u = _project_solve(col.u[:, piv[:rank]],
                                           rfac[:rank, :rank])
        if not chk.is_off:
            # same story as gcrodr: whether the pairs were re-established
            # (different operator) or assumed intact (same-system skip),
            # each column's identities must hold before we project with them
            for l, col in enumerate(cols):
                if col.u is None:
                    continue
                chk.check_recycle(
                    col.u, col.c, op_apply=op_apply,
                    what=f"adopted recycle space (column {l})"
                    + (" (same-system skip)" if same_system else ""))
        # fused init projection: X += U_l C_l^H r_l per column
        led.reduction(nbytes=p * 8)
        for l, col in enumerate(cols):
            if col.u is None:
                continue
            chr0 = col.c.conj().T @ r[:, l]
            x[:, l] += col.u @ chr0
            r[:, l] -= col.c @ chr0
        rn = column_norms(r)
        led.reduction(nbytes=p * 8)
        history.append(rn)
        converged = rn <= targets
    else:
        same_system = False

    have_recycle = any(col.u is not None for col in cols)

    # ------------------------------------------------------------------
    while not np.all(converged) and total_it < options.max_it:
        cycles += 1
        harvesting = not have_recycle
        steps = m_restart if harvesting else max(m_restart - k, 1)
        steps = min(steps, max(options.max_it - total_it, 1))

        beta = column_norms(r)
        led.reduction(nbytes=p * 8)
        # cgs2_1r folds each column's C_l into both of its fused passes by
        # stacking the (zero-padded) recycle blocks onto the basis tensor:
        # the C cross terms get two-pass quality and the separate projection
        # reduction disappears — 2 reductions/step with recycling, like the
        # block engine.  The other schemes keep the single-pass C loop
        # (their orth_tol covers it; sketched *must*, since its sketch basis
        # tracks only V).
        fold_ck = (options.orthogonalization == "cgs2_1r" and not harvesting
                   and any(col.c is not None for col in cols))
        kmax = max((col.k for col in cols if col.c is not None), default=0) \
            if fold_ck else 0
        # one tensor [C | V]: the folded per-step projector is a contiguous
        # prefix view, never a concatenate copy (kmax = 0 without folding)
        arena = AugmentedTensorArena(kmax, steps, n, p, dtype)
        v, ck_blocks = arena.v, arena.ck
        z = v if identity_m else pseudo_block_tensor(steps, n, p, dtype)
        for l, col in enumerate(cols):
            col.active = (not converged[l]) and beta[l] > 0
            col.steps = 0
            col.e_cols = []
            col.chr_prev = None
            if col.active:
                v[0, :, l] = r[:, l] / beta[l]
                col.hqr = BlockHessenbergQR(steps, 1,
                                            np.array([[beta[l]]]), dtype=dtype)
                if col.u is not None and not harvesting:
                    col.chr_prev = col.c.conj().T @ r[:, l]
        if any(col.chr_prev is not None for col in cols):
            led.reduction(nbytes=p * 8)   # fused C^H r across columns
        if fold_ck:
            for l, col in enumerate(cols):
                if col.c is not None:
                    ck_blocks[: col.k, :, l] = col.c.T
            # The folded projector treats [C_l V_l] as one orthonormal basis
            # per column, so each column's v1 must start C_l-orthogonal.
            # C_l^H r only vanishes up to the previous cycle's least-squares
            # roundoff, and that cross term compounds across cycles and
            # same-system solves; one fused projection per cycle caps the
            # seed at rounding (the removed component is O(drift), so the
            # normalization beta is unaffected to first order).
            for l, col in enumerate(cols):
                if col.active and col.c is not None:
                    v[0, :, l] -= col.c @ (col.c.conj().T @ v[0, :, l])
            led.flop(Kernel.BLAS3, 4.0 * n * kmax * p)
            led.reduction(nbytes=p * kmax * v.itemsize)
        orth = make_pseudo_block_orthogonalizer(
            options.orthogonalization, plan=options.plan, n=n, p=p,
            dtype=dtype, max_cols=steps + 1)
        orth.begin(v[:1])

        j = 0
        with tr.span("cycle", index=cycles - 1,
                     kind="harvest" if harvesting else "pgcrodr",
                     same_system=bool(same_system)):
            while j < steps and any(c.active for c in cols) \
                    and total_it < options.max_it:
                with tr.span("arnoldi_step", j=j):
                    zj = v[j] if identity_m else \
                        np.asarray(inner_m(v[j])).astype(dtype, copy=False)
                    if not identity_m:
                        z[j] = zj
                    w = op_apply(zj)
                    with tr.span("ortho", scheme=options.orthogonalization):
                        if fold_ck:
                            w, adots, nrm = orth.step(arena.stacked(j), w,
                                                      kmax + j)
                            dots = adots[kmax:]
                            for l, col in enumerate(cols):
                                if col.active and col.c is not None:
                                    col.e_cols.append(
                                        adots[: col.k, l].reshape(-1, 1))
                        else:
                            # fused projection against each column's own C_l
                            # (1 reduction), then the scheme engine on V
                            any_ck = False
                            for l, col in enumerate(cols):
                                if col.active and col.c is not None \
                                        and not harvesting:
                                    e_col = col.c.conj().T @ w[:, l]
                                    w[:, l] -= col.c @ e_col
                                    col.e_cols.append(e_col.reshape(-1, 1))
                                    any_ck = True
                            if any_ck:
                                led.reduction(nbytes=p * k * w.itemsize)
                            w, dots, nrm = orth.step(v[: j + 1], w, j)

                    appended = np.zeros(p, dtype=bool)
                    new_res = np.zeros(p)
                    prev = history.records[-1] * np.where(
                        history.rhs_norms > 0, history.rhs_norms, 1.0)
                    for l, col in enumerate(cols):
                        if not col.active:
                            new_res[l] = prev[l]
                            continue
                        if nrm[l] <= 1e-300 or not np.isfinite(nrm[l]):
                            hcol = np.concatenate(
                                [dots[:, l], [0.0]]).reshape(-1, 1)
                            res_l = col.hqr.add_column(hcol.astype(dtype))
                            col.steps = j + 1
                            col.active = False
                            new_res[l] = float(res_l[0])
                            continue
                        v[j + 1, :, l] = w[:, l] / nrm[l]
                        appended[l] = True
                        hcol = np.concatenate(
                            [dots[:, l], [nrm[l]]]).reshape(-1, 1)
                        res_l = col.hqr.add_column(hcol.astype(dtype))
                        col.steps = j + 1
                        new_res[l] = float(res_l[0])
                        if new_res[l] <= targets[l]:
                            col.active = False
                    orth.commit(appended)
                history.append(new_res)
                total_it += 1
                j += 1

        # ---- end of cycle: per-column updates ----------------------------
        with tr.span("least_squares"):
            for l, col in enumerate(cols):
                jc = col.steps
                if jc == 0:
                    continue
                y = col.hqr.solve()[:, 0]
                zl = z[:jc, :, l]
                dx = zl.T @ y
                if col.u is not None and not harvesting:
                    ek = (np.concatenate(col.e_cols, axis=1)
                          if col.e_cols else np.zeros((col.k, jc),
                                                      dtype=dtype))
                    yk = col.chr_prev - ek @ y
                    dx = dx + col.u @ yk
                x[:, l] += dx
                led.flop(Kernel.BLAS2, 2.0 * n * jc)
        if chk.wants_full:
            # per-column (projected) Arnoldi relation and orthonormality of
            # [C_l V_l]; trailing lucky-breakdown zero columns are trimmed
            # inside the checker
            for l, col in enumerate(cols):
                jc = col.steps
                if jc == 0:
                    continue
                vst = np.ascontiguousarray(v[: jc + 1, :, l].T)
                zst = vst[:, :jc] if identity_m else \
                    np.ascontiguousarray(z[:jc, :, l].T)
                if col.u is not None and not harvesting:
                    ek = (np.concatenate(col.e_cols, axis=1)
                          if col.e_cols else np.zeros((col.k, jc),
                                                      dtype=dtype))
                    chk.check_orthonormality(
                        np.concatenate([col.c, vst], axis=1),
                        what=f"[C V] augmented basis (column {l})")
                    chk.check_arnoldi(
                        op_apply, zst, vst, col.hqr.hessenberg(),
                        ck=col.c, ek=ek,
                        what=f"projected Arnoldi relation (column {l})")
                else:
                    chk.check_orthonormality(
                        vst, what=f"Arnoldi basis (column {l})")
                    chk.check_arnoldi(
                        op_apply, zst, vst, col.hqr.hessenberg(),
                        what=f"Arnoldi relation (column {l})")
        # fused explicit residual (one SpMM)
        if left_m is None:
            r = b2 - op_apply(x)
        else:
            r = np.asarray(left_m(b_in.astype(dtype) - a.matmat(x)))
        rn = column_norms(r)
        led.reduction(nbytes=p * 8)
        converged = rn <= targets
        if not chk.is_off:
            safe = np.where(history.rhs_norms > 0, history.rhs_norms, 1.0)
            chk.check_residual_gap(history.records[-1] * safe, rn,
                                   history.rhs_norms, targets,
                                   what=f"PGCRO-DR restart {cycles}")
        history.records[-1] = rn / np.where(history.rhs_norms > 0,
                                            history.rhs_norms, 1.0)

        # ---- recycle harvest / update ------------------------------------
        for l, col in enumerate(cols):
            jc = col.steps
            if jc == 0:
                continue
            if harvesting:
                if jc < 2:
                    continue
                with tr.span("recycle_update", kind="harvest", column=l):
                    hbar = col.hqr.hessenberg()
                    with tr.span("eig", kind="harmonic_ritz"):
                        pk = harmonic_ritz_vectors(
                            hbar, col.hqr.triangular(),
                            col.hqr.last_subdiagonal_block(),
                            1, k, dtype=dtype, target=options.recycle_target)
                    if pk.shape[1]:
                        qf, s = _harvest(hbar, pk)
                        # column l's stacks are views of the basis tensors
                        col.c = v[: jc + 1, :, l].T @ qf
                        col.u = z[:jc, :, l].T @ s
                        _tidy_column(l, col, "harvested")
            elif not same_system and col.u is not None:
                with tr.span("recycle_update", column=l,
                             strategy=options.recycle_strategy):
                    led.event("recycle_update")
                    kc = col.k
                    ek = (np.concatenate(col.e_cols, axis=1)
                          if col.e_cols else np.zeros((kc, jc), dtype=dtype))
                    cv = np.concatenate([col.c, v[: jc + 1, :, l].T], axis=1)
                    found = _restart_extract(
                        options, col.u, np.linalg.norm(col.u, axis=0), ek,
                        col.hqr.hessenberg(), cv)
                    if found is not None:
                        u_tilde, qf, s = found
                        col.c = cv @ qf
                        col.u = u_tilde @ s[:kc] + z[:jc, :, l].T @ s[kc:]
                        _tidy_column(l, col, "updated")
        if harvesting and any(col.u is not None for col in cols):
            have_recycle = True

    for l, col in enumerate(cols):
        if col.u is not None and col.u.shape[1] and not pair_exact[l]:
            # adoption boundary: packaged spaces must be exactly orthonormal
            with tr.span("recycle_repair", kind="adoption_boundary",
                         column=l):
                led.event("recycle_repair")
                col.u, col.c = _exact_pair(col.u, col.c, op_apply)
            pair_exact[l] = True
            chk.check_recycle(col.u, col.c, op_apply=op_apply,
                              what=f"packaged recycle space (column {l})")

    spaces = [RecycledSubspace(col.u, col.c, op_tag=a.tag)
              if col.u is not None else None for col in cols]
    out_recycle = PseudoBlockRecycle(spaces, op_tag=a.tag)

    result_x = x[:, 0] if squeeze else x
    name = "pgcrodr" if p > 1 else "gcrodr"
    if options.variant == "flexible":
        name = "f" + name
    info = {"variant": options.variant, "restart": m_restart, "k": k,
            "block_size": p, "recycle": out_recycle,
            "strategy": options.recycle_strategy,
            "same_system": bool(same_system)}
    if not chk.is_off:
        info["verify"] = chk.report()
    return SolveResult(
        x=result_x, converged=converged, iterations=total_it,
        history=history, method=name, restarts=cycles,
        info=info,
    )
