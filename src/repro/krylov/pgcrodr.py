"""Pseudo-block GCRO-DR — fused independent recurrences (paper §V-B1).

The pseudo-block idea ("operations for each RHS are fused together"):
every right-hand side keeps its *own* Krylov recurrence, Hessenberg matrix
and recycled pair ``(U_l, C_l)``, but the expensive distributed kernels —
the SpMM, the preconditioner application, the batched inner products —
process all columns at once.  Fig. 8's alternatives 3, 5 and 6 are this
method; :func:`repro.krylov.gmres.gmres` runs the same cycle
(:class:`_PseudoBlockCycle`) with no column carrying a pair — k = 0.

Each column's pair is adopted, harvested, updated and repaired by
:mod:`repro.krylov.recycling`, as the block driver's is.

Cycles run in lockstep: all active columns restart together after
``m - k`` inner steps (or ``m`` during the initial harvest cycle), and
converged columns are frozen.  This is the natural fused organization —
it trades a handful of extra iterations on early-converging columns for
one global synchronization pattern shared by the whole block, which is
the entire point of pseudo-blocking (fewer, fatter messages).
"""

from __future__ import annotations

import numpy as np

from ..la.blockqr import HessenbergQRBundle, column_index
from ..la.orthogonalization import (make_pseudo_block_orthogonalizer,
                                    pseudo_block_tensor)
from ..util.ledger import Kernel
from ..util.misc import column_norms
from ..util.options import Options
from . import recycling
from .base import SolveResult
from .basis import AugmentedTensorArena
from .recycling import PseudoBlockRecycle, RecycledSubspace
from .restart import RestartedSolve

__all__ = ["pgcrodr"]


class _Column:
    """One RHS's private recurrence (its Hessenberg is column ``l`` of the
    cycle's :class:`HessenbergQRBundle`) and, under GCRO-DR, its recycled
    pair ``(U_l, C_l)`` with this cycle's ``C_l^H A Z`` columns."""

    def __init__(self, l: int, dtype):
        self.l = l
        self.dtype = dtype
        self.u: np.ndarray | None = None      # n x k
        self.c: np.ndarray | None = None
        self.e_cols: list[np.ndarray] = []
        self.active = True
        self.steps = 0
        self.chr_prev: np.ndarray | None = None

    @property
    def k(self) -> int:
        return 0 if self.u is None else self.u.shape[1]

    def ek(self) -> np.ndarray:
        """``E_k = C_l^H A Z`` of this cycle (k x steps)."""
        if self.e_cols:
            return np.concatenate(self.e_cols, axis=1)
        return np.zeros((self.k, self.steps), dtype=self.dtype)


class _PseudoBlockCycle:
    """The restart cycle of the fused per-column recurrences.

    One object per solve: :meth:`seed` is a cycle's prologue (residual
    norms, seeds, each column's ``C_l^H r_l``, its ``C_l`` stacked ahead of
    its basis with the seed projected ``C_l``-orthogonal, the
    orthogonalizer, the cycle's one least-squares state ``ls``),
    :meth:`arnoldi` the lockstep loop, :meth:`update` the per-column least
    squares.  A column that carries a pair runs on ``(I - C_l C_l^H) A``,
    projected against ``[C_l | V_l]`` in the scheme's one stacked step
    under every scheme, and its update gains
    Fig. 1 line 28's ``U_l y_l`` term; a column without one runs plain
    GMRES — which is all ``gmres`` ever asks for (k = 0).  ``steps`` is the
    policy's: ``gmres`` passes ``min(m, n)``, ``pgcrodr`` ``m`` or ``m - k``
    clipped to the iteration budget.

    A column whose Hessenberg column or restart residual is non-finite is
    frozen (``st.frozen``) for the rest of the solve, at its last finite
    step: it stops advancing, and the other columns never see it.
    """

    def __init__(self, st: RestartedSolve):
        self.st = st
        self.cols = [_Column(l, st.dtype) for l in range(st.p)]
        self.arena: AugmentedTensorArena | None = None
        self.ls: HessenbergQRBundle | None = None
        self.steps = self.kmax = self.j = 0

    def seed(self, steps: int) -> None:
        st, cols = self.st, self.cols
        options, led = st.options, st.led
        n, p, dtype = st.n, st.p, st.dtype
        beta = column_norms(st.r)
        led.reduction(nbytes=p * 8)
        # every scheme folds each column's C_l into its projection by
        # stacking the (zero-padded) recycle blocks onto the basis tensor:
        # no separate C projection reduction — 2 reductions/step with
        # recycling, like the block engine (cgs2_1r's C cross terms also
        # get two-pass quality)
        carried = [col for col in cols if col.c is not None]
        kmax = max((col.k for col in carried), default=0)
        # one tensor [C | V] per solve: the folded per-step projector is a
        # contiguous prefix view, never a concatenate copy (kmax = 0 with
        # no pair), and a restart re-zeroes only what the previous cycle
        # wrote (frozen columns must read as zero)
        if self.arena is None or kmax != self.kmax \
                or steps >= self.arena.v.shape[0]:
            self.arena = AugmentedTensorArena(kmax, steps, n, p, dtype)
            self.z = self.arena.v if st.identity_m else \
                pseudo_block_tensor(steps, n, p, dtype)
        else:
            self.arena.aug[: kmax + self.j + 2] = 0.0
        self.steps, self.kmax, self.j = steps, kmax, 0
        v = self.v = self.arena.v
        active = ~st.converged & ~st.frozen & (beta > 0)
        v[0][:, active] = st.r[:, active] / beta[active]
        self.ls = HessenbergQRBundle(steps, beta, dtype=dtype)
        for col, on in zip(cols, active.tolist()):
            col.active = on
            col.steps = 0
            col.e_cols = []
            col.chr_prev = None
            if on and col.c is not None:
                col.chr_prev = col.c.conj().T @ st.r[:, col.l]
        if any(col.chr_prev is not None for col in cols):
            led.reduction(nbytes=p * 8)   # fused C^H r across columns
        if carried:
            for col in carried:
                self.arena.ck[: col.k, :, col.l] = col.c.T
            # The folded projector treats [C_l V_l] as one orthonormal basis
            # per column, so each column's v1 must start C_l-orthogonal.
            # C_l^H r only vanishes up to the previous cycle's least-squares
            # roundoff, and that cross term compounds across cycles and
            # same-system solves; one fused projection per cycle caps the
            # seed at rounding (the removed component is O(drift), so the
            # normalization beta is unaffected to first order).
            for col in carried:
                if col.active:
                    v[0, :, col.l] -= col.c @ (col.c.conj().T @ v[0, :, col.l])
            led.flop(Kernel.BLAS3, 4.0 * n * kmax * p)
            led.reduction(nbytes=p * kmax * v.itemsize)
        self.orth = make_pseudo_block_orthogonalizer(
            options.orthogonalization, n=n, p=p, dtype=dtype)

    def arnoldi(self) -> None:
        """Advance every active column in lockstep, up to ``steps`` steps."""
        st, cols, v, z, orth = self.st, self.cols, self.v, self.z, self.orth
        options, tr, history = st.options, st.tr, st.history
        p, dtype, kmax = st.p, st.dtype, self.kmax
        targets = st.targets.tolist()
        j = 0
        while j < self.steps and any(c.active for c in cols) \
                and st.budget > 0:
            with tr.span("arnoldi_step", j=j):
                zj = v[j] if st.identity_m else \
                    np.asarray(st.inner_m(v[j])).astype(dtype, copy=False)
                if not st.identity_m:
                    z[j] = zj
                w = st.op_apply(zj)
                # fused orthogonalization against each column's own basis:
                # the whole bundle advances with the active scheme's
                # reduction count (2 per step for every scheme)
                with tr.span("ortho", scheme=options.orthogonalization):
                    w, dots, nrm = orth.step(self.arena.stacked(j), w,
                                             kmax + j)
                    for col in cols:
                        if col.active and col.c is not None:
                            col.e_cols.append(
                                dots[: col.k, col.l].reshape(-1, 1))
                    dots = dots[kmax:]

                # history: converged/frozen columns keep their last value
                new_res = history.records[-1] * np.where(
                    history.rhs_norms > 0, history.rhs_norms, 1.0)
                # the active columns' Hessenberg columns as one block; a
                # non-finite one freezes its column at step j
                live = [col.l for col in cols if col.active]
                at = column_index(live)
                hcol = np.empty((j + 2, len(live)), dtype=dtype)
                hcol[: j + 1] = dots[:, at]
                hcol[j + 1] = nrm[at]
                if not np.isfinite(hcol).all():
                    finite = np.isfinite(hcol).all(axis=0)
                    for l, ok in zip(live, finite.tolist()):
                        if not ok:
                            st.frozen[l], cols[l].active = True, False
                            del cols[l].e_cols[j:]
                    live = [l for l, ok in zip(live, finite) if ok]
                    at, hcol = column_index(live), hcol[:, finite]
                if live:
                    # an exact (lucky) breakdown leaves the column's Krylov
                    # space invariant: close its Hessenberg and stop it
                    lucky = [x <= 1e-300 for x in nrm[at].tolist()]
                    if any(lucky):
                        hcol[j + 1, lucky] = 0.0
                    grow = column_index(
                        [l for l, lk in zip(live, lucky) if not lk])
                    res = self.ls.add_column(live, hcol)
                    new_res[at] = res
                    v[j + 1][:, grow] = w[:, grow] / nrm[grow]
                    for l, r_l, lk in zip(live, res.tolist(), lucky):
                        cols[l].steps = j + 1
                        cols[l].active = not (lk or r_l <= targets[l])
            history.append(new_res)
            st.total_it += 1
            j = self.j = j + 1

    def update(self, what: tuple[str, str]) -> None:
        """Per-column least squares into ``st.x``, then the ``verify=full``
        checks (``what`` labels those of a column without a pair)."""
        st, chk = self.st, self.st.chk
        ran = [col for col in self.cols if col.steps]
        with st.tr.span("least_squares"):
            for col, y in zip(ran, self.ls.solve([col.l for col in ran])):
                dx = self.z[:col.steps, :, col.l].T @ y
                if col.u is not None:
                    dx = dx + col.u @ (col.chr_prev - col.ek() @ y)
                st.x[:, col.l] += dx
                st.led.flop(Kernel.BLAS2, 2.0 * st.n * col.steps)
        if not chk.wants_full:
            return
        # per-column (projected) Arnoldi relation and orthonormality of
        # [C_l V_l]: each RHS keeps its own recurrence, so each is checked
        # independently; trailing lucky-breakdown zero columns are trimmed
        # inside the checker
        for col in ran:
            jc, l, at = col.steps, col.l, f" (column {col.l})"
            vst = np.ascontiguousarray(self.v[: jc + 1, :, l].T)
            zst = vst[:, :jc] if st.identity_m else \
                np.ascontiguousarray(self.z[:jc, :, l].T)
            basis, ek, labels = vst, None, what
            if col.u is not None:
                basis, ek = np.concatenate([col.c, vst], axis=1), col.ek()
                labels = ("[C V] augmented basis", "projected Arnoldi relation")
            chk.check_orthonormality(basis, what=labels[0] + at)
            chk.check_arnoldi(st.op_apply, zst, vst, self.ls.hessenberg(l),
                              ck=col.c, ek=ek, what=labels[1] + at)


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
    st = RestartedSolve(a, b, m, options, x0, context="pgcrodr")
    p, dtype, op_apply = st.p, st.dtype, st.op_apply
    led, tr, chk = st.led, st.tr, st.chk
    m_restart = options.gmres_restart

    cyc = _PseudoBlockCycle(st)
    cols = cyc.cols

    def _repair_column(col: _Column, pair, what: str) -> None:
        """Give column ``col`` its freshly mixed pair, repaired and checked."""
        col.u, col.c = recycling.repair(*pair)
        chk.check_recycle(col.u, col.c, op_apply=op_apply,
                          what=f"{what} recycle space (column {col.l})")

    # ---- adopt incoming recycled spaces ---------------------------------
    if recycle is not None and recycle.p == p:
        if same_system is None:
            same_system = recycling.same_system(recycle, st.a.tag,
                                                options=options)
        for col, space in zip(cols, recycle.spaces):
            if space is None or space.k == 0:
                continue
            col.u = np.asarray(space.u, dtype=dtype).copy()
            col.c = np.asarray(space.c, dtype=dtype).copy()
            if not same_system:
                # lines 3-7, one column at a time
                u, c = recycling.adopt(col.u, op_apply, options.deflation_tol)
                col.u, col.c = (u, np.ascontiguousarray(c)) if c.shape[1] \
                    else (None, None)
            # re-established or assumed intact (same-system skip), the
            # pair's identities must hold before we project with it
            chk.check_recycle(col.u, col.c, op_apply=op_apply,
                              what=f"adopted recycle space (column {col.l})"
                              + (" (same-system skip)" if same_system else ""))
        # fused init projection: X += U_l C_l^H r_l per column
        led.reduction(nbytes=p * 8)
        for l, col in enumerate(cols):
            if col.u is None:
                continue
            chr0 = col.c.conj().T @ st.r[:, l]
            st.x[:, l] += col.u @ chr0
            st.r[:, l] -= col.c @ chr0
        led.reduction(nbytes=p * 8)
        st.record_residual()
    else:
        same_system = False

    # Cycles run in lockstep; until some column has a pair they are the
    # k = 0 (GMRES) cycles of full length m, each followed by the harvest.
    have_recycle = any(col.u is not None for col in cols)
    while st.running:
        st.cycles += 1
        harvesting = not have_recycle
        steps = m_restart if harvesting else max(m_restart - k, 1)
        cyc.seed(min(steps, max(st.budget, 1)))
        with tr.span("cycle", index=st.cycles - 1,
                     kind="harvest" if harvesting else "pgcrodr",
                     same_system=bool(same_system)):
            cyc.arnoldi()
        cyc.update(("Arnoldi basis", "Arnoldi relation"))
        st.restart_residual(f"PGCRO-DR restart {st.cycles}")  # one fused SpMM

        # ---- recycle harvest / update ------------------------------------
        for l, col in enumerate(cols):
            jc = col.steps
            if jc == 0 or st.frozen[l]:
                continue
            # column l's stacks are views of the basis tensors
            v_l, z_l = cyc.v[: jc + 1, :, l].T, cyc.z[:jc, :, l].T
            if harvesting:
                if jc < 2:
                    continue
                with tr.span("recycle_update", kind="harvest", column=l):
                    hbar = cyc.ls.hessenberg(l)
                    pk = recycling.harmonic_basis(
                        hbar, cyc.ls.triangular(l),
                        cyc.ls.last_subdiagonal_block(l), 1, k, dtype)
                    if pk.shape[1]:
                        _repair_column(col, recycling.harvest(
                            hbar, pk, v_l, z_l, np.matmul), "harvested")
            elif not same_system and col.u is not None:
                with tr.span("recycle_update", column=l,
                             strategy=options.recycle_strategy):
                    pair = recycling.update(
                        options, col.u, np.linalg.norm(col.u, axis=0),
                        col.ek(), cyc.ls.hessenberg(l),
                        np.concatenate([col.c, v_l], axis=1), z_l, np.matmul)
                    if pair is not None:
                        _repair_column(col, pair, "updated")
        if harvesting and any(col.u is not None for col in cols):
            have_recycle = True

    spaces = [RecycledSubspace(col.u, col.c, op_tag=st.a.tag)
              if col.u is not None else None for col in cols]
    return st.result("pgcrodr" if p > 1 else "gcrodr", {
        "restart": m_restart, "k": k, "block_size": p,
        "recycle": PseudoBlockRecycle(spaces, op_tag=st.a.tag),
        "strategy": options.recycle_strategy,
        "same_system": bool(same_system)})
