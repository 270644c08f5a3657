"""(Block, Flexible) GCRO-DR — Krylov subspace recycling, paper Fig. 1.

GCRO-DR(m, k) maintains a k-dimensional recycled subspace ``(U_k, C_k)``
with ``A U_k = C_k`` and ``C_k^H C_k = I`` across restarts *and across
linear solves in a sequence* ``A_i X_i = B_i``.  Each restart cycle runs
``m - k`` steps of (block) GMRES with the projected operator
``(I - C_k C_k^H) A`` and augments the minimization space with ``U_k``.

This is the block driver: its loop, spans and checks and the lines 8-9
projection; the pair's adoption, harvest, update and repair are
:mod:`repro.krylov.recycling`'s, called on the whole block.  Following the
paper:

* **block extension**: everything operates on ``n x p`` blocks, so
  BGCRO-DR falls out of the same code (the recycled space is k *vectors*
  regardless of ``p``);
* **flexible by construction** (FGCRO-DR): under right preconditioning
  the blocks ``Z_j = M(V_j)`` are stored, and ``U_k`` is assembled from
  ``Z`` so it lives in solution space — valid under variable
  preconditioning (Carvalho et al.);
* **eq. (2)**: the harmonic-Ritz left-hand side of the first cycle is
  built from the incrementally computed QR of the block Hessenberg;
* **strategies A / B**: eq. (3a) (one extra fused reduction) or eq. (3b)
  (communication-free) right-hand side for the generalized eigenproblem;
* **one repair**: after every harvest and update, under every scheme,
  ``C_k`` is re-orthonormalized by QR, keeping ``A U_k = C_k``
  through ``U_k R^-1``; the pair is re-derived from the operator only
  when the operator changes (lines 3-7);
* **same-system fast path**: for sequences with an unchanged operator,
  skip the re-orthonormalization of ``U_k`` (lines 3-7) and the recycle
  update at restarts (lines 31-38).
"""

from __future__ import annotations

import numpy as np

from ..la.orthogonalization import _gram, slab_matmul
from ..util.ledger import Kernel
from ..util.misc import column_norms
from ..util.options import Options
from . import recycling
from .base import SolveResult
from .basis import BasisArena
from .recycling import RecycledSubspace
from .restart import RestartedSolve

__all__ = ["gcrodr"]

#: verify=full labels (basis, Arnoldi relation) of each kind of cycle
_CHECK_LABELS = {
    "harvest": ("harvest-cycle basis", "harvest-cycle Arnoldi relation"),
    "gmres_fallback": ("fallback-cycle basis",
                       "fallback-cycle Arnoldi relation"),
    "gcrodr": ("[C_k V] augmented basis", "projected Arnoldi relation"),
}


def gcrodr(a, b, m=None, *, options: Options | None = None,
           x0: np.ndarray | None = None,
           recycle: RecycledSubspace | None = None,
           same_system: bool | None = None) -> SolveResult:
    """Solve ``A X = B`` with (Block/Flexible) GCRO-DR(m, k).

    Parameters
    ----------
    a, b, m, x0:
        as in :func:`repro.krylov.gmres.gmres`.
    options:
        must carry ``recycle = k`` with ``0 < k < gmres_restart``.
    recycle:
        a :class:`RecycledSubspace` from a previous solve in the sequence
        (mutated-by-replacement: the updated space is returned in
        ``result.info["recycle"]``).
    same_system:
        overrides the same-operator detection.  Defaults to
        :func:`repro.krylov.recycling.same_system` on ``A``'s identity tag.
    """
    options = options or Options(krylov_method="gcrodr", recycle=10)
    k = options.recycle
    if k <= 0:
        raise ValueError("GCRO-DR requires options.recycle (k) > 0")
    st = RestartedSolve(a, b, m, options, x0, context="gcrodr")
    n, p, dtype, op_apply = st.n, st.p, st.dtype, st.op_apply
    led, tr, chk = st.led, st.tr, st.chk

    m_restart = options.gmres_restart
    inner_steps = max(m_restart - k, 1)
    # one basis slab for the whole solve, re-bound by every cycle; a
    # supplied space is adopted untrimmed, so it may be wider than k
    k_arena = max(k, recycle.k) if recycle is not None else k
    arena = BasisArena(n, p, k_arena, m_restart, dtype,
                       identity_m=st.identity_m)

    u_k: np.ndarray | None = None
    c_k: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Lines 1-9: adopt a recycled space from the previous solve, if any.
    # ------------------------------------------------------------------
    if recycle is not None and recycle.k > 0:
        # column-major copies, like the basis slab: a product over the pair
        # then reads one contiguous block (krylov/basis.py)
        u_k = np.array(recycle.u, dtype=dtype, order="F")
        c_k = np.array(recycle.c, dtype=dtype, order="F")
        if same_system is None:
            same_system = recycling.same_system(recycle, st.a.tag,
                                                options=options)
        if not same_system:
            # lines 3-7: re-orthonormalize against the *new* operator
            led.flop(Kernel.QR, 4.0 * n * u_k.shape[1] ** 2)
            u_k, c_k = recycling.adopt(u_k, op_apply, options.deflation_tol)
            u_k = np.asfortranarray(u_k)
        if u_k.shape[1]:
            # the recycled identities must hold here whether they were just
            # re-established (lines 3-7) or assumed unchanged (the
            # same-system skip) — the skip is exactly what the checker
            # guards, since a stale/corrupt space fails silently otherwise
            chk.check_recycle(u_k, c_k, op_apply=op_apply,
                              what="adopted recycle space"
                              + (" (same-system skip)" if same_system else ""))
            # lines 8-9: project the initial residual onto the recycled space
            chr0 = _gram(c_k, st.r)
            st.x += slab_matmul(u_k, chr0)
            st.r = st.r - slab_matmul(c_k, chr0)
            led.flop(Kernel.BLAS3, 4.0 * n * u_k.shape[1] * p)
            led.reduction(nbytes=p * 8)
            st.record_residual()
    else:
        # First system of a sequence: Fig. 1's "A_i != A_{i-1}" guard is
        # vacuously true (there is no predecessor), so the recycle space is
        # always refined at restarts, whatever the same-system option says.
        same_system = False

    # ------------------------------------------------------------------
    # Lines 11-39: one loop.  With a space, m-k steps on (I - C C^H) A and
    # the update of lines 31-38; without one, the k = 0 cycle — a full-m
    # (block) GMRES cycle — followed, when it is the solve's first, by the
    # harvest of lines 16-20 (later ones degrade gracefully to plain GMRES).
    # ------------------------------------------------------------------
    while st.running:
        projecting = u_k is not None and u_k.shape[1] > 0
        kind = "gcrodr" if projecting else \
            "harvest" if st.cycles == 0 else "gmres_fallback"
        span = {"kind": kind}
        if projecting:
            span["same_system"] = bool(same_system)
        state = st.cycle(
            arena, inner_steps if projecting else m_restart, span=span,
            what=_CHECK_LABELS[kind],
            pair=(u_k, c_k) if projecting else None)
        if state is None:
            break
        st.restart_residual(
            "harvest-cycle restart" if kind == "harvest"
            else f"GCRO-DR restart {st.cycles}", gap=not state.breakdown)
        if kind == "gmres_fallback" or (projecting and same_system):
            # nothing to refine: the harvest came back empty, or lines 31-38
            # are skipped for a non-variable sequence (same-system fast path)
            continue
        hbar = state.hqr.hessenberg()                # ((j+1)p x jp)
        z = state.z_stack(state.steps)
        if kind == "harvest":
            # lines 16-20: harvest the recycled space
            pk = recycling.harmonic_basis(
                hbar, state.hqr.triangular(),
                state.hqr.last_subdiagonal_block(), p, k, dtype)
            if pk.shape[1]:
                with tr.span("recycle_update", kind="harvest"):
                    u_k, c_k = recycling.harvest(hbar, pk, state.v_stack(), z,
                                                 slab_matmul)
                    led.flop(Kernel.BLAS3,
                             4.0 * n * hbar.shape[0] * c_k.shape[1])
                    u_k, c_k = recycling.repair(u_k, c_k)
                chk.check_recycle(u_k, c_k, op_apply=op_apply,
                                  what="harvested recycle space")
        else:
            # lines 31-38: update the recycled space
            with tr.span("recycle_update", strategy=options.recycle_strategy):
                cv = state.cv_stack()            # [C_k | V], zero-copy
                pair = recycling.update(options, u_k, column_norms(u_k),
                                        state.ek_matrix(), hbar, cv, z,
                                        slab_matmul)
                if pair is not None:
                    u_k, c_k = pair
                    led.flop(Kernel.BLAS3,
                             4.0 * n * cv.shape[1] * c_k.shape[1])
                    u_k, c_k = recycling.repair(u_k, c_k)
                    chk.check_recycle(u_k, c_k, op_apply=op_apply,
                                      what="updated recycle space")

    # package the (possibly updated) recycled space for the next solve
    out_recycle = None
    if u_k is not None and u_k.shape[1]:
        out_recycle = RecycledSubspace(u_k, c_k, op_tag=st.a.tag,
                                       meta={"k": u_k.shape[1]})

    return st.result("gcrodr" if p == 1 else "bgcrodr", {
        "restart": m_restart, "k": k, "block_size": p,
        "recycle": out_recycle, "strategy": options.recycle_strategy,
        "same_system": bool(same_system)})

