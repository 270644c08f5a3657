"""(Block, Flexible) GCRO-DR — Krylov subspace recycling, paper Fig. 1.

GCRO-DR(m, k) maintains a k-dimensional recycled subspace ``(U_k, C_k)``
with ``A U_k = C_k`` and ``C_k^H C_k = I`` across restarts *and across
linear solves in a sequence* ``A_i X_i = B_i``.  Each restart cycle runs
``m - k`` steps of (block) GMRES with the projected operator
``(I - C_k C_k^H) A`` and augments the minimization space with ``U_k``.

Implemented here, following the paper:

* **block extension**: everything operates on ``n x p`` blocks, so
  BGCRO-DR falls out of the same code (the recycled space is k *vectors*
  regardless of ``p``);
* **flexible variant** (FGCRO-DR): basis blocks ``Z_j = M(V_j)`` are
  stored, and ``U_k`` is assembled from ``Z`` so it lives in solution
  space — valid under variable preconditioning (Carvalho et al.);
* **eq. (2)**: the harmonic-Ritz left-hand side of the first cycle is
  built from the incrementally computed QR of the block Hessenberg;
* **strategies A / B**: eq. (3a) (one extra fused reduction) or eq. (3b)
  (communication-free) right-hand side for the generalized eigenproblem;
* **same-system fast path**: for sequences with an unchanged operator,
  skip the re-orthonormalization of ``U_k`` (lines 3-7) and the recycle
  update at restarts (lines 31-38).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..la.orthogonalization import (LOW_SYNC_SCHEMES, SCHEMES, _gram,
                                    apply_sketch, cholqr2, householder_qr,
                                    sketch_size, slab_matmul)
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import column_norms
from ..util.options import Options
from .base import SolveResult
from .basis import BasisArena
from .deflation import generalized_ritz_vectors, harmonic_ritz_vectors
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


def _harvest(small: np.ndarray, pk: np.ndarray, *, rtol: float = 1e-12
             ) -> tuple[np.ndarray, np.ndarray]:
    """Stable version of paper lines 18-20 / 35-37 in the small space.

    Given the small matrix (``\\bar H_m`` or ``G_m``) and the selected
    eigenvector basis ``P_k``, compute the column-pivoted QR of
    ``small @ P_k`` and trim numerically dependent directions, so the new
    recycled pair stays well conditioned even when the Ritz vectors are
    nearly degenerate.

    Returns ``(qf, s)`` such that the caller forms ``C_new = [C V] @ qf``
    and ``U_new = [U~ Z] @ s`` with ``small @ s = qf`` exactly (to rounding).
    """
    prod = small @ pk
    qf, rf, piv = sla.qr(prod, mode="economic", pivoting=True)
    ledger.current().flop(Kernel.QR, 4.0 * prod.shape[0] * prod.shape[1] ** 2)
    d = np.abs(np.diagonal(rf))
    if d.size == 0 or d[0] == 0.0:
        return prod[:, :0], pk[:, :0]
    rank = int(np.count_nonzero(d > rtol * d[0]))
    qf = qf[:, :rank]
    s = _project_solve(pk[:, piv[:rank]], rf[:rank, :rank])
    return qf, s


def sketch_drift(sc: np.ndarray) -> float:
    """Scaled orthonormality drift ``||sc^H sc - I|| / sqrt(k)`` (local)."""
    k = sc.shape[1]
    if k == 0:
        return 0.0
    g = sc.conj().T @ sc
    return float(np.linalg.norm(g - np.eye(k, dtype=g.dtype)) / np.sqrt(k))


def sketch_drift_probe(c_k: np.ndarray, *, seed: int = 0) -> float:
    """One-reduction sketch-space estimate of the drift of a *full* basis.

    Used by the drift-gated :func:`_tidy_pair`: for inexact schemes the
    exact full-space repair (operator application + distributed QR) is
    skipped whenever this estimate stays below the scheme's registry
    tolerance.  Cost: the single reduction assembling the ``s x k`` sketch.
    """
    n, k = c_k.shape
    if k == 0:
        return 0.0
    s = sketch_size(n, max(k, 1))
    ledger.current().reduction(nbytes=s * k * c_k.itemsize)
    return sketch_drift(apply_sketch(c_k, s, seed=seed))


def _exact_pair(u_k: np.ndarray, c_k: np.ndarray, op_apply
                ) -> tuple[np.ndarray, np.ndarray]:
    """Re-establish ``A U_k = C_k`` and ``C_k^H C_k = I`` exactly.

    Schemes whose Krylov basis is only approximately (or sketch-)
    orthonormal assemble a recycled pair whose identities inherit the basis
    drift — and that drift *compounds* across restarts, because the next
    update's small-space solve amplifies whatever error ``A U_k - C_k``
    carries in.  Re-deriving the pair from the operator (one extra
    ``A U_k`` on k columns plus a Householder QR, exactly the paper's
    lines 3-7 recipe) resets both invariants to rounding level every time,
    so the recycle checks stay as tight as under the exact schemes.
    """
    if c_k.shape[1] == 0:
        return u_k, c_k
    au = op_apply(u_k)
    q2, r2 = householder_qr(au)      # charges its own flop + reduction
    return _project_solve(u_k, r2), q2


def _tidy_pair(u_k: np.ndarray, c_k: np.ndarray, op_apply, scheme: str
               ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Scheme-dependent recycled-pair repair after a harvest or update.

    Inexact-basis schemes used to take the full operator re-derivation
    (:func:`_exact_pair`) unconditionally; now the repair is *drift-gated*:
    a one-reduction sketch-space probe estimates ``||C^H C - I||/sqrt(k)``
    and the expensive re-derivation only runs (under a ``recycle_repair``
    trace span) when the estimate exceeds the scheme's registry ceiling.
    ``cgs2_1r`` keeps an exact basis but is held to a *tighter*
    orthonormality ceiling than restart-compounded ``C_k^H C_k`` drift
    allows (the update path mixes ``[C V]`` and amplifies incoming error
    geometrically), so one QR of ``C_k`` resets its orthonormality while
    preserving ``A U_k = C_k`` exactly: ``C = Q2 R  =>  A (U R^-1) = Q2``.
    The exact single/two-pass schemes are left alone — their looser
    ceiling absorbs the drift, matching historical behavior.

    Returns ``(u, c, exact)``: ``exact=False`` means the gate skipped the
    repair, so the caller owes one :func:`_exact_pair` at the solve's
    adoption boundary before packaging the space.
    """
    info = SCHEMES[scheme]
    if not info.exact_basis:
        if c_k.shape[1] == 0:
            return u_k, c_k, True
        drift = sketch_drift_probe(c_k)
        if drift <= info.orth_tol:
            return u_k, c_k, False
        with trace.current().span("recycle_repair", kind="drift"):
            ledger.current().event("recycle_repair")
            u2, c2 = _exact_pair(u_k, c_k, op_apply)
        return u2, c2, True
    if scheme in LOW_SYNC_SCHEMES and c_k.shape[1]:
        q2, rfac = householder_qr(c_k)
        return _project_solve(u_k, rfac), q2, True
    return u_k, c_k, True


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
        ``options.recycle_same_system or recycle.matches_operator(A)``.
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
    # False once the drift gate deferred the pair's repair (_tidy_pair)
    pair_exact = True

    # ------------------------------------------------------------------
    # Lines 1-9: adopt a recycled space from the previous solve, if any.
    # ------------------------------------------------------------------
    if recycle is not None and recycle.k > 0:
        u_k = np.asarray(recycle.u, dtype=dtype).copy()
        c_k = np.asarray(recycle.c, dtype=dtype).copy()
        if same_system is None:
            same_system = options.recycle_same_system \
                or recycle.matches_operator(st.a.tag)
        if not same_system:
            # lines 3-7: re-orthonormalize against the *new* operator.
            # Low-synchronization schemes route this through CholQR2
            # (BLAS-3, two reductions, shift-protected first pass); on a
            # (near-)deficient block they fall back — like the legacy
            # schemes always do — to pivoted Householder QR
            # (TSQR-equivalent communication: one reduction), because the
            # recycled space may be arbitrarily ill-conditioned under the
            # new operator and plain CholQR would square that conditioning.
            au = op_apply(u_k)
            adopted = False
            if options.orthogonalization in LOW_SYNC_SCHEMES and u_k.shape[1]:
                try:
                    q, rfac = cholqr2(au)
                except np.linalg.LinAlgError:
                    q = None
                if q is not None:
                    d = np.abs(np.diagonal(rfac))
                    if d.size and np.all(
                            d > options.deflation_tol * max(d.max(), 1e-300)):
                        c_k = q
                        u_k = _project_solve(u_k, rfac)
                        adopted = True
            if not adopted:
                q, rfac, piv = sla.qr(au, mode="economic", pivoting=True)
                led.flop(Kernel.QR, 4.0 * n * u_k.shape[1] ** 2)
                led.reduction(nbytes=u_k.shape[1] ** 2 * au.itemsize)
                d = np.abs(np.diagonal(rfac))
                rank = int(np.count_nonzero(
                    d > options.deflation_tol * max(d[0], 1e-300))) \
                    if d.size else 0
                if rank == 0:
                    u_k = np.zeros((n, 0), dtype=dtype)
                    c_k = np.zeros((n, 0), dtype=dtype)
                else:
                    c_k = np.ascontiguousarray(q[:, :rank])
                    u_k = _project_solve(u_k[:, piv[:rank]], rfac[:rank, :rank])
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
            with tr.span("eig", kind="harmonic_ritz"):
                pk = harmonic_ritz_vectors(
                    hbar, state.hqr.triangular(),
                    state.hqr.last_subdiagonal_block(),
                    p, k, dtype=dtype, target=options.recycle_target)
            if pk.shape[1]:
                with tr.span("recycle_update", kind="harvest"):
                    qf, s = _harvest(hbar, pk)
                    vstack = state.v_stack()
                    c_k = slab_matmul(vstack, qf)
                    u_k = slab_matmul(z, s)
                    led.flop(Kernel.BLAS3,
                             4.0 * n * vstack.shape[1] * qf.shape[1])
                    u_k, c_k, pair_exact = _tidy_pair(
                        u_k, c_k, op_apply, options.orthogonalization)
                chk.check_recycle(u_k, c_k, op_apply=op_apply,
                                  what="harvested recycle space")
        else:
            # lines 31-38: update the recycled space
            with tr.span("recycle_update", strategy=options.recycle_strategy):
                led.event("recycle_update")
                k_cur = u_k.shape[1]
                cv = state.cv_stack()            # [C_k | V], zero-copy
                # lines 32-35
                found = _restart_extract(options, u_k, column_norms(u_k),
                                         state.ek_matrix(), hbar, cv)
                if found is not None:
                    u_tilde, qf, s = found
                    c_k = slab_matmul(cv, qf)    # line 36
                    u_k = slab_matmul(u_tilde, s[:k_cur]) \
                        + slab_matmul(z, s[k_cur:])           # line 37
                    led.flop(Kernel.BLAS3,
                             4.0 * n * cv.shape[1] * qf.shape[1])
                    u_k, c_k, pair_exact = _tidy_pair(
                        u_k, c_k, op_apply, options.orthogonalization)
                    chk.check_recycle(u_k, c_k, op_apply=op_apply,
                                      what="updated recycle space")

    # package the (possibly updated) recycled space for the next solve
    out_recycle = None
    if u_k is not None and u_k.shape[1]:
        if not pair_exact:
            # adoption boundary: consumers of a packaged RecycledSubspace
            # (the next solve's adoption fast path, the setup cache) expect
            # an exactly orthonormal pair — run the deferred repair once
            with tr.span("recycle_repair", kind="adoption_boundary"):
                led.event("recycle_repair")
                u_k, c_k = _exact_pair(u_k, c_k, op_apply)
            chk.check_recycle(u_k, c_k, op_apply=op_apply,
                              what="packaged recycle space")
        out_recycle = RecycledSubspace(u_k, c_k, op_tag=st.a.tag,
                                       meta={"variant": options.variant,
                                             "k": u_k.shape[1]})

    name = "gcrodr" if p == 1 else "bgcrodr"
    if options.variant == "flexible":
        name = "f" + name
    return st.result(name, {
        "restart": m_restart, "k": k, "block_size": p,
        "recycle": out_recycle, "strategy": options.recycle_strategy,
        "same_system": bool(same_system)})


def _project_solve(pk: np.ndarray, rf: np.ndarray) -> np.ndarray:
    """``P_k R^{-1}`` with a least-squares fallback for singular ``R``."""
    diag = np.abs(np.diagonal(rf))
    if rf.size == 0:
        return pk
    if diag.min() < 1e-14 * max(diag.max(), 1e-300):
        return np.linalg.lstsq(rf.T, pk.T, rcond=None)[0].T
    return sla.solve_triangular(rf.T, pk.T, lower=True).T


def _restart_extract(options: Options, u_k: np.ndarray, dk: np.ndarray,
                     ek: np.ndarray, hbar: np.ndarray, cv: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Paper lines 32-35 in the small space, shared with ``pgcrodr``.

    Scales ``u_k`` by its column norms ``dk`` (one k-float reduction, O(1)
    in m, charged here), assembles ``G_m``, extracts the deflation basis of
    eq. (3) and harvests it: ``(u_tilde, qf, s)`` for ``C = [C_k V] qf`` and
    ``U = U~ s[:k] + Z s[k:]`` (lines 36-37), or ``None`` when the extraction
    kept nothing and the previous pair stays.
    """
    kc, dtype = u_k.shape[1], u_k.dtype
    ledger.current().reduction(nbytes=kc * 8)
    dk_safe = np.where(dk > 0, dk, 1.0)
    u_tilde = u_k / dk_safe
    gm = np.zeros((kc + hbar.shape[0], kc + hbar.shape[1]), dtype=dtype)
    gm[:kc, :kc] = np.diag((1.0 / dk_safe).astype(dtype))
    gm[:kc, kc:] = ek
    gm[kc:, kc:] = hbar
    w_hat = _strategy_w(options.recycle_strategy, gm, cv, u_tilde)
    with trace.current().span("eig", kind="generalized_ritz"):
        pk = generalized_ritz_vectors(gm, w_hat, options.recycle, dtype=dtype,
                                      target=options.recycle_target)
    return (u_tilde, *_harvest(gm, pk)) if pk.shape[1] else None


def _strategy_w(strategy: str, gm: np.ndarray, cv: np.ndarray,
                u_tilde: np.ndarray) -> np.ndarray:
    """Right factor ``w_hat`` of line 33's ``W = G_m^H w_hat``.

    Strategy ``B`` is eq. (3b): ``w_hat = [I; 0]`` — no communication at
    all (section III-C / artifact description note G).  Strategy ``A`` is
    eq. (3a): its first ``k`` columns are ``[C_k V]^H U_tilde`` (``cv`` is
    the augmented basis) — two matrix-matrix products fused into **one**
    global reduction.
    """
    w_hat = np.eye(*gm.shape, dtype=gm.dtype)
    if strategy != "B":
        w_hat[:, :u_tilde.shape[1]] = _gram(cv, u_tilde)   # ONE reduction
    return w_hat
