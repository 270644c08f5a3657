"""The recycled pair ``(U_k, C_k)``: its store between solves and its life.

The paper keeps the pair between solves "using a singleton class" (section
III-D); here a picklable holder — :class:`RecycledSubspace`, or one per
column in a :class:`PseudoBlockRecycle` — is threaded through a sequence by
the caller, :class:`repro.api.Solver` or the service's ``SetupCache``.
Within a solve the pair goes through the steps of Fig. 1, one function
each, which the block driver ``gcrodr`` calls on its ``n x p`` block,
``pgcrodr`` once per column and the shifted family on its shared basis:
:func:`adopt` (lines 3-7), :func:`harmonic_basis` + :func:`harvest`
(16-20), :func:`update` (31-38) and :func:`repair` after either.  The
drivers keep their loops, spans, checks and the lines 8-9 projection.
Whether lines 3-7 and 31-38 are skipped for the next operator is
:func:`same_system`'s answer, for the solvers and both front ends alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.linalg as sla

from ..la.orthogonalization import _gram, householder_qr
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import Kernel
from ..util.options import Options
from .deflation import generalized_ritz_vectors, harmonic_ritz_vectors

__all__ = ["RecycledSubspace", "PseudoBlockRecycle", "same_system", "adopt",
           "harmonic_basis", "harvest", "update", "repair"]


@dataclass
class RecycledSubspace:
    """The pair ``(U_k, C_k)`` with ``A U_k = C_k`` and ``C_k^H C_k = I``.

    Its stamp names the operator the pair holds for: ``op_tag`` the
    operator's identity tag (set by the solver), ``fingerprint`` its
    values (set by :class:`repro.api.Solver` and the service).  On any
    other operator the next solve re-orthonormalizes (``[Q,R] = qr(A U_k)``,
    paper lines 4-6); :func:`same_system` decides which.
    """

    u: np.ndarray
    c: np.ndarray
    op_tag: Any = None
    meta: dict[str, Any] = field(default_factory=dict)
    fingerprint: Any = None

    @property
    def k(self) -> int:
        return 0 if self.u is None else self.u.shape[1]

    def copy(self) -> "RecycledSubspace":
        return RecycledSubspace(self.u.copy(), self.c.copy(), self.op_tag,
                                dict(self.meta), self.fingerprint)


@dataclass(eq=False)
class PseudoBlockRecycle:
    """Per-column recycled pairs of a pseudo-block sequence (or ``None``),
    under one stamp (see :class:`RecycledSubspace`)."""

    spaces: list[RecycledSubspace | None]
    op_tag: Any = None
    fingerprint: Any = None

    @property
    def p(self) -> int:
        return len(self.spaces)


def same_system(space: RecycledSubspace | PseudoBlockRecycle | None,
                tag: Any, fingerprint: Any = None, *,
                options: Options) -> bool:
    """Whether ``space``'s pair still holds for the operator with identity
    ``tag`` and value ``fingerprint``: the paper's same-system skip of
    lines 3-7 and 31-38, decided here for every solver and front end.

    In order: no pair is never the same; two known fingerprints that
    differ never are, flag or not (the operator changed, or the pair was
    adopted from a neighbour); ``options.recycle_same_system`` asserts
    sameness where values cannot be compared; equal value fingerprints
    prove it; otherwise the identity tags must match.
    """
    if space is None:
        return False
    stamp = space.fingerprint
    if fingerprint is not None and stamp is not None and stamp != fingerprint:
        return False
    if options.recycle_same_system:
        return True
    if fingerprint is not None and stamp == fingerprint \
            and not fingerprint.opaque:
        return True
    return space.op_tag is not None and space.op_tag == tag


# ---------------------------------------------------------------------------
# the steps of Fig. 1
# ---------------------------------------------------------------------------

def adopt(u_k: np.ndarray, op_apply, tol: float
          ) -> tuple[np.ndarray, np.ndarray]:
    """Lines 3-7: ``(U_k P R^-1, Q)`` from one pivoted Householder QR
    ``A U_k P = Q R`` — one reduction (charged here; the flops are the
    caller's), whatever the scheme.  Under a new operator the space may be
    arbitrarily ill-conditioned, so directions with ``|r_ii| <= tol |r_11|``
    are trimmed (all of them: a 0-wide pair)."""
    au = op_apply(u_k)
    q, rfac, piv = sla.qr(au, mode="economic", pivoting=True)
    ledger.current().reduction(nbytes=u_k.shape[1] ** 2 * au.itemsize)
    d = np.abs(np.diagonal(rfac))
    rank = int(np.count_nonzero(d > tol * max(d[0], 1e-300))) if d.size else 0
    return _project_solve(u_k[:, piv[:rank]], rfac[:rank, :rank]), q[:, :rank]


def harmonic_basis(hbar: np.ndarray, r: np.ndarray, h_last: np.ndarray,
                   p: int, k: int, dtype) -> np.ndarray:
    """Lines 16-17: the harmonic Ritz basis ``P_k`` of a cycle's Hessenberg
    ``hbar`` (eq. (2); ``r`` its triangular factor), in an ``eig`` span."""
    with trace.current().span("eig", kind="harmonic_ritz"):
        return harmonic_ritz_vectors(hbar, r, h_last, p, k, dtype=dtype)


def harvest(hbar: np.ndarray, pk: np.ndarray, v: np.ndarray, z: np.ndarray,
            product) -> tuple[np.ndarray, np.ndarray]:
    """Lines 18-20: ``(U_k, C_k) = (Z s, V qf)`` from ``P_k`` (see
    :func:`_harvest`).  ``product`` forms the two tall products; their
    flops are the caller's to charge."""
    qf, s = _harvest(hbar, pk)
    return product(z, s), product(v, qf)


def update(options: Options, u_k: np.ndarray, dk: np.ndarray, ek: np.ndarray,
           hbar: np.ndarray, cv: np.ndarray, z: np.ndarray,
           product) -> tuple[np.ndarray, np.ndarray] | None:
    """Lines 31-38 (a ``recycle_update`` event): scale ``u_k`` by its column
    norms ``dk`` (one k-float reduction, charged here), extract eq. (3)'s
    deflation basis from ``G_m`` under ``options.recycle_strategy`` and
    return ``(U~ s[:k] + Z s[k:], [C_k V] qf)`` formed with ``product``
    (flops: the caller's), or ``None`` when the extraction kept nothing."""
    ledger.current().event("recycle_update")
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
        pk = generalized_ritz_vectors(gm, w_hat, options.recycle, dtype=dtype)
    if not pk.shape[1]:
        return None
    qf, s = _harvest(gm, pk)
    return product(u_tilde, s[:kc]) + product(z, s[kc:]), product(cv, qf)


def repair(u_k: np.ndarray, c_k: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """The recycled pair after a harvest or update, under every scheme:
    one Householder QR of ``C_k`` (one reduction) that keeps the map,
    ``C = Q R  =>  A (U R^-1) = Q``.  ``A U_k = C_k`` holds to rounding
    whatever the basis's loss of orthogonality (it is the Arnoldi
    relation's), but ``C_k^H C_k`` would inherit that loss and the next
    update's mix of ``[C V]`` would compound it; on a rank-deficient block
    the unrepaired pair diverges.  The QR resets it.  Both come back
    column-major, the basis slab's layout.
    """
    if c_k.shape[1] == 0:
        return u_k, c_k
    q2, rfac = householder_qr(c_k)
    return (np.asfortranarray(_project_solve(u_k, rfac)),
            np.asfortranarray(q2))


# ---------------------------------------------------------------------------
# small-space helpers
# ---------------------------------------------------------------------------

def _exact_pair(u_k: np.ndarray, c_k: np.ndarray, op_apply
                ) -> tuple[np.ndarray, np.ndarray]:
    """Re-derive the pair from the operator: one ``A U_k`` on k columns
    plus a Householder QR, the recipe of lines 3-7, which resets
    ``A U_k = C_k`` and ``C_k^H C_k = I`` to rounding.  The shifted family
    finishes its harvest with it (``krylov/shifted.py``)."""
    if c_k.shape[1] == 0:
        return u_k, c_k
    au = op_apply(u_k)
    q2, r2 = householder_qr(au)      # charges its own flop + reduction
    return _project_solve(u_k, r2), q2


def _harvest(small: np.ndarray, pk: np.ndarray, *, rtol: float = 1e-12
             ) -> tuple[np.ndarray, np.ndarray]:
    """Lines 18-20 / 35-37 in the small space, stably: the pivoted QR of
    ``small @ P_k`` (``small`` is ``\\bar H_m`` or ``G_m``) with dependent
    directions trimmed, so the pair stays well conditioned for nearly
    degenerate Ritz vectors.  Returns ``(qf, s)`` with ``small @ s = qf``
    (to rounding): ``C = [C V] qf``, ``U = [U~ Z] s``."""
    prod = small @ pk
    qf, rf, piv = sla.qr(prod, mode="economic", pivoting=True)
    ledger.current().flop(Kernel.QR, 4.0 * prod.shape[0] * prod.shape[1] ** 2)
    d = np.abs(np.diagonal(rf))
    if d.size == 0 or d[0] == 0.0:
        return prod[:, :0], pk[:, :0]
    rank = int(np.count_nonzero(d > rtol * d[0]))
    return qf[:, :rank], _project_solve(pk[:, piv[:rank]], rf[:rank, :rank])


def _project_solve(pk: np.ndarray, rf: np.ndarray) -> np.ndarray:
    """``P_k R^{-1}`` with a least-squares fallback for singular ``R``."""
    diag = np.abs(np.diagonal(rf))
    if rf.size == 0:
        return pk
    if diag.min() < 1e-14 * max(diag.max(), 1e-300):
        return np.linalg.lstsq(rf.T, pk.T, rcond=None)[0].T
    return sla.solve_triangular(rf.T, pk.T, lower=True).T


def _strategy_w(strategy: str, gm: np.ndarray, cv: np.ndarray,
                u_tilde: np.ndarray) -> np.ndarray:
    """Right factor ``w_hat`` of line 33's ``W = G_m^H w_hat``.  Strategy
    ``B`` is eq. (3b), ``w_hat = [I; 0]``: no communication (section III-C,
    artifact note G).  Strategy ``A`` is eq. (3a): its first ``k`` columns
    are ``[C_k V]^H U_tilde`` (``cv`` the augmented basis), two products
    fused into **one** global reduction."""
    w_hat = np.eye(*gm.shape, dtype=gm.dtype)
    if strategy != "B":
        w_hat[:, :u_tilde.shape[1]] = _gram(cv, u_tilde)   # ONE reduction
    return w_hat

