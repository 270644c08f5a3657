"""Small dense helpers shared by the Krylov layer.

All of these run redundantly on every (virtual) rank: they never touch
distributed data and therefore never communicate.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..util import ledger
from ..util.ledger import Kernel

__all__ = [
    "sorted_eig",
    "sorted_generalized_eig",
    "invariant_subspace",
    "solve_upper_triangular",
    "hessenberg_harmonic_lhs",
]


def _sort_key(values: np.ndarray, target: str) -> np.ndarray:
    if target == "smallest":
        return np.argsort(np.abs(values))
    if target == "largest":
        return np.argsort(-np.abs(values))
    if target == "smallest_real":
        return np.argsort(values.real)
    if target == "largest_real":
        return np.argsort(-values.real)
    raise ValueError(f"unknown eigenvalue target {target!r}")


def _order(vals: np.ndarray, target: str) -> np.ndarray:
    """Positions of ``vals`` by closeness to ``target``, non-finite last."""
    bad = ~np.isfinite(vals)
    return _sort_key(
        np.where(bad, np.inf if target.startswith("smallest") else 0.0, vals),
        target)


def sorted_eig(a: np.ndarray, k: int, *, target: str = "smallest"
               ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a small dense matrix, the ``k`` closest to ``target``.

    Infinite/NaN eigenvalues go last.  Reference only: the solvers extract
    their deflation spaces with :func:`invariant_subspace`.
    """
    vals, vecs = np.linalg.eig(a)
    ledger.current().flop(Kernel.EIG, 25.0 * a.shape[0] ** 3)
    order = _order(vals, target)[: k]
    return vals[order], vecs[:, order]


def sorted_generalized_eig(t: np.ndarray, w: np.ndarray, k: int, *,
                           target: str = "smallest"
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Generalized eigenpairs ``T z = theta W z`` by QZ (reference only).

    Handles infinite eigenvalues from singular ``W`` by deprioritizing
    them; returns the ``k`` eigenpairs closest to the requested target.
    """
    vals, vecs = sla.eig(t, w)
    ledger.current().flop(Kernel.EIG, 50.0 * t.shape[0] ** 3)
    order = _order(vals, target)[: k]
    return vals[order], vecs[:, order]


def invariant_subspace(a: np.ndarray, k: int, *, target: str = "smallest",
                       reciprocal: bool = False) -> np.ndarray:
    """Orthonormal basis of the invariant subspace of ``a`` for the ``k``
    eigenvalues closest to ``target`` — the one deflation extraction behind
    paper lines 16 and 33 (GMRES-DR's restart is line 16's harvest).

    One (real or complex) Schur form; LAPACK ``trsen`` moves the selected
    values to the front and the leading Schur vectors *are* the basis (real
    for real ``a``, no eigenvectors formed).  ``reciprocal`` orders the values
    as ``theta = 1 / mu``; non-finite ones (``mu = 0``) go last.  For real
    ``a``, a conjugate pair of which only one half is among the ``k`` selected
    contributes the real part of its eigenvector.

    Never raises on behalf of a solve: non-finite input or a LAPACK failure
    (``gees`` not converged, ``trsen`` swap too ill-conditioned) returns a
    zero-column basis and records a ``deflation_rejected`` ledger event.
    """
    n = a.shape[0]
    k = min(k, n)
    led = ledger.current()
    if k <= 0:
        return np.zeros((n, 0), dtype=a.dtype)
    info = not np.all(np.isfinite(a))
    if not info:
        gees, trsen = sla.get_lapack_funcs(("gees", "trsen"), (a,))
        unsorted = lambda *_: None      # gees' select callback, never called
        lwork = int(gees(unsorted, a, lwork=-1)[-2][0].real)  # ~10 % faster
        t, _, *mu, z, _, info = gees(unsorted, a, lwork=lwork)
        led.flop(Kernel.EIG, 25.0 * n ** 3)
    if not info:
        # real Schur form: a 2x2 diagonal block is a conjugate pair (wi != 0)
        wi = mu[1] if len(mu) == 2 else np.zeros(n)
        vals = mu[0] + 1j * mu[1] if len(mu) == 2 else mu[0]
        if reciprocal:
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = 1.0 / vals
        select = np.zeros(n, dtype=np.int32)
        taken, pair = 0, None
        for i in _order(vals, target):
            if taken == k:
                break
            if not select[i]:
                lo, width = i - (wi[i] < 0.0), 1 + (wi[i] != 0.0)
                if taken + width > k:   # the k-th value is half of this pair
                    pair = lo
                    break
                select[lo:lo + width] = 1
                taken += width
        if pair is not None:
            # pair to the top first: the second reorder then leaves it right
            # behind the k-1 whole values (unselected blocks keep their order)
            alone = np.zeros(n, dtype=np.int32)
            alone[pair] = 1
            t, z, *_, info = trsen(alone, t, z, job="N")
            select = np.concatenate([[0, 0], select[:pair], select[pair + 2:]])
    if not info:
        t, z, *_, info = trsen(select, t, z, job="N")
    if info:
        led.event("deflation_rejected")
        return np.zeros((n, 0), dtype=a.dtype)
    out = np.array(z[:, :k], order="C")
    if pair is not None:
        # the pair's plane is z[:, k-1:k+1]; keep the real part of the
        # eigenvector of its 2x2 block (geev scaling: larger component real)
        c = np.linalg.eig(t[k - 1:k + 1, k - 1:k + 1])[1][:, 0].real
        out[:, k - 1] = z[:, k - 1:k + 1] @ (c / np.linalg.norm(c))
    return out


def solve_upper_triangular(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Robust upper-triangular solve with a least-squares fallback."""
    diag = np.abs(np.diagonal(r))
    scale = diag.max(initial=0.0)
    if r.size == 0:
        return np.zeros((0,) + b.shape[1:], dtype=np.promote_types(r.dtype, b.dtype))
    if scale == 0.0 or diag.min() < 1e-14 * scale:
        return np.linalg.lstsq(r, b, rcond=None)[0]
    return sla.solve_triangular(r, b, lower=False)


def hessenberg_harmonic_lhs(hbar: np.ndarray, r_factor: np.ndarray,
                            h_last: np.ndarray, p: int) -> np.ndarray:
    """Left-hand side of the harmonic-Ritz eigenproblem, eq. (2) of the paper.

    .. math::

        H = H_m + (QR)^{-H}
            \\begin{bmatrix} 0 & 0 \\\\ 0 & h_{m+1,m}^H h_{m+1,m} \\end{bmatrix}

    where ``QR`` is the incrementally computed QR of ``\\bar H_m``; using the
    triangular factor makes the correction a pair of triangular solves
    instead of the dense inverse used by Belos (``H_m^{-H}``).

    Parameters
    ----------
    hbar:
        the (m+1)p x mp block Hessenberg.
    r_factor:
        the mp x mp triangular factor of ``\\bar H_m`` from
        :class:`~repro.la.blockqr.BlockHessenbergQR`.  Accepted for API
        symmetry with the paper's formulation (which evaluates the
        correction through the incremental QR factors); this
        implementation solves the equivalent small adjoint system with
        ``H_m`` directly, which is just as cheap at these sizes and
        immune to an ill-conditioned ``R``.  May be ``None``.
    h_last:
        the trailing subdiagonal block ``h_{m+1,m}`` (p x p).
    p:
        block width.
    """
    mp = hbar.shape[1]
    hm = hbar[:mp, :]
    # only the last p columns of the correction are nonzero: solve for those
    # (H_m^{-H} X = (QR)^{-H} X in exact arithmetic; see ``r_factor`` above)
    corr_rhs = np.zeros((mp, p), dtype=hbar.dtype)
    corr_rhs[-p:, :] = h_last.conj().T @ h_last
    led = ledger.current()
    led.flop(Kernel.BLAS2, 2.0 * mp * mp * p)
    try:
        corr = np.linalg.solve(hm.conj().T, corr_rhs)
    except np.linalg.LinAlgError:
        corr = np.linalg.lstsq(hm.conj().T, corr_rhs, rcond=None)[0]
    h = np.array(hm, copy=True)
    h[:, -p:] += corr
    return h
