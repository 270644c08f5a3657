"""Harmonic-Ritz extraction shared by the recycling methods.

Two eigenproblems appear in GCRO-DR (paper Fig. 1):

* **line 16** (first cycle): the harmonic-Ritz problem ``H z = theta z``
  with the corrected Hessenberg of eq. (2);
* **line 33** (subsequent restarts): the generalized problem
  ``T z = theta W z`` with ``T = G_m^H G_m`` and ``W = G_m^H w_hat``,
  ``w_hat`` from eq. (3a) (strategy A) or eq. (3b) (strategy B) — solved
  as the standard problem ``R^{-1} Q^H w_hat`` of the thin QR
  ``G_m = Q R``; ``T`` is never formed.

Both return an orthonormal basis of the invariant subspace of the ``k``
harmonic Ritz values smallest in magnitude (the paper's choice), read off
one reordered Schur form (:func:`repro.la.dense.invariant_subspace`) and
real for real arithmetic.  ``tests/fixtures/reference_deflation.py`` holds
the Gram + QZ + eigenvector-splitting formulation as the oracle.
"""

from __future__ import annotations

import numpy as np

from ..la.dense import (hessenberg_harmonic_lhs, invariant_subspace,
                        solve_upper_triangular)
from ..util import ledger
from ..util.ledger import Kernel

__all__ = ["harmonic_ritz_vectors", "generalized_ritz_vectors",
           "sketched_harmonic_ritz_vectors",
           "sketched_generalized_ritz_vectors"]


def harmonic_ritz_vectors(hbar: np.ndarray, r_factor: np.ndarray,
                          h_last: np.ndarray, p: int, k: int, *,
                          dtype: np.dtype) -> np.ndarray:
    """Deflation basis for the first GCRO-DR cycle (paper line 16 / eq. 2)."""
    if np.all(np.isfinite(hbar)):
        h = hessenberg_harmonic_lhs(hbar, r_factor, h_last, p)
    else:                       # non-finite: the extraction rejects it
        h = np.full_like(hbar[: hbar.shape[1]], np.nan)
    return invariant_subspace(h, k).astype(dtype, copy=False)


def generalized_ritz_vectors(gm: np.ndarray, w_hat: np.ndarray, k: int, *,
                             dtype: np.dtype) -> np.ndarray:
    """Deflation basis for the restart updates (paper line 33 / eq. 3).

    ``w_hat`` is the *right factor* of eq. (3), ``W = G_m^H w_hat``, as the
    recycle strategy gives it.  With one thin QR ``G_m = Q R`` the pencil
    ``G_m^H G_m z = theta G_m^H w_hat z`` is ``R z = theta Q^H w_hat z``: the
    harmonic values are the reciprocals of the eigenvalues of
    ``R^{-1} Q^H w_hat`` — a standard problem, no Gram, no QZ.  A
    rank-deficient ``G_m`` takes ``solve_upper_triangular``'s least-squares
    fallback and shows up as ``mu = 0``: an infinite, deprioritized ``theta``.
    """
    rows, cols = gm.shape
    if np.all(np.isfinite(gm)) and np.all(np.isfinite(w_hat)):
        led = ledger.current()
        q, r = np.linalg.qr(gm)
        led.flop(Kernel.QR, 4.0 * rows * cols**2 - 4.0 * cols**3 / 3.0)
        b = solve_upper_triangular(r, q.conj().T @ w_hat)
        led.flop(Kernel.BLAS3, 2.0 * rows * cols**2 + 1.0 * cols**3)
    else:                       # non-finite: the extraction rejects it
        b = np.full((cols, cols), np.nan, dtype=gm.dtype)
    return invariant_subspace(b, k, reciprocal=True).astype(dtype, copy=False)


def sketched_harmonic_ritz_vectors(hbar: np.ndarray, t0: np.ndarray, k: int, *,
                                   dtype: np.dtype) -> np.ndarray:
    """Harmonic-Ritz vectors of the *sketched* least-squares problem.

    The sketched Arnoldi basis is only sketch-orthonormal, so the problem
    keeps the basis Gram ``G_V = (S V)^H (S V) = D^H D``, ``D = blockdiag(t0,
    I)`` the engine's whitener (local state, no communication):

    .. math::  \\bar H^H G_V \\bar H \\, g = \\theta \\, \\bar H^H G_V E \\, g

    with ``E`` the leading ``mp`` rows — the pencil of
    :func:`generalized_ritz_vectors` for ``G = D \\bar H`` and right factor
    ``D E``.  An exact sketch (``s = n``) has ``D = I`` and reduces it to
    :func:`harmonic_ritz_vectors`.  No solver calls it: it stays because
    ``benchmarks/e2e/tracing.py`` wraps it by name.
    """
    w0 = t0.shape[0]
    g = np.array(hbar)
    g[:w0] = t0 @ hbar[:w0]
    de = np.eye(*hbar.shape, dtype=hbar.dtype)
    de[:w0, :w0] = t0
    return generalized_ritz_vectors(g, de, k, dtype=dtype)


def sketched_generalized_ritz_vectors(gm: np.ndarray, gcv: np.ndarray,
                                      w_hat: np.ndarray, k: int, *,
                                      dtype: np.dtype) -> np.ndarray:
    """Restart-update Ritz vectors under the sketch inner product.

    ``gcv = (S [C_k | V])^H (S [C_k | V]) = L^H L`` is the sketch Gram of the
    augmented basis: the pencil of :func:`generalized_ritz_vectors` for
    ``L G_m`` and ``L w_hat``.  Reference only — weighting by ``gcv``
    squares the embedding distortion, measured to destabilize the selection
    for ``k`` approaching ``m/2`` — and, like
    :func:`sketched_harmonic_ritz_vectors`, kept because
    ``benchmarks/e2e/tracing.py`` wraps it by name.
    """
    lfac = np.linalg.cholesky(gcv).conj().T
    return generalized_ritz_vectors(lfac @ gm, lfac @ w_hat, k, dtype=dtype)
