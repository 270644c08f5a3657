"""Gram + QZ + eigenvector-splitting deflation — oracle for the Schur path.

This is how ``repro.krylov.deflation`` extracted its recycle spaces before
``repro.la.dense.invariant_subspace``: the restart pencil was squared into
``T = G_m^H G_m``, ``W = G_m^H w_hat`` and handed to QZ
(``scipy.linalg.eig(T, W)``) for *all* eigenvectors, the ``k`` selected ones
were split into real and imaginary parts for real arithmetic and the result
re-orthonormalized by a QR.  Uncharged; kept only as the reference the
thin-QR / reordered-Schur extraction must agree with
(``tests/test_deflation.py``, ``bench_micro_kernels.py`` section
``deflation``), together with the pencils both are compared on.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.la.dense import _order, hessenberg_harmonic_lhs


def randn(rng, shape, dtype) -> np.ndarray:
    x = rng.standard_normal(shape)
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def make_pencil(rng, dtype, strategy, *, k=4, j=6, p=2, offdiag=1.0):
    """``(G_m, w_hat)`` built like a GCRO-DR restart: diagonal ``D_k``,
    dense ``E_k``, block-Hessenberg ``H-bar`` (its random part scaled by
    ``offdiag``: deep pencils need < 1 to stay well conditioned, or the
    Gram-squared oracle is the inaccurate side); eq. (3a) or (3b) right
    factor."""
    jp, rows = j * p, k + (j + 1) * p
    hbar = np.zeros((rows - k, jp), dtype=dtype)
    for c in range(j):
        blk = offdiag * randn(rng, ((c + 2) * p, p), dtype)
        blk[c * p:(c + 1) * p] += 4.0 * np.eye(p)
        blk[(c + 1) * p:] = np.triu(blk[(c + 1) * p:]) + np.eye(p)
        hbar[:(c + 2) * p, c * p:(c + 1) * p] = blk
    gm = np.zeros((rows, k + jp), dtype=dtype)
    gm[:k, :k] = np.diag(1.0 / rng.uniform(0.5, 2.0, k))
    gm[:k, k:] = 0.3 * randn(rng, (k, jp), dtype)
    gm[k:, k:] = hbar
    w_hat = np.eye(rows, k + jp, dtype=dtype)
    if strategy == "A":
        # [C V]^H U~: close to [D_k^-1-scaled identity; small], as in a solve
        w_hat[:, :k] = 0.1 * randn(rng, (rows, k), dtype)
        w_hat[:k, :k] += np.eye(k)
    return gm, w_hat


def sorted_pairs(vals: np.ndarray, vecs: np.ndarray, target: str
                 ) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs by closeness to ``target``, non-finite values last."""
    order = _order(vals, target)
    return vals[order], vecs[:, order]


def select_real_subspace(vals: np.ndarray, vecs: np.ndarray, k: int,
                        dtype: np.dtype) -> np.ndarray:
    """Orthonormal basis of the first ``k`` sorted eigenvectors; for a real
    ``dtype`` a conjugate pair contributes its real and imaginary parts —
    only the real part when it is the ``k``-th value (the straddling rule).
    """
    if np.issubdtype(dtype, np.complexfloating):
        p = vecs[:, :k].astype(dtype)
    else:
        cols: list[np.ndarray] = []
        j = 0
        while j < vecs.shape[1] and len(cols) < k:
            v, lam = vecs[:, j], vals[j]
            if abs(lam.imag) <= 1e-12 * max(abs(lam), 1.0) and \
               np.max(np.abs(v.imag)) <= 1e-12 * max(np.max(np.abs(v.real)),
                                                     1e-300):
                cols.append(v.real)
                j += 1
            else:
                cols.append(v.real)
                if len(cols) < k:
                    cols.append(v.imag)
                # conjugate partner (if adjacent) spans the same plane
                j += 2 if j + 1 < vecs.shape[1] and \
                    np.isclose(vals[j + 1], np.conj(lam)) else 1
        if not cols:
            return np.zeros((vecs.shape[0], 0), dtype=dtype)
        p = np.column_stack(cols).astype(dtype)
    q, r = np.linalg.qr(p)
    d = np.abs(np.diagonal(r))
    return q[:, d > 1e-12 * max(d.max(), 1e-300)]


def reference_invariant_subspace(a: np.ndarray, k: int, *,
                                 target: str = "smallest",
                                 reciprocal: bool = False) -> np.ndarray:
    """``invariant_subspace`` through all eigenvectors of ``a``."""
    vals, vecs = np.linalg.eig(a)
    if reciprocal:
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = 1.0 / vals
    vals, vecs = sorted_pairs(vals, vecs, target)
    return select_real_subspace(vals, vecs, min(k, a.shape[0]), a.dtype)


def reference_harmonic_ritz_vectors(hbar, r_factor, h_last, p, k, *, dtype,
                                    target="smallest") -> np.ndarray:
    """First-cycle extraction (eq. 2): ``eig`` of the corrected Hessenberg."""
    h = hessenberg_harmonic_lhs(hbar, r_factor, h_last, p)
    vals, vecs = sorted_pairs(*np.linalg.eig(h), target)
    return select_real_subspace(vals, vecs, min(k, h.shape[0]),
                               np.dtype(dtype))


def reference_generalized_ritz_vectors(gm, w_hat, k, *, dtype,
                                       target="smallest") -> np.ndarray:
    """Restart extraction (eq. 3): QZ on the Gram-squared pencil."""
    t = gm.conj().T @ gm
    w = gm.conj().T @ w_hat
    vals, vecs = sorted_pairs(*sla.eig(t, w), target)
    return select_real_subspace(vals, vecs, min(k, t.shape[0]),
                               np.dtype(dtype))
