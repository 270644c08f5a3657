"""Chebyshev iteration — the *linear* multigrid smoother.

PETSc's GAMG defaults to Chebyshev smoothing; because the iteration is a
fixed polynomial in ``A`` it is a **linear** operator, so the multigrid
cycles stay linear and plain right-preconditioned GCRO-DR applies (the
paper's Fig. 3c/d experiment, as opposed to the CG-smoothed flexible one).

The eigenvalue bounds follow the usual GAMG recipe: estimate
``lambda_max(D^{-1} A)`` with a few power iterations, then smooth on the
interval ``[lambda_max / ratio, 1.1 * lambda_max]``.
"""

from __future__ import annotations

import numpy as np

from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import as_block, default_rng
from .base import Operator, Preconditioner, as_operator

__all__ = ["estimate_lambda_max", "ChebyshevSmoother", "chebyshev_iteration",
           "chebyshev_smooth", "safe_reciprocal"]


def estimate_lambda_max(a: Operator, diag: np.ndarray, *, iterations: int = 10,
                        seed: int = 1234) -> float:
    """Power-iteration estimate of the largest eigenvalue of ``D^{-1} A``."""
    n = a.shape[0]
    rng = default_rng(seed)
    v = rng.standard_normal(n)
    if np.issubdtype(a.dtype, np.complexfloating):
        v = v + 1j * rng.standard_normal(n)
    v = v.astype(a.dtype if np.issubdtype(a.dtype, np.floating) or
                 np.issubdtype(a.dtype, np.complexfloating) else np.float64)
    v /= np.linalg.norm(v)
    dinv = safe_reciprocal(diag)
    lam = 1.0
    for _ in range(iterations):
        w = dinv[:, None] * a.matmat(v.reshape(-1, 1))
        w = w[:, 0]
        nrm = np.linalg.norm(w)
        ledger.current().reduction()
        if nrm == 0:
            break
        lam = float(abs(np.vdot(v, w)))
        v = w / nrm
    return max(lam, 1e-12)


def safe_reciprocal(diag: np.ndarray) -> np.ndarray:
    """``1 / diag`` with zero entries treated as one (Jacobi scaling)."""
    return 1.0 / np.where(np.abs(diag) > 0, diag, 1.0)


def chebyshev_smooth(a: Operator, dinv: np.ndarray, b: np.ndarray,
                     x: np.ndarray | None, r: np.ndarray, d: np.ndarray,
                     *, degree: int, lam_min: float, lam_max: float
                     ) -> np.ndarray:
    """The Chebyshev recurrence on ``D^{-1}A x = D^{-1}b``, in place.

    Smooths ``x`` — the caller must own it; ``None`` is the zero start and
    returns a fresh block — through ``out=`` ufuncs on the scratch blocks
    ``r``, ``d`` (shaped like ``b``); ``dinv`` broadcasts against ``b``.
    Stops at the last update of ``x``: the ``r``/``d`` update (one more
    ``A d``) the textbook loop runs after it feeds nothing.
    """
    if degree <= 0:
        return np.zeros_like(r) if x is None else x
    theta = 0.5 * (lam_max + lam_min)
    delta = 0.5 * (lam_max - lam_min)
    if delta <= 0:
        delta = 0.5 * theta if theta > 0 else 1.0
    sigma1 = theta / delta
    rho = 1.0 / sigma1
    if x is None:
        np.multiply(dinv, b, out=r)
    else:
        t = a.matmat(x)
        np.subtract(b, t, out=t)
        np.multiply(dinv, t, out=r)
    np.divide(r, theta, out=d)
    # 0 + d, not a copy: a -0.0 in d becomes the +0.0 that zeros + d gives
    x = d + 0.0 if x is None else np.add(x, d, out=x)
    for _ in range(degree - 1):
        t = a.matmat(d)
        np.multiply(dinv, t, out=t)
        np.subtract(r, t, out=r)
        rho_new = 1.0 / (2.0 * sigma1 - rho)
        np.multiply(d, rho_new * rho, out=d)
        np.multiply(r, 2.0 * rho_new / delta, out=t)
        np.add(d, t, out=d)
        rho = rho_new
        np.add(x, d, out=x)
    # one axpy per update of x, three more per update of r and d
    ledger.current().flop(Kernel.BLAS1, (4.0 * degree - 3.0) * b.size)
    return x


def chebyshev_iteration(a: Operator, diag: np.ndarray, b: np.ndarray,
                        *, degree: int, lam_min: float, lam_max: float,
                        x0: np.ndarray | None = None) -> np.ndarray:
    """Run ``degree`` Chebyshev iterations on ``D^{-1}A x = D^{-1}b``.

    Standard three-term recurrence on the interval ``[lam_min, lam_max]``;
    returns the smoothed iterate as a new block (``x0`` is never written).
    """
    b = as_block(b)
    dinv = safe_reciprocal(diag)[:, None]
    r, d = np.empty((2,) + b.shape, dtype=np.result_type(dinv, b))
    x = None if x0 is None else as_block(x0).astype(r.dtype, copy=True)
    return chebyshev_smooth(a, dinv, b, x, r, d, degree=degree,
                            lam_min=lam_min, lam_max=lam_max)


class ChebyshevSmoother(Preconditioner):
    """Chebyshev polynomial preconditioner ``M^{-1} ~ p(A)``.

    ``is_variable`` is False: applying a fixed polynomial of ``A`` is a
    linear operation, so left-preconditioned outer Krylov methods remain
    valid too.
    """

    is_variable = False

    def __init__(self, a, *, degree: int = 2, eig_ratio: float = 10.0,
                 lam_max: float | None = None):
        self.a = as_operator(a)
        self.degree = int(degree)
        self.diag = self.a.diagonal()
        if lam_max is None:
            lam_max = estimate_lambda_max(self.a, self.diag)
        self.lam_max = 1.1 * lam_max
        self.lam_min = self.lam_max / eig_ratio

    def apply(self, x: np.ndarray) -> np.ndarray:
        return chebyshev_iteration(self.a, self.diag, x, degree=self.degree,
                                   lam_min=self.lam_min, lam_max=self.lam_max)
