"""Incremental QR factorization of the (block) Hessenberg matrix.

The paper's eq. (2) prefers the harmonic-Ritz left-hand side built from the
*incrementally maintained* QR factors of the block Hessenberg matrix —
"our implementation of (Block) GMRES computes the QR factorization of
``H_m`` incrementally, i.e. p column(s) of Q and R are determined per
iteration".  This module is that machinery.

For ``p = 1`` the update *is* the classic Givens-rotation sweep of GMRES —
stored ``(c, s)`` pairs (real ``c``, complex-safe ``s``), scalar arithmetic
(:func:`_givens_column`).  For ``p > 1`` each step applies the stored
``2p x 2p`` unitary factors to the new block column and triangularizes the
trailing ``2p x p`` panel with a dense QR ("block Givens").  Both charge the
block formula; ``R`` is unique up to a unitary diagonal, which eq. (2)
(``R^H R``) cannot see.  All of this is *redundant* work replicated on every
(virtual) rank — no communication.  The all-panel update and the explicit
``Q`` products (``apply_qh``, ``apply_q``, ``q_matrix``) are the oracle
``tests/fixtures/reference_hessenberg.py``.

A pseudo-block cycle runs ``p`` independent ``p = 1`` factorizations in
lockstep: :class:`HessenbergQRBundle` holds them as one ``(p, m+1, m)``
Hessenberg, one triangular factor and one ``(p, m+1)`` right-hand side, and
advances every active column with one call per step.  Each column's sweep
is the same scalar :func:`_givens_column`, so a column of the bundle is, bit
for bit, a ``BlockHessenbergQR(p = 1)`` fed the same Hessenberg columns.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import column_norms
from .dense import solve_upper_triangular

__all__ = ["BlockHessenbergQR", "HessenbergQRBundle", "column_index"]


def column_index(cols: list[int]) -> slice | list[int]:
    """An index for the ascending columns ``cols``: a slice when they are
    contiguous (a view, and far cheaper than a fancy index), else ``cols``."""
    if cols and cols[-1] - cols[0] == len(cols) - 1:
        return slice(cols[0], cols[-1] + 1)
    return cols


def _givens_column(col: list, rotations: list, j: int) -> tuple:
    """One ``p = 1`` step: apply the stored rotations ``[[c, s], [-conj(s),
    c]]`` to the new Hessenberg column ``col`` (``j + 2`` Python scalars, in
    place), then append and return the ``(c, s)`` that annihilates
    ``col[j + 1]`` — ``col[j]`` becomes the diagonal of ``R``."""
    for i, (c, s) in enumerate(rotations):
        col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                              c * col[i + 1] - s.conjugate() * col[i])
    top, low = col[j], col[j + 1]
    c, s = 1.0, 0.0
    if low != 0:
        norm = math.hypot(abs(top), abs(low))
        phase = top / abs(top) if top != 0 else 1.0
        c, s = abs(top) / norm, phase * low.conjugate() / norm
        col[j] = phase * norm
    rotations.append((c, s))
    return c, s


class BlockHessenbergQR:
    """Maintains ``Q^H H_j = [R_j; 0]`` and ``g = Q^H [S1; 0]`` incrementally.

    Parameters
    ----------
    max_cols:
        maximum number of block columns (the restart parameter ``m``).
    p:
        block width (number of fused right-hand sides).
    rhs0:
        the initial ``p x q`` block ``S1`` from the QR of the starting
        residual (paper line 11/24); for single-RHS GMRES this is the
        scalar ``||r_0||``.  ``q > p`` occurs under block-size reduction:
        the basis is ``p`` wide but all ``q`` original RHS columns are
        tracked through the least-squares problem.
    dtype:
        scalar type (complex for Maxwell systems).
    """

    def __init__(self, max_cols: int, p: int, rhs0: np.ndarray, dtype=np.float64):
        self.m = int(max_cols)
        self.p = int(p)
        self.dtype = np.dtype(dtype)
        n_rows = (self.m + 1) * self.p
        # raw Hessenberg (kept for the harmonic-Ritz eigenproblems)
        self.H = np.zeros((n_rows, self.m * self.p), dtype=self.dtype)
        # triangular factor of H (same storage footprint)
        self.R = np.zeros((n_rows, self.m * self.p), dtype=self.dtype)
        # transformed right-hand side g = Q^H [S1; 0]
        rhs0 = np.asarray(rhs0, dtype=self.dtype)
        if rhs0.ndim != 2 or rhs0.shape[0] != self.p:
            raise ValueError(f"rhs0 must be {self.p} x q, got {rhs0.shape}")
        self.q = rhs0.shape[1]
        self.g = np.zeros((n_rows, self.q), dtype=self.dtype)
        self.g[: self.p] = rhs0
        # small unitary factors, one per processed block column: ``q2^H``
        # panels, or ``(c, s)`` Givens pairs when p = 1
        self._panels: list = []
        self.ncols = 0  # number of processed block columns (j)

    # ------------------------------------------------------------------
    def hessenberg(self) -> np.ndarray:
        """The raw block Hessenberg ``\\bar H_j`` ((j+1)p x jp)."""
        j = self.ncols
        return self.H[: (j + 1) * self.p, : j * self.p]

    def triangular(self) -> np.ndarray:
        """Current triangular factor ``R_j`` (jp x jp)."""
        j = self.ncols
        return self.R[: j * self.p, : j * self.p]

    def last_subdiagonal_block(self) -> np.ndarray:
        """``h_{j+1,j}`` — needed by the harmonic-Ritz correction (eq. 2)."""
        j = self.ncols
        if j == 0:
            raise ValueError("no column processed yet")
        return self.H[j * self.p: (j + 1) * self.p, (j - 1) * self.p: j * self.p]

    # ------------------------------------------------------------------
    def add_column(self, h_col: np.ndarray, *, charge: bool = True
                   ) -> np.ndarray:
        """Process a new block column of the Hessenberg matrix.

        ``h_col`` has shape ((j+2)p, p) where ``j = self.ncols`` is the number
        of previously processed columns.  Returns the per-column least-squares
        residual norms after including this column.  ``charge=False`` skips
        the ledger flop accounting — used by the shifted family update, which
        charges all its per-shift factorizations as one total.
        """
        j = self.ncols
        p = self.p
        if j >= self.m:
            raise ValueError("Hessenberg QR is full; restart required")
        h_col = np.asarray(h_col, dtype=self.dtype)
        expected = ((j + 2) * p, p)
        if h_col.shape != expected:
            raise ValueError(f"expected column block of shape {expected}, got {h_col.shape}")
        self.H[: (j + 2) * p, j * p: (j + 1) * p] = h_col
        if charge:      # j stored factors on the column, the panel, one on g
            led = ledger.current()
            led.flop(Kernel.BLAS3, 2.0 * (2 * p) ** 2 * p * (j + 1))
            led.flop(Kernel.QR, 16.0 * p**3)
        if p == 1:      # (c, s) rotations, scalar sweep
            col = h_col[:, 0].tolist()
            c, s = _givens_column(col, self._panels, j)
            self.R[: j + 1, j] = col[: j + 1]
            g_top, g_low = self.g[j].copy(), self.g[j + 1]
            self.g[j] = c * g_top + s * g_low
            self.g[j + 1] = c * g_low - np.conjugate(s) * g_top
            self.ncols = j + 1
            return np.abs(self.g[j + 1])

        # apply the stored panel factors to the new column
        work = np.array(h_col, copy=True)
        for i, q2h in enumerate(self._panels):
            rows = slice(i * p, (i + 2) * p)
            work[rows] = q2h @ work[rows]

        # triangularize the trailing 2p x p panel
        panel = work[j * p: (j + 2) * p]
        q2, r2 = np.linalg.qr(panel, mode="complete")
        q2h = q2.conj().T
        self._panels.append(q2h)
        work[j * p: (j + 1) * p] = r2[:p]
        work[(j + 1) * p: (j + 2) * p] = 0.0
        self.R[: (j + 1) * p, j * p: (j + 1) * p] = work[: (j + 1) * p]

        # update the transformed right-hand side
        rows = slice(j * p, (j + 2) * p)
        self.g[rows] = q2h @ self.g[rows]

        self.ncols = j + 1
        return self.residual_norms()

    # ------------------------------------------------------------------
    def residual_norms(self) -> np.ndarray:
        """Per-column 2-norms of the least-squares residual.

        For block GMRES the residual of the projected problem lives in the
        trailing ``p`` rows of ``g``; its column norms bound the true
        residual norms of the corresponding RHS columns.
        """
        j = self.ncols
        tail = self.g[j * self.p: (j + 1) * self.p]
        return column_norms(tail)

    def solve(self) -> np.ndarray:
        """Solve the projected least-squares problem: ``Y = R^{-1} g_top``.

        Returns ``Y`` of shape (jp, p).  Near-singular diagonals (converged
        or broken-down directions) trigger a least-squares fallback.
        """
        j = self.ncols
        if j == 0:
            return np.zeros((0, self.q), dtype=self.dtype)
        ledger.current().flop(Kernel.BLAS2,
                              1.0 * (j * self.p) ** 2 * self.p)
        return solve_upper_triangular(self.triangular(),
                                      self.g[: j * self.p])


class HessenbergQRBundle:
    """The ``p`` independent ``p = 1`` factorizations of a pseudo-block cycle.

    ``H`` and ``R`` are ``(p, m+1, m)``, ``g`` is ``(p, m+1)`` (``g[:, 0]``
    the initial residual norms ``beta_l``); column ``l`` owns the ``[l]``
    slices and ``rotations[l]``.  Columns advance in lockstep but stop on
    their own (converged, lucky breakdown, frozen), so each keeps its count
    ``ncols[l]``; the accessors are per-column views.
    """

    def __init__(self, max_cols: int, rhs0: np.ndarray, dtype=np.float64):
        self.m = int(max_cols)
        self.dtype = np.dtype(dtype)
        p = len(rhs0)
        self.H = np.zeros((p, self.m + 1, self.m), dtype=self.dtype)
        self.R = np.zeros_like(self.H)
        self.g = np.zeros((p, self.m + 1), dtype=self.dtype)
        self.g[:, 0] = rhs0
        self.rotations: list[list] = [[] for _ in range(p)]
        self.ncols = [0] * p
        self._trtrs, = sla.get_lapack_funcs(("trtrs",), (self.R,))

    # ------------------------------------------------------------------
    def hessenberg(self, l: int) -> np.ndarray:
        """Column ``l``'s raw Hessenberg ``\\bar H_j`` ((j+1) x j)."""
        j = self.ncols[l]
        return self.H[l, : j + 1, : j]

    def triangular(self, l: int) -> np.ndarray:
        """Column ``l``'s triangular factor ``R_j`` (j x j)."""
        j = self.ncols[l]
        return self.R[l, : j, : j]

    def last_subdiagonal_block(self, l: int) -> np.ndarray:
        """Column ``l``'s ``h_{j+1,j}`` (1 x 1)."""
        j = self.ncols[l]
        if j == 0:
            raise ValueError("no column processed yet")
        return self.H[l, j: j + 1, j - 1: j]

    # ------------------------------------------------------------------
    def add_column(self, cols: list[int], h: np.ndarray) -> np.ndarray:
        """Step ``j`` of every column in ``cols`` (ascending, each has
        processed exactly ``j``): ``h[:, i]`` is column ``cols[i]``'s new
        Hessenberg column, so ``h`` is ``(j+2, len(cols))``.  Returns their
        least-squares residual norms; charges what ``len(cols)``
        ``BlockHessenbergQR(p = 1).add_column`` calls charge."""
        j = h.shape[0] - 2
        if j >= self.m:
            raise ValueError("Hessenberg QR is full; restart required")
        if any(self.ncols[l] != j for l in cols):
            raise ValueError(f"every column must have processed {j} columns")
        at = column_index(cols)
        h = np.asarray(h, dtype=self.dtype).T
        self.H[at, : j + 2, j] = h
        led = ledger.current()
        led.flop(Kernel.BLAS3, 8.0 * (j + 1) * len(cols))
        led.flop(Kernel.QR, 16.0 * len(cols))
        new = h.tolist()
        cs, ss = [], []
        for l, col in zip(cols, new):
            c, s = _givens_column(col, self.rotations[l], j)
            cs.append(c)
            ss.append(s)
            self.ncols[l] = j + 1
        self.R[at, : j + 1, j] = [col[: j + 1] for col in new]
        # g in numpy arithmetic, as the p = 1 class does it: numpy's complex
        # product rounds differently from Python's
        c, s = np.array(cs), np.array(ss, dtype=self.dtype)
        g_top, g_low = self.g[at, j], self.g[at, j + 1]
        top = c * g_top + s * g_low
        low = c * g_low - np.conjugate(s) * g_top
        self.g[at, j], self.g[at, j + 1] = top, low
        return np.abs(low)

    def solve(self, cols: list[int]) -> list[np.ndarray]:
        """``y_l = R_l^{-1} g_l`` for each column in ``cols`` (``j_l > 0``).

        LAPACK ``trtrs`` called the way ``scipy.linalg.solve_triangular``
        calls it, without its validation; a near-singular diagonal takes
        ``solve_upper_triangular``'s least-squares fallback.  Charges
        ``j_l^2`` BLAS2 per column.
        """
        led = ledger.current()
        steps = [self.ncols[l] for l in cols]
        diag = np.abs(np.diagonal(self.R, axis1=1, axis2=2)[cols])
        scale = diag.max(axis=1, initial=0.0)
        low = np.where(np.arange(self.m) < np.array(steps)[:, None], diag,
                       np.inf).min(axis=1)
        out = []
        for l, j, top, bottom in zip(cols, steps, scale.tolist(),
                                     low.tolist()):
            led.flop(Kernel.BLAS2, 1.0 * j * j)
            r, b = self.R[l, : j, : j], self.g[l, : j, None]
            if top == 0.0 or bottom < 1e-14 * top:
                out.append(np.linalg.lstsq(r, b, rcond=None)[0][:, 0])
                continue
            if r.flags.f_contiguous:       # j = 1
                y, info = self._trtrs(r, b)
            else:
                y, info = self._trtrs(r.T, b, lower=1, trans=1)
            if info:
                raise np.linalg.LinAlgError(
                    f"singular matrix: resolution failed at diagonal {info-1}")
            out.append(y[:, 0])
        return out
