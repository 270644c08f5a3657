"""Incremental QR factorization of the (block) Hessenberg matrix.

The paper's eq. (2) prefers the harmonic-Ritz left-hand side built from the
*incrementally maintained* QR factors of the block Hessenberg matrix —
"our implementation of (Block) GMRES computes the QR factorization of
``H_m`` incrementally, i.e. p column(s) of Q and R are determined per
iteration".  This module is that machinery.

For ``p = 1`` the update *is* the classic Givens-rotation sweep of GMRES —
stored ``(c, s)`` pairs (real ``c``, complex-safe ``s``), scalar arithmetic:
every column of a pseudo-block solve owns a ``p = 1`` factorization.  For
``p > 1`` each step applies the stored ``2p x 2p`` unitary factors to the
new block column and triangularizes the trailing ``2p x p`` panel with a
dense QR ("block Givens").  Both charge the block formula; ``R`` is unique
up to a unitary diagonal, which eq. (2) (``R^H R``) cannot see.  All of this
is *redundant* work replicated on every (virtual) rank — no communication.
The all-panel update and the explicit ``Q`` products (``apply_qh``,
``apply_q``, ``q_matrix``) are the oracle
``tests/fixtures/reference_hessenberg.py``.
"""

from __future__ import annotations

import math

import numpy as np

from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import column_norms
from .dense import solve_upper_triangular

__all__ = ["BlockHessenbergQR"]


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
        if p == 1:      # rotations [[c, s], [-conj(s), c]], scalar sweep
            col = h_col[:, 0].tolist()
            for i, (c, s) in enumerate(self._panels):
                col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                      c * col[i + 1] - s.conjugate() * col[i])
            top, low = col[j], col[j + 1]
            c, s = 1.0, 0.0
            if low != 0:
                norm = math.hypot(abs(top), abs(low))
                phase = top / abs(top) if top != 0 else 1.0
                c, s = abs(top) / norm, phase * low.conjugate() / norm
                col[j] = phase * norm
            self._panels.append((c, s))
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
