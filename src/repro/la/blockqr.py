"""Incremental QR factorization of the (block) Hessenberg matrix.

The paper's eq. (2) prefers the harmonic-Ritz left-hand side built from the
*incrementally maintained* QR factors of the block Hessenberg matrix —
"our implementation of (Block) GMRES computes the QR factorization of
``H_m`` incrementally, i.e. p column(s) of Q and R are determined per
iteration".  This module is that machinery.

For ``p = 1`` the update degenerates to the classic Givens-rotation sweep of
GMRES; for ``p > 1`` each step applies the stored small unitary factors to
the new block column and triangularizes the trailing ``2p x p`` panel with a
dense QR ("block Givens").  All of this is *redundant* work replicated on
every (virtual) rank — it involves no communication.
"""

from __future__ import annotations

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
        # small unitary panel factors (q2^H), one per processed block column
        self._panels: list[np.ndarray] = []
        self.ncols = 0  # number of processed block columns (j)

    # ------------------------------------------------------------------
    @property
    def nrows_active(self) -> int:
        """Rows of H currently meaningful: (j+1) * p."""
        return (self.ncols + 1) * self.p

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
        the ledger flop accounting — used by the compiled plan path, whose
        node replays the same total from a pre-bound table.
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

        # apply the stored panel factors to the new column
        work = np.array(h_col, copy=True)
        led = ledger.current()
        for i, q2h in enumerate(self._panels):
            rows = slice(i * p, (i + 2) * p)
            work[rows] = q2h @ work[rows]
            if charge:
                led.flop(Kernel.BLAS3, 2.0 * (2 * p) ** 2 * p)

        # triangularize the trailing 2p x p panel
        panel = work[j * p: (j + 2) * p]
        q2, r2 = np.linalg.qr(panel, mode="complete")
        if charge:
            led.flop(Kernel.QR, 16.0 * p**3)
        q2h = q2.conj().T
        self._panels.append(q2h)
        work[j * p: (j + 1) * p] = r2[:p]
        work[(j + 1) * p: (j + 2) * p] = 0.0
        self.R[: (j + 1) * p, j * p: (j + 1) * p] = work[: (j + 1) * p]

        # update the transformed right-hand side
        rows = slice(j * p, (j + 2) * p)
        self.g[rows] = q2h @ self.g[rows]
        if charge:
            led.flop(Kernel.BLAS3, 2.0 * (2 * p) ** 2 * p)

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

    def apply_qh(self, block: np.ndarray) -> np.ndarray:
        """Apply the accumulated ``Q^H`` to a ((j+1)p x q) block.

        Used by GCRO-DR when forming ``C_k = V_{m+1} Q`` — the factor ``Q``
        from the Hessenberg QR is exactly the adjoint of the accumulated
        panel product.
        """
        work = np.array(block, dtype=self.dtype, copy=True)
        p = self.p
        if work.shape[0] != self.nrows_active:
            raise ValueError(
                f"expected {self.nrows_active} rows, got {work.shape[0]}")
        for i, q2h in enumerate(self._panels):
            rows = slice(i * p, (i + 2) * p)
            work[rows] = q2h @ work[rows]
        return work

    def apply_q(self, block: np.ndarray) -> np.ndarray:
        """Apply the accumulated ``Q`` ((j+1)p x (j+1)p unitary) to a block."""
        work = np.array(block, dtype=self.dtype, copy=True)
        p = self.p
        if work.shape[0] != self.nrows_active:
            raise ValueError(
                f"expected {self.nrows_active} rows, got {work.shape[0]}")
        for i, q2h in zip(range(len(self._panels) - 1, -1, -1),
                          reversed(self._panels)):
            rows = slice(i * p, (i + 2) * p)
            work[rows] = q2h.conj().T @ work[rows]
        return work

    def q_matrix(self) -> np.ndarray:
        """Materialize the (j+1)p x (j+1)p unitary ``Q`` (small, redundant)."""
        eye = np.eye(self.nrows_active, dtype=self.dtype)
        return self.apply_q(eye)
