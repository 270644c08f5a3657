"""The row-level triangular sweep — oracle for the blocked one.

This is ``TriangularFactor`` as it was before the schedule moved from rows
to inverted diagonal blocks: one sweep step per longest-path level of the
*row* DAG,

    x[rows] = (b[rows] - L[rows, :] @ x) / diag[rows]

with an upper factor handled by reversing the row order around the sweep.
On LU factors that is hundreds of steps of a dozen rows — interpreter
bound — so it left ``src/``; it is kept only as the reference the blocked
sweep of ``repro.direct.triangular`` must reproduce (to rounding: a block
is applied through its inverse, not by substitution) and as the yardstick
its step counts are measured against (see ``tests/test_direct.py``).

``levels_by_row`` is the per-row longest-path recurrence the vectorized
frontier propagation of ``repro.direct.triangular`` must reproduce exactly,
and the baseline of the ``level_schedule`` entry of
``benchmarks/bench_micro_kernels.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.direct.triangular import LevelSchedule


def levels_by_row(n: int, indptr: np.ndarray, indices: np.ndarray
                  ) -> np.ndarray:
    """Per-row longest-path levels of a CSR dependency DAG (loop over rows)."""
    level = np.zeros(n, dtype=np.int64)
    for i in range(n):
        row_cols = indices[indptr[i]: indptr[i + 1]]
        deps = row_cols[row_cols < i]
        if deps.size:
            level[i] = level[deps].max() + 1
    return level


class RowLevelTriangularSolve:
    """Level-scheduled substitution with one level per row-DAG depth."""

    def __init__(self, mat: sp.spmatrix, *, lower: bool,
                 unit_diagonal: bool = False):
        mat = sp.csr_matrix(mat)
        n = mat.shape[0]
        self.n = n
        self.dtype = mat.dtype
        diag = (np.ones(n, dtype=mat.dtype) if unit_diagonal
                else np.asarray(mat.diagonal()))
        # orient everything as a *lower* solve on possibly reversed indices
        self._reorder = None
        if not lower:
            self._reorder = np.arange(n)[::-1]
            mat = sp.csr_matrix(mat[self._reorder][:, self._reorder])
            diag = diag[self._reorder]
        strict = sp.tril(mat, k=-1).tocsr()
        self.schedule = LevelSchedule(strict)
        self._steps = [
            (rows, sp.csr_matrix(strict[rows]), diag[rows][:, None])
            for rows in self.schedule.rows_by_level
        ]

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        b = b.reshape(self.n, -1)
        if self._reorder is not None:
            b = b[self._reorder]
        x = np.zeros(b.shape, dtype=np.promote_types(self.dtype, b.dtype))
        for rows, lmat, diag_col in self._steps:
            x[rows] = (b[rows] - lmat @ x) / diag_col
        if self._reorder is not None:
            x = x[self._reorder]
        return x

    @property
    def n_levels(self) -> int:
        return len(self.schedule)
