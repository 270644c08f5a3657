"""The all-panel incremental Hessenberg QR — oracle for the Givens path.

``ReferenceBlockHessenbergQR`` is ``repro.la.blockqr.BlockHessenbergQR`` as
it was while *every* block width, ``p = 1`` included, went through the
"block Givens" update: j stored ``2p x 2p`` unitary panels applied with j
``@`` calls, the trailing ``2p x p`` panel triangularized by
``np.linalg.qr(mode="complete")`` — about 70 us per column for the dozen
flops of a ``p = 1`` step.  Production keeps ``(c, s)`` rotations there; at
``p > 1`` the two classes run the same code.  ``R`` agrees up to a unitary
diagonal (``|R|``, ``R^H R``, ``solve()`` and the residual norms to
rounding), the ledger charge exactly.

It also keeps the explicit ``Q`` products (``apply_qh``, ``apply_q``,
``q_matrix``), which nothing in ``src/`` uses: they are how
``tests/test_la_blockqr.py`` checks that the stored factors really are a
unitary ``Q`` with ``Q^H H = [R; 0]``.  The ``hessenberg_p1`` row of
``benchmarks/bench_micro_kernels.py`` times the two against each other.
"""

from __future__ import annotations

import numpy as np

from repro.la.blockqr import BlockHessenbergQR
from repro.util import ledger
from repro.util.ledger import Kernel


class ReferenceBlockHessenbergQR(BlockHessenbergQR):
    """``_panels`` holds ``q2^H`` matrices at every ``p``."""

    def add_column(self, h_col, *, charge=True):
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

    @property
    def nrows_active(self):
        """Rows of H currently meaningful: (j+1) * p."""
        return (self.ncols + 1) * self.p

    def apply_qh(self, block):
        """Apply the accumulated ``Q^H`` to a ((j+1)p x q) block."""
        work = np.array(block, dtype=self.dtype, copy=True)
        p = self.p
        if work.shape[0] != self.nrows_active:
            raise ValueError(
                f"expected {self.nrows_active} rows, got {work.shape[0]}")
        for i, q2h in enumerate(self._panels):
            rows = slice(i * p, (i + 2) * p)
            work[rows] = q2h @ work[rows]
        return work

    def apply_q(self, block):
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

    def q_matrix(self):
        """Materialize the (j+1)p x (j+1)p unitary ``Q`` (small, redundant)."""
        eye = np.eye(self.nrows_active, dtype=self.dtype)
        return self.apply_q(eye)
