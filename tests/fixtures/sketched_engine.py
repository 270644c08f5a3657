"""The sketched block Arnoldi engine — one reduction per step.

Burke–Güttel–Soodhalter's sketched GMRES (arXiv:2311.14206) orthogonalizes
in sketch space: the candidate block is sketched locally with the seeded
SRHT of ``repro.la.orthogonalization.apply_sketch``, and only the small
``s x p`` sketch travels, so each Arnoldi step pays exactly ONE reduction.
The basis it builds is sketch-orthonormal only, which is why no solver
uses it: it lost to the three schemes of ``ORTHO_SCHEME_NAMES`` at equal
true residual on both clocks (docs/ORTHOGONALIZATION.md).  It lives here
because it is the one engine that realizes the paper's GMRES(m) count of
``m`` reductions per cycle, which ``tests/trace_gate.py`` checks.

:func:`install` rebinds ``repro.krylov.cycle.make_arnoldi_engine`` — the
seam the e2e tracer rebinds too — so every block Arnoldi cycle started
inside the ``with`` runs on this engine, whatever scheme its options name.
The engine sizes its sketch from ``max_cols``, the widest basis a cycle
builds (``m + 1`` columns for GMRES(m) or GCRO-DR(m, k) at p = 1).
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

import numpy as np
import scipy.linalg as sla

import repro.krylov.cycle as cycle_mod
from repro.la import orthogonalization as orth
from repro.util import ledger
from repro.util.ledger import Kernel
from repro.util.misc import column_norms


class SketchedEngine(orth._EngineBase):
    """Sketch-space Arnoldi orthogonalization: ONE reduction per step.

    The engine keeps the sketched basis with *orthonormal* columns in an
    ``s x max_cols`` column-major slab (the first block is whitened
    locally; every appended block is sketch-orthonormal by construction),
    so the sketch-space least-squares projection and the normalization are
    local small-matrix work.  The Arnoldi relation ``w = C e + V h + q s``
    holds exactly by construction.
    """

    def __init__(self, *, tol: float = 1e-12, max_cols: int, seed: int = 0):
        super().__init__(tol=tol)
        self.max_cols, self.seed = max_cols, seed
        self.s = 0
        self._qs: np.ndarray | None = None   # s x max_cols, orthonormal
        self._cols = 0
        self._t0: np.ndarray | None = None   # leading-block whitener
        self._sck: np.ndarray | None = None  # sketched C_k

    def begin(self, v1, ck=None):
        v1 = super().begin(v1, ck)
        n, cols = v1.shape
        self.s = orth.sketch_size(n, self.max_cols)
        k = ck.shape[1] if ck is not None and ck.size else 0
        led = ledger.current()
        led.reduction(nbytes=self.s * (cols + k) * v1.dtype.itemsize)
        if k:
            self._sck = orth.apply_sketch(ck, self.s, seed=self.seed)
        sv = orth.apply_sketch(v1, self.s, seed=self.seed) if cols \
            else np.zeros((self.s, 0), dtype=v1.dtype)
        qs, self._t0 = np.linalg.qr(sv)
        self._qs = np.zeros((self.s, max(self.max_cols, qs.shape[1])),
                            dtype=qs.dtype, order="F")
        self._qs[:, :qs.shape[1]] = qs
        self._cols = qs.shape[1]
        if cols:
            led.flop(Kernel.QR, 4.0 * self.s * cols**2)
        return v1

    def step(self, stacked, p, *, k=0):
        led = ledger.current()
        n, cols = stacked.shape
        ck = stacked[:, :k]
        basis = stacked[:, k:cols - p]
        w = stacked[:, cols - p:]
        # ONE fused reduction: the sketched candidate stacked with the
        # exact recycled-space Gram C_k^H w (both are global row sums).
        led.reduction(nbytes=(self.s + k) * p * w.itemsize)
        sw = orth.apply_sketch(w, self.s, seed=self.seed)
        scale_s = float(np.max(column_norms(sw), initial=0.0))
        e_col = None
        if k:
            e_col = orth.conj_gram(ck, w)
            led.flop(Kernel.BLAS3, 4.0 * n * k * p)
            w = w - orth.slab_matmul(ck, e_col)
            sw = sw - orth.slab_matmul(self._sck, e_col)
        qs = self._qs[:, :self._cols]
        if basis.shape[1] != qs.shape[1]:
            raise ValueError(
                f"sketched engine state holds {qs.shape[1]} basis "
                f"columns but step received {basis.shape[1]}; the engine "
                "must see every appended block (begin + successive steps)")
        w0 = self._t0.shape[0]
        c = orth.conj_gram(qs, sw)                       # local, cols x p
        y = c.copy()
        if w0:
            y[:w0] = sla.solve_triangular(self._t0, c[:w0])
        w2 = w - orth.slab_matmul(basis, y)
        led.flop(Kernel.BLAS3, 2.0 * n * basis.shape[1] * p)
        rs = sw - orth.slab_matmul(qs, c)                # sketch residual
        qn, rfac = np.linalg.qr(rs)
        led.flop(Kernel.QR, 4.0 * self.s * p**2)
        d = np.abs(np.diag(rfac))
        ref = max(scale_s, np.finfo(float).tiny)
        rank = int(np.count_nonzero(d > self.tol * ref))
        if rank < p:
            # breakdown: hand the remainder to the exact rank-revealing
            # path (its zero-column contract is what the cycle expects);
            # the cycle terminates here, so the sketch state stays valid.
            led.reduction(nbytes=p * 8)
            scale = float(np.max(column_norms(w), initial=0.0))
            q, r, rank = orth.cholqr_rr(w2, tol=self.tol, scale=scale)
            # the sketch-space verdict stands even if the exact factor
            # keeps all p columns: nothing was appended to the sketch basis
            return q, y, r, min(rank, p - 1), e_col
        q = orth._right_solve(w2, rfac)
        led.flop(Kernel.BLAS3, 1.0 * n * p**2)
        self._qs[:, self._cols:self._cols + p] = qn
        self._cols += p
        return q, y, rfac, rank, e_col


@contextlib.contextmanager
def install(max_cols: int) -> Iterator[None]:
    """Run every block Arnoldi cycle of the ``with`` body on a
    :class:`SketchedEngine` sized for ``max_cols`` basis columns."""
    real = cycle_mod.make_arnoldi_engine

    def make(scheme, *, tol=1e-12):
        return SketchedEngine(tol=tol, max_cols=max_cols)

    cycle_mod.make_arnoldi_engine = make
    try:
        yield
    finally:
        cycle_mod.make_arnoldi_engine = real
