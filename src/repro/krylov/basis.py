"""Single-allocation basis stores for the Krylov hot loops.

Every Arnoldi cycle — block or pseudo-block — keeps its basis in one preallocated slab and hands out *views*: advancing a
step is a pointer bump, and the stacked basis the orthogonalization kernels
project against is a zero-copy slice, never an ``np.concatenate``.

Bitwise parity caveat: NumPy dispatches BLAS ``syrk`` for a self-product
``x.conj().T @ x`` only when ``x`` is one contiguous array, so every
self-Gram site materializes ``np.ascontiguousarray`` of its p-column block
first.  Plain GEMMs (``A.conj().T @ B``, ``A @ C``) are bit-identical on
strided views — except products with fewer than four output entries,
which ``la.orthogonalization._thin_contig`` copies (<= 3 columns).
"""

from __future__ import annotations

import numpy as np

from ..la.orthogonalization import pseudo_block_tensor

__all__ = [
    "BasisArena",
    "AugmentedTensorArena",
]


class BasisArena:
    """C-order slab ``[C_k | V_0 | V_1 | ... | slot]`` plus the paired Z slab.

    Allocated once per solve for the widest cycle it will run and re-bound
    (:meth:`bind`) at the start of every cycle; ``cols`` counts the
    committed columns (including the ``k`` recycle columns) and ``slot`` is
    the p-column scratch region the step under construction writes into.
    ``Z_j = M(V_j)`` lives in a second slab — or aliases ``V`` when the
    inner preconditioner is the identity.
    """

    def __init__(self, n: int, p: int, k: int, max_steps: int,
                 dtype: np.dtype, *, identity_m: bool = True) -> None:
        self.slab = np.zeros((n, k + (max_steps + 2) * p), dtype=dtype,
                             order="C")
        self.zslab = None if identity_m else \
            np.zeros((n, max_steps * p), dtype=dtype, order="C")
        self.p = p
        self.k = 0
        self.cols = 0

    def bind(self, v1: np.ndarray, ck: np.ndarray | None, *,
             max_steps: int) -> None:
        """Start a cycle: copy the recycle basis and starting block in.

        The cycle's block width is ``v1``'s (block-size reduction narrows
        it below the solve's ``p``); raises if ``max_steps`` steps of that
        width behind ``ck`` do not fit the slab.
        """
        self.p = v1.shape[1]
        self.k = ck.shape[1] if ck is not None else 0
        need = self.k + (max_steps + 2) * self.p
        if need > self.slab.shape[1] or (
                self.zslab is not None
                and max_steps * self.p > self.zslab.shape[1]):
            raise ValueError(
                f"basis arena holds {self.slab.shape[1]} columns; a cycle of "
                f"{max_steps} steps at p={self.p}, k={self.k} needs {need}")
        if self.k:
            self.slab[:, :self.k] = ck
        self.cols = self.k + self.p
        self.slab[:, self.k:self.cols] = v1

    def basis(self) -> np.ndarray:
        """View of the committed columns ``[ck | V_0..V_{j}]``."""
        return self.slab[:, :self.cols]

    def stacked(self) -> np.ndarray:
        """View of committed columns plus the in-flight slot."""
        return self.slab[:, :self.cols + self.p]

    def slot(self) -> np.ndarray:
        """The p-column scratch block of the step under construction."""
        return self.slab[:, self.cols:self.cols + self.p]

    def advance(self) -> None:
        """Commit the slot as the next basis block (pointer bump only)."""
        self.cols += self.p

    def block(self, j: int) -> np.ndarray:
        """View of committed block ``V_j`` (past the k recycle columns)."""
        lo = self.k + j * self.p
        return self.slab[:, lo:lo + self.p]

    def v(self, nblocks: int | None = None) -> np.ndarray:
        """View ``[V_0..V_{nblocks-1}]`` (all committed blocks by default)."""
        hi = self.cols if nblocks is None else self.k + nblocks * self.p
        return self.slab[:, self.k:hi]

    def z(self, nblocks: int) -> np.ndarray:
        """View ``[Z_0..Z_{nblocks-1}]`` — of ``V`` itself when aliased."""
        if self.zslab is None:
            return self.v(nblocks)
        return self.zslab[:, :nblocks * self.p]


class AugmentedTensorArena:
    """Preallocated ``(kmax + steps + 1, n, p)`` tensor ``[C_k | V]``.

    pgcrodr's per-step augmented projector ``[C_l | V_l]`` is a prefix
    view of one :func:`pseudo_block_tensor` instead of an O(n·cols)
    concatenate every step.
    """

    def __init__(self, kmax: int, steps: int, n: int, p: int,
                 dtype: np.dtype) -> None:
        self.kmax = kmax
        self.aug = pseudo_block_tensor(kmax + steps + 1, n, p, dtype)
        self.ck, self.v = self.aug[:kmax], self.aug[kmax:]

    def stacked(self, j: int) -> np.ndarray:
        """View ``[C_k | V_0..V_j]`` for the step-``j`` projection."""
        return self.aug[:self.kmax + j + 1]

