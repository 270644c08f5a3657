"""Row-distributed block vectors over a virtual process grid.

The solver stack works on plain ndarrays (the distribution lives in the
operator and the cost ledger), but the scalability analyses need genuinely
partitioned vector objects to verify that every operation maps onto
per-rank locals + the advertised collectives.  ``DistributedBlockVector``
is that object: one contiguous global backing array, whose ``locals`` are
zero-copy views of each rank's rows.  Reductions run as single
einsums/GEMMs on the backing store with one ledger charge, and the in-place
``axpy_``/``scale_`` variants mutate it without allocating anything.

The rank-by-rank execution — one array per rank, every reduction an
all-reduce of per-rank partials — is a test oracle under
``tests/fixtures/``; both charge bit-identical ledger counts, because the
reduction payloads are the same arrays.
"""

from __future__ import annotations

import numpy as np

from ..simmpi.collectives import dot_columns, norm_columns
from ..simmpi.grid import VirtualGrid
from ..util import ledger
from ..util.misc import as_block

__all__ = ["DistributedBlockVector"]


class DistributedBlockVector:
    """An ``n x p`` block stored as per-rank row slices.

    Parameters
    ----------
    grid:
        the row distribution.
    locals_:
        one array per rank, shapes ``(grid.local_size(r), p)``; validated,
        then concatenated into the backing array.
    """

    def __init__(self, grid: VirtualGrid, locals_: list[np.ndarray]):
        if len(locals_) != grid.nranks:
            raise ValueError(f"expected {grid.nranks} local blocks")
        p = as_block(locals_[0]).shape[1]
        checked = []
        for r, loc in enumerate(locals_):
            loc = as_block(loc)
            if loc.shape != (grid.local_size(r), p):
                raise ValueError(
                    f"rank {r}: local block {loc.shape} != "
                    f"({grid.local_size(r)}, {p})")
            checked.append(loc)
        self._set(grid, np.concatenate(checked, axis=0))

    def _set(self, grid: VirtualGrid, data: np.ndarray) -> None:
        self.grid = grid
        self._data = data
        self._locals: list[np.ndarray] | None = None
        self.p = data.shape[1]

    @classmethod
    def _from_data(cls, grid: VirtualGrid, data: np.ndarray
                   ) -> "DistributedBlockVector":
        """Wrap a global array (no copy) as the backing store."""
        obj = cls.__new__(cls)
        obj._set(grid, data)
        return obj

    @classmethod
    def from_global(cls, grid: VirtualGrid, x: np.ndarray
                    ) -> "DistributedBlockVector":
        """Scatter a global array over the grid (one contiguous copy)."""
        x = as_block(x)
        if x.shape[0] != grid.n:
            raise ValueError(f"global array has {x.shape[0]} rows, grid "
                             f"expects {grid.n}")
        return cls._from_data(grid, x.copy())

    def to_global(self) -> np.ndarray:
        """Assemble the global array (an allgather in a real run)."""
        return self._data.copy()

    # ------------------------------------------------------------------
    @property
    def locals(self) -> list[np.ndarray]:
        """Per-rank row blocks: zero-copy views of the backing array."""
        if self._locals is None:
            data, grid = self._data, self.grid
            self._locals = [data[grid.rows(r)] for r in range(grid.nranks)]
        return self._locals

    @property
    def global_data(self) -> np.ndarray:
        """The contiguous backing array (not a copy)."""
        return self._data

    # ------------------------------------------------------------------
    def dot(self, other: "DistributedBlockVector") -> np.ndarray:
        """Block inner product ``X^H Y`` (p x p), one global reduction."""
        self._check_compatible(other)
        out = self._data.conj().T @ other._data
        ledger.current().reduction(nbytes=out.nbytes)
        return out

    def col_dots(self, other: "DistributedBlockVector") -> np.ndarray:
        """Column-wise <x_j, y_j>, one global reduction."""
        self._check_compatible(other)
        return dot_columns(self.grid, self._data, other._data)

    def gram_against(self, basis_blocks: "list[DistributedBlockVector]"
                     ) -> np.ndarray:
        """All projection coefficients ``[B_0^H x; ...; B_{j-1}^H x]`` in
        ONE fused reduction (stacked payload).

        This is the low-synchronization Arnoldi primitive: instead of ``j``
        separate :meth:`dot` calls (one reduction each), the per-block Gram
        partials are stacked into a single ``(sum_i p_i) x p`` payload that
        travels in one ``allreduce`` — message count 1 at every basis depth,
        payload bytes unchanged.  Returns the stacked coefficient matrix.
        """
        for b in basis_blocks:
            if self.grid != b.grid:
                raise ValueError("mismatched grids")
        if not basis_blocks:
            return np.zeros((0, self.p), dtype=self._data.dtype)
        out = np.concatenate(
            [b._data.conj().T @ self._data for b in basis_blocks], axis=0)
        ledger.current().reduction(nbytes=out.nbytes)
        return out

    def norms(self) -> np.ndarray:
        """Column 2-norms, one global reduction."""
        return norm_columns(self.grid, self._data)

    # -- local (communication-free) operations -----------------------------
    def axpy(self, alpha, other: "DistributedBlockVector") -> "DistributedBlockVector":
        """self + alpha * other (elementwise or per-column alpha)."""
        self._check_compatible(other)
        return DistributedBlockVector._from_data(
            self.grid, self._data + alpha * other._data)

    def scale(self, alpha) -> "DistributedBlockVector":
        return DistributedBlockVector._from_data(self.grid, alpha * self._data)

    def combine(self, coeffs: np.ndarray) -> "DistributedBlockVector":
        """Right-multiply by a small (p x q) matrix — purely local."""
        return DistributedBlockVector._from_data(
            self.grid, self._data @ np.asarray(coeffs))

    def copy(self) -> "DistributedBlockVector":
        return DistributedBlockVector._from_data(self.grid, self._data.copy())

    # -- in-place variants (no allocation in hot loops) --------------------
    def axpy_(self, alpha, other: "DistributedBlockVector"
              ) -> "DistributedBlockVector":
        """In-place ``self += alpha * other``; returns self."""
        self._check_compatible(other)
        self._data += alpha * other._data
        return self

    def scale_(self, alpha) -> "DistributedBlockVector":
        """In-place ``self *= alpha``; returns self."""
        self._data *= alpha
        return self

    # ------------------------------------------------------------------
    def _check_compatible(self, other: "DistributedBlockVector") -> None:
        if self.grid != other.grid:
            raise ValueError("mismatched grids")
        if self.p != other.p:
            raise ValueError(f"mismatched widths {self.p} vs {other.p}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.grid.n, self.p)

    def __repr__(self) -> str:
        return (f"DistributedBlockVector(n={self.grid.n}, p={self.p}, "
                f"nranks={self.grid.nranks})")
