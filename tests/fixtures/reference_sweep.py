"""The triangular sweep over row gathers — oracle for the level-ordered one.

This is ``repro.direct.triangular`` as it was before its factors moved into
level order: the analysis kept ``Loff`` and ``Dinv`` as two CSR matrices in
the caller's row numbering (``_off``, ``_dinv``), the first solve sliced
them into one ``(rows, Loff, Dinv, diag)`` step per level
(:meth:`ReferenceTriangularFactor._materialize`), and every step was

    rhs = b[rows]; rhs -= Loff @ x; rhs = Dinv @ rhs; x[rows] = rhs

through scipy's sparse products; :func:`reference_concat` batched factors
with ``sp.block_diag``.  Its diagonal blocks were inverted one width at a
time (:func:`reference_invert_blocks`), and its block DAG levelled with
every cross-block entry an edge (:func:`reference_levels_of_blocks`).
The production factor does the same floating-point operations in the same
order — the same CSR kernel, the same entry order inside a row — so
``tests/test_direct.py`` holds ``TriangularFactor.solve`` and
``concat_factors`` to this one **bitwise** (``x`` bytes,
``CostLedger.counts()``, ``n_levels``, ``stored_nnz``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.direct.triangular import (_BLOCK_COND, LevelSchedule,
                                     _chain_blocks, _csr_ptr,
                                     _levels_frontier)
from repro.util import ledger
from repro.util.ledger import Kernel
from repro.util.misc import as_block


def reference_levels_of_blocks(n: int, row: np.ndarray, col: np.ndarray,
                               block: np.ndarray) -> np.ndarray:
    """Per-row level in the DAG of blocks (``block``: block of each row),
    every entry between two blocks kept as an edge."""
    nblocks = int(block[-1]) + 1 if n else 0
    brow, bcol = block[row], block[col]
    outside = brow != bcol
    level = _levels_frontier(nblocks, _csr_ptr(brow[outside], nblocks),
                             bcol[outside])
    return level[block]


def reference_invert_blocks(start: np.ndarray, width: np.ndarray,
                            row: np.ndarray, col: np.ndarray, val: np.ndarray,
                            diag: np.ndarray | None,
                            dtype) -> tuple[np.ndarray, tuple]:
    """Invert the diagonal blocks ``[start, start + width)`` of a lower factor.

    ``row, col, val`` are the factor's strict entries, ``diag`` its
    diagonal (``None``: unit).  Blocks of equal width are inverted
    together, by forward substitution on the ``(blocks, w, w)`` stack —
    ``w`` vectorized steps, an exactly triangular result.  Returns which
    blocks can be trusted (more than one row, finite, and
    ``|inv(T)|_1 |T|_1 <= _BLOCK_COND``) and the inverses of those as COO
    triples in the factor's row numbering.
    """
    block_of_row = np.repeat(np.arange(start.size), width)
    block = block_of_row[row]
    inside = block == block_of_row[col]
    block, row, col, val = block[inside], row[inside], col[inside], val[inside]
    trusted = np.zeros(start.size, dtype=bool)
    none = np.empty(0, dtype=np.int64)
    out_row, out_col, out_val = [none], [none], [np.empty(0, dtype=dtype)]
    for w in np.unique(width[width > 1]).tolist():
        ids = np.flatnonzero(width == w)
        mine = width[block] == w
        b = block[mine]
        t = np.zeros((ids.size, w, w), dtype=dtype)
        t[np.searchsorted(ids, b), row[mine] - start[b],
          col[mine] - start[b]] = val[mine]
        local = np.arange(w)
        span = start[ids][:, None] + local            # (blocks, w) rows
        t[:, local, local] = 1.0 if diag is None else diag[span]
        inv = np.zeros_like(t)
        with np.errstate(all="ignore"):
            for i in range(w):
                inv[:, i, i] = 1.0
                inv[:, i, :i] = -(t[:, i:i + 1, :i] @ inv[:, :i, :i])[:, 0]
                inv[:, i, :i + 1] /= t[:, i, i, None]
            cond = (np.abs(inv).sum(axis=1).max(axis=1)
                    * np.abs(t).sum(axis=1).max(axis=1))
        ok = cond <= _BLOCK_COND          # False for a non-finite inverse
        trusted[ids] = ok
        li, lj = np.tril_indices(w)
        out_row.append(span[ok][:, li].ravel())
        out_col.append(span[ok][:, lj].ravel())
        out_val.append(inv[ok][:, li, lj].ravel())
    return trusted, (np.concatenate(out_row), np.concatenate(out_col),
                     np.concatenate(out_val))


class ReferenceTriangularFactor:
    """``TriangularFactor`` with caller-numbered ``Loff`` / ``Dinv`` and a
    sweep of scipy products over row gathers.

    Parameters
    ----------
    mat:
        sparse triangular matrix (lower or upper); square, finite, with no
        entry on the wrong side of the diagonal.
    lower:
        orientation; an upper factor is swept from the last row up.
    unit_diagonal:
        True when the diagonal is implicitly 1 (the L of an LU); stored
        diagonal entries are then ignored.
    """

    def __init__(self, mat: sp.spmatrix, *, lower: bool, unit_diagonal: bool = False):
        mat = sp.csr_matrix(mat)
        n = mat.shape[0]
        if mat.shape[1] != n:
            raise ValueError(f"triangular factor must be square, got {mat.shape}")
        if not mat.has_canonical_format:
            mat = mat.copy()
            mat.sum_duplicates()
        if not np.isfinite(mat.data).all():
            raise np.linalg.LinAlgError("non-finite entry in triangular factor")
        rows = np.repeat(np.arange(n), np.diff(mat.indptr))
        if np.any(mat.indices > rows if lower else mat.indices < rows):
            raise ValueError(f"{'lower' if lower else 'upper'} triangular "
                             "factor has entries on the other side of the "
                             "diagonal")
        self.n = n
        self.lower = bool(lower)
        self.unit_diagonal = bool(unit_diagonal)
        self.dtype = mat.dtype
        self.nnz = mat.nnz
        self.diag = None
        if not unit_diagonal:
            self.diag = np.asarray(mat.diagonal())
            if np.any(self.diag == 0):
                raise np.linalg.LinAlgError("singular triangular factor")

        # analyse in the *sweep frame* — rows numbered in the order the
        # substitution visits them, in which every factor is lower
        # triangular — and map the result back to the caller's numbering
        strict = mat.indices != rows
        row, col, val = rows[strict], mat.indices[strict], mat.data[strict]
        diag = self.diag
        if not lower:
            row, col, val = n - 1 - row[::-1], n - 1 - col[::-1], val[::-1]
            diag = None if diag is None else diag[::-1]

        start, longest_chain = _chain_blocks(n, row, col)
        width = np.diff(start, append=n)
        trusted, inv = reference_invert_blocks(
            start, width, row, col, val, diag,
            np.result_type(mat.dtype, np.float32))
        merged = np.repeat(trusted, width)     # row sits in an inverted block
        head = ~merged
        head[start[trusted]] = True
        block = np.cumsum(head) - 1
        level = reference_levels_of_blocks(n, row, col, block)
        # a block waits for the dependencies of all its rows, which can
        # lengthen the longest path; the row DAG is at least as deep as the
        # longest chain, so it is levelled only when that does not settle it
        if merged.any() and level.max() + 1 >= longest_chain:
            row_level = reference_levels_of_blocks(n, row, col,
                                                   np.arange(n))
            if row_level.max() <= level.max():     # merging bought no depth
                merged[:] = False
                block, level = np.arange(n), row_level
                inv = tuple(a[:0] for a in inv)

        single = np.flatnonzero(~merged)
        recip = (np.ones(single.size, dtype=inv[2].dtype) if diag is None
                 else 1.0 / diag[single])
        drow = np.concatenate([inv[0], single])
        dcol = np.concatenate([inv[1], single])
        dval = np.concatenate([inv[2], recip])
        outside = block[row] != block[col]
        orow, ocol, oval = row[outside], col[outside], val[outside]
        if not lower:
            orow, ocol, drow, dcol = (n - 1 - i for i in (orow, ocol, drow, dcol))
            level = level[::-1]
        # caller-numbered pieces, kept for block-diagonal batching
        self._off = sp.csr_matrix((oval, (orow, ocol)), shape=(n, n))
        self._dinv = sp.csr_matrix((dval, (drow, dcol)), shape=(n, n))
        self.schedule = LevelSchedule.from_levels(level)

    #: the sweep, one step per level, built by the first solve: a factor
    #: that is only ever batched (:func:`reference_concat`) never holds one
    _steps = None

    @property
    def stored_nnz(self) -> int:
        """Entries one sweep multiplies: ``Loff``, the inverted blocks, and
        the diagonal of every level that holds none (unless it is unit)."""
        rows = np.diff(self.schedule.bounds)
        kept = np.bincount(self.schedule.level_of_row, minlength=rows.size,
                           weights=np.diff(self._dinv.indptr))
        plain = 0 if self.diag is None else rows[kept == rows].sum()
        return int(self._off.nnz + kept[kept > rows].sum() + plain)

    def _materialize(self) -> list:
        """Build the sweep: one ``(rows, Loff, Dinv, diag)`` per level.

        ``Loff`` and ``Dinv`` are permuted into level order once; each
        level's ``Loff`` is then a view of a row range of that one matrix.
        ``Dinv`` is set on levels that hold an inverted block, ``diag`` on
        the others (``None`` under a unit diagonal): repeated solves run
        the sweep with no slicing at all.
        """
        n, order, bounds = self.n, self.schedule.order, self.schedule.bounds
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        off = self._off[order]
        dinv = self._dinv[order]
        dinv = sp.csr_matrix((dinv.data, pos[dinv.indices], dinv.indptr),
                             shape=(n, n))
        self._steps = []
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            rows = order[a:b]
            lo, hi = off.indptr[a], off.indptr[b]
            loff = None if lo == hi else sp.csr_matrix(
                (off.data[lo:hi], off.indices[lo:hi], off.indptr[a:b + 1] - lo),
                shape=(b - a, n))
            if dinv.indptr[b] - dinv.indptr[a] > b - a:
                step = (rows, loff, dinv[a:b, a:b], None)
            elif self.diag is None:
                step = (rows, loff, None, None)
            else:
                step = (rows, loff, None, self.diag[rows][:, None])
            self._steps.append(step)
        return self._steps

    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``T x = b`` for one or many right-hand sides at once."""
        b = as_block(b)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        p = b.shape[1]
        dtype = np.promote_types(self.dtype, b.dtype)
        b = b.astype(dtype, copy=False)
        # every row is written before a later level reads it
        x = np.empty((self.n, p), dtype=dtype)
        led = ledger.current()
        for rows, loff, dinv, diag_col in self._steps or self._materialize():
            rhs = b[rows]
            if loff is not None:
                rhs -= loff @ x
            if dinv is not None:
                rhs = dinv @ rhs
            elif diag_col is not None:
                rhs /= diag_col
            x[rows] = rhs
        kern = Kernel.BLAS2 if p == 1 else Kernel.BLAS3
        led.flop(kern, 2.0 * self.nnz * p)
        led.event("triangular_solve", p)
        return x

    @property
    def n_levels(self) -> int:
        """Sweep steps of one solve: levels of the block DAG."""
        return len(self.schedule)


def reference_concat(factors: list[ReferenceTriangularFactor]
                     ) -> ReferenceTriangularFactor:
    """Block-diagonal concatenation of same-orientation triangular factors.

    The combined factor solves all the subproblems in one blocked sweep:
    its level count is the *maximum* over the inputs (not the sum), and
    each step is one wide sparse-times-dense-block product — the BLAS-3
    batching that lets the Schwarz preconditioner push dozens of small
    per-subdomain solves through a single kernel.  Its flop charge
    (``2 * nnz * p``) equals the sum of the per-factor charges exactly.

    Block-diagonal structure means no cross-factor dependencies, so the
    inverted diagonal blocks and the levels of each input carry over
    unchanged: the schedules are concatenated level by level, nothing is
    analysed again.
    """
    if not factors:
        raise ValueError("need at least one factor")
    lower = factors[0].lower
    unit = factors[0].unit_diagonal
    if any(f.lower != lower or f.unit_diagonal != unit for f in factors):
        raise ValueError("factors must share orientation and diagonal kind")
    if len(factors) == 1:
        return factors[0]
    obj = ReferenceTriangularFactor.__new__(ReferenceTriangularFactor)
    obj.n = int(sum(f.n for f in factors))
    obj.lower = lower
    obj.unit_diagonal = unit
    obj.dtype = np.result_type(*(f.dtype for f in factors))
    obj.nnz = int(sum(f.nnz for f in factors))
    obj.diag = None if unit else np.concatenate([f.diag for f in factors])
    obj._off = sp.block_diag([f._off for f in factors], format="csr")
    obj._dinv = sp.block_diag([f._dinv for f in factors], format="csr")
    obj.schedule = LevelSchedule.from_levels(
        np.concatenate([f.schedule.level_of_row for f in factors]))
    obj._materialize()         # a batch exists to be solved with
    return obj
