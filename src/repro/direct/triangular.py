"""Blocked level-scheduled triangular solves — the Fig. 6 kernel.

A sparse triangular solve is a DAG traversal: row ``i`` can be computed as
soon as every row it references is done.  Grouping rows into *levels*
(equal longest-path depth) turns the solve into a short sequence of sparse
products on the whole ``(rows, p)`` right-hand-side slab, the factor
streamed once per *block* of right-hand sides (paper section V-B3).

Row levels alone leave LU factors deep and skinny: a supernode of ``w``
columns is a chain of ``w`` rows in ``w`` successive levels, and on the
Maxwell subdomain factors that is 680 levels of 14 rows — the sweep is
bound by the number of steps, not by the entries it multiplies.  So the
schedule is built over *blocks*:

* a **block** is a run of consecutive rows (in sweep order) in which every
  row references the one before it — a dependency chain, rows that sit in
  successive levels anyway — at most ``_BLOCK_WIDTH`` rows wide, each row
  holding at least ``_BLOCK_DENSITY`` of the entries it could hold inside
  the block.  Its diagonal block ``T`` is inverted once, at construction;
* levels are longest-path depths in the DAG of blocks (a row outside every
  chain is a block of one), and one sweep step is

      x[rows] = Dinv @ (b[rows] - Loff[rows, :] @ x)

  with ``Loff`` the entries outside the diagonal blocks and ``Dinv`` the
  block-diagonal matrix of that level's inverted blocks.  A level of
  single rows degenerates to ``(b[rows] - Loff @ x) / diag``.

The chain makes ``inv(T)`` a full triangle, so the density rule is what
bounds the fill: a block stores at most twice the entries it replaces, and
on LU factors (dense supernodes) ``stored_nnz`` stays within about one
percent of ``nnz``.  That is why the ledger keeps charging ``2 * nnz * p``
flops per solve — the blocked sweep multiplies, to that percent, the
entries the row sweep did.

Two properties are observed on the input, not assumed.  A block whose
inverse cannot be trusted — non-finite, or ``|inv(T)|_1 |T|_1`` above
``_BLOCK_COND`` — stays a run of single rows, solved by substitution as
before.  And merging rows can, on adversarial patterns, *lengthen* the
longest path (every block waits for the dependencies of all its rows), so
a factor whose block DAG is no shallower than its row DAG keeps the row
schedule.

Everything is analysed once at construction and stored in the caller's row
numbering, for lower and upper factors alike; every solve reuses it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import as_block

__all__ = ["LevelSchedule", "TriangularFactor", "concat_factors"]

#: most rows merged into one inverted diagonal block
_BLOCK_WIDTH = 32
#: least share of its possible in-block entries a row must store to join
_BLOCK_DENSITY = 0.5
#: largest ``|inv(T)|_1 |T|_1`` at which an inverted block is used
_BLOCK_COND = 1.0 / np.sqrt(np.finfo(np.float64).eps)


def _levels_frontier(n: int, indptr: np.ndarray, indices: np.ndarray,
                     *, fallback_width: int = 32) -> np.ndarray:
    """Frontier-batched longest-path levels over the CSR dependency DAG.

    Topological breadth-first sweep in whole-frontier numpy batches
    (Kahn's algorithm): the rows with no unresolved dependencies form
    frontier 0; resolving a frontier decrements the dependency counters
    of its dependents (one ``bincount`` per wave), and the rows whose
    counter hits zero form the next frontier.  A row only becomes ready
    once its *deepest* dependency is resolved, so wave ``k`` contains
    exactly the rows of level ``k`` — levels are the wave counter, no
    per-edge max propagation needed.  Each edge is touched exactly once:
    ``O(nnz)`` vectorized work in ``n_levels`` batches.

    Wide DAGs (block-diagonal Schwarz factors, shallow fill patterns)
    amortize the per-wave numpy overhead over hundreds of rows and win by
    an order of magnitude over the per-row python loop.  Deep, skinny
    DAGs (the tail of a global LU factor, median frontier of a few rows)
    do not — so once the frontier narrows below ``fallback_width`` the
    remaining rows are resolved with the per-row recurrence, which is
    valid in plain index order: every dependency of a pending row is
    either already resolved or a smaller-index pending row that the loop
    reaches first.
    """
    rows = np.repeat(np.arange(n, dtype=np.int64),
                     np.diff(indptr).astype(np.int64))
    strict = indices < rows          # ignore diagonal / upper entries
    src = indices[strict]            # dependency j ...
    dst = rows[strict]               # ... of row i > j
    remaining = np.bincount(dst, minlength=n)
    # reverse adjacency (edges grouped by source), CSR-style
    order = np.argsort(src, kind="stable")
    out_dst = dst[order]
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=out_ptr[1:])

    level = np.zeros(n, dtype=np.int64)
    frontier = np.flatnonzero(remaining == 0)
    wave = 0
    while frontier.size >= fallback_width:
        wave += 1
        starts = out_ptr[frontier]
        counts = out_ptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return level
        # flatten the frontier's out-edge index ranges in one shot
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        flat = np.repeat(starts - offsets, counts) + np.arange(total)
        touched = np.bincount(out_dst[flat], minlength=n)
        remaining -= touched
        frontier = np.flatnonzero((touched > 0) & (remaining == 0))
        level[frontier] = wave
    # skinny tail: per-row recurrence over the still-unresolved rows
    for i in np.flatnonzero(remaining > 0):
        row_cols = indices[indptr[i]: indptr[i + 1]]
        deps = row_cols[row_cols < i]
        level[i] = level[deps].max() + 1
    return level




class LevelSchedule:
    """Topological level partition of a (lower) triangular matrix's rows."""

    def __init__(self, lower_csr: sp.csr_matrix):
        n = lower_csr.shape[0]
        level = _levels_frontier(n, lower_csr.indptr, lower_csr.indices)
        self._init_from_levels(level)

    @classmethod
    def from_levels(cls, level: np.ndarray) -> "LevelSchedule":
        """Build a schedule from a precomputed per-row level array."""
        obj = cls.__new__(cls)
        obj._init_from_levels(np.asarray(level, dtype=np.int64))
        return obj

    def _init_from_levels(self, level: np.ndarray) -> None:
        self.level_of_row = level
        self.n_levels = int(level.max()) + 1 if level.size else 0
        #: rows sorted by level (ascending row inside a level) ...
        self.order = np.argsort(level, kind="stable")
        #: ... and where each level starts in that order
        self.bounds = np.searchsorted(level[self.order],
                                      np.arange(self.n_levels + 1))
        self.rows_by_level = [self.order[self.bounds[k]: self.bounds[k + 1]]
                              for k in range(self.n_levels)]

    def __len__(self) -> int:
        return self.n_levels


def _csr_ptr(sorted_rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of entries already grouped by ascending row."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_rows, minlength=n), out=ptr[1:])
    return ptr


def _chain_blocks(n: int, row: np.ndarray, col: np.ndarray
                  ) -> tuple[np.ndarray, int]:
    """First row of every diagonal block of a strictly lower pattern.

    Greedy, in row order: row ``r`` joins the block that ends at ``r - 1``
    when it references ``r - 1``, the block is narrower than
    ``_BLOCK_WIDTH``, and ``r`` stores at least ``_BLOCK_DENSITY`` of the
    entries it could store inside the block; otherwise ``r`` starts a new
    block.  The per-row python is one bit test on a precomputed mask.

    Also returns the length of the longest chain (run of rows that each
    reference the one before): those rows sit in successive row levels, so
    it is a lower bound on the depth of the row DAG.
    """
    reach = np.arange(_BLOCK_WIDTH)
    dist = row - col
    near = dist < _BLOCK_WIDTH
    band = np.zeros((n, _BLOCK_WIDTH), dtype=bool)
    band[row[near], dist[near]] = True       # entry (r, r - d) is stored
    chained = band[:, 1]
    # inside[r, w]: entries of row r in the w columns left of its diagonal
    inside = np.cumsum(band, axis=1, dtype=np.int16)
    fits = chained[:, None] & (inside >= _BLOCK_DENSITY * reach)
    # bit w of joins[r]: row r may extend a block that is w rows wide
    joins = (fits.astype(np.int64) << reach).sum(axis=1).tolist()
    starts, first = [], 0
    for r in range(n):
        w = r - first
        if not (0 < w < _BLOCK_WIDTH and joins[r] >> w & 1):
            first = r
            starts.append(r)
    longest = int(np.diff(np.flatnonzero(~chained), append=n).max()) if n else 0
    return np.asarray(starts, dtype=np.int64), longest


def _invert_blocks(start: np.ndarray, width: np.ndarray, row: np.ndarray,
                   col: np.ndarray, val: np.ndarray, diag: np.ndarray | None,
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


def _levels_of_blocks(n: int, row: np.ndarray, col: np.ndarray,
                      block: np.ndarray) -> np.ndarray:
    """Per-row level in the DAG of blocks (``block``: block of each row).

    Blocks are runs of consecutive rows, so the entries, already grouped
    by ascending row, are grouped by ascending block as well.
    """
    nblocks = int(block[-1]) + 1 if n else 0
    brow, bcol = block[row], block[col]
    outside = brow != bcol
    level = _levels_frontier(nblocks, _csr_ptr(brow[outside], nblocks),
                             bcol[outside])
    return level[block]


class TriangularFactor:
    """A triangular factor prepared for repeated blocked solves.

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
        trusted, inv = _invert_blocks(start, width, row, col, val, diag,
                                      np.result_type(mat.dtype, np.float32))
        merged = np.repeat(trusted, width)     # row sits in an inverted block
        head = ~merged
        head[start[trusted]] = True
        block = np.cumsum(head) - 1
        level = _levels_of_blocks(n, row, col, block)
        # a block waits for the dependencies of all its rows, which can
        # lengthen the longest path; the row DAG is at least as deep as the
        # longest chain, so it is levelled only when that does not settle it
        if merged.any() and level.max() + 1 >= longest_chain:
            row_level = _levels_of_blocks(n, row, col, np.arange(n))
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
    #: that is only ever batched (:func:`concat_factors`) never holds one
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


def concat_factors(factors: list[TriangularFactor]) -> TriangularFactor:
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
    obj = TriangularFactor.__new__(TriangularFactor)
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
