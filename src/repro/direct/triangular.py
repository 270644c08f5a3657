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

Everything is analysed once at construction and stored in *level order*,
for lower and upper factors alike: rows renumbered so that level ``k`` is
the slice ``[bounds[k], bounds[k+1])``, ``Loff``'s columns in that
numbering, each level's ``Dinv`` (or diagonal) beside it.  A solve gathers
the right-hand side into level order once, runs every step on a contiguous
slice through scipy's CSR kernel (``csr_matvecs``, the kernel behind
``Loff @ x``, with the entries of a row in the caller's column order: the
same bits), and scatters once back.  Batching factors
(:func:`concat_factors`) stitches their levels.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs, csr_tocsc

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
    # reverse adjacency (edges grouped by source): the transpose of the
    # strict pattern, by scipy's counting sort
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(remaining, out=ptr[1:])
    out_ptr = np.empty(n + 1, dtype=np.int64)
    out_dst = np.empty(src.size, dtype=np.int64)
    pattern = np.zeros(src.size, dtype=bool)       # values: none needed
    csr_tocsc(n, n, ptr, src.astype(np.int64), pattern, out_ptr, out_dst,
              pattern.copy())

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
    # skinny tail: per-row recurrence over the still-unresolved rows, on
    # python lists (a row costs a list slice, not four numpy calls)
    pending = np.flatnonzero(remaining > 0)
    if pending.size:
        counts = ptr[pending + 1] - ptr[pending]
        offsets = np.cumsum(counts) - counts
        deps = src[np.repeat(ptr[pending] - offsets, counts)
                   + np.arange(int(counts.sum()))].tolist()
        lv = level.tolist()
        for i, lo, hi in zip(pending.tolist(), offsets.tolist(),
                             (offsets + counts).tolist()):
            lv[i] = max(map(lv.__getitem__, deps[lo:hi])) + 1
        level = np.asarray(lv, dtype=np.int64)
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


def _ragged_tril(width: np.ndarray) -> tuple:
    """``(block, i, j)`` of every entry of the lower triangles of blocks of
    the given widths, block by block, row by row (row-major)."""
    block = np.repeat(np.arange(width.size), width)
    i = np.arange(block.size) - np.repeat(np.cumsum(width) - width, width)
    j = np.arange(int((i + 1).sum())) - np.repeat(np.cumsum(i + 1) - i - 1,
                                                  i + 1)
    return np.repeat(block, i + 1), np.repeat(i, i + 1), j


def _width_groups(widths: np.ndarray) -> list[tuple[int, int]]:
    """Split blocks sorted widest first into runs inverted as one stack.

    A run is padded to its widest block, so it is cut where the padding
    would exceed four times the entries its blocks really hold: memory
    stays within a constant of the factor's, and on LU factors (a few wide
    supernodes, many narrow ones) one run usually holds every block.
    """
    groups, lo = [], 0
    while lo < widths.size:
        sq = np.cumsum(widths[lo:] ** 2)
        fits = np.arange(1, sq.size + 1) * widths[lo] ** 2 <= 4 * sq
        hi = lo + (sq.size if fits.all() else int(np.argmin(fits)))
        groups.append((lo, hi))
        lo = hi
    return groups


def _invert_blocks(start: np.ndarray, width: np.ndarray, row: np.ndarray,
                   col: np.ndarray, val: np.ndarray, diag: np.ndarray | None,
                   dtype) -> tuple[np.ndarray, tuple]:
    """Invert the diagonal blocks ``[start, start + width)`` of a lower factor.

    ``row, col, val`` are the factor's strict entries, ``diag`` its
    diagonal (``None``: unit).  The blocks wider than one row are stacked
    widest first, padded to the widest (see :func:`_width_groups`), and
    inverted by one forward substitution: step ``i`` acts on the prefix
    of blocks wider than ``i``, each block through the same
    ``(1, i) @ (i, i)`` product as alone — an exactly triangular result.
    Returns which blocks can be trusted (more than one row, finite, and
    ``|inv(T)|_1 |T|_1 <= _BLOCK_COND``) and the inverses of those as COO
    triples in the factor's row numbering.
    """
    trusted = np.zeros(start.size, dtype=bool)
    wide = np.flatnonzero(width > 1)
    wide = wide[np.argsort(-width[wide], kind="stable")]
    # an entry is inside its row's block when its column is not left of it
    first = np.repeat(start, width)
    inside = col >= first[row]
    row, col, val = row[inside], col[inside], val[inside]
    block = np.repeat(np.arange(start.size), width)[row]
    slot = np.full(start.size, -1, dtype=np.int64)     # block -> stack row
    none = np.empty(0, dtype=np.int64)
    out_row, out_col, out_val = [none], [none], [np.empty(0, dtype=dtype)]
    for lo, hi in _width_groups(width[wide]):
        ids = wide[lo:hi]
        w = width[ids]
        big = int(w[0])
        slot[ids] = np.arange(ids.size)
        mine = slot[block] >= 0
        b = block[mine]
        t = np.zeros((ids.size, big, big), dtype=dtype)
        t[slot[b], row[mine] - start[b], col[mine] - start[b]] = val[mine]
        slot[ids] = -1
        # every block's lower triangle, row-major, and its diagonal
        blk, ri, ci = _ragged_tril(w)
        on = ri == ci
        t[blk[on], ri[on], ri[on]] = (1.0 if diag is None
                                      else diag[start[ids][blk[on]] + ri[on]])
        # blocks wider than i: a prefix, the stack being sorted widest first
        wider = np.bincount(w - 1)[::-1].cumsum()[::-1].tolist()
        inv = np.zeros_like(t)
        with np.errstate(all="ignore"):
            for i, m in enumerate(wider):
                inv[:m, i, i] = 1.0
                inv[:m, i, :i] = -(t[:m, i:i + 1, :i] @ inv[:m, :i, :i])[:, 0]
                inv[:m, i, :i + 1] /= t[:m, i, i, None]
            tril = inv[blk, ri, ci]
            cond = (_column_norm(tril, blk, ci, ids.size, big)
                    * _column_norm(t[blk, ri, ci], blk, ci, ids.size, big))
        ok = cond <= _BLOCK_COND          # False for a non-finite inverse
        trusted[ids[ok]] = True
        keep = ok[blk]
        rows = start[ids][blk[keep]] + ri[keep]
        out_row.append(rows)
        out_col.append(rows - ri[keep] + ci[keep])
        out_val.append(tril[keep])
    return trusted, (np.concatenate(out_row), np.concatenate(out_col),
                     np.concatenate(out_val))


def _column_norm(tril: np.ndarray, k: np.ndarray, j: np.ndarray,
                 nblocks: int, big: int) -> np.ndarray:
    """``|T|_1`` of every block from its lower triangle ``tril``, entries
    row by row: each column summed down its rows, as ``sum(axis=1)``
    of the dense blocks does."""
    mag = np.abs(tril)
    norms = np.zeros(nblocks * big, dtype=mag.dtype)
    np.add.at(norms, k * big + j, mag)
    return norms.reshape(nblocks, big).max(axis=1)


def _levels_of_blocks(n: int, row: np.ndarray, col: np.ndarray,
                      block: np.ndarray) -> np.ndarray:
    """Per-row level in the DAG of blocks (``block``: block of each row).

    Blocks are runs of consecutive rows, so the entries, already grouped
    by ascending row, are grouped by ascending block as well; with the
    columns of a row ascending, the edges a row's entries give to one
    block are adjacent, and only the first of them is kept.
    """
    nblocks = int(block[-1]) + 1 if n else 0
    brow, bcol = np.take(block, row), np.take(block, col)
    keep = brow != bcol
    keep[1:] &= (bcol[1:] != bcol[:-1]) | (brow[1:] != brow[:-1])
    level = _levels_frontier(nblocks, _csr_ptr(brow[keep], nblocks),
                             bcol[keep])
    return level[block]


def _index_dtype(size: int):
    """The CSR index type of arrays addressing ``size`` entries."""
    return np.int32 if size < np.iinfo(np.int32).max else np.int64


def _permute_rows(ptr: np.ndarray, idx: np.ndarray, val: np.ndarray,
                  src: np.ndarray, newcol: np.ndarray) -> tuple:
    """CSR rows ``src[0], src[1], ...`` of ``(ptr, idx, val)``, columns
    renumbered by ``newcol``; the entries keep their order inside a row."""
    counts = np.diff(ptr)[src]
    itype = _index_dtype(max(int(counts.sum()), newcol.size))
    out = np.zeros(src.size + 1, dtype=itype)
    np.cumsum(counts, out=out[1:])
    take = np.repeat(ptr[src] - out[:-1], counts) + np.arange(out[-1])
    return (out, np.take(newcol.astype(itype, copy=False), np.take(idx, take)),
            np.take(val, take))


def _inverse(order: np.ndarray) -> np.ndarray:
    """The inverse permutation: ``pos[order[k]] == k``."""
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    return pos


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
        diag = None
        if not unit_diagonal:
            diag = np.asarray(mat.diagonal())
            if np.any(diag == 0):
                raise np.linalg.LinAlgError("singular triangular factor")

        # analyse in the *sweep frame* — rows numbered in the order the
        # substitution visits them, in which every factor is lower
        # triangular; an upper factor's entries are the caller's reversed
        strict = mat.indices != rows
        row, col, val = rows[strict], mat.indices[strict], mat.data[strict]
        srow, scol, sval, sdiag = row, col, val, diag
        if not lower:
            srow, scol, sval = n - 1 - row[::-1], n - 1 - col[::-1], val[::-1]
            sdiag = None if diag is None else diag[::-1]

        start, longest_chain = _chain_blocks(n, srow, scol)
        width = np.diff(start, append=n)
        dtype = np.result_type(mat.dtype, np.float32)
        trusted, inv = _invert_blocks(start, width, srow, scol, sval, sdiag,
                                      dtype)
        merged = np.repeat(trusted, width)     # row sits in an inverted block
        head = ~merged
        head[start[trusted]] = True
        block = np.cumsum(head) - 1
        level = _levels_of_blocks(n, srow, scol, block)
        # a block waits for the dependencies of all its rows, which can
        # lengthen the longest path; the row DAG is at least as deep as the
        # longest chain, so it is levelled only when that does not settle it
        if merged.any() and level.max() + 1 >= longest_chain:
            row_level = _levels_of_blocks(n, srow, scol, np.arange(n))
            if row_level.max() <= level.max():     # merging bought no depth
                merged[:] = False
                block, level = np.arange(n), row_level
                inv = tuple(a[:0] for a in inv)

        # Dinv, sweep frame, in CSR order: a row of an inverted block holds
        # its row of inv(T), every other row its reciprocal diagonal
        local = np.arange(n) - np.repeat(start, width)
        dptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.where(merged, local + 1, 1), out=dptr[1:])
        dcol = np.empty(dptr[-1], dtype=np.int64)
        dval = np.empty(dptr[-1], dtype=dtype)
        single = np.flatnonzero(~merged)
        dcol[dptr[single]] = single
        dval[dptr[single]] = 1.0 if sdiag is None else 1.0 / sdiag[single]
        at = dptr[inv[0]] + local[inv[1]]
        dcol[at], dval[at] = inv[1], inv[2]
        outside = np.take(block, srow) != np.take(block, scol)
        if not lower:    # back to the caller's rows, still in CSR order
            dptr = dptr[-1] - dptr[::-1]
            dcol, dval = n - 1 - dcol[::-1], dval[::-1]
            outside, level = outside[::-1], level[::-1]
        self.schedule = LevelSchedule.from_levels(level)
        order = self.schedule.order
        pos = _inverse(order)
        self._lay_out(
            _permute_rows(_csr_ptr(row[outside], n), col[outside],
                          val[outside], order, pos),
            _permute_rows(dptr, dcol, dval, order, pos),
            None if diag is None else diag[order], pos)

    def _lay_out(self, loff: tuple, dinv: tuple, diag: np.ndarray | None,
                 pos: np.ndarray) -> None:
        """Store the level-ordered sweep: row ``k`` of ``Loff`` / ``Dinv`` /
        ``diag`` is caller row ``schedule.order[k]``, level ``l`` the slice
        ``bounds[l]:bounds[l + 1]``, columns numbered the same way.  One
        ``(start, stop, Loff row pointer, Dinv row pointer, diag)`` per
        level: ``Dinv`` on levels that hold an inverted block, ``diag`` on
        the others (``None`` under a unit diagonal), ``Loff`` unless the
        level has no entry outside its blocks."""
        self._loff, self._dinv, self._diag, self._pos = loff, dinv, diag, pos
        bounds = self.schedule.bounds
        a, b = bounds[:-1], bounds[1:]
        has_off = (loff[0][b] > loff[0][a]).tolist()
        blocked = (dinv[0][b] - dinv[0][a] > b - a).tolist()
        self._steps = [
            (lo, hi, loff[0][lo:hi + 1] if off else None,
             dinv[0][lo:hi + 1] if blk else None,
             None if blk or diag is None else diag[lo:hi, None])
            for lo, hi, off, blk in zip(a.tolist(), b.tolist(), has_off,
                                        blocked)]
        self._widest = int((b - a).max()) if a.size else 0

    @property
    def stored_nnz(self) -> int:
        """Entries one sweep multiplies: ``Loff``, the inverted blocks, and
        the diagonal of every level that holds none (unless it is unit)."""
        bounds = self.schedule.bounds
        rows = np.diff(bounds)
        kept = np.diff(self._dinv[0][bounds])
        plain = 0 if self.unit_diagonal else rows[kept == rows].sum()
        return int(self._loff[0][-1] + kept[kept > rows].sum() + plain)

    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``T x = b`` for one or many right-hand sides at once.

        ``b`` is gathered into level order once; every level is then a
        contiguous slice ``x[lo:hi]``, updated through the CSR kernel:
        ``x[lo:hi] -= Loff x`` and ``x[lo:hi] = Dinv x[lo:hi]`` (or
        ``/= diag``), each product into a zeroed scratch block — the
        kernel, entry order and operations of ``b[rows] - Loff @ x`` with
        scipy's product.  One gather returns the caller's row order.
        """
        b = as_block(b)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        n, p = b.shape
        dtype = np.promote_types(self.dtype, b.dtype)
        x = np.ascontiguousarray(b[self.schedule.order], dtype=dtype)
        (_, lidx, lval), (_, didx, dval) = self._loff, self._dinv
        # the kernel would convert a real factor's entries on every call
        lval = lval.astype(dtype, copy=False)
        dval = dval.astype(dtype, copy=False)
        scratch = np.empty((self._widest, p), dtype=dtype)
        for lo, hi, lptr, dptr, diag in self._steps:
            rhs, prod = x[lo:hi], scratch[:hi - lo]
            if lptr is not None:
                prod.fill(0)
                csr_matvecs(hi - lo, n, p, lptr, lidx, lval, x, prod)
                np.subtract(rhs, prod, out=rhs)
            if dptr is not None:
                prod.fill(0)
                csr_matvecs(hi - lo, n, p, dptr, didx, dval, x, prod)
                rhs[...] = prod
            elif diag is not None:
                np.divide(rhs, diag, out=rhs)
        led = ledger.current()
        kern = Kernel.BLAS2 if p == 1 else Kernel.BLAS3
        led.flop(kern, 2.0 * self.nnz * p)
        led.event("triangular_solve", p)
        return x[self._pos]

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
    unchanged: level ``l`` of the batch is level ``l`` of every input in
    turn, and each input's level-ordered rows are stitched into it with
    their column indices moved to the batch's positions — nothing is
    analysed or sorted again.
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
    obj.schedule = LevelSchedule.from_levels(
        np.concatenate([f.schedule.level_of_row for f in factors]))
    pos = _inverse(obj.schedule.order)
    first = np.cumsum([0] + [f.n for f in factors])
    bounds = [f.schedule.bounds.tolist() for f in factors]
    # level l of the batch is level l of every input in turn: (input, rows)
    pieces = [(i, rows[lvl], rows[lvl + 1]) for lvl in range(obj.n_levels)
              for i, rows in enumerate(bounds) if lvl + 1 < len(rows)]
    # batch position of every input's level-ordered row
    moved = [np.take(pos, o + f.schedule.order)
             for f, o in zip(factors, first)]

    def gather(arrays: list[np.ndarray], spans: list[tuple]) -> np.ndarray:
        # every input's empty slice first: the dtype of all of them
        return np.concatenate([a[:0] for a in arrays]
                              + [arrays[i][lo:hi] for i, lo, hi in spans])

    def stitch(parts: list[tuple]) -> tuple:
        """The batch's level-ordered CSR from the inputs' CSR triples."""
        ptrs, idxs, vals = zip(*parts)
        spans = [(i, ptrs[i][lo], ptrs[i][hi]) for i, lo, hi in pieces]
        idx = gather([np.take(m, idx) for m, idx in zip(moved, idxs)], spans)
        ptr = np.zeros(obj.n + 1, dtype=_index_dtype(max(idx.size, obj.n)))
        np.cumsum(gather([np.diff(p) for p in ptrs], pieces), out=ptr[1:])
        return ptr, idx.astype(ptr.dtype, copy=False), gather(vals, spans)

    obj._lay_out(stitch([f._loff for f in factors]),
                 stitch([f._dinv for f in factors]),
                 None if unit else gather([f._diag for f in factors], pieces),
                 pos)
    return obj
