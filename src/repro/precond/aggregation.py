"""Strength-of-connection graphs and greedy aggregation for SA-AMG.

Mirrors the knobs of PETSc's GAMG used in the paper's command lines:

* ``threshold`` — ``-pc_gamg_threshold``: edge ``(i, j)`` is *strong* when
  ``|a_ij| > threshold * sqrt(|a_ii a_jj|)``; raising it drops more edges,
  giving smaller/cheaper coarse grids at the price of more iterations
  (exactly the trade-off of Fig. 2c/d);
* ``square_graph`` — ``-pc_gamg_square_graph``: aggregate on the square of
  the strength graph (distance-2 aggregates, coarser grids).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["strength_graph", "greedy_aggregation", "tentative_prolongator"]


def strength_graph(a: sp.spmatrix, *, threshold: float = 0.0,
                   square: int = 0) -> sp.csr_matrix:
    """Boolean strength-of-connection graph of ``a``.

    For vector problems callers should pass the scalar *block* matrix (one
    row per node); this routine treats the matrix entries as given.
    """
    a = sp.csr_matrix(a)
    n = a.shape[0]
    coo = a.tocoo()
    absval = np.abs(coo.data)
    diag = np.abs(a.diagonal())
    diag_safe = np.where(diag > 0, diag, 1.0)
    scale = np.sqrt(diag_safe[coo.row] * diag_safe[coo.col])
    keep = (absval > threshold * scale) & (coo.row != coo.col)
    g = sp.csr_matrix((np.ones(np.count_nonzero(keep), dtype=np.int8),
                       (coo.row[keep], coo.col[keep])), shape=(n, n))
    g = ((g + g.T) > 0).astype(np.int8)
    for _ in range(square):
        g = ((g @ g + g) > 0).astype(np.int8)
        g.setdiag(0)
        g.eliminate_zeros()
    return g.tocsr()


def greedy_aggregation(strength: sp.csr_matrix) -> np.ndarray:
    """Root-based greedy aggregation (standard SA pass 1 + 2).

    Returns ``agg`` of length n with ``agg[i]`` = aggregate id of node i.

    * pass 1: any node whose strong neighbourhood is fully unaggregated
      becomes a root and absorbs that neighbourhood (an isolated node's
      empty neighbourhood qualifies: it becomes a singleton);
    * pass 2: remaining nodes join the aggregate most of their strong
      neighbours belong to, the lowest id on a tie.  Every one of them has
      such a neighbour — that is why it was not a root — so no node is
      left for the textbook's singleton pass 3.
    """
    n = strength.shape[0]
    # sequential by definition (a root claims its neighbours before the next
    # node looks): loops, but over Python ints, not numpy scalars
    indptr, indices = strength.indptr.tolist(), strength.indices.tolist()
    agg = [-1] * n
    next_id = 0
    # pass 1
    for i in range(n):
        if agg[i] != -1:
            continue
        neigh = indices[indptr[i]: indptr[i + 1]]
        for j in neigh:
            if agg[j] != -1:
                break
        else:
            agg[i] = next_id
            for j in neigh:
                agg[j] = next_id
            next_id += 1
    # pass 2
    for i in range(n):
        if agg[i] != -1:
            continue
        votes: dict[int, int] = {}
        for j in indices[indptr[i]: indptr[i + 1]]:
            if agg[j] >= 0:
                votes[agg[j]] = votes.get(agg[j], 0) + 1
        agg[i] = min(votes, key=lambda a_id: (-votes[a_id], a_id))
    return np.asarray(agg, dtype=np.int64)


def tentative_prolongator(agg: np.ndarray, nullspace: np.ndarray,
                          *, block_size: int = 1
                          ) -> tuple[sp.csr_matrix, np.ndarray]:
    """Build the tentative prolongator from aggregates and near-nullspace.

    Each aggregate contributes ``nvec`` coarse degrees of freedom: the
    restriction of the near-nullspace vectors to the aggregate's rows,
    orthonormalized by a local QR.  Returns ``(T, coarse_nullspace)`` where
    the R factors stack into the coarse-level near-nullspace (standard SA).

    ``block_size`` expands a *node*-based aggregation to vector problems:
    ``agg`` has one entry per node and rows ``node*bs .. node*bs+bs-1``
    belong to that node.
    """
    if nullspace.ndim == 1:
        nullspace = nullspace.reshape(-1, 1)
    n_rows, nvec = nullspace.shape
    n_nodes = agg.shape[0]
    if n_nodes * block_size != n_rows:
        raise ValueError(f"{n_nodes} nodes x block {block_size} != {n_rows} rows")
    n_agg = int(agg.max()) + 1
    # nodes grouped by aggregate, ascending within each (stable sort)
    order = np.argsort(agg, kind="stable")
    sizes = np.bincount(agg, minlength=n_agg)
    starts = np.cumsum(sizes) - sizes

    data, rows, cols = [], [], []
    coarse_ns = np.zeros((n_agg * nvec, nvec), dtype=nullspace.dtype)
    # one stacked QR per distinct aggregate size: LAPACK still factors matrix
    # by matrix, so Q, R and their signs are a per-aggregate call's
    for size in np.unique(sizes):
        ids = np.flatnonzero(sizes == size)
        nodes = order[starts[ids][:, None] + np.arange(size)]
        agg_rows = (nodes[:, :, None] * block_size
                    + np.arange(block_size)).reshape(len(ids), -1)
        q, r = np.linalg.qr(nullspace[agg_rows])      # (ids, rows, keep)
        keep = q.shape[2]
        coarse = ids[:, None] * nvec + np.arange(keep)    # (ids, keep)
        data.append(q.ravel())
        rows.append(np.repeat(agg_rows, keep, axis=1).ravel())
        cols.append(np.tile(coarse, (1, agg_rows.shape[1])).ravel())
        coarse_ns[coarse] = r
    t = sp.csr_matrix((np.concatenate(data),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_rows, n_agg * nvec))
    return t, coarse_ns
