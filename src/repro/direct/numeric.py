"""Gilbert-Peierls sparse LU factorization (left-looking, partial pivoting).

The classic algorithm behind SuperLU's simple driver: for each column ``j``

1. *symbolic*: depth-first search from the nonzeros of ``A[:, j]`` through
   the pattern of the already-computed columns of ``L`` determines the
   nonzero pattern of the solution of ``L x = A[:, j]`` (the "reach");
2. *numeric*: sparse lower-triangular solve restricted to that pattern, in
   the topological order the DFS produced;
3. *pivot*: the largest entry of the sub-diagonal part is swapped into the
   diagonal (threshold partial pivoting).

Pure-Python/NumPy with per-nonzero cost proportional to the flops — exact
and dependency-free, used as the reference engine and for the modest
subdomain sizes of the Schwarz preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..util import ledger
from ..util.ledger import Kernel

__all__ = ["LUFactors", "gilbert_peierls_lu"]


@dataclass
class LUFactors:
    """Result of the factorization: ``P_r A P_c = L U`` (rows permuted)."""

    l: sp.csr_matrix          # unit lower triangular
    u: sp.csr_matrix          # upper triangular
    perm_r: np.ndarray        # row permutation: factored row i is A row perm_r[i]
    perm_c: np.ndarray        # column permutation (fill-reducing ordering)

    @property
    def fill_nnz(self) -> int:
        return int(self.l.nnz + self.u.nnz)


def gilbert_peierls_lu(a: sp.spmatrix, *, perm_c: np.ndarray | None = None,
                       pivot_threshold: float = 1.0) -> LUFactors:
    """Factor ``A[:, perm_c]`` into ``L U`` with threshold partial pivoting.

    ``pivot_threshold`` in (0, 1]: 1.0 is classic partial pivoting, smaller
    values prefer the diagonal entry when it is within the threshold of the
    column maximum (keeps fill closer to the symbolic prediction).
    """
    a = sp.csc_matrix(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("LU requires a square matrix")
    if perm_c is None:
        perm_c = np.arange(n, dtype=np.int64)
    dtype = np.promote_types(a.dtype, np.float64)

    # L columns under construction: per-column (rows, values) in final row
    # numbering; row_perm maps original row -> pivot position (or -1)
    lcols_rows: list[np.ndarray] = []
    lcols_vals: list[np.ndarray] = []
    ucols_rows: list[np.ndarray] = []
    ucols_vals: list[np.ndarray] = []
    pinv = np.full(n, -1, dtype=np.int64)       # original row -> pivot index
    perm_r = np.empty(n, dtype=np.int64)

    # pattern of L columns in *original* row indices for the DFS
    lpat: list[np.ndarray] = []

    x = np.zeros(n, dtype=dtype)                # dense scatter workspace
    flops = 0.0

    for j in range(n):
        col = perm_c[j]
        a_rows = a.indices[a.indptr[col]: a.indptr[col + 1]]
        a_vals = a.data[a.indptr[col]: a.indptr[col + 1]]

        # ---- symbolic: DFS through eliminated columns ------------------
        visited = set()
        topo: list[int] = []
        for r in a_rows:
            r = int(r)
            if r in visited:
                continue
            # iterative DFS
            stack = [(r, 0)]
            visited.add(r)
            while stack:
                node, ptr = stack[-1]
                k = pinv[node]
                children = lpat[k] if k >= 0 else ()
                advanced = False
                while ptr < len(children):
                    child = int(children[ptr])
                    ptr += 1
                    if child not in visited:
                        visited.add(child)
                        stack[-1] = (node, ptr)
                        stack.append((child, 0))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    topo.append(node)
        # topo holds original row indices in reverse topological order of
        # the dependency DAG: dependencies appear AFTER their dependents,
        # so process in reversed order.
        topo.reverse()

        # ---- numeric: sparse triangular solve --------------------------
        x[a_rows] = a_vals
        for node in topo:
            k = pinv[node]
            if k < 0:
                continue
            xk = x[node]
            if xk == 0:
                continue
            rows_k = lcols_rows[k]
            vals_k = lcols_vals[k]
            x[rows_k] -= xk * vals_k
            flops += 2.0 * len(rows_k)

        # ---- pivot ------------------------------------------------------
        below = [r for r in topo if pinv[r] < 0]
        if not below:
            raise np.linalg.LinAlgError(f"structurally singular at column {j}")
        vals_below = np.array([x[r] for r in below])
        vmax = np.max(np.abs(vals_below))
        if not np.isfinite(vmax) or vmax == 0.0:
            raise np.linalg.LinAlgError(
                f"singular or non-finite pivot column {j}")
        # prefer the natural (diagonal) row within the threshold
        pivot_row = None
        diag_row = perm_c[j]
        if pinv[diag_row] < 0 and abs(x[diag_row]) >= pivot_threshold * vmax:
            pivot_row = int(diag_row)
        if pivot_row is None:
            pivot_row = int(below[int(np.argmax(np.abs(vals_below)))])
        pivot_val = x[pivot_row]

        pinv[pivot_row] = j
        perm_r[j] = pivot_row

        # ---- harvest the column ----------------------------------------
        u_rows, u_vals = [], []
        l_rows, l_vals = [], []
        for node in topo:
            v = x[node]
            x[node] = 0.0
            if v == 0:
                continue
            k = pinv[node]
            if node == pivot_row:
                pass                       # the diagonal of U
            elif 0 <= k < j:               # already-pivoted row: U entry
                u_rows.append(k)
                u_vals.append(v)
            else:                          # unpivoted row: L entry (scaled)
                l_rows.append(node)
                l_vals.append(v / pivot_val)
        u_rows.append(j)
        u_vals.append(pivot_val)
        flops += len(l_rows)

        lcols_rows.append(np.asarray(l_rows, dtype=np.int64))
        lcols_vals.append(np.asarray(l_vals, dtype=dtype))
        lpat.append(lcols_rows[-1])
        ucols_rows.append(np.asarray(u_rows, dtype=np.int64))
        ucols_vals.append(np.asarray(u_vals, dtype=dtype))

    ledger.current().flop(Kernel.FACTORIZATION, flops)
    ledger.current().event("lu_factorization")

    # assemble CSC then renumber L's rows into pivot order
    l_indptr = np.zeros(n + 1, dtype=np.int64)
    u_indptr = np.zeros(n + 1, dtype=np.int64)
    for j in range(n):
        l_indptr[j + 1] = l_indptr[j] + len(lcols_rows[j]) + 1  # + unit diag
        u_indptr[j + 1] = u_indptr[j] + len(ucols_rows[j])
    l_idx = np.empty(l_indptr[-1], dtype=np.int64)
    l_val = np.empty(l_indptr[-1], dtype=dtype)
    u_idx = np.empty(u_indptr[-1], dtype=np.int64)
    u_val = np.empty(u_indptr[-1], dtype=dtype)
    for j in range(n):
        lo = l_indptr[j]
        l_idx[lo] = j
        l_val[lo] = 1.0
        rows = pinv[lcols_rows[j]]
        l_idx[lo + 1: l_indptr[j + 1]] = rows
        l_val[lo + 1: l_indptr[j + 1]] = lcols_vals[j]
        u_idx[u_indptr[j]: u_indptr[j + 1]] = ucols_rows[j]
        u_val[u_indptr[j]: u_indptr[j + 1]] = ucols_vals[j]

    l = sp.csc_matrix((l_val, l_idx, l_indptr), shape=(n, n)).tocsr()
    u = sp.csc_matrix((u_val, u_idx, u_indptr), shape=(n, n)).tocsr()
    return LUFactors(l=l, u=u, perm_r=perm_r, perm_c=np.asarray(perm_c))
