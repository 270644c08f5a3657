"""Reverse Cuthill-McKee ordering, built from scratch.

BFS banding, cheap and predictable: the graph partitioner of
:mod:`repro.problems.partition` chunks it into subdomains.  The LU of
:mod:`repro.direct.solver` does not use it — SuperLU orders the matrices
it factors by itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["reverse_cuthill_mckee"]


def reverse_cuthill_mckee(a: sp.spmatrix) -> np.ndarray:
    """RCM ordering from scratch: BFS from a pseudo-peripheral vertex."""
    n = a.shape[0]
    pattern = (a != 0).astype(np.int8)
    pattern = (pattern + pattern.T).tocsr()
    degrees = np.diff(pattern.indptr)
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    for start_comp in np.argsort(degrees):
        if visited[start_comp]:
            continue
        # pseudo-peripheral search: run two BFS sweeps
        start = int(start_comp)
        for _ in range(2):
            frontier = [start]
            visited_local = {start}
            last = start
            while frontier:
                nxt = []
                for v in frontier:
                    for u in pattern.indices[pattern.indptr[v]: pattern.indptr[v + 1]]:
                        if u not in visited_local:
                            visited_local.add(int(u))
                            nxt.append(int(u))
                if nxt:
                    last = min(nxt, key=lambda w: degrees[w])
                frontier = nxt
            start = last
        # Cuthill-McKee BFS from the chosen start
        queue = [start]
        visited[start] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            neigh = [int(u) for u in
                     pattern.indices[pattern.indptr[v]: pattern.indptr[v + 1]]
                     if not visited[u]]
            neigh.sort(key=lambda w: degrees[w])
            for u in neigh:
                visited[u] = True
            queue.extend(neigh)
    return np.asarray(order[::-1], dtype=np.int64)
