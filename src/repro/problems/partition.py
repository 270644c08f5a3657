"""Graph partitioning and overlap growth — the SCOTCH stand-in.

The paper partitions an unstructured mesh with SCOTCH and grows geometric
overlap: ``T_i^delta`` is obtained by including all elements adjacent to
``T_i^{delta-1}`` (section V-A).  Two partitioners are provided:

* **recursive coordinate bisection** (RCB) when point coordinates exist —
  the classic geometric method, clean load balance on meshes;
* **band partition** for pure graphs: split a reverse-Cuthill-McKee
  ordering into contiguous chunks — cheap, and on mesh-like graphs it
  yields connected, low-surface parts.

Overlap growth and partition-of-unity construction are shared by both and
verified against the identity ``sum_i R_i^T D_i R_i = I`` (the algebraic
partition-of-unity requirement of eq. (6)).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..direct.ordering import reverse_cuthill_mckee

__all__ = ["recursive_coordinate_bisection", "band_partition",
           "grow_overlap", "partition_of_unity", "OverlappingDecomposition",
           "decompose"]


def recursive_coordinate_bisection(points: np.ndarray, nparts: int) -> np.ndarray:
    """RCB: recursively split along the widest coordinate axis.

    ``nparts`` need not be a power of two — splits are proportional.
    Returns a part id per point.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    part = np.zeros(n, dtype=np.int64)

    def _split(idx: np.ndarray, parts: int, base: int) -> None:
        if parts == 1:
            part[idx] = base
            return
        left_parts = parts // 2
        frac = left_parts / parts
        sub = points[idx]
        axis = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        order = np.argsort(sub[:, axis], kind="stable")
        cut = int(round(frac * len(idx)))
        _split(idx[order[:cut]], left_parts, base)
        _split(idx[order[cut:]], parts - left_parts, base + left_parts)

    _split(np.arange(n), nparts, 0)
    return part


def band_partition(a: sp.spmatrix, nparts: int) -> np.ndarray:
    """Partition a matrix graph by chunking its RCM ordering."""
    n = a.shape[0]
    if nparts > n:
        raise ValueError(f"cannot split {n} vertices into {nparts} parts")
    order = reverse_cuthill_mckee(a)
    bounds = np.linspace(0, n, nparts + 1).astype(int)
    part = np.empty(n, dtype=np.int64)
    for p in range(nparts):
        part[order[bounds[p]: bounds[p + 1]]] = p
    return part


def grow_overlap(a: sp.spmatrix, owned: np.ndarray, delta: int) -> np.ndarray:
    """Indices of the ``delta``-overlap subdomain containing ``owned``.

    One layer = all vertices adjacent (in the symmetrized graph of ``a``)
    to the current set, matching the element-layer recursion of the paper.
    """
    pattern = sp.csr_matrix((a != 0).astype(np.int8))
    pattern = ((pattern + pattern.T) > 0).astype(np.int8).tocsr()
    mask = np.zeros(a.shape[0], dtype=bool)
    mask[owned] = True
    for _ in range(delta):
        frontier = pattern[mask].indices
        mask[frontier] = True
    return np.nonzero(mask)[0]


def partition_of_unity(n: int, owned_sets: list[np.ndarray],
                       overlap_sets: list[np.ndarray], *,
                       kind: str = "boolean") -> list[np.ndarray]:
    """Per-subdomain diagonal weights ``D_i`` with ``sum R_i^T D_i R_i = I``.

    * ``"boolean"`` (RAS): weight 1 on owned DOFs, 0 on the overlap;
    * ``"multiplicity"``: weight ``1/multiplicity`` everywhere.
    """
    if kind == "boolean":
        out = []
        for owned, ov in zip(owned_sets, overlap_sets):
            d = np.zeros(len(ov))
            owned_mask = np.isin(ov, owned, assume_unique=True)
            d[owned_mask] = 1.0
            out.append(d)
        return out
    if kind == "multiplicity":
        mult = np.zeros(n)
        for ov in overlap_sets:
            mult[ov] += 1.0
        return [1.0 / mult[ov] for ov in overlap_sets]
    raise ValueError(f"unknown partition-of-unity kind {kind!r}")


class OverlappingDecomposition:
    """An overlapping decomposition of ``n`` DOFs.

    Attributes
    ----------
    owned:
        disjoint index sets covering ``range(n)``.
    overlapping:
        the delta-grown index sets (sorted).
    pou:
        per-subdomain diagonal partition-of-unity weights.
    """

    def __init__(self, n: int, owned: list[np.ndarray],
                 overlapping: list[np.ndarray], pou: list[np.ndarray]):
        self.n = n
        self.owned = owned
        self.overlapping = overlapping
        self.pou = pou

    @property
    def nparts(self) -> int:
        return len(self.owned)

    def check_pou(self) -> float:
        """Max deviation of ``sum R^T D R`` from the identity (0 up to
        rounding)."""
        acc = np.zeros(self.n)
        for ov, d in zip(self.overlapping, self.pou):
            acc[ov] += d
        return float(np.abs(acc - 1.0).max())


def decompose(a: sp.spmatrix, nparts: int, *, overlap: int = 1,
              points: np.ndarray | None = None,
              pou: str = "boolean") -> OverlappingDecomposition:
    """Partition the graph of ``a`` and grow ``overlap`` layers.

    Uses RCB when ``points`` are supplied, the RCM band partition otherwise.
    """
    n = a.shape[0]
    if points is not None:
        part = recursive_coordinate_bisection(points, nparts)
    else:
        part = band_partition(a, nparts)
    owned = [np.nonzero(part == p)[0] for p in range(nparts)]
    if any(len(o) == 0 for o in owned):
        raise ValueError("empty subdomain produced; reduce nparts")
    overlapping = [grow_overlap(a, o, overlap) for o in owned]
    weights = partition_of_unity(n, owned, overlapping, kind=pou)
    return OverlappingDecomposition(n, owned, overlapping, weights)
