"""Structured tetrahedral meshes with edge/face connectivity.

The Maxwell solver of the paper discretizes the EMTensor imaging chamber
with ~18M tetrahedra meshed by an external generator.  Here a structured
box mesh (each grid cube split into six tetrahedra along the Kuhn
triangulation — globally consistent, no hanging faces) plays that role;
a cylindrical chamber is obtained by masking cells.

The mesh knows everything edge elements need:

* unique global edges with orientation signs per cell;
* unique faces with the cells sharing them (boundary face = one cell);
* per-cell volumes and barycentric gradients (batched).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["TetMesh", "box_tet_mesh", "cylinder_mask"]

# Kuhn split of the unit cube into 6 tets, via the 8 corner ids
# corners numbered (i, j, k) -> i + 2j + 4k
_KUHN_TETS = np.array([
    [0, 1, 3, 7],
    [0, 1, 5, 7],
    [0, 2, 3, 7],
    [0, 2, 6, 7],
    [0, 4, 5, 7],
    [0, 4, 6, 7],
])

#: local edges of a tet: pairs of local vertex ids
LOCAL_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
#: local faces of a tet: triples of local vertex ids
LOCAL_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


@dataclass
class TetMesh:
    """A tetrahedral mesh: points (N, 3) and cells (M, 4)."""

    points: np.ndarray
    cells: np.ndarray

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float)
        self.cells = np.asarray(self.cells, dtype=np.int64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be (N, 3)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 4:
            raise ValueError("cells must be (M, 4)")

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @cached_property
    def edges(self) -> np.ndarray:
        """Unique edges (E, 2) as sorted vertex pairs."""
        return self._edge_data[0]

    @cached_property
    def cell_edges(self) -> np.ndarray:
        """(M, 6) global edge index of each local edge."""
        return self._edge_data[1]

    @cached_property
    def cell_edge_signs(self) -> np.ndarray:
        """(M, 6) +-1: +1 when the local edge runs low->high vertex id."""
        return self._edge_data[2]

    @cached_property
    def _edge_data(self):
        raw = self.cells[:, LOCAL_EDGES]            # (M, 6, 2)
        lo = raw.min(axis=2)
        hi = raw.max(axis=2)
        signs = np.where(raw[:, :, 0] == lo, 1, -1).astype(np.int8)
        pairs = np.stack([lo, hi], axis=2).reshape(-1, 2)
        edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
        cell_edges = inverse.reshape(self.n_cells, 6)
        return edges, cell_edges, signs

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def _face_data(self):
        raw = np.sort(self.cells[:, LOCAL_FACES], axis=2)  # (M, 4, 3)
        tris = raw.reshape(-1, 3)
        faces, inverse, counts = np.unique(tris, axis=0, return_inverse=True,
                                           return_counts=True)
        cell_faces = inverse.reshape(self.n_cells, 4)
        return faces, cell_faces, counts

    @cached_property
    def faces(self) -> np.ndarray:
        """Unique faces (F, 3) as sorted vertex triples."""
        return self._face_data[0]

    @cached_property
    def cell_faces(self) -> np.ndarray:
        """(M, 4) global face index of each local face."""
        return self._face_data[1]

    @cached_property
    def boundary_faces(self) -> np.ndarray:
        """Indices of faces owned by exactly one cell."""
        return np.nonzero(self._face_data[2] == 1)[0]

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """Edges lying on the boundary (edges of boundary faces)."""
        btris = self.faces[self.boundary_faces]     # (Fb, 3)
        pairs = np.concatenate([btris[:, [0, 1]], btris[:, [0, 2]],
                                btris[:, [1, 2]]])
        pairs = np.unique(np.sort(pairs, axis=1), axis=0)
        # match against the global edge table
        edge_key = self.edges[:, 0].astype(np.int64) * self.n_points \
            + self.edges[:, 1]
        pair_key = pairs[:, 0].astype(np.int64) * self.n_points + pairs[:, 1]
        return np.nonzero(np.isin(edge_key, pair_key))[0]

    # ------------------------------------------------------------------
    @cached_property
    def cell_vertices(self) -> np.ndarray:
        """(M, 4, 3) vertex coordinates per cell."""
        return self.points[self.cells]

    @cached_property
    def cell_volumes(self) -> np.ndarray:
        v = self.cell_vertices
        t = v[:, 1:] - v[:, :1]                     # (M, 3, 3)
        return np.abs(np.linalg.det(t)) / 6.0

    @cached_property
    def barycentric_gradients(self) -> np.ndarray:
        """(M, 4, 3) gradients of the barycentric coordinates, per cell."""
        v = self.cell_vertices
        t = (v[:, 1:] - v[:, :1]).transpose(0, 2, 1)  # columns = edge vectors
        tinv = np.linalg.inv(t)                       # (M, 3, 3)
        g = np.empty((self.n_cells, 4, 3))
        g[:, 1:, :] = tinv                            # rows of T^{-1}
        g[:, 0, :] = -tinv.sum(axis=1)
        return g

    @cached_property
    def cell_centroids(self) -> np.ndarray:
        return self.cell_vertices.mean(axis=1)

    @cached_property
    def edge_centers(self) -> np.ndarray:
        return 0.5 * (self.points[self.edges[:, 0]]
                      + self.points[self.edges[:, 1]])

    # ------------------------------------------------------------------
    def extract_cells(self, mask: np.ndarray) -> "TetMesh":
        """Submesh of the cells where ``mask`` is True (nodes renumbered)."""
        mask = np.asarray(mask, dtype=bool)
        cells = self.cells[mask]
        used = np.unique(cells)
        renum = np.full(self.n_points, -1, dtype=np.int64)
        renum[used] = np.arange(used.size)
        return TetMesh(points=self.points[used], cells=renum[cells])

    def locate_cells(self, pts: np.ndarray, *, tol: float = 1e-10) -> np.ndarray:
        """Cell index containing each query point (-1 when outside)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.full(pts.shape[0], -1, dtype=np.int64)
        g = self.barycentric_gradients
        v0 = self.cell_vertices[:, 0]
        for qi, p in enumerate(pts):
            lam_rest = np.einsum("mij,mj->mi", g[:, 1:], p - v0)  # (M, 3)
            lam0 = 1.0 - lam_rest.sum(axis=1)
            lam = np.column_stack([lam0, lam_rest])
            inside = np.all(lam >= -tol, axis=1)
            hits = np.nonzero(inside)[0]
            if hits.size:
                out[qi] = hits[0]
        return out

    def barycentric_coordinates(self, cell: int, p: np.ndarray) -> np.ndarray:
        """Barycentric coordinates of point ``p`` in ``cell``."""
        g = self.barycentric_gradients[cell]
        v0 = self.cell_vertices[cell, 0]
        lam_rest = g[1:] @ (np.asarray(p, dtype=float) - v0)
        return np.concatenate([[1.0 - lam_rest.sum()], lam_rest])


def box_tet_mesh(nx: int, ny: int | None = None, nz: int | None = None, *,
                 bounds: tuple[tuple[float, float], ...] = ((0, 1), (0, 1), (0, 1))
                 ) -> TetMesh:
    """Kuhn-triangulated box: ``6 * nx * ny * nz`` tetrahedra.

    >>> m = box_tet_mesh(2)
    >>> m.n_cells
    48
    >>> bool(np.isclose(m.cell_volumes.sum(), 1.0))
    True
    """
    ny = ny or nx
    nz = nz or nx
    xs = np.linspace(*bounds[0], nx + 1)
    ys = np.linspace(*bounds[1], ny + 1)
    zs = np.linspace(*bounds[2], nz + 1)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    nid = lambda i, j, k: (i * (ny + 1) + j) * (nz + 1) + k  # noqa: E731

    cells = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                corner = np.array([nid(i + di, j + dj, k + dk)
                                   for dk in (0, 1) for dj in (0, 1)
                                   for di in (0, 1)])
                # _KUHN_TETS indexes corners as i + 2j + 4k; corner[] above
                # is ordered k-major — remap:
                remap = np.array([0, 1, 2, 3, 4, 5, 6, 7])
                corner_ijk = np.empty(8, dtype=np.int64)
                for ci in range(8):
                    di, dj, dk = ci & 1, (ci >> 1) & 1, (ci >> 2) & 1
                    corner_ijk[ci] = nid(i + di, j + dj, k + dk)
                for tet in _KUHN_TETS:
                    cells.append(corner_ijk[tet])
    return TetMesh(points=points, cells=np.asarray(cells))


def cylinder_mask(mesh: TetMesh, *, center: tuple[float, float] = (0.5, 0.5),
                  radius: float = 0.5, axis: int = 2) -> np.ndarray:
    """True for cells whose centroid lies inside an axis-aligned cylinder."""
    c = mesh.cell_centroids
    plane = [i for i in range(3) if i != axis]
    d2 = ((c[:, plane[0]] - center[0]) ** 2 + (c[:, plane[1]] - center[1]) ** 2)
    return d2 <= radius ** 2
