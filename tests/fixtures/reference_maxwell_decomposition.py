"""The per-face ORAS decomposition of the Maxwell chamber — oracle.

This is ``repro.problems.maxwell.decompose_maxwell`` as it was written
first: a node -> cells dict for the overlap growth, one Python step per
(cell, edge) for the edge ownership, and, on every subdomain, a loop over
its faces that builds one interface face's 3 x 3 tangential-trace mass
(:func:`face_trace_mass`) and looks its three edges up one at a time.
The production function does the same floating-point operations in the
same order, batched over faces, so ``tests/test_problems.py`` holds it to
this one **bitwise**: local matrices (``data`` / ``indices`` /
``indptr``), overlapping and owned sets, partition of unity.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.problems.maxwell import (MaxwellDecomposition, MaxwellProblem,
                                    _scatter_assemble)
from repro.problems.partition import (OverlappingDecomposition,
                                      recursive_coordinate_bisection)
from repro.util import ledger


def face_trace_mass(points: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """3x3 tangential-trace mass matrix of a face's three edges.

    The trace of the 3-D Whitney edge function on a face equals the 2-D
    Whitney function of the triangle; its mass matrix uses the in-plane
    barycentric gradients and ``int lambda_i lambda_j = |F|(1+delta)/12``.
    Edges are ordered ``(0,1), (0,2), (1,2)`` in sorted-vertex convention.
    """
    p0, p1, p2 = points[tri]
    u = p1 - p0
    v = p2 - p0
    gram = np.array([[u @ u, u @ v], [v @ u, v @ v]])
    area = 0.5 * np.sqrt(max(np.linalg.det(gram), 0.0))
    gi = np.linalg.solve(gram, np.eye(2))
    g1 = gi[0, 0] * u + gi[0, 1] * v
    g2 = gi[1, 0] * u + gi[1, 1] * v
    g = np.array([-(g1 + g2), g1, g2])
    d = g @ g.T
    local_edges = np.array([[0, 1], [0, 2], [1, 2]])
    delta = np.eye(3)
    m = np.empty((3, 3))
    for a in range(3):
        i_a, j_a = local_edges[a]
        for b in range(3):
            i_b, j_b = local_edges[b]
            m[a, b] = ((1 + delta[i_a, i_b]) * d[j_a, j_b]
                       - (1 + delta[i_a, j_b]) * d[j_a, i_b]
                       - (1 + delta[j_a, i_b]) * d[i_a, j_b]
                       + (1 + delta[j_a, j_b]) * d[i_a, i_b])
    return m * area / 12.0


def reference_decompose_maxwell(problem: MaxwellProblem, nparts: int, *,
                                overlap: int = 2, impedance: bool = True,
                                eta: float | None = None
                                ) -> MaxwellDecomposition:
    """Partition the chamber into subdomains and build ORAS local operators.

    * cells are split by RCB on centroids (the SCOTCH stand-in) and grown
      by ``overlap`` layers of node-adjacent elements (paper's delta);
    * local matrices assemble the *subdomain* element contributions
      (natural/Neumann on the interface) and, when ``impedance`` is set,
      add the first-order absorbing term ``- i omega eta T`` on interface
      faces — the optimized transmission condition of eq. (6);
    * the partition of unity is multiplicity-based on the overlapping edge
      sets, so ``sum R^T D R = I`` holds to rounding.
    """
    mesh = problem.mesh
    cell_parts = recursive_coordinate_bisection(mesh.cell_centroids, nparts)
    led = ledger.current()

    # node -> cells adjacency for overlap growth
    n_cells = mesh.n_cells
    cells_of_node: dict[int, list[int]] = {}
    for c in range(n_cells):
        for v in mesh.cells[c]:
            cells_of_node.setdefault(int(v), []).append(c)

    overlap_cells: list[np.ndarray] = []
    for part in range(nparts):
        mask = cell_parts == part
        for _ in range(overlap):
            nodes = np.unique(mesh.cells[mask])
            grown = mask.copy()
            for v in nodes:
                grown[cells_of_node[int(v)]] = True
            mask = grown
        overlap_cells.append(np.nonzero(mask)[0])

    if eta is None:
        eta = float(np.sqrt(np.mean(problem.eps)))

    weight = problem.cell_weight()
    elem = problem.elem_k.astype(np.complex128) \
        - weight[:, None, None] * problem.elem_m

    # precompute edge keys for face-edge lookup
    n_pts = mesh.n_points
    edge_key = mesh.edges[:, 0].astype(np.int64) * n_pts + mesh.edges[:, 1]
    key_order = np.argsort(edge_key)
    sorted_keys = edge_key[key_order]

    def find_edge(a: int, b: int) -> int:
        lo, hi = (a, b) if a < b else (b, a)
        key = lo * n_pts + hi
        pos = np.searchsorted(sorted_keys, key)
        return int(key_order[pos])

    owned_sets: list[np.ndarray] = []
    overlapping_sets: list[np.ndarray] = []
    local_mats: list[sp.csc_matrix] = []

    # ownership of a free DOF: the part of the lowest-id cell touching it
    edge_owner = np.full(mesh.n_edges, -1, dtype=np.int64)
    for c in range(n_cells):
        for e in mesh.cell_edges[c]:
            if edge_owner[e] < 0:
                edge_owner[e] = cell_parts[c]

    with led.timer("oras_setup"):
        for part in range(nparts):
            cells = overlap_cells[part]
            # free edges of the subdomain, in reduced numbering
            sub_edges = np.unique(mesh.cell_edges[cells])
            sub_dofs_full = problem.edge_to_dof[sub_edges]
            keep = sub_dofs_full >= 0
            sub_edges = sub_edges[keep]
            sub_dofs = sub_dofs_full[keep]
            order = np.argsort(sub_dofs)
            sub_edges = sub_edges[order]
            sub_dofs = sub_dofs[order]
            # local index of each global edge
            local_of_edge = {int(e): i for i, e in enumerate(sub_edges)}

            # assemble subdomain (Neumann) matrix
            mask = np.zeros(n_cells, dtype=bool)
            mask[cells] = True
            a_local = _scatter_assemble(mesh, elem, cell_mask=mask)
            a_local = sp.csc_matrix(a_local[sub_edges][:, sub_edges])

            if impedance:
                # interface faces: owned by one in-cell and one out-cell
                face_cells: dict[int, list[int]] = {}
                for c in cells:
                    for f in mesh.cell_faces[c]:
                        face_cells.setdefault(int(f), []).append(c)
                rows, cols, vals = [], [], []
                boundary_set = set(mesh.boundary_faces.tolist())
                for f, owners in face_cells.items():
                    if len(owners) != 1 or f in boundary_set:
                        continue  # interior to the subdomain, or chamber wall
                    tri = mesh.faces[f]
                    mloc = face_trace_mass(mesh.points, tri)
                    eids = [find_edge(tri[0], tri[1]),
                            find_edge(tri[0], tri[2]),
                            find_edge(tri[1], tri[2])]
                    lids = [local_of_edge.get(e, -1) for e in eids]
                    sgns = [1.0 if mesh.edges[e][0] == lo else -1.0
                            for e, lo in zip(
                                eids, [min(tri[0], tri[1]),
                                       min(tri[0], tri[2]),
                                       min(tri[1], tri[2])])]
                    for ai in range(3):
                        if lids[ai] < 0:
                            continue
                        for bi in range(3):
                            if lids[bi] < 0:
                                continue
                            rows.append(lids[ai])
                            cols.append(lids[bi])
                            vals.append(mloc[ai, bi] * sgns[ai] * sgns[bi])
                if rows:
                    t = sp.csc_matrix(
                        (np.asarray(vals), (rows, cols)),
                        shape=a_local.shape)
                    a_local = a_local - 1j * problem.omega * eta * t
            local_mats.append(sp.csc_matrix(a_local))

            overlapping_sets.append(sub_dofs)
            owned_mask = edge_owner[sub_edges] == part
            owned_sets.append(sub_dofs[owned_mask])

    # multiplicity partition of unity on the overlapping sets
    mult = np.zeros(problem.n)
    for s in overlapping_sets:
        mult[s] += 1.0
    pou = [1.0 / mult[s] for s in overlapping_sets]
    dec = OverlappingDecomposition(problem.n, owned_sets, overlapping_sets, pou)
    return MaxwellDecomposition(decomposition=dec, local_matrices=local_mats,
                                cell_parts=cell_parts,
                                overlap_cells=overlap_cells)
