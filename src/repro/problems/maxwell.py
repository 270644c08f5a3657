"""Time-harmonic Maxwell on lowest-order Nédélec (edge) elements — §V.

The paper's driving application: the EMTensor brain-imaging chamber, where

.. math::

    \\nabla\\times(\\nabla\\times E) - \\mu_0(\\omega^2\\varepsilon
        + i\\omega\\sigma) E = 0

is discretized with curl-conforming edge elements, yielding ill-conditioned
*indefinite complex* systems with 32+ right-hand sides (one per transmitting
antenna).  This module builds, from scratch:

* batched element matrices for the Whitney edge basis
  ``w_{ij} = lambda_i grad(lambda_j) - lambda_j grad(lambda_i)``:
  curl-curl stiffness and (complex-weighted) mass;
* PEC boundary conditions (tangential E eliminated on the chamber wall);
* antenna excitations: point dipoles on rings, one RHS per antenna;
* the heterogeneous chamber phantom (matching solution, optional plastic
  cylinder inclusion — the "more difficult test case" of section V-C);
* per-subdomain local operators with **impedance (optimized) transmission
  conditions** ``B_i = K_i - omega^2 eps M_i - i omega eta T_i`` where
  ``T_i`` is the tangential-trace mass on interface faces — the ORAS
  ingredient of eq. (6), vs the plain Neumann matrices of ASM/RAS.

Units are normalized (mu_0 = 1, chamber diameter ~ 1) so that meaningful
wave counts fit laptop-sized meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..problems.partition import (OverlappingDecomposition,
                                  recursive_coordinate_bisection)
from ..util import ledger
from .tetmesh import LOCAL_EDGES, TetMesh, box_tet_mesh, cylinder_mask

__all__ = ["edge_element_matrices", "MaxwellProblem", "assemble_maxwell",
           "chamber_phantom", "antenna_ring_rhs", "maxwell_chamber",
           "MaxwellDecomposition", "decompose_maxwell"]


# ---------------------------------------------------------------------------
# element matrices
# ---------------------------------------------------------------------------
def edge_element_matrices(mesh: TetMesh) -> tuple[np.ndarray, np.ndarray]:
    """Batched curl-curl (K_e) and mass (M_e) element matrices, (M, 6, 6).

    Orientation signs are already folded in, so assembly is a plain
    scatter-add over ``mesh.cell_edges``.
    """
    g = mesh.barycentric_gradients              # (M, 4, 3)
    vol = mesh.cell_volumes                     # (M,)
    signs = mesh.cell_edge_signs.astype(float)  # (M, 6)

    ia = LOCAL_EDGES[:, 0]
    ja = LOCAL_EDGES[:, 1]
    # curl w_(ij) = 2 grad(lambda_i) x grad(lambda_j)
    curls = 2.0 * np.cross(g[:, ia, :], g[:, ja, :])          # (M, 6, 3)
    ke = vol[:, None, None] * np.einsum("mak,mbk->mab", curls, curls)

    d = np.einsum("mik,mjk->mij", g, g)                        # (M, 4, 4)
    delta = np.eye(4)
    me = np.empty_like(ke)
    for a in range(6):
        i_a, j_a = LOCAL_EDGES[a]
        for b in range(6):
            i_b, j_b = LOCAL_EDGES[b]
            me[:, a, b] = (
                (1 + delta[i_a, i_b]) * d[:, j_a, j_b]
                - (1 + delta[i_a, j_b]) * d[:, j_a, i_b]
                - (1 + delta[j_a, i_b]) * d[:, i_a, j_b]
                + (1 + delta[j_a, j_b]) * d[:, i_a, i_b])
    me *= vol[:, None, None] / 20.0

    ss = signs[:, :, None] * signs[:, None, :]
    return ke * ss, me * ss


def _scatter_assemble(mesh: TetMesh, elem: np.ndarray,
                      cell_mask: np.ndarray | None = None) -> sp.csr_matrix:
    """Assemble (M, 6, 6) element matrices into the global edge matrix."""
    ce = mesh.cell_edges
    if cell_mask is not None:
        ce = ce[cell_mask]
        elem = elem[cell_mask]
    rows = np.repeat(ce, 6, axis=1).ravel()
    cols = np.tile(ce, (1, 6)).ravel()
    n = mesh.n_edges
    return sp.csr_matrix((elem.ravel(), (rows, cols)), shape=(n, n))


# ---------------------------------------------------------------------------
# the global problem
# ---------------------------------------------------------------------------
@dataclass
class MaxwellProblem:
    """Assembled time-harmonic Maxwell system with PEC walls eliminated."""

    mesh: TetMesh
    omega: float
    eps: np.ndarray                 # per-cell relative permittivity (real)
    sigma: np.ndarray               # per-cell conductivity
    a: sp.csr_matrix                # reduced system (free edges only)
    free_edges: np.ndarray          # global edge ids of the free DOFs
    edge_to_dof: np.ndarray         # global edge id -> reduced dof (-1 fixed)
    elem_k: np.ndarray = field(repr=False)   # (M, 6, 6) element stiffness
    elem_m: np.ndarray = field(repr=False)   # (M, 6, 6) element mass

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def cell_weight(self) -> np.ndarray:
        """Complex material factor ``omega^2 (eps + i sigma / omega)``."""
        return self.omega ** 2 * (self.eps + 1j * self.sigma / self.omega)

    def reduce_rhs(self, b_full: np.ndarray) -> np.ndarray:
        return b_full[self.free_edges]

    def dof_points(self) -> np.ndarray:
        """Edge midpoints of the free DOFs (for geometric partitioning)."""
        return self.mesh.edge_centers[self.free_edges]


def assemble_maxwell(mesh: TetMesh, *, omega: float,
                     eps: np.ndarray | float = 1.0,
                     sigma: np.ndarray | float = 0.0) -> MaxwellProblem:
    """Assemble ``K - omega^2 (eps + i sigma/omega) M`` with PEC walls."""
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (mesh.n_cells,)).copy()
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (mesh.n_cells,)).copy()
    led = ledger.current()
    with led.timer("maxwell_assembly"):
        ke, me = edge_element_matrices(mesh)
        weight = omega ** 2 * (eps + 1j * sigma / omega)
        elem = ke.astype(np.complex128) - weight[:, None, None] * me
        a_full = _scatter_assemble(mesh, elem)
        fixed = mesh.boundary_edges
        free = np.setdiff1d(np.arange(mesh.n_edges), fixed)
        edge_to_dof = np.full(mesh.n_edges, -1, dtype=np.int64)
        edge_to_dof[free] = np.arange(free.size)
        a = sp.csr_matrix(a_full[free][:, free])
    led.event("maxwell_assembled")
    return MaxwellProblem(mesh=mesh, omega=omega, eps=eps, sigma=sigma,
                          a=a, free_edges=free, edge_to_dof=edge_to_dof,
                          elem_k=ke, elem_m=me)


# ---------------------------------------------------------------------------
# phantom and excitations
# ---------------------------------------------------------------------------
def chamber_phantom(mesh: TetMesh, *,
                    eps_background: float = 2.0,
                    sigma_background: float = 1.0,
                    inclusion_radius: float = 0.0,
                    inclusion_center: tuple[float, float] = (0.5, 0.5),
                    eps_inclusion: float = 1.0,
                    sigma_inclusion: float = 0.0
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (eps, sigma) for the imaging chamber.

    Background = dissipative *matching solution* (the strong-scaling test
    case of Fig. 7); a non-zero ``inclusion_radius`` immerses the
    non-dissipative plastic cylinder of section V-C.
    """
    eps = np.full(mesh.n_cells, eps_background)
    sigma = np.full(mesh.n_cells, sigma_background)
    if inclusion_radius > 0:
        mask = cylinder_mask(mesh, center=inclusion_center,
                             radius=inclusion_radius)
        eps[mask] = eps_inclusion
        sigma[mask] = sigma_inclusion
    return eps, sigma


def antenna_ring_rhs(problem: MaxwellProblem, *, n_antennas: int = 32,
                     ring_z: float = 0.5, radius: float = 0.35,
                     center: tuple[float, float] = (0.5, 0.5),
                     direction: str = "vertical",
                     amplitude: float = 1.0) -> np.ndarray:
    """One RHS column per antenna of a ring (the EMTensor geometry, §V-A).

    Each antenna is a point dipole at angle ``2 pi a / n_antennas`` on the
    ring; ``direction`` "vertical" excites E_z, "tangential" excites the
    azimuthal component.  Returns the reduced (free-DOF) ``n x p`` block.
    """
    mesh = problem.mesh
    angles = 2 * np.pi * np.arange(n_antennas) / n_antennas
    pos = np.column_stack([center[0] + radius * np.cos(angles),
                           center[1] + radius * np.sin(angles),
                           np.full(n_antennas, ring_z)])
    cells = mesh.locate_cells(pos)
    b_full = np.zeros((mesh.n_edges, n_antennas), dtype=np.complex128)
    for col, (p, cell, th) in enumerate(zip(pos, cells, angles)):
        if cell < 0:
            raise ValueError(f"antenna {col} at {p} lies outside the mesh")
        if direction == "vertical":
            d = np.array([0.0, 0.0, 1.0])
        elif direction == "tangential":
            d = np.array([-np.sin(th), np.cos(th), 0.0])
        else:
            raise ValueError(f"unknown antenna direction {direction!r}")
        lam = mesh.barycentric_coordinates(int(cell), p)
        g = mesh.barycentric_gradients[cell]
        for a in range(6):
            i_a, j_a = LOCAL_EDGES[a]
            w = lam[i_a] * g[j_a] - lam[j_a] * g[i_a]
            sign = mesh.cell_edge_signs[cell, a]
            edge = mesh.cell_edges[cell, a]
            # i omega J source term
            b_full[edge, col] += 1j * problem.omega * amplitude * sign * (w @ d)
    return problem.reduce_rhs(b_full)


def maxwell_chamber(n: int = 8, *, omega: float = 12.0,
                    cylinder: bool = True,
                    inclusion_radius: float = 0.0,
                    eps_background: float = 2.0,
                    sigma_background: float = 1.0) -> MaxwellProblem:
    """Convenience builder: meshed chamber + phantom + assembly.

    ``n`` is the grid resolution per axis (cells before cylinder masking);
    ``omega`` the normalized angular frequency (keep ``omega * h < ~1``).
    """
    mesh = box_tet_mesh(n)
    if cylinder:
        mesh = mesh.extract_cells(cylinder_mask(mesh, radius=0.5))
    eps, sigma = chamber_phantom(mesh, eps_background=eps_background,
                                 sigma_background=sigma_background,
                                 inclusion_radius=inclusion_radius)
    return assemble_maxwell(mesh, omega=omega, eps=eps, sigma=sigma)


# ---------------------------------------------------------------------------
# domain decomposition with impedance transmission conditions
# ---------------------------------------------------------------------------
@dataclass
class MaxwellDecomposition:
    """Cell-based overlapping decomposition + ORAS local matrices."""

    decomposition: OverlappingDecomposition      # on reduced DOFs
    local_matrices: list[sp.csc_matrix]
    cell_parts: np.ndarray
    overlap_cells: list[np.ndarray]


#: a face's local edges, as pairs of its sorted vertices
_FACE_EDGES = ((0, 1), (0, 2), (1, 2))


def _face_trace_mass(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """3x3 tangential-trace mass matrices of faces' three edges, (F, 3, 3).

    The trace of the 3-D Whitney edge function on a face equals the 2-D
    Whitney function of the triangle; its mass matrix uses the in-plane
    barycentric gradients and ``int lambda_i lambda_j = |F|(1+delta)/12``.
    Edges are ordered ``(0,1), (0,2), (1,2)`` in sorted-vertex convention.
    ``tris`` is ``(F, 3)`` (or one ``(3,)`` face: one ``(3, 3)`` matrix);
    every face goes through the same dot products, ``det`` and ``solve``
    as it would alone, batched.
    """
    tris = np.asarray(tris)
    if tris.ndim == 1:
        return _face_trace_mass(points, tris[None])[0]
    p0, p1, p2 = (points[tris[:, k]] for k in range(3))
    u = (p1 - p0)[:, None, :]                     # (F, 1, 3)
    v = (p2 - p0)[:, None, :]
    ut, vt = u.transpose(0, 2, 1), v.transpose(0, 2, 1)
    gram = np.empty((tris.shape[0], 2, 2))
    gram[:, 0, 0] = (u @ ut)[:, 0, 0]
    gram[:, 0, 1] = (u @ vt)[:, 0, 0]
    gram[:, 1, 0] = (v @ ut)[:, 0, 0]
    gram[:, 1, 1] = (v @ vt)[:, 0, 0]
    area = 0.5 * np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
    gi = np.linalg.solve(gram, np.eye(2))
    u, v = u[:, 0], v[:, 0]
    g1 = gi[:, 0, 0, None] * u + gi[:, 0, 1, None] * v
    g2 = gi[:, 1, 0, None] * u + gi[:, 1, 1, None] * v
    g = np.stack([-(g1 + g2), g1, g2], axis=1)    # (F, 3, 3)
    d = g @ g.transpose(0, 2, 1)
    m = np.empty_like(d)
    for a, (i_a, j_a) in enumerate(_FACE_EDGES):
        for b, (i_b, j_b) in enumerate(_FACE_EDGES):
            m[:, a, b] = ((1 + (i_a == i_b)) * d[:, j_a, j_b]
                          - (1 + (i_a == j_b)) * d[:, j_a, i_b]
                          - (1 + (j_a == i_b)) * d[:, i_a, j_b]
                          + (1 + (j_a == j_b)) * d[:, i_a, i_b])
    return m * area[:, None, None] / 12.0


def _interface_trace(mesh: TetMesh, cells: np.ndarray, sub_edges: np.ndarray,
                     edge_key_order: np.ndarray, sorted_keys: np.ndarray
                     ) -> sp.csc_matrix | None:
    """Tangential-trace mass ``T`` on a subdomain's interface faces, in the
    local numbering of ``sub_edges`` (the subdomain's free edges).

    Interface faces occur once among the subdomain's cells and are not on
    the chamber wall; they are visited in order of first appearance in
    ``cell_faces[cells]`` and their triplets emitted as (face, a, b), so
    that CSC sums duplicates in one fixed order.  ``None``: no triplet.
    """
    local_of_edge = np.full(mesh.n_edges, -1, dtype=np.int64)
    local_of_edge[sub_edges] = np.arange(sub_edges.size)
    flat = mesh.cell_faces[cells].ravel()
    faces, first, counts = np.unique(flat, return_index=True,
                                     return_counts=True)
    keep = (counts == 1) & ~np.isin(faces, mesh.boundary_faces)
    faces = faces[keep][np.argsort(first[keep], kind="stable")]
    tris = mesh.faces[faces]                              # (F, 3)
    n_pts = mesh.n_points
    pairs = np.stack([tris[:, list(pair)] for pair in _FACE_EDGES], axis=1)
    lo, hi = pairs.min(axis=2), pairs.max(axis=2)         # (F, 3)
    eids = edge_key_order[np.searchsorted(sorted_keys,
                                          lo.astype(np.int64) * n_pts + hi)]
    lids = local_of_edge[eids]
    sgns = np.where(mesh.edges[eids, 0] == lo, 1.0, -1.0)
    vals = (_face_trace_mass(mesh.points, tris) * sgns[:, :, None]
            * sgns[:, None, :])
    rows = np.broadcast_to(lids[:, :, None], vals.shape)
    cols = np.broadcast_to(lids[:, None, :], vals.shape)
    both = (rows >= 0) & (cols >= 0)
    if not both.any():
        return None
    return sp.csc_matrix((vals[both], (rows[both], cols[both])),
                         shape=(sub_edges.size, sub_edges.size))


def decompose_maxwell(problem: MaxwellProblem, nparts: int, *,
                      overlap: int = 2, impedance: bool = True,
                      eta: float | None = None) -> MaxwellDecomposition:
    """Partition the chamber into subdomains and build ORAS local operators.

    * cells are split by RCB on centroids (the SCOTCH stand-in) and grown
      by ``overlap`` layers of node-adjacent elements (paper's delta);
    * local matrices assemble the *subdomain* element contributions
      (natural/Neumann on the interface) and, when ``impedance`` is set,
      add the first-order absorbing term ``- i omega eta T`` on interface
      faces — the optimized transmission condition of eq. (6);
    * the partition of unity is multiplicity-based on the overlapping edge
      sets, so ``sum R^T D R = I`` holds to rounding (``1 / m`` summed
      ``m`` times: within about 1e-16 at multiplicity 8).
    """
    mesh = problem.mesh
    cell_parts = recursive_coordinate_bisection(mesh.cell_centroids, nparts)
    led = ledger.current()

    # overlap growth: a layer adds every cell sharing a node with the set
    overlap_cells: list[np.ndarray] = []
    for part in range(nparts):
        mask = cell_parts == part
        for _ in range(overlap):
            touched = np.zeros(mesh.n_points, dtype=bool)
            touched[mesh.cells[mask]] = True
            mask = touched[mesh.cells].any(axis=1)
        overlap_cells.append(np.nonzero(mask)[0])

    if eta is None:
        eta = float(np.sqrt(np.mean(problem.eps)))

    weight = problem.cell_weight()
    elem = problem.elem_k.astype(np.complex128) \
        - weight[:, None, None] * problem.elem_m

    # edge keys for the face-edge lookup
    edge_key = mesh.edges[:, 0].astype(np.int64) * mesh.n_points \
        + mesh.edges[:, 1]
    key_order = np.argsort(edge_key)
    sorted_keys = edge_key[key_order]

    owned_sets: list[np.ndarray] = []
    overlapping_sets: list[np.ndarray] = []
    local_mats: list[sp.csc_matrix] = []

    # ownership of a free DOF: the part of the lowest-id cell touching it
    edge_owner = np.full(mesh.n_edges, -1, dtype=np.int64)
    edges, first = np.unique(mesh.cell_edges.ravel(), return_index=True)
    edge_owner[edges] = cell_parts[first // mesh.cell_edges.shape[1]]

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

            # assemble subdomain (Neumann) matrix
            mask = np.zeros(mesh.n_cells, dtype=bool)
            mask[cells] = True
            a_local = _scatter_assemble(mesh, elem, cell_mask=mask)
            a_local = sp.csc_matrix(a_local[sub_edges][:, sub_edges])

            if impedance:
                t = _interface_trace(mesh, cells, sub_edges, key_order,
                                     sorted_keys)
                if t is not None:
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
