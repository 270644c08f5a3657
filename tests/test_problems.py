"""Tests for the PDE problem generators: Poisson, elasticity, mesh, Maxwell."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.problems.elasticity import (PAPER_INCLUSIONS, Inclusion,
                                       elasticity_3d, rigid_body_modes)
from repro.problems.maxwell import (MaxwellProblem, _face_trace_mass,
                                    antenna_ring_rhs, assemble_maxwell,
                                    chamber_phantom, decompose_maxwell,
                                    edge_element_matrices, maxwell_chamber,
                                    _scatter_assemble)
from repro.problems.poisson import PAPER_NUS, poisson_2d
from repro.problems.tetmesh import (LOCAL_EDGES, TetMesh, box_tet_mesh,
                                    cylinder_mask)

from fixtures.reference_maxwell_decomposition import (
    face_trace_mass, reference_decompose_maxwell)


class TestPoisson:
    def test_matrix_is_spd_m_matrix(self):
        prob = poisson_2d(10)
        a = prob.a
        assert (a != a.T).nnz == 0
        assert np.all(a.diagonal() > 0)
        off = a - sp.diags(a.diagonal())
        assert off.min() < 0 and off.max() <= 0

    def test_scaling_matches_stencil(self):
        prob = poisson_2d(4)
        h = 1.0 / 5
        assert prob.a[0, 0] == pytest.approx(4.0 / h**2)
        assert prob.a[0, 1] == pytest.approx(-1.0 / h**2)

    def test_solution_matches_analytic(self):
        # u = sin(pi x) sin(pi y) => f = 2 pi^2 u
        prob = poisson_2d(60)
        x, y = prob.points.T
        u_exact = np.sin(np.pi * x) * np.sin(np.pi * y)
        f = 2 * np.pi**2 * u_exact
        u = spla.spsolve(prob.a.tocsc(), f)
        assert np.max(np.abs(u - u_exact)) < 5e-4   # O(h^2)

    def test_rhs_family(self):
        prob = poisson_2d(8)
        seq = prob.rhs_sequence()
        assert len(seq) == 4
        block = prob.rhs_block()
        assert block.shape == (64, 4)
        assert np.allclose(block[:, 2], prob.rhs(PAPER_NUS[2]))
        # distinct parameters give genuinely different RHSs
        for i in range(3):
            c = abs(np.vdot(seq[i], seq[i + 1])) / (
                np.linalg.norm(seq[i]) * np.linalg.norm(seq[i + 1]))
            assert c < 0.999

    def test_rectangular_grid(self):
        prob = poisson_2d(6, 9)
        assert prob.n == 54
        assert prob.points.shape == (54, 2)


class TestElasticity:
    def test_spd_after_clamping(self):
        prob = elasticity_3d(5)
        assert abs(prob.a - prob.a.T).max() < 1e-12
        w = spla.eigsh(prob.a, k=1, which="SA",
                       return_eigenvectors=False, maxiter=10000)
        assert w[0] > 0

    def test_inclusion_changes_operator(self):
        p0 = elasticity_3d(5)
        p1 = elasticity_3d(5, inclusion=PAPER_INCLUSIONS[0])
        assert abs(p0.a - p1.a).max() > 0

    def test_paper_inclusions_distinct(self):
        mats = [elasticity_3d(4, inclusion=inc).a for inc in PAPER_INCLUSIONS]
        for i in range(3):
            assert abs(mats[i] - mats[i + 1]).max() > 0

    def test_rigid_body_modes_in_kernel(self):
        """The *unclamped* operator must annihilate all six RBMs."""
        ne = 3
        prob = elasticity_3d(ne)
        # rebuild without clamping by using the full stiffness directly
        from repro.problems.elasticity import _hex_reference_stiffness
        h = 1.0 / ne
        ke = _hex_reference_stiffness(h, 0.3)
        # element-level check: modes restricted to one element
        corners = np.array([[i * h, j * h, k * h]
                            for k in (0, 1) for j in (0, 1) for i in (0, 1)])
        modes = rigid_body_modes(corners)
        assert np.abs(ke @ modes).max() < 1e-12

    def test_rigid_body_modes_shape_and_rank(self, rng):
        pts = rng.random((20, 3))
        modes = rigid_body_modes(pts)
        assert modes.shape == (60, 6)
        assert np.linalg.matrix_rank(modes) == 6

    def test_inclusion_containment(self):
        inc = Inclusion(s=10, r=0.25, x=0.5, y=0.5, z=0.5)
        pts = np.array([[0.5, 0.5, 0.5], [0.9, 0.9, 0.9]])
        inside = inc.contains(pts)
        assert inside[0] and not inside[1]

    def test_gravity_deflects_downward(self):
        prob = elasticity_3d(5)
        u = spla.spsolve(prob.a.tocsc(), prob.rhs_vector)
        uz = u[2::3]
        assert uz.mean() < 0

    def test_min_size(self):
        with pytest.raises(ValueError):
            elasticity_3d(1)


class TestTetMesh:
    def test_volume_partition(self):
        m = box_tet_mesh(3)
        assert m.cell_volumes.sum() == pytest.approx(1.0)
        assert np.all(m.cell_volumes > 0)

    def test_euler_characteristic_of_ball(self):
        # V - E + F - C = 1 for a triangulated 3-ball
        m = box_tet_mesh(2)
        chi = m.n_points - m.n_edges + m.faces.shape[0] - m.n_cells
        assert chi == 1

    def test_face_sharing(self):
        m = box_tet_mesh(2)
        counts = m._face_data[2]
        assert set(np.unique(counts)) == {1, 2}

    def test_gradients_partition_of_unity(self):
        m = box_tet_mesh(2)
        assert np.abs(m.barycentric_gradients.sum(axis=1)).max() < 1e-12

    def test_gradient_duality(self):
        """grad(lambda_i) . (v_j - v_0) reproduces the barycentric pattern."""
        m = box_tet_mesh(2)
        v = m.cell_vertices
        g = m.barycentric_gradients
        for c in (0, 5, 11):
            for i in range(4):
                for j in range(4):
                    val = g[c, i] @ (v[c, j] - v[c, 0])
                    expect = (1.0 if i == j else 0.0) - (1.0 if i == 0 else 0.0)
                    assert val == pytest.approx(expect, abs=1e-12)

    def test_edge_signs_consistent(self):
        m = box_tet_mesh(2)
        raw = m.cells[:, LOCAL_EDGES]
        for c in range(m.n_cells):
            for a in range(6):
                lo, hi = sorted(raw[c, a])
                edge = m.edges[m.cell_edges[c, a]]
                assert edge[0] == lo and edge[1] == hi
                expected_sign = 1 if raw[c, a, 0] == lo else -1
                assert m.cell_edge_signs[c, a] == expected_sign

    def test_boundary_extraction(self):
        m = box_tet_mesh(2)
        # all boundary face nodes lie on the box surface
        for f in m.boundary_faces:
            pts = m.points[m.faces[f]]
            on_surface = np.any((pts == 0.0) | (pts == 1.0), axis=1)
            assert on_surface.all()

    def test_extract_cells_renumbers(self):
        m = box_tet_mesh(3)
        sub = m.extract_cells(cylinder_mask(m, radius=0.45))
        assert sub.n_cells < m.n_cells
        assert sub.cells.max() < sub.n_points
        assert np.all(sub.cell_volumes > 0)

    def test_locate_cells(self):
        m = box_tet_mesh(3)
        inside = m.locate_cells(np.array([[0.5, 0.5, 0.5]]))
        outside = m.locate_cells(np.array([[2.0, 0.0, 0.0]]))
        assert inside[0] >= 0
        assert outside[0] == -1

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            TetMesh(points=np.zeros((4, 2)), cells=np.zeros((1, 4), dtype=int))
        with pytest.raises(ValueError):
            TetMesh(points=np.zeros((4, 3)), cells=np.zeros((1, 3), dtype=int))


class TestMaxwellAssembly:
    def test_gradient_fields_in_curl_kernel(self, rng):
        mesh = box_tet_mesh(3)
        ke, _ = edge_element_matrices(mesh)
        k = _scatter_assemble(mesh, ke)
        phi = rng.standard_normal(mesh.n_points)
        u = phi[mesh.edges[:, 1]] - phi[mesh.edges[:, 0]]
        assert np.linalg.norm(k @ u) < 1e-10 * max(np.linalg.norm(u), 1)

    def test_mass_is_spd_and_integrates_constants(self):
        mesh = box_tet_mesh(3)
        _, me = edge_element_matrices(mesh)
        m = _scatter_assemble(mesh, me)
        assert abs(m - m.T).max() < 1e-14
        evec = mesh.points[mesh.edges[:, 1]] - mesh.points[mesh.edges[:, 0]]
        for axis in range(3):
            u = evec[:, axis]
            # int |E|^2 over the unit cube for E = unit vector = 1
            assert u @ (m @ u) == pytest.approx(1.0, rel=1e-10)

    def test_constant_field_in_stiffness_kernel(self):
        mesh = box_tet_mesh(3)
        ke, _ = edge_element_matrices(mesh)
        k = _scatter_assemble(mesh, ke)
        evec = mesh.points[mesh.edges[:, 1]] - mesh.points[mesh.edges[:, 0]]
        assert np.linalg.norm(k @ evec[:, 0]) < 1e-12

    def test_assembled_problem_structure(self):
        prob = maxwell_chamber(5, omega=6.0)
        assert prob.a.dtype == np.complex128
        assert abs(prob.a - prob.a.T).max() < 1e-12   # complex symmetric
        assert prob.n == len(prob.free_edges)
        assert prob.n < prob.mesh.n_edges             # PEC eliminated

    def test_sigma_gives_negative_imaginary_diag(self):
        mesh = box_tet_mesh(3)
        prob = assemble_maxwell(mesh, omega=5.0, eps=2.0, sigma=1.0)
        # A = K - w^2(eps + i sigma/w) M : imaginary part is -w sigma M
        assert np.all(prob.a.diagonal().imag < 0)

    def test_phantom_inclusion(self):
        mesh = box_tet_mesh(4)
        eps, sigma = chamber_phantom(mesh, inclusion_radius=0.2,
                                     eps_inclusion=1.0, sigma_inclusion=0.0)
        assert np.any(sigma == 0.0) and np.any(sigma == 1.0)
        assert np.any(eps == 1.0) and np.any(eps == 2.0)

    def test_antenna_rhs_columns_distinct(self):
        prob = maxwell_chamber(6, omega=8.0)
        b = antenna_ring_rhs(prob, n_antennas=8)
        assert b.shape == (prob.n, 8)
        norms = np.linalg.norm(b, axis=0)
        assert np.all(norms > 0)
        # different antennas excite different edges
        g = np.abs(b.conj().T @ b)
        off = g - np.diag(np.diag(g))
        assert off.max() < 0.99 * np.diag(g).min()

    def test_antenna_outside_mesh_raises(self):
        prob = maxwell_chamber(5, omega=6.0)
        with pytest.raises(ValueError, match="outside"):
            antenna_ring_rhs(prob, n_antennas=4, radius=2.0)


class TestMaxwellDecomposition:
    @pytest.fixture(scope="class")
    def chamber(self):
        return maxwell_chamber(6, omega=8.0)

    def test_partition_of_unity(self, chamber):
        dec = decompose_maxwell(chamber, 4, overlap=1)
        assert dec.decomposition.check_pou() < 1e-12

    def test_local_matrices_match_dof_counts(self, chamber):
        dec = decompose_maxwell(chamber, 4, overlap=1)
        for dofs, mat in zip(dec.decomposition.overlapping,
                             dec.local_matrices):
            assert mat.shape == (len(dofs), len(dofs))

    def test_impedance_breaks_symmetry_with_complex_shift(self, chamber):
        dec_imp = decompose_maxwell(chamber, 4, overlap=1, impedance=True)
        dec_neu = decompose_maxwell(chamber, 4, overlap=1, impedance=False)
        diff = abs(dec_imp.local_matrices[0] - dec_neu.local_matrices[0]).max()
        assert diff > 0

    def test_neumann_local_matrix_is_submatrix_plus_interface(self, chamber):
        """Away from interfaces the local matrix equals the global one."""
        dec = decompose_maxwell(chamber, 2, overlap=1, impedance=False)
        dofs = dec.decomposition.overlapping[0]
        sub = chamber.a[dofs][:, dofs]
        local = dec.local_matrices[0]
        # interior rows (all of whose couplings stay inside) must agree
        diff = abs(sub - local)
        # at least half the rows are interior and identical
        row_err = np.asarray(diff.max(axis=1).todense()).ravel()
        assert np.count_nonzero(row_err < 1e-12) > 0.3 * len(dofs)

    def test_oras_converges_where_ras_stalls(self, chamber, rng):
        """Fig. 4's mechanism on the real Maxwell operator."""
        from repro import Options, solve
        from repro.precond.schwarz import SchwarzPreconditioner
        b = antenna_ring_rhs(chamber, n_antennas=1)[:, 0]
        o = Options(tol=1e-6, variant="right", max_it=200, gmres_restart=50)
        dec = decompose_maxwell(chamber, 4, overlap=2, impedance=True)
        m_oras = SchwarzPreconditioner(chamber.a, variant="oras",
                                       decomposition=dec.decomposition,
                                       local_matrices=dec.local_matrices)
        r = solve(chamber.a, b, m_oras, options=o)
        assert r.converged.all()
        m_asm = SchwarzPreconditioner(chamber.a, nparts=4, overlap=1,
                                      variant="asm",
                                      points=chamber.dof_points())
        r_asm = solve(chamber.a, b, m_asm, options=o)
        assert (not r_asm.converged.all()) or \
            r.iterations < r_asm.iterations


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


class TestDecompositionOracle:
    """The batched decomposition against the per-face loop, bit for bit."""

    @pytest.fixture(scope="class", params=[4, 8])
    def chamber(self, request):
        return maxwell_chamber(request.param, omega=8.0,
                               inclusion_radius=0.15)

    def test_trace_mass_of_every_face(self, chamber):
        mesh = chamber.mesh
        batched = _face_trace_mass(mesh.points, mesh.faces)
        assert _same_bytes(batched, [face_trace_mass(mesh.points, tri)
                                     for tri in mesh.faces])
        assert _same_bytes(_face_trace_mass(mesh.points, mesh.faces[3]),
                           batched[3])

    @pytest.mark.parametrize("impedance", [True, False])
    @pytest.mark.parametrize("overlap", [0, 2])
    @pytest.mark.parametrize("nparts", [1, 2, 8])
    def test_matches_the_face_loop(self, chamber, nparts, overlap,
                                   impedance):
        got = decompose_maxwell(chamber, nparts, overlap=overlap,
                                impedance=impedance)
        ref = reference_decompose_maxwell(chamber, nparts, overlap=overlap,
                                          impedance=impedance)
        assert len(got.local_matrices) == len(ref.local_matrices) == nparts
        for a, b in zip(got.local_matrices, ref.local_matrices):
            assert a.format == b.format == "csc"
            assert _same_bytes(a.data, b.data)
            assert _same_bytes(a.indices, b.indices)
            assert _same_bytes(a.indptr, b.indptr)
        mine, theirs = got.decomposition, ref.decomposition
        for field in ("overlapping", "owned", "pou"):
            assert all(_same_bytes(x, y) for x, y in zip(
                getattr(mine, field), getattr(theirs, field)))
        assert _same_bytes(got.cell_parts, ref.cell_parts)
        assert all(_same_bytes(x, y) for x, y in zip(got.overlap_cells,
                                                     ref.overlap_cells))
        # the partition of unity sums to one only to rounding
        assert mine.check_pou() <= 4e-16
