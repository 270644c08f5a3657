"""Tests for the preconditioner family: AMG, Schwarz, simple baselines."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import FunctionPreconditioner, Options, solve
from repro.precond.aggregation import (greedy_aggregation, strength_graph,
                                       tentative_prolongator)
from repro.precond.amg import SmoothedAggregationAMG
from repro.precond.schwarz import SchwarzPreconditioner
from repro.precond.simple import JacobiPreconditioner, SSORPreconditioner
from repro.problems.partition import (band_partition, decompose, grow_overlap,
                                      partition_of_unity,
                                      recursive_coordinate_bisection)

from conftest import laplacian_1d, laplacian_2d, relative_residuals
from fixtures.retained_bytes import array_bytes, traced_bytes


class TestAggregation:
    def test_strength_graph_symmetric(self):
        a = laplacian_2d(8)
        g = strength_graph(a, threshold=0.1)
        assert (g != g.T).nnz == 0
        assert np.all(g.diagonal() == 0)

    def test_threshold_drops_edges(self):
        # anisotropic: weak coupling in y
        nx = 10
        tx = laplacian_1d(nx)
        ty = 0.01 * laplacian_1d(nx)
        a = (sp.kron(sp.eye(nx), tx) + sp.kron(ty, sp.eye(nx))).tocsr()
        g_all = strength_graph(a, threshold=0.0)
        g_strong = strength_graph(a, threshold=0.25)
        assert g_strong.nnz < g_all.nnz

    def test_squaring_extends_reach(self):
        a = laplacian_1d(20)
        g1 = strength_graph(a, threshold=0.0)
        g2 = strength_graph(a, threshold=0.0, square=1)
        assert g2.nnz > g1.nnz

    def test_aggregation_covers_all_nodes(self):
        g = strength_graph(laplacian_2d(10), threshold=0.0)
        agg = greedy_aggregation(g)
        assert np.all(agg >= 0)
        assert agg.max() + 1 < g.shape[0]  # actual coarsening happened

    def test_isolated_nodes_become_singletons(self):
        g = sp.csr_matrix((5, 5), dtype=np.int8)
        agg = greedy_aggregation(g)
        assert len(np.unique(agg)) == 5

    def test_tentative_prolongator_reproduces_nullspace(self, rng):
        g = strength_graph(laplacian_1d(30), threshold=0.0)
        agg = greedy_aggregation(g)
        ns = np.ones((30, 1))
        t, coarse_ns = tentative_prolongator(agg, ns)
        # T @ coarse_ns must reproduce the fine nullspace exactly
        assert np.allclose(t @ coarse_ns, ns, atol=1e-12)

    def test_tentative_prolongator_block_size(self, rng):
        from repro.problems.elasticity import elasticity_3d
        prob = elasticity_3d(4)
        nodes = prob.n // 3
        agg = np.arange(nodes) // 4
        t, coarse_ns = tentative_prolongator(agg, prob.nullspace, block_size=3)
        assert np.allclose(t @ coarse_ns, prob.nullspace, atol=1e-10)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            tentative_prolongator(np.zeros(4, dtype=int), np.ones((13, 1)),
                                  block_size=3)


class TestAMG:
    def test_mesh_independent_iterations(self, rng):
        """The whole point of multigrid: iterations don't grow with n."""
        its = {}
        for nx in (20, 40):
            a = laplacian_2d(nx)
            m = SmoothedAggregationAMG(a)
            b = rng.standard_normal(a.shape[0])
            res = solve(a, b, m, options=Options(tol=1e-8, variant="right",
                                                 max_it=100))
            assert res.converged.all()
            its[nx] = res.iterations
        assert its[40] <= its[20] + 3

    def test_single_vcycle_reduces_error(self, rng):
        a = laplacian_2d(16)
        m = SmoothedAggregationAMG(a)
        x_true = rng.standard_normal(a.shape[0])
        b = a @ x_true
        x1 = m.apply(b.reshape(-1, 1))[:, 0]
        assert (np.linalg.norm(x_true - x1)
                < 0.5 * np.linalg.norm(x_true))

    def test_hierarchy_structure(self):
        a = laplacian_2d(30)
        m = SmoothedAggregationAMG(a, coarse_size=100)
        assert m.n_levels >= 2
        sizes = [l.a.shape[0] for l in m.levels]
        assert all(s2 < s1 for s1, s2 in zip(sizes, sizes[1:]))
        assert m.operator_complexity < 2.0

    def test_variable_smoothers_flagged(self):
        a = laplacian_2d(10)
        assert SmoothedAggregationAMG(a, smoother="gmres").is_variable
        assert SmoothedAggregationAMG(a, smoother="cg").is_variable
        assert not SmoothedAggregationAMG(a, smoother="chebyshev").is_variable
        assert not SmoothedAggregationAMG(a, smoother="jacobi").is_variable

    @pytest.mark.parametrize("smoother", ["chebyshev", "jacobi", "gmres", "cg"])
    def test_all_smoothers_converge(self, rng, smoother):
        a = laplacian_2d(14)
        m = SmoothedAggregationAMG(a, smoother=smoother,
                                   smoother_iterations=3)
        b = rng.standard_normal(a.shape[0])
        res = solve(a, b, m, options=Options(tol=1e-8, max_it=150))
        assert res.converged.all()

    def test_unknown_smoother(self):
        with pytest.raises(ValueError):
            SmoothedAggregationAMG(laplacian_1d(10), smoother="ilu")

    def test_elasticity_nullspace_helps(self, rng):
        from repro.problems.elasticity import elasticity_3d
        prob = elasticity_3d(6)
        b = prob.rhs_vector
        o = Options(tol=1e-8, variant="right", max_it=300)
        with_ns = SmoothedAggregationAMG(prob.a, nullspace=prob.nullspace,
                                         block_size=3)
        without = SmoothedAggregationAMG(prob.a, block_size=3)
        r1 = solve(prob.a, b, with_ns, options=o)
        r0 = solve(prob.a, b, without, options=o)
        assert r1.converged.all()
        assert r1.iterations < r0.iterations

    def test_block_rhs_supported(self, rng):
        a = laplacian_2d(12)
        m = SmoothedAggregationAMG(a)
        b = rng.standard_normal((a.shape[0], 4))
        res = solve(a, b, m, options=Options(tol=1e-8, variant="right",
                                             max_it=100))
        assert res.converged.all()


class TestPartitioning:
    def test_rcb_balanced(self, rng):
        pts = rng.random((1000, 2))
        part = recursive_coordinate_bisection(pts, 8)
        counts = np.bincount(part)
        assert len(counts) == 8
        assert counts.max() - counts.min() <= 8

    def test_rcb_nonpower_of_two(self, rng):
        pts = rng.random((300, 3))
        part = recursive_coordinate_bisection(pts, 6)
        counts = np.bincount(part, minlength=6)
        assert np.all(counts > 0)
        assert abs(counts.max() - counts.min()) <= 6

    def test_band_partition_covers(self):
        a = laplacian_2d(12)
        part = band_partition(a, 5)
        assert np.all(np.bincount(part, minlength=5) > 0)

    def test_grow_overlap_monotone(self):
        a = laplacian_1d(50)
        owned = np.arange(10, 20)
        s1 = grow_overlap(a, owned, 1)
        s2 = grow_overlap(a, owned, 2)
        assert set(owned) <= set(s1) <= set(s2)
        assert len(s1) == 12 and len(s2) == 14

    @pytest.mark.parametrize("kind", ["boolean", "multiplicity"])
    def test_partition_of_unity_identity(self, kind):
        """sum R^T D R = I — the eq. (6) requirement."""
        a = laplacian_2d(10)
        dec = decompose(a, 4, overlap=2, pou=kind)
        assert dec.check_pou() < 1e-14

    def test_empty_subdomain_detected(self):
        a = laplacian_1d(6)
        with pytest.raises(ValueError):
            decompose(a, 6, overlap=1)  # RCM chunks of 1 grow into everything
            decompose(a, 7, overlap=1)


class TestSchwarz:
    def test_overlap_reduces_iterations(self, rng):
        a = laplacian_2d(25)
        b = rng.standard_normal(a.shape[0])
        its = {}
        for ov in (1, 3):
            m = SchwarzPreconditioner(a, nparts=6, overlap=ov, variant="ras")
            res = solve(a, b, m, options=Options(tol=1e-8, variant="right",
                                                 max_it=400))
            assert res.converged.all()
            its[ov] = res.iterations
        assert its[3] < its[1]

    @pytest.mark.parametrize("variant", ["asm", "ras"])
    def test_variants_converge_spd(self, rng, variant):
        a = laplacian_2d(20)
        b = rng.standard_normal(a.shape[0])
        m = SchwarzPreconditioner(a, nparts=4, overlap=2, variant=variant)
        res = solve(a, b, m, options=Options(tol=1e-8, variant="right",
                                             max_it=300))
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-7)

    def test_single_subdomain_is_direct(self, rng):
        a = laplacian_2d(10)
        b = rng.standard_normal(a.shape[0])
        m = SchwarzPreconditioner(a, nparts=1, overlap=0, variant="asm")
        res = solve(a, b, m, options=Options(tol=1e-10, variant="right"))
        assert res.iterations <= 2

    def test_oras_beats_ras_on_indefinite(self, rng):
        """The Fig. 4 mechanism at algebraic-model scale."""
        n1 = 30
        h = 1.0 / (n1 + 1)
        k = 12.0
        helm = (laplacian_2d(n1) / h ** 2
                - k ** 2 * sp.eye(n1 * n1)).tocsr().astype(complex)
        b = rng.standard_normal(n1 * n1) + 1j * rng.standard_normal(n1 * n1)
        o = Options(tol=1e-8, variant="right", max_it=400, gmres_restart=50)
        m_ras = SchwarzPreconditioner(helm, nparts=8, overlap=2, variant="ras")
        m_oras = SchwarzPreconditioner(helm, nparts=8, overlap=2,
                                       variant="oras", interface_shift=0.05j)
        r_ras = solve(helm, b, m_ras, options=o)
        r_oras = solve(helm, b, m_oras, options=o)
        assert r_oras.converged.all()
        # RAS stalls or needs more iterations than ORAS
        assert (not r_ras.converged.all()) or \
            r_oras.iterations <= r_ras.iterations

    def test_block_apply_matches_column_apply(self, rng):
        a = laplacian_2d(15)
        m = SchwarzPreconditioner(a, nparts=4, overlap=1, variant="ras")
        x = rng.standard_normal((a.shape[0], 3))
        block = m.apply(x)
        cols = np.column_stack([m.apply(x[:, j:j + 1])[:, 0] for j in range(3)])
        assert np.allclose(block, cols, atol=1e-12)

    def test_oras_holds_each_factor_once(self):
        # the Maxwell ORAS set-up (impedance local matrices) holds what its
        # arrays account for: no subdomain's SuperLU object stays alive
        from repro.problems.maxwell import decompose_maxwell, maxwell_chamber

        def build():
            prob = maxwell_chamber(6)
            dec = decompose_maxwell(prob, 8, overlap=2, impedance=True)
            return SchwarzPreconditioner(
                prob.a, variant="oras", decomposition=dec.decomposition,
                local_matrices=dec.local_matrices)

        m, held = traced_bytes(build)
        assert len(m.solvers) == 8
        assert held <= 1.1 * array_bytes(m)

    def test_local_matrix_size_checked(self):
        a = laplacian_2d(8)
        with pytest.raises(ValueError, match="size"):
            SchwarzPreconditioner(a, nparts=2, overlap=1, variant="oras",
                                  local_matrices=[sp.eye(3).tocsc()] * 2)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            SchwarzPreconditioner(laplacian_1d(10), variant="hybrid")


class TestSimplePreconditioners:
    def test_jacobi(self, rng):
        a = laplacian_2d(12)
        m = JacobiPreconditioner(a)
        b = rng.standard_normal(a.shape[0])
        r0 = solve(a, b, options=Options(tol=1e-8, max_it=2000))
        r1 = solve(a, b, m, options=Options(tol=1e-8, variant="right",
                                            max_it=2000))
        assert r1.converged.all()
        assert r1.iterations <= r0.iterations + 5

    def test_jacobi_zero_diag_rejected(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            JacobiPreconditioner(a)

    def test_ssor_application_matches_formula(self, rng):
        a = laplacian_2d(6)
        w = 1.2
        m = SSORPreconditioner(a, omega=w)
        x = rng.standard_normal((a.shape[0], 2))
        ad = a.toarray()
        d = np.diag(np.diag(ad))
        low = np.tril(ad, -1)
        up = np.triu(ad, 1)
        m_mat = (w / (2 - w)) * (d / w + low) @ np.linalg.inv(d / w) @ (d / w + up)
        expect = np.linalg.solve(m_mat, x)
        assert np.allclose(m.apply(x), expect, atol=1e-10)

    def test_ssor_accelerates_gmres(self, rng):
        a = laplacian_2d(15)
        b = rng.standard_normal(a.shape[0])
        m = SSORPreconditioner(a)
        r0 = solve(a, b, options=Options(tol=1e-8, max_it=3000))
        r1 = solve(a, b, m, options=Options(tol=1e-8, variant="right",
                                            max_it=3000))
        assert r1.converged.all()
        assert r1.iterations < r0.iterations

    def test_ssor_omega_bounds(self):
        with pytest.raises(ValueError):
            SSORPreconditioner(laplacian_1d(5), omega=2.0)


class TestTwoLevelSchwarz:
    def test_coarse_correction_flattens_iteration_growth(self, rng):
        """The classic two-level cure for the paper's Fig.-7 growth."""
        from repro import Options, solve
        a = laplacian_2d(36)
        b = rng.standard_normal(a.shape[0])
        o = Options(tol=1e-8, variant="right", max_it=500)
        one = {}
        two = {}
        for nparts in (4, 16):
            one[nparts] = solve(a, b, SchwarzPreconditioner(
                a, nparts=nparts, overlap=2), options=o).iterations
            two[nparts] = solve(a, b, SchwarzPreconditioner(
                a, nparts=nparts, overlap=2, coarse=True),
                options=o).iterations
        assert two[16] < one[16]
        # relative growth 4 -> 16 parts is milder with the coarse space
        assert two[16] / two[4] < one[16] / one[4] + 0.2

    def test_coarse_handles_constant_error_mode(self, rng):
        a = laplacian_2d(24)
        ones = np.ones(a.shape[0])
        m1 = SchwarzPreconditioner(a, nparts=8, overlap=2)
        m2 = SchwarzPreconditioner(a, nparts=8, overlap=2, coarse=True)
        r1 = np.linalg.norm(m1.apply((a @ ones).reshape(-1, 1))[:, 0] - ones)
        r2 = np.linalg.norm(m2.apply((a @ ones).reshape(-1, 1))[:, 0] - ones)
        assert r2 < 0.5 * r1

    def test_coarse_block_apply_consistent(self, rng):
        a = laplacian_2d(16)
        m = SchwarzPreconditioner(a, nparts=4, overlap=1, coarse=True)
        x = rng.standard_normal((a.shape[0], 3))
        block = m.apply(x)
        cols = np.column_stack([m.apply(x[:, j:j + 1])[:, 0]
                                for j in range(3)])
        assert np.allclose(block, cols, atol=1e-12)


#: (krylov_method, p) -> the label a variable right-preconditioned solve
#: reports; ``None``: the method refuses a variable preconditioner outright
_VARIABLE_LABELS = {
    ("gmres", 1): "fgmres", ("bgmres", 3): "fbgmres",
    ("gcrodr", 1): "fgcrodr", ("gcrodr", 3): "fpgcrodr",
    ("bgcrodr", 3): "fbgcrodr", ("gmresdr", 1): None, ("lgmres", 1): None,
}


class TestVariablePreconditioning:
    """A variable ``M`` (paper section III-C) decides by the variant alone:
    ``left`` refuses it on every method; ``right`` stores ``Z = M(V)`` and
    runs FGMRES / FGCRO-DR, labelled ``f``; GMRES-DR and LGMRES have no
    flexible form and refuse it by name."""

    @pytest.mark.parametrize("variant", ["left", "right"])
    @pytest.mark.parametrize("method,p", sorted(_VARIABLE_LABELS))
    def test_variant_decides(self, rng, method, p, variant):
        a = laplacian_1d(120, shift=0.3)
        dinv = 1.0 / a.diagonal()
        calls = [0]

        def jacobi(x):
            calls[0] += 1
            return (1.0 + 0.3 * np.sin(calls[0])) * dinv[:, None] * x

        m = FunctionPreconditioner(jacobi, is_variable=True)
        b = rng.standard_normal((120, p))
        o = Options(krylov_method=method, gmres_restart=20, recycle=5,
                    tol=1e-8, max_it=2000, variant=variant)
        label = _VARIABLE_LABELS[method, p]
        if variant == "left" or label is None:
            with pytest.raises(ValueError, match="variable"):
                solve(a, b, m, options=o)
            assert calls[0] == 0
            return
        res = solve(a, b, m, options=o)
        assert res.method == label
        assert res.converged.all() and calls[0] > 0
        assert np.all(relative_residuals(a, res.x, b) < 1e-7)
