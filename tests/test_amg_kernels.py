"""The live-work V-cycle and the vectorized SA set-up against their oracles.

``tests/fixtures/reference_amg.py`` holds the kernels as first written (the
full textbook Chebyshev loop with its dead trailing product, a fresh
temporary per step; per-node aggregation and per-aggregate QR).  The
production kernels do the same floating-point operations in the same order,
so everything here is **bitwise** — ``tobytes()``, not ``allclose``.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.krylov.base import as_operator
from repro.krylov.chebyshev import chebyshev_iteration
from repro.precond.aggregation import (greedy_aggregation, strength_graph,
                                       tentative_prolongator)
from repro.precond.amg import SmoothedAggregationAMG
from repro.problems.elasticity import elasticity_3d
from repro.util import ledger
from repro.util.ledger import CostLedger, Kernel

from conftest import laplacian_2d, make_rng
from fixtures import reference_amg as ref

DTYPES = [np.float64, np.complex128]


def same_bytes(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape \
        and x.tobytes() == y.tobytes()


def same_csr(x, y) -> bool:
    return x.shape == y.shape and same_bytes(x.indptr, y.indptr) \
        and same_bytes(x.indices, y.indices) and same_bytes(x.data, y.data)


def randn(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def _vote_graph() -> sp.csr_matrix:
    """Two pass-1 aggregates, {0, 4, 5} and {1, 2, 3}, and three voters.

    Node 6 sees one neighbour of each and meets aggregate 1 first in index
    order: the tie must go to the *lower id*, not to the first seen.  Node 7
    sees aggregate 1 twice and 0 once.  Node 8's neighbours are 5 and 6:
    it counts the vote node 6 cast just before it (pass 2 is sequential).
    Nodes 9 and 10 are isolated — an empty neighbourhood is vacuously
    unaggregated, so pass 1 roots them; pass 3 of the reference cannot fire
    (a node that fails the root test has an aggregated neighbour to join).
    """
    edges = [(0, 4), (0, 5), (1, 2), (1, 3), (6, 2), (6, 4),
             (7, 2), (7, 3), (7, 5), (8, 5), (8, 6)]
    rows, cols = zip(*(edges + [(j, i) for i, j in edges]))
    return sp.csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                         shape=(11, 11))


CASE_NAMES = ["poisson", "elasticity", "anisotropic", "squared-graph"]


def _case(dtype, name):
    """(matrix, AMG keywords) for one of the set-up paths worth pinning."""
    shift = 0.3j if np.issubdtype(dtype, np.complexfloating) else 0.0
    if name == "elasticity":
        prob = elasticity_3d(5)
        a = (prob.a + shift * sp.eye(prob.n)).astype(dtype)
        return a, dict(nullspace=prob.nullspace.astype(dtype), block_size=3,
                       coarse_size=60)
    if name == "anisotropic":
        # weak y-coupling + threshold: weak edges drop, leaving chains whose
        # aggregates have two to four rows under a two-vector near-nullspace
        # and leave work for pass 2.  (An aggregate with *fewer* rows than
        # vectors makes the Galerkin operator singular, so that path is held
        # to the fixture on the prolongator alone.)
        nx = 14
        tx = sp.diags([-np.ones(nx - 1), 2.0 * np.ones(nx), -np.ones(nx - 1)],
                      [-1, 0, 1])
        a = (sp.kron(sp.eye(nx), tx) + 0.01 * sp.kron(tx, sp.eye(nx))
             + shift * sp.eye(nx * nx)).astype(dtype).tolil()
        a[5, 6] = a[6, 5] = 0.0              # cut one chain: a short piece
        a = a.tocsr()
        a.eliminate_zeros()
        two = np.column_stack([np.ones(nx * nx),
                               make_rng(11).standard_normal(nx * nx)])
        return a, dict(nullspace=two.astype(dtype), threshold=0.25,
                       coarse_size=30)
    a = (laplacian_2d(18) + shift * sp.eye(18 * 18)).astype(dtype)
    if name == "squared-graph":
        return a, dict(square_graph=1, coarse_size=20)
    return a, dict(coarse_size=40)


# ---------------------------------------------------------------------------
class TestSetupAgainstFixture:
    def test_greedy_votes(self):
        g = _vote_graph()
        agg = greedy_aggregation(g)
        assert same_bytes(agg, ref.greedy_aggregation(g))
        assert agg.tolist() == [0, 1, 1, 1, 0, 0, 0, 1, 0, 2, 3]

    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_on_random_graphs(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(5, 120))
        g = sp.random(n, n, density=float(rng.uniform(0.01, 0.15)),
                      random_state=rng, format="csr")
        g = strength_graph(g + sp.eye(n), threshold=0.0,
                           square=int(seed % 2))
        assert same_bytes(greedy_aggregation(g), ref.greedy_aggregation(g))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("block_size,nvec",
                             [(1, 1), (1, 2), (3, 6), (2, 5)])
    def test_tentative_prolongator(self, dtype, block_size, nvec):
        rng = make_rng(block_size, nvec)
        # aggregates of 1..5 nodes, ids interleaved: with block_size = 1 and
        # nvec = 2 (or 2 and 5, 3 and 6) the small ones have fewer rows
        # than vectors
        agg = rng.permutation(np.repeat(np.arange(9),
                                        [1, 1, 2, 2, 3, 3, 4, 5, 5]))
        ns = randn(rng, (agg.size * block_size, nvec), dtype)
        t, coarse = tentative_prolongator(agg, ns, block_size=block_size)
        t_ref, coarse_ref = ref.tentative_prolongator(agg, ns,
                                                      block_size=block_size)
        assert same_csr(t, t_ref)
        assert same_bytes(coarse, coarse_ref)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_hierarchy(self, dtype, name):
        a, kw = _case(dtype, name)
        amg = SmoothedAggregationAMG(a, **kw)
        levels = ref.build_levels(a, **kw)
        assert amg.n_levels == len(levels) >= 2
        for level, (a_ref, p_ref, diag_ref) in zip(amg.levels, levels):
            assert same_csr(level.a, a_ref)
            assert same_bytes(level.diag, diag_ref)
            assert (level.p is None) == (p_ref is None)
            if p_ref is not None:
                assert same_csr(level.p, p_ref)

    def test_anisotropic_case_reaches_pass_two(self):
        a, kw = _case(np.float64, "anisotropic")
        graph = strength_graph(a, threshold=kw["threshold"])
        sizes = np.bincount(greedy_aggregation(graph))
        # a chain's pass-1 aggregate is a root and its two neighbours
        assert sizes.min() == 2 and sizes.max() == 4


# ---------------------------------------------------------------------------
class TestApplyAgainstFixture:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", CASE_NAMES)
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_vcycle_bytes(self, dtype, name, degree):
        a, kw = _case(dtype, name)
        amg = SmoothedAggregationAMG(a, smoother_iterations=degree, **kw)
        rng = make_rng(degree)
        for p in (1, 4, 7):
            x = randn(rng, (a.shape[0], p), dtype)
            x[:, 0] = 0.0                      # a zero column stays zero
            keep = x.copy()
            y = amg.apply(x)
            assert same_bytes(y, ref.apply(amg, x))
            assert same_bytes(x, keep)         # the input is never written

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("start", ["zero", "x0"])
    def test_public_chebyshev(self, dtype, degree, start):
        rng = make_rng(degree)
        a = (laplacian_2d(9) + (0.2j if dtype is np.complex128 else 0.0)
             * sp.eye(81)).astype(dtype).tocsr()
        diag = np.asarray(a.diagonal()).copy()
        diag[3] = 0.0                          # the guarded reciprocal
        op = as_operator(a)
        b = randn(rng, (81, 3), dtype)
        x0 = randn(rng, (81, 3), dtype) if start == "x0" else None
        keep = None if x0 is None else x0.copy()
        kw = dict(degree=degree, lam_min=0.2, lam_max=2.1, x0=x0)
        y = chebyshev_iteration(op, diag, b, **kw)
        assert same_bytes(y, ref.chebyshev_iteration(op, diag, b, **kw))
        if x0 is not None:
            assert same_bytes(x0, keep)        # copied, never smoothed
            assert not np.shares_memory(y, x0)

    def test_negative_zero_from_a_zero_start(self):
        # zeros + d turns a -0.0 of d into +0.0; a bare copy would not
        a = sp.diags([-2.0, 2.0, 2.0]).tocsr()
        b = np.array([[0.0], [1.0], [-0.0]])
        kw = dict(degree=2, lam_min=0.1, lam_max=1.0)
        y = chebyshev_iteration(as_operator(a), a.diagonal(), b, **kw)
        assert same_bytes(y, ref.chebyshev_iteration(
            as_operator(a), a.diagonal(), b, **kw))
        assert not np.signbit(y).any()


# ---------------------------------------------------------------------------
class TestAliasing:
    def test_consecutive_results_are_independent(self):
        rng = make_rng(1)
        a = laplacian_2d(18)
        amg = SmoothedAggregationAMG(a, coarse_size=40)
        x1, x2 = rng.standard_normal((2, a.shape[0], 4))
        y1 = amg.apply(x1)
        keep = y1.copy()
        y2 = amg.apply(x2)
        assert not np.shares_memory(y1, y2)
        assert same_bytes(y1, keep)            # flexible solvers keep Z blocks
        for level in amg.levels:
            if level._work is not None:
                assert not np.shares_memory(y2, level._work)

    def test_one_level_hierarchy_returns_an_owned_block(self):
        rng = make_rng(2)
        a = laplacian_2d(6)
        amg = SmoothedAggregationAMG(a)        # 36 unknowns: coarse solve only
        assert amg.n_levels == 1
        x = rng.standard_normal((36, 2))
        y = amg.apply(x)
        assert not np.shares_memory(x, y)
        assert np.allclose(a @ y, x, atol=1e-10)

    def test_alternating_widths_and_dtypes(self):
        """One workspace per level, rebuilt when (p, dtype) changes: the
        answers must not depend on what the hierarchy served before."""
        rng = make_rng(3)
        a = laplacian_2d(18)
        amg = SmoothedAggregationAMG(a, coarse_size=40)
        fresh = SmoothedAggregationAMG(a, coarse_size=40)
        blocks = [randn(rng, (a.shape[0], p), dt)
                  for p, dt in [(4, np.float64), (1, np.float64),
                                (4, np.complex128), (7, np.float64),
                                (4, np.float64), (2, np.complex128)]]
        first = [amg.apply(x) for x in blocks]
        again = [amg.apply(x) for x in reversed(blocks)][::-1]
        for x, y1, y2 in zip(blocks, first, again):
            assert y1.dtype == x.dtype
            assert same_bytes(y1, y2)
        assert same_bytes(first[0], fresh.apply(blocks[0]))
        assert amg.levels[0]._work.shape == (3, a.shape[0], 4)

    def test_krylov_smoother_iterate_is_not_written(self):
        # a Krylov smoother's x belongs to its result object: the coarse
        # correction must land in the V-cycle's own block
        rng = make_rng(4)
        a = laplacian_2d(14)
        x = rng.standard_normal((a.shape[0], 2))
        for smoother in ("gmres", "cg", "jacobi"):
            amg = SmoothedAggregationAMG(a, smoother=smoother, coarse_size=40)
            y1, y2 = amg.apply(x), amg.apply(x)
            assert not np.shares_memory(y1, y2)
            assert np.allclose(y1, y2, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
class TestComplexBlockOnRealHierarchy:
    def test_apply_is_complex_linear(self):
        rng = make_rng(5)
        a = laplacian_2d(24)
        amg = SmoothedAggregationAMG(a, coarse_size=60)
        assert amg.dtype == np.float64 and amg.n_levels >= 2
        x = randn(rng, (a.shape[0], 3), np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # no ComplexWarning either
            y = amg.apply(x)
        assert y.dtype == np.complex128
        split = amg.apply(x.real.copy()) + 1j * amg.apply(x.imag.copy())
        assert np.linalg.norm(y - split) <= 1e-13 * np.linalg.norm(split)
        assert np.linalg.norm(y.imag) > 0.1 * np.linalg.norm(y.real)
        z = amg.apply((2.0 - 0.5j) * x)
        assert np.linalg.norm(z - (2.0 - 0.5j) * y) <= 1e-13 * np.linalg.norm(z)

    def test_real_block_on_complex_hierarchy(self):
        rng = make_rng(6)
        a = (laplacian_2d(12) + 0.3j * sp.eye(144)).astype(np.complex128)
        amg = SmoothedAggregationAMG(a, coarse_size=30)
        x = rng.standard_normal((144, 2))
        assert same_bytes(amg.apply(x), amg.apply(x.astype(np.complex128)))


# ---------------------------------------------------------------------------
class TestLedger:
    @staticmethod
    def _sparse_flops(led: CostLedger) -> float:
        # Operator.matmat files a one-column product under SPMV
        return led.flops[Kernel.SPMM] + led.flops[Kernel.SPMV]

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("p", [1, 4])
    def test_chebyshev_vcycle_charge_is_a_formula(self, degree, p):
        """Per non-coarsest level: ``degree - 1`` products to pre-smooth
        from zero, ``degree`` to post-smooth, one residual, two transfers —
        ``2 nnz p`` each; the coarse solve charges no sparse product."""
        a = laplacian_2d(18)
        amg = SmoothedAggregationAMG(a, smoother_iterations=degree,
                                     coarse_size=40)
        assert amg.n_levels >= 3
        x = make_rng(degree, p).standard_normal((a.shape[0], p))
        with ledger.install(CostLedger()) as led:
            amg.apply(x)
        products = 2 * degree if degree else 1
        expect = sum(2.0 * p * (products * lv.a.nnz + 2 * lv.p.nnz)
                     for lv in amg.levels[:-1])
        assert self._sparse_flops(led) == expect
        assert led.calls["operator_apply"] == \
            p * (products - 1) * (amg.n_levels - 1)
        assert led.calls["amg_vcycle"] == p

    def test_fixture_charged_the_dead_products_and_no_transfer(self):
        a = laplacian_2d(18)
        amg = SmoothedAggregationAMG(a, coarse_size=40)
        x = make_rng(7).standard_normal((a.shape[0], 4))
        with ledger.install(CostLedger()) as led_ref:
            ref.apply(amg, x)
        with ledger.install(CostLedger()) as led:
            amg.apply(x)
        nnz_a = sum(lv.a.nnz for lv in amg.levels[:-1])
        nnz_p = sum(lv.p.nnz for lv in amg.levels[:-1])
        assert led_ref.flops[Kernel.SPMM] == 2.0 * 4 * 6 * nnz_a
        assert led.flops[Kernel.SPMM] == 2.0 * 4 * (4 * nnz_a + 2 * nnz_p)

    def test_jacobi_sweeps_are_charged(self):
        a = laplacian_2d(18)
        amg = SmoothedAggregationAMG(a, smoother="jacobi",
                                     smoother_iterations=3, coarse_size=40)
        x = make_rng(8).standard_normal((a.shape[0], 4))
        with ledger.install(CostLedger()) as led:
            amg.apply(x)
        expect = sum(2.0 * 4 * ((2 * 3 + 1) * lv.a.nnz + 2 * lv.p.nnz)
                     for lv in amg.levels[:-1])
        assert led.flops[Kernel.SPMM] == expect
