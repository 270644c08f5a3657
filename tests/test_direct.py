"""Tests for the sparse direct solver substrate (ordering, LU, solves)."""

import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.direct.ordering import reverse_cuthill_mckee
from repro.direct import solver as solver_mod
from repro.direct.solver import _SYMMETRIC, SparseLU
from repro.direct.triangular import (LevelSchedule, TriangularFactor,
                                     _chain_blocks, _invert_blocks,
                                     _levels_frontier, concat_factors)
from repro.problems.maxwell import decompose_maxwell, maxwell_chamber
from repro.trace import Tracer, install as install_tracer
from repro.util import ledger
from repro.util.ledger import Kernel

from conftest import make_rng, complex_shifted, laplacian_1d, laplacian_2d
from fixtures.reference_sweep import (ReferenceTriangularFactor,
                                      reference_concat,
                                      reference_invert_blocks)
from fixtures.rowlevel_trisolve import RowLevelTriangularSolve, levels_by_row
from fixtures.retained_bytes import array_bytes, traced_bytes


def _random_sparse(rng, n, density=0.05, complex_=False):
    a = sp.random(n, n, density=density, random_state=int(rng.integers(2**31)))
    a = a + sp.diags(n / 2.0 + np.arange(n, dtype=float))
    if complex_:
        b = sp.random(n, n, density=density, random_state=int(rng.integers(2**31)))
        a = a + 1j * b
    return sp.csc_matrix(a)


class TestOrderings:
    def test_rcm_reduces_bandwidth(self, rng):
        # random permutation of a banded matrix: RCM should recover low bandwidth
        n = 60
        a = laplacian_1d(n)
        p = rng.permutation(n)
        ap = sp.csr_matrix(a[p][:, p])
        perm = reverse_cuthill_mckee(ap)
        reord = ap[perm][:, perm].tocoo()
        bw = np.max(np.abs(reord.row - reord.col))
        assert bw <= 5

    def test_rcm_handles_disconnected_graph(self):
        a = sp.block_diag([laplacian_1d(10), laplacian_1d(7)]).tocsr()
        perm = reverse_cuthill_mckee(a)
        assert sorted(perm.tolist()) == list(range(17))

    def test_amd_reduces_fill_vs_natural(self):
        # a symmetric pattern is ordered by minimum degree on A + A^T
        a = laplacian_2d(15)
        lu = SparseLU(a)
        assert lu.symmetric
        natural = spla.splu(sp.csc_matrix(a), permc_spec="NATURAL")
        assert lu.factor_nnz < natural.L.nnz + natural.U.nnz


class TestLevelSchedule:
    def test_diagonal_matrix_single_level(self):
        sched = LevelSchedule(sp.csr_matrix(sp.diags(np.ones(10)) * 0))
        assert sched.n_levels == 1
        assert len(sched.rows_by_level[0]) == 10

    def test_bidiagonal_fully_sequential(self):
        n = 8
        strict = sp.diags(np.ones(n - 1), -1).tocsr()
        sched = LevelSchedule(strict)
        assert sched.n_levels == n

    def test_levels_respect_dependencies(self, rng):
        a = sp.tril(_random_sparse(rng, 60), k=-1).tocsr()
        sched = LevelSchedule(a)
        level = sched.level_of_row
        coo = a.tocoo()
        for i, j in zip(coo.row, coo.col):
            assert level[i] > level[j]

    @pytest.mark.parametrize("fallback_width", [1, 2, 8, 10**9])
    def test_frontier_matches_reference(self, rng, fallback_width):
        # the vectorized frontier propagation must reproduce the per-row
        # recurrence exactly, whichever side of the adaptive threshold the
        # DAG lands on (fallback_width=1 forces pure frontier waves;
        # 10**9 forces the pure per-row fallback)
        for trial in range(8):
            n = int(rng.integers(1, 120))
            dens = float(rng.uniform(0.01, 0.4))
            a = sp.random(n, n, density=dens,
                          random_state=int(rng.integers(2**31)))
            low = sp.tril(a, k=-1).tocsr()
            ref = levels_by_row(n, low.indptr, low.indices)
            vec = _levels_frontier(n, low.indptr, low.indices,
                                   fallback_width=fallback_width)
            assert np.array_equal(ref, vec)

    def test_frontier_on_block_diagonal(self, rng):
        # the Schwarz concat shape: many independent blocks, wide frontiers
        sub = sp.tril(_random_sparse(rng, 40), k=-1).tocsr()
        blk = sp.block_diag([sub] * 8, format="csr")
        n = blk.shape[0]
        ref = levels_by_row(n, blk.indptr, blk.indices)
        vec = _levels_frontier(n, blk.indptr, blk.indices)
        assert np.array_equal(ref, vec)
        # block-diagonal structure never deepens the schedule
        assert vec.max() == levels_by_row(
            sub.shape[0], sub.indptr, sub.indices).max()


class TestTriangularFactor:
    @pytest.mark.parametrize("lower", [True, False])
    def test_matches_scipy(self, rng, lower):
        n = 80
        m = sp.random(n, n, density=0.1, random_state=7)
        m = sp.tril(m, -1) if lower else sp.triu(m, 1)
        m = (m + sp.diags(2.0 + np.arange(n, dtype=float))).tocsr()
        tri = TriangularFactor(m, lower=lower)
        b = rng.standard_normal((n, 3))
        x = tri.solve(b)
        x_ref = spla.spsolve_triangular(m.tocsr(), b, lower=lower)
        assert np.allclose(x, x_ref, atol=1e-9)

    def test_unit_diagonal(self, rng):
        n = 40
        strict = sp.tril(sp.random(n, n, density=0.2, random_state=3), -1)
        m = (strict + sp.eye(n)).tocsr()
        tri = TriangularFactor(m, lower=True, unit_diagonal=True)
        b = rng.standard_normal(n).reshape(-1, 1)
        assert np.allclose(m @ tri.solve(b), b, atol=1e-10)

    def test_singular_rejected(self):
        m = sp.csr_matrix(np.array([[1.0, 0.0], [5.0, 0.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            TriangularFactor(m, lower=True)

    def test_multirhs_matches_looped(self, rng):
        n = 60
        m = (sp.tril(sp.random(n, n, density=0.15, random_state=5), -1)
             + sp.diags(1.0 + np.arange(n, dtype=float))).tocsr()
        tri = TriangularFactor(m, lower=True)
        b = rng.standard_normal((n, 5))
        block = tri.solve(b)
        looped = np.column_stack([tri.solve(b[:, j:j + 1])[:, 0]
                                  for j in range(5)])
        assert np.allclose(block, looped, atol=1e-12)

    def test_blas3_classification(self, rng):
        n = 30
        m = (sp.tril(sp.random(n, n, density=0.2, random_state=2), -1)
             + sp.eye(n)).tocsr()
        tri = TriangularFactor(m, lower=True, unit_diagonal=True)
        with ledger.install() as led:
            tri.solve(rng.standard_normal((n, 1)))
        assert led.flops[Kernel.BLAS2] > 0
        with ledger.install() as led:
            tri.solve(rng.standard_normal((n, 8)))
        assert led.flops[Kernel.BLAS3] > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        # a NaN diagonal slipped past ``diag == 0`` and came back as
        # [1, nan, nan]; non-finite factors are rejected at construction
        for entry in ((1, 1), (2, 0)):
            m = np.array([[1.0, 0, 0], [2.0, 1.0, 0], [1.0, 3.0, 1.0]])
            m[entry] = bad
            with pytest.raises(np.linalg.LinAlgError):
                TriangularFactor(sp.csr_matrix(m), lower=True)
            with pytest.raises(np.linalg.LinAlgError):
                TriangularFactor(sp.csr_matrix(m.T), lower=False)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            TriangularFactor(sp.csr_matrix(np.ones((3, 4))), lower=True)

    @pytest.mark.parametrize("lower", [True, False])
    def test_wrong_side_entries_rejected(self, lower):
        # used to be dropped silently while their flops were still charged
        m = np.array([[1.0, 0, 0], [2.0, 1.0, 0], [0, 3.0, 1.0]])
        m = m if lower else m.T.copy()
        assert TriangularFactor(sp.csr_matrix(m), lower=lower).nnz == 5
        m[(0, 2) if lower else (2, 0)] = 5.0
        with pytest.raises(ValueError):
            TriangularFactor(sp.csr_matrix(m), lower=lower)


def _triangle(rng, n, *, lower, complex_, density=0.1):
    """Random diagonally dominant triangle with a stored diagonal."""
    seed = int(rng.integers(2**31))
    m = sp.random(n, n, density=density, random_state=seed)
    if complex_:
        m = m + 1j * sp.random(n, n, density=density, random_state=seed + 1)
    m = sp.tril(m, -1) if lower else sp.triu(m, 1)
    return (m + sp.diags(2.0 + np.arange(n, dtype=float))).tocsr()


def _pattern_is_symmetric(a):
    """Oracle of the symmetry probe: the dense map of *stored* positions."""
    coo = sp.coo_matrix(a)
    stored = np.zeros(a.shape, dtype=bool)
    stored[coo.row, coo.col] = True
    return bool((stored == stored.T).all())


def _lu_triangles(a, **spec):
    """``(matrix, lower, unit_diagonal)`` of the L and U of SuperLU's LU of
    ``a`` asked with ``spec`` (none: COLAMD, partial pivoting; ``_SYMMETRIC``:
    what ``SparseLU`` takes on a symmetric pattern)."""
    a = sp.csc_matrix(a)
    lu = spla.splu(a.astype(np.promote_types(a.dtype, np.float64)), **spec)
    return [(sp.csr_matrix(lu.L), True, True),
            (sp.csr_matrix(lu.U), False, False)]


def _check_blocked_sweep(mat, *, lower, unit, dominant, seed=0):
    """Blocked sweep vs the row-level oracle vs scipy, on one factor.

    Backward error <= 1e-13 always; agreement to 1e-10 when the factor is
    diagonally dominant (forward errors are then of the same order); never
    more steps than row levels, stored entries within 1.25 nnz, and the
    ledger charge of the row-level sweep.  Returns (steps, row levels).
    """
    mat = sp.csr_matrix(mat)
    n = mat.shape[0]
    tri = TriangularFactor(mat, lower=lower, unit_diagonal=unit)
    ref = RowLevelTriangularSolve(mat, lower=lower, unit_diagonal=unit)
    assert tri.n_levels <= ref.n_levels
    assert tri.stored_nnz <= 1.25 * tri.nnz
    # counted from the analysis alone: the entries the level steps hold
    held = sum((0 if lptr is None else lptr[-1] - lptr[0])
               + (0 if dptr is None else dptr[-1] - dptr[0])
               + (0 if diag is None else diag.size)
               for _, _, lptr, dptr, diag in tri._steps)
    assert tri.stored_nnz == held
    full = mat
    if unit:
        full = (mat - sp.diags(mat.diagonal()) + sp.eye(n)).tocsr()
    rng = make_rng(seed, n)
    for p in (1, 3, 8):
        b = rng.standard_normal((n, p))
        if np.iscomplexobj(mat.data):
            b = b + 1j * rng.standard_normal((n, p))
        with ledger.install() as led:
            x = tri.solve(b)
        kern = Kernel.BLAS2 if p == 1 else Kernel.BLAS3
        assert dict(led.flops) == {kern: 2.0 * mat.nnz * p}
        assert dict(led.calls) == {"triangular_solve": p}
        back = np.linalg.norm(full @ x - b) / (
            spla.norm(full) * np.linalg.norm(x) + np.linalg.norm(b))
        assert back <= 1e-13
        if dominant:
            scale = np.linalg.norm(x)
            assert np.linalg.norm(x - ref.solve(b)) <= 1e-10 * scale
            x_sp = spla.spsolve_triangular(full, b, lower=lower,
                                           unit_diagonal=unit)
            assert np.linalg.norm(x - x_sp) <= 1e-10 * scale
    return tri.n_levels, ref.n_levels


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 70), seed=st.integers(0, 2**31 - 1),
       density=st.floats(0.02, 0.6), complex_=st.booleans(),
       lower=st.booleans(), unit=st.booleans())
def test_property_blocked_sweep_on_random_triangles(n, seed, density,
                                                    complex_, lower, unit):
    mat = _triangle(make_rng(seed), n, lower=lower, complex_=complex_,
                    density=density)
    if unit:   # keep the solution bounded: scale the strict part down
        mat = (mat - sp.diags(mat.diagonal())) / (1.0 + n * density) + sp.eye(n)
    _check_blocked_sweep(mat, lower=lower, unit=unit, dominant=True,
                         seed=seed)


class TestBlockedSchedule:
    """The block DAG against the row DAG, family by family."""

    @pytest.mark.parametrize("lower", [True, False])
    def test_chainless_triangle_keeps_row_schedule(self, rng, lower):
        # no row references its neighbour: nothing to merge — the steps
        # and the entries of the row sweep
        mat = _triangle(rng, 300, lower=lower, complex_=False, density=0.05)
        k = -1 if lower else 1
        mat = (mat - sp.diags(mat.diagonal(k), k)).tocsr()
        mat.eliminate_zeros()
        tri = TriangularFactor(mat, lower=lower)
        assert tri.n_levels == RowLevelTriangularSolve(
            mat, lower=lower).n_levels
        assert tri.stored_nnz == tri.nnz

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_bidiagonal(self, lower, complex_):
        n = 2000
        sub = np.full(n - 1, -1.0 + (0.5j if complex_ else 0.0))
        mat = sp.diags([np.full(n, 2.0), sub], [0, -1 if lower else 1])
        steps, row_levels = _check_blocked_sweep(
            mat, lower=lower, unit=False, dominant=True)
        # one chain, a row holds half a block's entries up to width 3
        assert (steps, row_levels) == (667, 2000)

    def test_diagonal(self):
        mat = sp.diags(1.0 + np.arange(50.0))
        for lower in (True, False):
            assert _check_blocked_sweep(mat, lower=lower, unit=False,
                                        dominant=True) == (1, 1)

    @pytest.mark.parametrize("omega", [1.0, 1.5])
    def test_ssor_split_of_laplacian(self, omega):
        nx = 48
        a = laplacian_2d(nx)
        d_over_w = sp.diags(a.diagonal() / omega)
        for lower, part in ((True, sp.tril(a, -1)), (False, sp.triu(a, 1))):
            steps, row_levels = _check_blocked_sweep(
                part + d_over_w, lower=lower, unit=False, dominant=True)
            # grid lines are chains: blocks of three rows along each
            assert row_levels == 2 * nx - 1
            assert steps <= 0.7 * row_levels

    def test_laplacian_lu_factors(self):
        for mat, lower, unit in _lu_triangles(laplacian_2d(20)):
            steps, row_levels = _check_blocked_sweep(
                mat, lower=lower, unit=unit, dominant=True)
            assert steps <= row_levels / 4

    def test_complex_maxwell_subdomain_lu_factors(self):
        prob = maxwell_chamber(5, omega=8.0)
        dec = decompose_maxwell(prob, 4, overlap=1, impedance=True)
        for mat, lower, unit in _lu_triangles(dec.local_matrices[1]):
            assert np.iscomplexobj(mat.data)
            steps, row_levels = _check_blocked_sweep(
                mat, lower=lower, unit=unit, dominant=False)
            assert steps <= row_levels / 4

    def test_ill_conditioned_chain_stays_single_rows(self, rng):
        # a full unit triangle of -2: one chain, |inv(T)|_1 ~ 3^w — the
        # inverse is not used and the sweep is the oracle's, bit for bit
        w = 32
        mat = sp.csr_matrix(np.tril(np.full((w, w), -2.0), -1) + np.eye(w))
        tri = TriangularFactor(mat, lower=True, unit_diagonal=True)
        ref = RowLevelTriangularSolve(mat, lower=True, unit_diagonal=True)
        assert tri.n_levels == ref.n_levels == w
        b = rng.standard_normal((w, 3))
        assert np.array_equal(tri.solve(b), ref.solve(b))
        # the same pattern, well conditioned, is one inverted block
        tame = sp.csr_matrix(np.tril(np.full((w, w), -0.02), -1) + np.eye(w))
        assert TriangularFactor(tame, lower=True,
                                unit_diagonal=True).n_levels == 1

    def test_merging_that_deepens_the_dag_is_undone(self):
        # rows 2i+1 reference 2i (a chain of two) and 2i-2: two row
        # levels, but the DAG of two-row blocks is one long path
        n = 200
        odd = np.arange(3, n, 2)
        rows = np.concatenate([[1], odd, odd])
        cols = np.concatenate([[0], odd - 1, odd - 3])
        mat = (sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
               + 3.0 * sp.eye(n)).tocsr()
        steps, row_levels = _check_blocked_sweep(
            mat, lower=True, unit=False, dominant=True)
        assert steps == row_levels == 2

    def test_maxwell_lu_depth_gate(self):
        # deterministic schedule gate: a regression fails on a count
        a = maxwell_chamber(5, omega=8.0).a
        lu = SparseLU(a)
        assert lu.symmetric
        for n_steps, (mat, lower, unit) in zip(
                lu.n_levels, _lu_triangles(a, **_SYMMETRIC)):
            row_levels = RowLevelTriangularSolve(
                mat, lower=lower, unit_diagonal=unit).n_levels
            assert row_levels > 150      # 274 / 275 under COLAMD
            assert n_steps <= row_levels / 8


class TestConcatFactors:
    """Block-diagonal batching of factors: schedules merge level by level."""

    @staticmethod
    def _family(lower, *, complex_last=False):
        """Factors with inverted blocks, without, and a lone chain."""
        k = -1 if lower else 1
        lap = _lu_triangles(laplacian_2d(9))[0 if lower else 1][0]
        mats = [
            (lap - sp.diags(lap.diagonal()) + 4.0 * sp.eye(lap.shape[0])),
            _triangle(make_rng(5), 40, lower=lower, complex_=False),
            sp.diags([np.full(30, 2.0), np.full(29, -1.0)], [0, k]),
            _triangle(make_rng(6), 25, lower=lower, complex_=complex_last,
                      density=0.5),
        ]
        return [sp.csr_matrix(m) for m in mats]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concat_factors([])

    def test_mismatched_factors_rejected(self):
        low = sp.csr_matrix(np.tril(np.ones((3, 3))))
        lower = TriangularFactor(low, lower=True)
        with pytest.raises(ValueError):   # orientation
            concat_factors([lower, TriangularFactor(low.T, lower=False)])
        with pytest.raises(ValueError):   # diagonal kind
            concat_factors([lower, TriangularFactor(low, lower=True,
                                                    unit_diagonal=True)])

    def test_single_factor_passes_through(self):
        tri = TriangularFactor(sp.eye(4, format="csr"), lower=True)
        assert concat_factors([tri]) is tri

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("unit", [False, True])
    def test_equals_per_factor_solves(self, rng, lower, unit):
        mats = self._family(lower)
        if unit:   # tame the growth of unit-triangular solves
            mats = [(m - sp.diags(m.diagonal())) / 8.0 + sp.eye(m.shape[0])
                    for m in mats]
        factors = [TriangularFactor(m, lower=lower, unit_diagonal=unit)
                   for m in mats]
        assert len({f.n_levels for f in factors}) > 1
        cat = concat_factors(factors)
        assert cat.n == sum(f.n for f in factors)
        assert cat.nnz == sum(f.nnz for f in factors)
        # a single row that shares a level with another factor's block
        # goes through the block-diagonal product: at most one entry more
        stored = sum(f.stored_nnz for f in factors)
        assert stored <= cat.stored_nnz <= stored + cat.n
        assert cat.n_levels == max(f.n_levels for f in factors)
        b = rng.standard_normal((cat.n, 4))
        with ledger.install() as led_cat:
            x = cat.solve(b)
        parts, at = [], 0
        with ledger.install() as led_each:
            for f in factors:
                parts.append(f.solve(b[at: at + f.n]))
                at += f.n
        assert led_cat.flops == led_each.flops
        expect = np.vstack(parts)
        assert np.abs(x - expect).max() <= 1e-14 * np.abs(expect).max()

    @pytest.mark.parametrize("lower", [True, False])
    def test_mixed_real_complex_promotes(self, rng, lower):
        mats = self._family(lower, complex_last=True)
        factors = [TriangularFactor(m, lower=lower) for m in mats]
        assert [f.dtype.kind for f in factors] == ["f", "f", "f", "c"]
        cat = concat_factors(factors)
        assert cat.dtype == np.complex128
        b = rng.standard_normal((cat.n, 2))
        x = cat.solve(b)
        assert x.dtype == np.complex128
        full = sp.block_diag(mats, format="csr")
        assert np.linalg.norm(full @ x - b) <= 1e-13 * np.linalg.norm(b)
        # the real blocks of a real right-hand side stay real
        assert np.abs(x[: -mats[-1].shape[0]].imag).max() == 0.0


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _oracle_triangle(rng, n, kind, *, lower, complex_):
    """A stored-diagonal triangle of one family: ``band`` (every row holds
    its four left neighbours: chains that merge into inverted blocks),
    ``ill`` (a 32-row chain of -2 on a unit diagonal, too ill-conditioned
    to invert: single rows), ``chainless`` (no row references its
    neighbour) or ``random``."""
    if kind == "ill":
        n = 32
    row, col = np.tril_indices(n, -1)
    dist = row - col
    keep = {"band": dist <= 4, "ill": dist > 0,
            "chainless": (dist > 1) & (rng.random(dist.size) < 0.3),
            "random": rng.random(dist.size) < 0.3}[kind]
    val = (np.full(keep.sum(), -2.0) if kind == "ill"
           else rng.uniform(-0.4, 0.4, keep.sum()))
    if complex_:
        val = val + 1j * rng.uniform(-0.1, 0.1, val.size)
    diag = np.ones(n) if kind == "ill" else 1.0 + rng.random(n)
    m = sp.csr_matrix((np.concatenate([val, diag]),
                       (np.concatenate([row[keep], np.arange(n)]),
                        np.concatenate([col[keep], np.arange(n)]))),
                      shape=(n, n))
    return m if lower else sp.csr_matrix(m.T)


_KINDS = st.sampled_from(["band", "ill", "chainless", "random"])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), lower=st.booleans(),
       unit=st.booleans(), complex_rhs=st.booleans(),
       p=st.sampled_from([0, 1, 3, 16]),
       parts=st.lists(st.tuples(st.integers(1, 40), _KINDS, st.booleans()),
                      min_size=1, max_size=4))
def test_property_sweep_matches_reference(seed, lower, unit, complex_rhs, p,
                                          parts):
    """The level-ordered sweep against the row-gather sweep it replaced:
    the same bytes, the same ledger, the same schedule — per factor and
    for every batch of 1 to 4 of them (real and complex mixed)."""
    rng = make_rng(seed)
    mats = [_oracle_triangle(rng, n, kind, lower=lower, complex_=cplx)
            for n, kind, cplx in parts]
    factors = [TriangularFactor(m, lower=lower, unit_diagonal=unit)
               for m in mats]
    refs = [ReferenceTriangularFactor(m, lower=lower, unit_diagonal=unit)
            for m in mats]
    pairs = list(zip(factors, refs))
    pairs.append((concat_factors(factors), reference_concat(refs)))
    for (n, kind, _), f in zip(parts, factors):
        blocked = any(dptr is not None for *_, dptr, _ in f._steps)
        assert blocked if kind == "band" and n >= 4 else (
            kind == "random" or not blocked)
    for got, ref in pairs:
        assert (got.n, got.dtype, got.nnz) == (ref.n, ref.dtype, ref.nnz)
        assert got.n_levels == ref.n_levels
        assert got.stored_nnz == ref.stored_nnz
        b = rng.standard_normal((got.n, p))
        if complex_rhs:
            b = b + 1j * rng.standard_normal((got.n, p))
        with ledger.install() as led_got:
            x = got.solve(b)
        with ledger.install() as led_ref:
            x_ref = ref.solve(b)
        assert _same_bytes(x, x_ref)
        assert led_got.counts() == led_ref.counts()


class TestAgainstReferenceSweep:
    """Bytes of the production factors against the fixture on LU factors:
    the one-pass inversion, ``SparseLU.solve`` and the Schwarz batch."""

    @pytest.fixture(scope="class")
    def maxwell(self):
        prob = maxwell_chamber(5, omega=8.0)
        return prob, decompose_maxwell(prob, 4, overlap=1, impedance=True)

    @staticmethod
    def _sweep_frame(mat, lower):
        mat = sp.csr_matrix(mat)
        n = mat.shape[0]
        rows = np.repeat(np.arange(n), np.diff(mat.indptr))
        strict = mat.indices != rows
        row, col, val = rows[strict], mat.indices[strict], mat.data[strict]
        diag = mat.diagonal()
        if not lower:
            row, col, val = n - 1 - row[::-1], n - 1 - col[::-1], val[::-1]
            diag = diag[::-1]
        return n, row, col, val, diag

    def test_one_pass_inversion_is_the_per_width_one(self, maxwell):
        _, dec = maxwell
        mats = [*_lu_triangles(dec.local_matrices[1], **_SYMMETRIC),
                *_lu_triangles(laplacian_2d(20)),
                (sp.csr_matrix(np.tril(np.full((32, 32), -2.0), -1)
                               + np.eye(32)), True, True)]
        for mat, lower, unit in mats:
            n, row, col, val, diag = self._sweep_frame(mat, lower)
            start, _ = _chain_blocks(n, row, col)
            width = np.diff(start, append=n)
            args = (start, width, row, col, val, None if unit else diag,
                    np.result_type(mat.dtype, np.float32))
            (ok, got), (ok_ref, ref) = (_invert_blocks(*args),
                                        reference_invert_blocks(*args))
            assert np.array_equal(ok, ok_ref)
            key, key_ref = (np.lexsort((got[1], got[0])),
                            np.lexsort((ref[1], ref[0])))
            for a, b in zip(got, ref):
                assert _same_bytes(a[key], b[key_ref])

    def test_sparse_lu_solve(self, maxwell, rng, monkeypatch):
        prob, dec = maxwell
        for a in (dec.local_matrices[2], prob.a, laplacian_2d(8)):
            seen = []
            monkeypatch.setattr(
                solver_mod, "TriangularFactor",
                lambda mat, **kw: seen.append((mat, kw))
                or TriangularFactor(mat, **kw))
            lu = SparseLU(a)
            ref_l, ref_u = (ReferenceTriangularFactor(mat, **kw)
                            for mat, kw in seen)
            b = rng.standard_normal((lu.n, 5)) + 1j * rng.standard_normal(
                (lu.n, 5))
            bp = np.empty_like(b)
            bp[lu.perm_r] = b
            assert _same_bytes(lu.solve(b),
                               ref_u.solve(ref_l.solve(bp))[lu.perm_c])

    def test_schwarz_apply(self, maxwell, rng, monkeypatch):
        from repro.precond.schwarz import SchwarzPreconditioner
        prob, dec = maxwell
        seen = []
        monkeypatch.setattr(
            solver_mod, "TriangularFactor",
            lambda mat, **kw: seen.append((mat, kw))
            or TriangularFactor(mat, **kw))
        m = SchwarzPreconditioner(prob.a, variant="oras",
                                  decomposition=dec.decomposition,
                                  local_matrices=dec.local_matrices)
        refs = [ReferenceTriangularFactor(mat, **kw) for mat, kw in seen]
        ref_l, ref_u = reference_concat(refs[::2]), reference_concat(refs[1::2])
        batch = m._fused_batch
        x = rng.standard_normal((prob.n, 8)) + 1j * rng.standard_normal(
            (prob.n, 8))
        z = ref_u.solve(ref_l.solve(x[batch.gather]))
        assert _same_bytes(m.apply(x), np.asarray(batch.scatter @ z))


class TestSparseLU:
    def test_solves_exactly(self, rng):
        a = _random_sparse(rng, 120)
        lu = SparseLU(a)
        b = rng.standard_normal((120, 4))
        x = lu.solve(b)
        assert np.allclose(a @ x, b, atol=1e-8)

    def test_complex(self, rng):
        a = complex_shifted(90).tocsc()
        lu = SparseLU(a)
        b = rng.standard_normal(90) + 1j * rng.standard_normal(90)
        x = lu.solve(b)
        assert np.allclose(a @ x, b, atol=1e-8)
        assert x.shape == (90,)

    def test_holds_each_factor_once(self):
        # the extracted level-ordered factors are the only copy: no view
        # keeps the SuperLU object (its supernodal storage and cached CSC
        # ``L`` / ``U``) alive once the factorization returns
        a = (laplacian_2d(90) + 0.4j * sp.eye(90 * 90)).tocsc()
        lu, held = traced_bytes(lambda: SparseLU(a))
        assert lu.perm_r.base is None and lu.perm_c.base is None
        assert held <= 1.1 * array_bytes(lu)

    def test_has_no_engine_or_ordering_knob(self):
        # one factorization engine: SuperLU, ordered by the pattern
        for knob in ({"engine": "scipy"}, {"ordering": "amd"}):
            with pytest.raises(TypeError):
                SparseLU(laplacian_1d(10), **knob)

    def test_unknown_engine(self):
        with pytest.raises(TypeError):
            SparseLU(laplacian_1d(10), engine="pardiso")

    def test_pivoting_handles_zero_diagonal(self, rng):
        a = sp.csc_matrix(np.array([[0.0, 2.0], [3.0, 1.0]]))
        b = rng.standard_normal((2, 2))
        assert np.allclose(a @ SparseLU(a).solve(b), b, atol=1e-12)

    def test_singular_matrix_raises(self):
        # SuperLU's "Factor is exactly singular" is a RuntimeError; callers
        # see the one error type of a matrix SparseLU cannot factor
        for a in ([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]],
                  np.diag([1.0, 0.0, 1.0])):
            with pytest.raises(np.linalg.LinAlgError, match="3 x 3"):
                SparseLU(sp.csc_matrix(np.array(a)))

    def test_nan_pivot_column_raises(self):
        a = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, np.nan]]))
        with pytest.raises(np.linalg.LinAlgError):
            SparseLU(a)

    def test_flops_accounted(self, rng):
        with ledger.install() as led:
            lu = SparseLU(_random_sparse(rng, 40))
        assert led.flops[Kernel.FACTORIZATION] > 0
        assert led.calls["lu_factorization"] == 1
        assert led.counts() == lu.setup_cost.counts()

    def test_factor_once_solve_many(self, rng):
        a = laplacian_2d(12)
        n = a.shape[0]
        lu = SparseLU(a)
        for _ in range(3):
            b = rng.standard_normal(n)
            assert np.allclose(a @ lu.solve(b), b, atol=1e-8)

    def test_as_preconditioner_gives_one_iteration(self, rng):
        from repro import Options, solve
        a = laplacian_2d(10)
        lu = SparseLU(a)
        b = rng.standard_normal(a.shape[0])
        res = solve(a, b, lu.as_preconditioner(),
                    options=Options(tol=1e-10, variant="right"))
        assert res.converged.all()
        assert res.iterations <= 2

    def test_multirhs_cheaper_per_rhs(self, rng):
        """The measured Fig. 6 effect: blocked solves amortize the sweep."""
        import time
        a = laplacian_2d(40)  # 1600 unknowns
        lu = SparseLU(a)
        n = a.shape[0]
        b1 = rng.standard_normal((n, 1))
        b32 = rng.standard_normal((n, 32))
        lu.solve(b1)  # warm up
        t0 = time.perf_counter()
        for _ in range(3):
            lu.solve(b1)
        t1 = (time.perf_counter() - t0) / 3
        t0 = time.perf_counter()
        for _ in range(3):
            lu.solve(b32)
        t32 = (time.perf_counter() - t0) / 3
        # 32 fused RHSs must cost far less than 32 single solves
        assert t32 < 16 * t1

    def test_empty_matrix(self):
        # a 0 x 0 matrix is an empty factor, not a failed probe
        lu = SparseLU(sp.csc_matrix((0, 0)))
        assert lu.factor_nnz == 0 and lu.n_levels == (0, 0)
        assert lu.solve(np.zeros((0, 3))).shape == (0, 3)
        assert lu.solve(np.zeros(0)).shape == (0,)
        assert lu.solve(np.zeros((0, 2), complex)).dtype == np.complex128

    def test_wrong_rhs_size(self):
        lu = SparseLU(laplacian_1d(10))
        with pytest.raises(ValueError):
            lu.solve(np.ones(11))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            SparseLU(sp.random(4, 5, density=0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_matrix_rejected(self, bad):
        a = laplacian_2d(4).tolil()
        a[5, 5] = bad
        with pytest.raises(np.linalg.LinAlgError):
            SparseLU(a.tocsc())


def _bare_splu(a):
    """The parent's call: COLAMD, partial pivoting."""
    a = sp.csc_matrix(a)
    return spla.splu(a.astype(np.promote_types(a.dtype, np.float64)))


def _backward_error(a, x, b):
    """Scaled infinity-norm backward error of ``x`` as a solution of ``a x = b``."""
    return np.abs(a @ x - b).max() / (spla.norm(a, np.inf) * np.abs(x).max()
                                      + np.abs(b).max())


#: symmetric patterns the probe tests run on: n = 196, 64 and 80
_PROBED = (laplacian_2d(14), laplacian_2d(8), laplacian_2d(8, 10))


def _corrupting_superlu(corrupt):
    """Stand-in for ``solver.spla``: ``splu`` hands back an ``L`` with one
    off-diagonal entry off by one whenever ``corrupt(spec)`` says so."""
    def splu(a, **spec):
        lu = spla.splu(a, **spec)
        l_mat = sp.coo_matrix(lu.L)
        if corrupt(spec):
            l_mat.data[np.flatnonzero(l_mat.row != l_mat.col)[0]] += 1.0
        return types.SimpleNamespace(L=l_mat.tocsc(), U=lu.U,
                                     perm_r=lu.perm_r, perm_c=lu.perm_c)
    return types.SimpleNamespace(splu=splu, norm=spla.norm)


class TestSymmetricOrdering:
    """SuperLU is asked to order the symmetric structure when there is one,
    and keeps a factor only if it reproduces the matrix."""

    def test_fill_gate(self):
        # the mechanism as a count: fewer entries in L + U than COLAMD with
        # partial pivoting leaves (0.61-0.71 per Maxwell subdomain, 0.66 on
        # the Laplacian; grids under ~12 x 12 gain less and are not gated)
        prob = maxwell_chamber(5, omega=8.0)
        dec = decompose_maxwell(prob, 8, overlap=2, impedance=True)
        for mats in (dec.local_matrices, [laplacian_2d(24)]):
            ours = [SparseLU(m) for m in mats]
            assert all(lu.symmetric for lu in ours)
            bare = sum(lu.L.nnz + lu.U.nnz for lu in map(_bare_splu, mats))
            assert sum(lu.factor_nnz for lu in ours) <= 0.75 * bare

    def test_unsymmetric_pattern_is_factored_as_before(self, rng, monkeypatch):
        a = _random_sparse(rng, 150)
        assert not _pattern_is_symmetric(a)
        seen = []
        monkeypatch.setattr(
            solver_mod, "TriangularFactor",
            lambda mat, **kw: seen.append(mat) or TriangularFactor(mat, **kw))
        lu, ref = SparseLU(a), _bare_splu(a)
        assert not lu.symmetric
        assert "lu_repivot" not in lu.setup_cost.calls
        assert np.array_equal(lu.perm_r, ref.perm_r)
        assert np.array_equal(lu.perm_c, ref.perm_c)
        for got, want in zip(seen, (sp.csr_matrix(ref.L), sp.csr_matrix(ref.U))):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)

    def test_corrupted_symmetric_factor_is_abandoned(self, rng, monkeypatch):
        # mutation: the probe must notice an L that is not the matrix's, give
        # the symmetric path up, and hand out the bare factorization — at
        # every size, the traffic operator's n = 64 and an AMG coarse n = 80
        monkeypatch.setattr(solver_mod, "spla", _corrupting_superlu(
            lambda spec: "options" in spec))
        for a in _PROBED:
            lu = SparseLU(a)
            assert not lu.symmetric
            assert lu.setup_cost.calls["lu_repivot"] == 1
            assert lu.setup_cost.calls["lu_factorization"] == 2
            ref = _bare_splu(a)
            assert lu.factor_nnz == ref.L.nnz + ref.U.nnz
            b = rng.standard_normal((a.shape[0], 3))
            assert _backward_error(a, lu.solve(b), b) <= 1e-12

    @pytest.mark.parametrize("a", [laplacian_2d(14),                 # both calls
                                   _random_sparse(make_rng(8), 80)],  # the one
                             ids=["symmetric", "unsymmetric"])
    def test_factor_that_never_reproduces_the_matrix_raises(self, a, monkeypatch):
        monkeypatch.setattr(solver_mod, "spla",
                            _corrupting_superlu(lambda spec: True))
        n = a.shape[0]
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"{n} x {n} .* backward error"):
            SparseLU(a)

    def test_clean_symmetric_factor_is_kept(self):
        for a in _PROBED:
            lu = SparseLU(a)
            assert lu.symmetric
            assert dict(lu.setup_cost.calls) == {"lu_factorization": 1}

    def test_saddle_point_with_zero_diagonal(self, rng):
        # symmetric pattern, nothing stored on a third of the diagonal:
        # whichever path it ends on, the solve is right
        a = laplacian_2d(10)
        c = sp.random(a.shape[0], 40, density=0.06, random_state=3)
        k = sp.bmat([[a, c], [c.T, None]], format="csc")
        assert _pattern_is_symmetric(k) and (k.diagonal() == 0).sum() == 40
        lu = SparseLU(k)
        b = rng.standard_normal((k.shape[0], 3))
        assert _backward_error(k, lu.solve(b), b) <= 1e-12

    def test_trace_and_repr_say_which_path(self, rng):
        tr = Tracer()
        with install_tracer(tr):
            lus = [SparseLU(laplacian_2d(8)),
                   SparseLU(_random_sparse(rng, 64))]
        spans = [s for root in tr.roots for s in root.find("setup.lu")]
        assert [s.attrs["symmetric"] for s in spans] == [True, False]
        assert [s.attrs["n"] for s in spans] == [64, 64]
        assert all("engine" not in s.attrs for s in spans)
        assert [s.attrs["factor_nnz"] for s in spans] == [
            lu.factor_nnz for lu in lus]
        assert "symmetric=True" in repr(lus[0])
        assert "symmetric=False" in repr(lus[1])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**31 - 1),
       symmetrize=st.booleans(), zeros=st.booleans(), complex_=st.booleans())
def test_property_symmetry_probe(n, seed, symmetrize, zeros, complex_):
    """``symmetric`` is a property of the *stored* pattern: an explicit zero
    counts as an entry, and values — ``A != A^T`` here — do not count at all."""
    rng = make_rng(seed)
    pat = sp.random(n, n, density=min(1.0, 4 / n), random_state=seed).tocoo()
    row, col = pat.row, pat.col
    if symmetrize:
        row, col = np.concatenate([row, col]), np.concatenate([col, row])
    val = rng.standard_normal(row.size) + (
        1j * rng.standard_normal(row.size) if complex_ else 0.0)
    if zeros:
        val[::3] = 0.0       # stored all the same, maybe on one side only
    diag = np.arange(n)      # one COO: sparse ``+`` would drop the zeros
    a = sp.csc_matrix((np.concatenate([val, np.full(n, 8.0 * n)]),
                       (np.concatenate([row, diag]),
                        np.concatenate([col, diag]))), shape=(n, n))
    assert _pattern_is_symmetric(a) or not symmetrize
    lu = SparseLU(a)
    assert lu.symmetric == _pattern_is_symmetric(a)
    b = rng.standard_normal(n)
    assert _backward_error(a, lu.solve(b), b) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(n=st.integers(5, 60), seed=st.integers(0, 2**31 - 1),
       complex_=st.booleans())
def test_property_lu_roundtrip(n, seed, complex_):
    rng = make_rng(seed)
    a = sp.random(n, n, density=min(1.0, 10 / n), random_state=seed)
    a = a + sp.diags(3.0 + rng.random(n) * n)
    if complex_:
        a = a + 1j * sp.random(n, n, density=min(1.0, 5 / n),
                               random_state=seed + 1)
    a = sp.csc_matrix(a)
    lu = SparseLU(a)
    b = rng.standard_normal((n, 2))
    x = lu.solve(b)
    assert np.allclose(a @ x, b, atol=1e-7 * max(1.0, abs(a).max()))
