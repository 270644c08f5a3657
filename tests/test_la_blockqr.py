"""Tests for the incremental block-Hessenberg QR."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.la.blockqr import (BlockHessenbergQR, HessenbergQRBundle,
                              column_index)
from repro.util import ledger
from repro.util.ledger import CostLedger
from conftest import make_rng
from fixtures.reference_hessenberg import ReferenceBlockHessenbergQR


def _random_hessenberg(rng, m, p, dtype=np.float64):
    """Random block Hessenberg ((m+1)p x mp) with its column blocks."""
    n_rows = (m + 1) * p
    h = np.zeros((n_rows, m * p), dtype=dtype)
    for j in range(m):
        blk = rng.standard_normal(((j + 2) * p, p))
        if np.issubdtype(dtype, np.complexfloating):
            blk = blk + 1j * rng.standard_normal(blk.shape)
        h[: (j + 2) * p, j * p: (j + 1) * p] = blk
    return h


class TestIncrementalQR:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_triangular_factor_matches_numpy(self, rng, p, dtype):
        m = 6
        h = _random_hessenberg(rng, m, p, dtype)
        s1 = np.eye(p, dtype=dtype)
        hqr = BlockHessenbergQR(m, p, s1, dtype=dtype)
        for j in range(m):
            hqr.add_column(h[: (j + 2) * p, j * p: (j + 1) * p])
        r_inc = hqr.triangular()
        _, r_ref = np.linalg.qr(h[:, : m * p])
        # R unique up to unitary diagonal: compare column norms and |R|
        assert np.allclose(np.abs(r_inc), np.abs(np.triu(r_ref)), atol=1e-9)

    def test_least_squares_solution(self, rng):
        m, p = 5, 3
        h = _random_hessenberg(rng, m, p)
        s1 = rng.standard_normal((p, p))
        hqr = BlockHessenbergQR(m, p, s1)
        for j in range(m):
            hqr.add_column(h[: (j + 2) * p, j * p: (j + 1) * p])
        y = hqr.solve()
        rhs = np.zeros(((m + 1) * p, p))
        rhs[:p] = s1
        y_ref, *_ = np.linalg.lstsq(h, rhs, rcond=None)
        assert np.allclose(y, y_ref, atol=1e-8)

    def test_residual_norms_match_lstsq(self, rng):
        m, p = 4, 2
        h = _random_hessenberg(rng, m, p)
        s1 = rng.standard_normal((p, p))
        hqr = BlockHessenbergQR(m, p, s1)
        for j in range(m):
            res = hqr.add_column(h[: (j + 2) * p, j * p: (j + 1) * p])
            hj = h[: (j + 2) * p, : (j + 1) * p]
            rhs = np.zeros(((j + 2) * p, p))
            rhs[:p] = s1
            y_ref, *_ = np.linalg.lstsq(hj, rhs, rcond=None)
            res_ref = np.linalg.norm(rhs - hj @ y_ref, axis=0)
            assert np.allclose(res, res_ref, atol=1e-9)

    def test_scalar_case_is_givens_equivalent(self, rng):
        # p=1 must reproduce classic GMRES residual recurrences
        m = 8
        h = _random_hessenberg(rng, m, 1)
        beta = 3.7
        hqr = BlockHessenbergQR(m, 1, np.array([[beta]]))
        for j in range(m):
            res = hqr.add_column(h[: j + 2, j: j + 1])
            assert res.shape == (1,)
            assert res[0] >= -1e-14

    def test_residuals_monotone_nonincreasing(self, rng):
        m, p = 6, 2
        h = _random_hessenberg(rng, m, p)
        hqr = BlockHessenbergQR(m, p, np.eye(p))
        prev = np.full(p, np.inf)
        for j in range(m):
            res = hqr.add_column(h[: (j + 2) * p, j * p: (j + 1) * p])
            assert np.all(res <= prev + 1e-12)
            prev = res


class TestAccessorsAndGuards:
    def test_hessenberg_storage(self, rng):
        m, p = 3, 2
        h = _random_hessenberg(rng, m, p)
        hqr = BlockHessenbergQR(m, p, np.eye(p))
        for j in range(m):
            hqr.add_column(h[: (j + 2) * p, j * p: (j + 1) * p])
        assert np.allclose(hqr.hessenberg(), h)
        assert hqr.last_subdiagonal_block().shape == (p, p)
        assert np.allclose(hqr.last_subdiagonal_block(),
                           h[m * p:, (m - 1) * p:])

    def test_wrong_shape_rejected(self):
        hqr = BlockHessenbergQR(4, 2, np.eye(2))
        with pytest.raises(ValueError, match="shape"):
            hqr.add_column(np.ones((3, 2)))

    def test_overflow_rejected(self, rng):
        m, p = 2, 1
        h = _random_hessenberg(rng, m, p)
        hqr = BlockHessenbergQR(m, p, np.eye(p))
        for j in range(m):
            hqr.add_column(h[: j + 2, j: j + 1])
        with pytest.raises(ValueError, match="full"):
            hqr.add_column(np.ones((m + 2, 1)))

    def test_rhs_shape_validated(self):
        with pytest.raises(ValueError, match="rhs0"):
            BlockHessenbergQR(4, 2, np.eye(3))

    def test_last_subdiagonal_before_any_column(self):
        hqr = BlockHessenbergQR(4, 2, np.eye(2))
        with pytest.raises(ValueError):
            hqr.last_subdiagonal_block()

    def test_empty_solve(self):
        hqr = BlockHessenbergQR(4, 2, np.eye(2))
        assert hqr.solve().shape == (0, 2)


class TestQApplication:
    """The stored factors are a unitary ``Q`` with ``Q^H H = [R; 0]`` —
    checked on the all-panel oracle, the only class that forms ``Q``."""

    def test_q_unitary(self, rng):
        m, p = 5, 2
        h = _random_hessenberg(rng, m, p)
        hqr = ReferenceBlockHessenbergQR(m, p, np.eye(p))
        for j in range(m):
            hqr.add_column(h[: (j + 2) * p, j * p: (j + 1) * p])
        q = hqr.q_matrix()
        assert np.allclose(q.conj().T @ q, np.eye(q.shape[0]), atol=1e-10)

    def test_qh_times_h_is_triangular(self, rng):
        m = 4
        for p in (1, 3):
            h = _random_hessenberg(rng, m, p)
            hqr = ReferenceBlockHessenbergQR(m, p, np.eye(p))
            for j in range(m):
                hqr.add_column(h[: (j + 2) * p, j * p: (j + 1) * p])
            transformed = hqr.apply_qh(h)
            assert np.allclose(transformed[: m * p], hqr.triangular(),
                               atol=1e-9)
            assert np.allclose(transformed[m * p:], 0, atol=1e-9)

    def test_q_and_qh_inverse(self, rng):
        m, p = 4, 2
        h = _random_hessenberg(rng, m, p)
        hqr = ReferenceBlockHessenbergQR(m, p, np.eye(p))
        for j in range(m):
            hqr.add_column(h[: (j + 2) * p, j * p: (j + 1) * p])
        x = rng.standard_normal((hqr.nrows_active, 3))
        assert np.allclose(hqr.apply_q(hqr.apply_qh(x)), x, atol=1e-10)

    def test_row_count_guard(self, rng):
        hqr = ReferenceBlockHessenbergQR(4, 2, np.eye(2))
        hqr.add_column(np.ones((4, 2)))
        with pytest.raises(ValueError, match="rows"):
            hqr.apply_qh(np.ones((6, 1)))


def _feed(cls, cols, s1, dtype, **kw):
    hqr = cls(len(cols), 1, s1, dtype=dtype)
    with ledger.install(CostLedger()) as led:
        res = [hqr.add_column(c, **kw) for c in cols]
        y = hqr.solve()
    return hqr, res, y, led


def _agree(new, old, scale=1.0):
    return np.allclose(new, old, rtol=1e-13, atol=1e-13 * scale)


class TestGivensAgainstPanels:
    """``p = 1`` keeps ``(c, s)`` rotations; the all-panel oracle is
    ``tests/fixtures/reference_hessenberg.py``.  ``R`` may differ by a
    unitary diagonal, nothing else may."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 40), q=st.integers(1, 3), complex_=st.booleans(),
           seed=st.integers(0, 2**31 - 1),
           subdiag=st.sampled_from(["random", "zero", "tiny", "zero-diag"]))
    def test_matches_fixture(self, m, q, complex_, seed, subdiag):
        dtype = np.complex128 if complex_ else np.float64
        rng = make_rng(seed)
        h = _random_hessenberg(rng, m, 1, dtype)
        hit = int(rng.integers(0, m))
        if subdiag == "zero":
            h[hit + 1, hit] = 0.0
        elif subdiag == "tiny":
            h[hit + 1, hit] *= 1e-300
        elif subdiag == "zero-diag":
            h[: hit + 1, hit] = 0.0       # the rotation meets (0, b)
        # q > p: block-size reduction tracks every original right-hand side
        s1 = rng.standard_normal((1, q)).astype(dtype)
        if complex_:
            s1 = s1 + 1j * rng.standard_normal((1, q))
        cols = [h[: j + 2, j: j + 1] for j in range(m)]
        new, res_new, y_new, led_new = _feed(BlockHessenbergQR, cols, s1, dtype)
        old, res_old, y_old, led_old = _feed(ReferenceBlockHessenbergQR,
                                             cols, s1, dtype)
        scale = np.abs(h).max()
        r_new, r_old = new.triangular(), old.triangular()
        assert np.array_equal(new.hessenberg(), old.hessenberg())
        # both are backward stable: R^H R agrees to rounding, the entries
        # of R themselves to rounding x cond(H) (random Hessenbergs reach
        # 1e5; the well-conditioned case below holds |R| to 1e-13 flat)
        assert _agree(r_new.conj().T @ r_new, r_old.conj().T @ r_old,
                      scale ** 2)
        assert _agree(np.abs(r_new), np.abs(r_old),
                      scale * max(1.0, 1e-2 * np.linalg.cond(h)))
        assert _agree(np.abs(new.g), np.abs(old.g), np.abs(s1).max())
        for a, b in zip(res_new, res_old):
            assert a.shape == b.shape == (q,)
            assert _agree(a, b, np.abs(s1).max())
        assert _agree(new.residual_norms(), old.residual_norms(),
                      np.abs(s1).max())
        if subdiag == "random":            # R well away from singular
            assert np.allclose(y_new, y_old, rtol=1e-9,
                               atol=1e-13 * np.abs(y_old).max())
        assert led_new.counts() == led_old.counts()

    def test_r_and_solve_to_1e13_on_a_well_conditioned_hessenberg(self, rng):
        for dtype in (np.float64, np.complex128):
            m = 30
            h = _random_hessenberg(rng, m, 1, dtype) * 0.1
            h[np.arange(m), np.arange(m)] += 4.0      # diagonally dominant
            cols = [h[: j + 2, j: j + 1] for j in range(m)]
            s1 = np.array([[2.5]], dtype=dtype)
            new, _, y_new, _ = _feed(BlockHessenbergQR, cols, s1, dtype)
            old, _, y_old, _ = _feed(ReferenceBlockHessenbergQR, cols, s1,
                                     dtype)
            assert np.abs(y_new - y_old).max() <= 1e-13 * np.abs(y_old).max()
            assert np.abs(np.abs(new.triangular())
                          - np.abs(old.triangular())).max() <= 1e-13

    def test_uncharged_column_charges_nothing(self, rng):
        h = _random_hessenberg(rng, 5, 1)
        cols = [h[: j + 2, j: j + 1] for j in range(5)]
        hqr = BlockHessenbergQR(5, 1, np.array([[1.0]]))
        with ledger.install(CostLedger()) as led:
            for c in cols:
                hqr.add_column(c, charge=False)
        assert led.total_flops() == 0

    def test_rotations_are_real_cosine_pairs(self, rng):
        h = _random_hessenberg(rng, 6, 1, np.complex128)
        hqr = BlockHessenbergQR(6, 1, np.array([[1.0 + 0j]]),
                                dtype=np.complex128)
        for j in range(6):
            hqr.add_column(h[: j + 2, j: j + 1])
        for c, s in hqr._panels:
            assert isinstance(c, float) and 0.0 <= c <= 1.0
            assert abs(c * c + abs(s) ** 2 - 1.0) <= 1e-15
        # the rotation's phase: R keeps the direction of the pivot entry,
        # where Householder would have put -||.|| there
        assert hqr.triangular()[0, 0] == pytest.approx(
            h[0, 0] / abs(h[0, 0]) * np.linalg.norm(h[:2, 0]))


class TestBundleAgainstSingleColumns:
    """A pseudo-block cycle's :class:`HessenbergQRBundle` is, column for
    column and bit for bit, ``p`` independent ``BlockHessenbergQR(p = 1)``
    objects fed the same Hessenberg columns: the same rotation sweep, the
    same numpy arithmetic on ``g``, the same LAPACK call in ``solve``, the
    same ledger charges."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 40), p=st.sampled_from([1, 3, 16]),
           complex_=st.booleans(), seed=st.integers(0, 2**31 - 1),
           special=st.sampled_from(["none", "zero", "tiny", "singular"]))
    def test_bitwise_equal_to_p_single_column_factorizations(
            self, m, p, complex_, seed, special):
        dtype = np.complex128 if complex_ else np.float64
        rng = make_rng(seed)
        hs = [_random_hessenberg(rng, m, 1, dtype) for _ in range(p)]
        for h in hs:
            hit = int(rng.integers(0, m))
            if special == "zero":           # lucky breakdown
                h[hit + 1, hit] = 0.0
            elif special == "tiny":
                h[hit + 1, hit] = 1e-300
            elif special == "singular":     # R[hit, hit] ~ 1e-20: lstsq
                h[: hit + 2, hit] *= 1e-20
        beta = rng.standard_normal(p) + (1j * rng.standard_normal(p)
                                         if complex_ else 0.0)
        # columns stop at different steps (converged, breakdown, frozen)
        stops = rng.integers(1, m + 1, size=p).tolist()
        bundle = HessenbergQRBundle(m, beta, dtype=dtype)
        singles = [BlockHessenbergQR(m, 1, np.array([[b]]), dtype=dtype)
                   for b in beta]
        with ledger.install(CostLedger()) as led_b:
            res_b = []
            for j in range(m):
                cols = [l for l in range(p) if stops[l] > j]
                if cols:
                    block = np.stack([hs[l][: j + 2, j] for l in cols], 1)
                    res_b.append(bundle.add_column(cols, block))
            y_b = bundle.solve(list(range(p)))
        with ledger.install(CostLedger()) as led_s:
            res_s = [[] for _ in range(m)]
            for l, (h, single) in enumerate(zip(hs, singles)):
                for j in range(stops[l]):
                    res_s[j].append(single.add_column(h[: j + 2, j: j + 1]))
            y_s = [single.solve()[:, 0] for single in singles]
        assert led_b.counts() == led_s.counts()
        for got, want in zip(res_b, res_s):
            assert np.array_equal(got, np.concatenate(want))
        for l, single in enumerate(singles):
            assert bundle.ncols[l] == single.ncols == stops[l]
            assert np.array_equal(bundle.R[l], single.R)
            assert np.array_equal(bundle.g[l], single.g[:, 0])
            assert np.array_equal(bundle.hessenberg(l), single.hessenberg())
            assert np.array_equal(bundle.triangular(l), single.triangular())
            assert np.array_equal(bundle.last_subdiagonal_block(l),
                                  single.last_subdiagonal_block())
            assert np.array_equal(y_b[l], y_s[l])

    def test_misuse_is_refused(self):
        bundle = HessenbergQRBundle(2, np.ones(3))
        with pytest.raises(ValueError, match="processed 1"):
            bundle.add_column([0, 1], np.ones((3, 2)))
        bundle.add_column([0, 2], np.ones((2, 2)))
        with pytest.raises(ValueError, match="processed 1"):
            bundle.add_column([0, 1], np.ones((3, 2)))
        bundle.add_column([0], np.ones((3, 1)))
        with pytest.raises(ValueError, match="full"):
            bundle.add_column([0], np.ones((4, 1)))
        with pytest.raises(ValueError, match="no column"):
            bundle.last_subdiagonal_block(1)

    def test_column_index(self):
        assert column_index([2, 3, 4]) == slice(2, 5)
        assert column_index([0, 2]) == [0, 2]
        assert column_index([5]) == slice(5, 6)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 6), p=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_property_solution_minimizes(m, p, seed):
    rng = make_rng(seed)
    h = _random_hessenberg(rng, m, p)
    s1 = rng.standard_normal((p, p))
    hqr = BlockHessenbergQR(m, p, s1)
    for j in range(m):
        hqr.add_column(h[: (j + 2) * p, j * p: (j + 1) * p])
    y = hqr.solve()
    rhs = np.zeros(((m + 1) * p, p))
    rhs[:p] = s1
    base = np.linalg.norm(rhs - h @ y, axis=0)
    # any perturbation of y must not decrease the residual
    for _ in range(3):
        dy = 1e-3 * rng.standard_normal(y.shape)
        pert = np.linalg.norm(rhs - h @ (y + dy), axis=0)
        assert np.all(pert >= base - 1e-9)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 6), p=st.integers(1, 3),
       seed=st.integers(0, 2**31 - 1), complex_=st.booleans())
def test_property_residuals_match_lstsq(m, p, seed, complex_):
    """Incremental residual estimates equal the true LS residuals — for
    real and complex dtypes, including the degenerate p=1 block."""
    dtype = np.complex128 if complex_ else np.float64
    rng = make_rng(seed)
    h = _random_hessenberg(rng, m, p, dtype)
    s1 = rng.standard_normal((p, p)).astype(dtype)
    if complex_:
        s1 = s1 + 1j * rng.standard_normal((p, p))
    hqr = BlockHessenbergQR(m, p, s1, dtype=dtype)
    for j in range(m):
        res = hqr.add_column(h[: (j + 2) * p, j * p: (j + 1) * p])
        hj = h[: (j + 2) * p, : (j + 1) * p]
        rhs = np.zeros(((j + 2) * p, p), dtype=dtype)
        rhs[:p] = s1
        y_ref, *_ = np.linalg.lstsq(hj, rhs, rcond=None)
        ref = np.linalg.norm(rhs - hj @ y_ref, axis=0)
        assert np.allclose(res, ref, atol=1e-8, rtol=1e-6)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 5), seed=st.integers(0, 2**31 - 1),
       complex_=st.booleans())
def test_property_lucky_breakdown_gives_zero_residual(m, seed, complex_):
    """A zero last subdiagonal (p=1 lucky breakdown) makes the projected
    system square and consistent: the estimate must collapse to ~0."""
    dtype = np.complex128 if complex_ else np.float64
    rng = make_rng(seed)
    h = _random_hessenberg(rng, m, 1, dtype)
    h[m, m - 1] = 0.0  # exact breakdown on the final column
    hqr = BlockHessenbergQR(m, 1, np.array([[1.0]], dtype=dtype), dtype=dtype)
    res = None
    for j in range(m):
        res = hqr.add_column(h[: j + 2, j: j + 1])
    assert res is not None and res[0] <= 1e-9 * max(np.abs(h).max(), 1.0)
    y = hqr.solve()
    rhs = np.zeros((m + 1, 1), dtype=dtype)
    rhs[0, 0] = 1.0
    assert np.linalg.norm(rhs - h @ y) <= 1e-8 * max(np.abs(h).max(), 1.0)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(2, 6), p=st.integers(1, 3), q_extra=st.integers(1, 2),
       seed=st.integers(0, 2**31 - 1))
def test_property_wide_rhs_block_reduction_shape(m, p, q_extra, seed):
    """Under block-size reduction the tracked RHS block is wider (q > p);
    solve() must return a jp x q coefficient matrix minimizing each column."""
    rng = make_rng(seed)
    q_cols = p + q_extra
    h = _random_hessenberg(rng, m, p)
    s1 = rng.standard_normal((p, q_cols))
    hqr = BlockHessenbergQR(m, p, s1)
    for j in range(m):
        hqr.add_column(h[: (j + 2) * p, j * p: (j + 1) * p])
    y = hqr.solve()
    assert y.shape == (m * p, q_cols)
    rhs = np.zeros(((m + 1) * p, q_cols))
    rhs[:p] = s1
    y_ref, *_ = np.linalg.lstsq(h, rhs, rcond=None)
    assert np.allclose(np.linalg.norm(rhs - h @ y, axis=0),
                       np.linalg.norm(rhs - h @ y_ref, axis=0),
                       atol=1e-8)
