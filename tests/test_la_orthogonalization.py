"""Tests for the orthogonalization kernels, incl. property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.la.orthogonalization import (LOW_SYNC_SCHEMES,
                                        arnoldi_orthogonalize,
                                        classical_gram_schmidt_qr, cholqr,
                                        cholqr_rr, householder_qr,
                                        modified_gram_schmidt_qr, project_out,
                                        qr_factorization, shifted_cholqr,
                                        sketched_qr, tsqr)
from repro.util import ledger
from conftest import make_rng
from fixtures.mgs_projection import mgs_project_out


def _random_block(rng, n, p, complex_=False, cond=None):
    x = rng.standard_normal((n, p))
    if complex_:
        x = x + 1j * rng.standard_normal((n, p))
    if cond is not None:
        u, _, vt = np.linalg.svd(x, full_matrices=False)
        s = np.logspace(0, -np.log10(cond), p)
        x = (u * s) @ vt
    return x


def _check_qr(x, q, r, atol=1e-10):
    p = x.shape[1]
    assert np.allclose(q @ r, x, atol=atol * max(np.linalg.norm(x), 1.0))
    assert np.allclose(q.conj().T @ q, np.eye(p), atol=atol)
    assert np.allclose(np.tril(r, -1), 0, atol=atol)


QR_FUNS = {
    "cholqr": cholqr,
    "shifted_cholqr": shifted_cholqr,
    "tsqr": tsqr,
    "householder": householder_qr,
    "cgs": classical_gram_schmidt_qr,
    "mgs": modified_gram_schmidt_qr,
}


class TestQRVariants:
    @pytest.mark.parametrize("name", list(QR_FUNS))
    @pytest.mark.parametrize("complex_", [False, True])
    def test_factorization_identity(self, rng, name, complex_):
        x = _random_block(rng, 200, 6, complex_=complex_)
        q, r = QR_FUNS[name](x)
        _check_qr(x, q, r)

    @pytest.mark.parametrize("name", ["shifted_cholqr", "householder", "mgs"])
    def test_ill_conditioned_block(self, rng, name):
        x = _random_block(rng, 300, 5, cond=1e8)
        q, r = QR_FUNS[name](x)
        assert np.linalg.norm(q.conj().T @ q - np.eye(5)) < 1e-6

    def test_plain_cholqr_raises_on_rank_deficient(self, rng):
        x = _random_block(rng, 100, 3)
        x[:, 2] = x[:, 0]  # exactly dependent
        with pytest.raises(np.linalg.LinAlgError):
            cholqr(x)

    def test_single_column_matches_norm(self, rng):
        x = _random_block(rng, 50, 1)
        q, r = cholqr(x)
        assert np.isclose(r[0, 0], np.linalg.norm(x))
        assert np.allclose(q * r[0, 0], x)


class TestRankRevealing:
    def test_detects_colinear_columns(self, rng):
        x = _random_block(rng, 150, 4)
        x[:, 3] = 2.0 * x[:, 1]
        q, r, rank = cholqr_rr(x, tol=1e-10)
        assert rank == 3
        assert np.allclose(q @ r, x, atol=1e-8)
        # leading columns orthonormal, trailing zero
        assert np.allclose(q[:, :3].conj().T @ q[:, :3], np.eye(3), atol=1e-8)
        assert np.allclose(q[:, 3], 0)

    def test_zero_block(self):
        q, r, rank = cholqr_rr(np.zeros((20, 3)))
        assert rank == 0
        assert np.allclose(q, 0) and np.allclose(r, 0)

    def test_full_rank_reported(self, rng):
        x = _random_block(rng, 80, 5)
        _, _, rank = cholqr_rr(x)
        assert rank == 5

    def test_complex_rank_deficiency(self, rng):
        x = _random_block(rng, 90, 3, complex_=True)
        x[:, 2] = (1 + 2j) * x[:, 0]
        _, _, rank = cholqr_rr(x)
        assert rank == 2

    @pytest.mark.xfail(strict=True, reason="rank is read from the Gram's "
                       "eigenvalues, whose rounding floor (~sqrt(eps) "
                       "relative) lies above tol=1e-12 (ROADMAP.md item 11)")
    def test_rank_one_block_at_seed_tolerance(self):
        """The restart seeds its QR with ``cholqr_rr`` at the default
        ``deflation_tol`` 1e-12.  On item 11's rank-1 block it reports 3
        (3 / 3 / 2 / 1 at tol 1e-12 / 1e-10 / 1e-8 / 1e-6), so the block
        is not deflated."""
        b0 = np.random.default_rng(0).standard_normal(900)
        with ledger.install():
            _, _, rank = cholqr_rr(np.outer(b0, [1, 2, 3, 4]), tol=1e-12)
        assert rank == 1


class TestSketchedQR:
    """``sketched_qr``: one small reduction; exact when the sketch is the
    whole space (s = n), and the exact rank-revealing fallback on a
    deficient block."""

    @pytest.mark.parametrize("complex_", [False, True])
    def test_full_sketch_is_an_exact_qr(self, rng, complex_):
        x = _random_block(rng, 64, 5, complex_=complex_)
        with ledger.install() as led:
            q, r, rank = sketched_qr(x, s=64)
        assert rank == 5 and led.reductions == 1
        _check_qr(x, q, r)

    def test_rank_deficient_falls_back_to_cholqr_rr(self, rng):
        x = _random_block(rng, 200, 4)
        x[:, 3] = x[:, 0] - x[:, 1]
        with ledger.install() as led:
            # tol above the sqrt(eps) floor of the fallback's Gram
            q, r, rank = sketched_qr(x, tol=1e-6)
        assert rank == 3 and led.reductions == 2
        assert np.allclose(q @ r, x, atol=1e-8) and np.allclose(q[:, 3], 0)


class TestReductionCounting:
    """Section III-D of the paper: CholQR/TSQR = 1 reduction, CGS = p;
    projecting against a k-column basis: CGS 1 reduction, MGS k."""

    def test_cholqr_single_reduction(self, rng):
        x = _random_block(rng, 100, 8)
        with ledger.install() as led:
            cholqr(x)
        assert led.reductions == 1

    def test_tsqr_single_reduction(self, rng):
        x = _random_block(rng, 100, 8)
        with ledger.install() as led:
            tsqr(x)
        assert led.reductions == 1

    def test_cgs_p_like_reductions(self, rng):
        p = 8
        x = _random_block(rng, 100, p)
        with ledger.install() as led:
            classical_gram_schmidt_qr(x)
        # one batched projection + one norm per column, minus the projection
        # of the first column
        assert led.reductions == 2 * p - 1

    def test_mgs_quadratic_reductions(self, rng):
        p = 6
        x = _random_block(rng, 100, p)
        with ledger.install() as led:
            modified_gram_schmidt_qr(x)
        assert led.reductions == p * (p + 1) // 2

    def test_project_out_cgs_one_reduction(self, rng):
        basis, _ = np.linalg.qr(_random_block(rng, 100, 10))
        w = _random_block(rng, 100, 4)
        with ledger.install() as led:
            project_out(basis, w)
        assert led.reductions == 1

    def test_project_out_mgs_k_reductions(self, rng):
        """The MGS oracle: one sequential reduction per basis column."""
        basis, _ = np.linalg.qr(_random_block(rng, 100, 10))
        w = _random_block(rng, 100, 4)
        with ledger.install() as led:
            w2, coeffs = mgs_project_out(basis, w)
        assert led.reductions == 10
        assert led.reduction_bytes == 10 * 4 * w.itemsize
        # the same projection CGS makes, one column at a time
        w_cgs, c_cgs = project_out(basis, w)
        assert np.allclose(w2, w_cgs, atol=1e-12)
        assert np.allclose(coeffs, c_cgs, atol=1e-12)


def _two_cgs_passes(basis, w):
    """Iterated CGS as ``complete_block`` spells it: two projections."""
    w1, c1 = project_out(basis, w)
    w2, c2 = project_out(basis, w1)
    return w2, c1 + c2


#: the projections of a block against an orthonormal basis: one CGS pass
#: (``project_out``), two passes, and the MGS oracle
PROJECTIONS = {"cgs": project_out, "imgs": _two_cgs_passes,
               "mgs": mgs_project_out}


class TestProjectOut:
    @pytest.mark.parametrize("scheme", list(PROJECTIONS))
    def test_result_is_orthogonal_to_basis(self, rng, scheme):
        basis, _ = np.linalg.qr(_random_block(rng, 200, 12))
        w = _random_block(rng, 200, 3)
        w2, coeffs = PROJECTIONS[scheme](basis, w)
        assert np.linalg.norm(basis.conj().T @ w2) < 1e-10
        assert np.allclose(basis @ coeffs + w2, w, atol=1e-10)

    def test_empty_basis_is_noop(self, rng):
        w = _random_block(rng, 50, 2)
        w2, coeffs = project_out(np.zeros((50, 0)), w)
        assert np.allclose(w2, w)
        assert coeffs.shape == (0, 2)

    def test_unknown_scheme_raises(self, rng):
        """``project_out`` is the one CGS pass: it takes no scheme."""
        with pytest.raises(TypeError, match="scheme"):
            project_out(np.eye(4), np.ones((4, 1)), scheme="mgs")


class TestArnoldiStep:
    def test_full_relation(self, rng):
        basis, _ = np.linalg.qr(_random_block(rng, 120, 6))
        w = _random_block(rng, 120, 3)
        q, h, s, rank = arnoldi_orthogonalize(basis, w)
        assert rank == 3
        assert np.allclose(basis @ h + q @ s, w, atol=1e-9)
        assert np.linalg.norm(basis.conj().T @ q) < 1e-9

    @staticmethod
    def _inside_basis_rank(rng, scheme):
        basis, _ = np.linalg.qr(_random_block(rng, 120, 6))
        # w entirely inside the basis: remainder is numerically zero
        w = basis @ rng.standard_normal((6, 2))
        _, _, _, rank = arnoldi_orthogonalize(basis, w, scheme=scheme)
        return rank

    def test_breakdown_detection(self, rng):
        """A candidate lying inside the basis reports rank 0 (low-sync steps)."""
        for scheme in LOW_SYNC_SCHEMES:
            assert self._inside_basis_rank(rng, scheme) == 0, scheme

    @pytest.mark.parametrize("scheme", ["cgs"])
    @pytest.mark.xfail(strict=True, reason="the project-then-CholQR step "
                       "factors a rounding-level remainder as full rank "
                       "(ROADMAP.md item 11)")
    def test_breakdown_detection_cholqr_step(self, rng, scheme):
        """The same contract for the project-then-CholQR step."""
        assert self._inside_basis_rank(rng, scheme) == 0


class TestDispatch:
    def test_unknown_scheme(self, rng):
        """Only the two QRs a solver calls are dispatched by name."""
        for scheme in ("banana", "tsqr", "householder", "cgs", "mgs",
                       "cgs2_1r", "cholqr2"):
            with pytest.raises(ValueError, match="'cholqr' or 'cholqr_rr'"):
                qr_factorization(np.ones((4, 2)), scheme)

    def test_cholqr_fallback_on_dependent_columns(self, rng):
        x = _random_block(rng, 60, 3)
        x[:, 2] = x[:, 0]
        q, r, rank = qr_factorization(x, "cholqr")
        # fell back to a rank-aware path without raising
        assert rank <= 3
        assert np.allclose(q @ r, x, atol=1e-7)


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(n=st.integers(10, 120), p=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1), complex_=st.booleans())
def test_property_cholqr_reconstructs(n, p, seed, complex_):
    rng = make_rng(seed)
    p = min(p, n)
    x = _random_block(rng, n, p, complex_=complex_)
    q, r, rank = qr_factorization(x, "cholqr")
    assert rank == p
    assert np.allclose(q @ r, x, atol=1e-8 * max(np.linalg.norm(x), 1.0))
    assert np.allclose(q.conj().T @ q, np.eye(p), atol=1e-7)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(20, 100), k=st.integers(1, 8), p=st.integers(1, 4),
       seed=st.integers(0, 2**31 - 1))
def test_property_projection_idempotent(n, k, p, seed):
    rng = make_rng(seed)
    k = min(k, n - p)
    basis, _ = np.linalg.qr(rng.standard_normal((n, k)))
    w = rng.standard_normal((n, p))
    w1, _ = _two_cgs_passes(basis, w)
    w2, c2 = project_out(basis, w1)
    # projecting twice changes nothing
    assert np.linalg.norm(w2 - w1) <= 1e-10 * max(np.linalg.norm(w), 1.0)
    assert np.linalg.norm(c2) <= 1e-10 * max(np.linalg.norm(w), 1.0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(12, 100), p=st.integers(2, 6), defect=st.integers(1, 3),
       seed=st.integers(0, 2**31 - 1), complex_=st.booleans())
def test_property_cholqr_rr_rank_deficient(n, p, defect, seed, complex_):
    """Exactly dependent columns: rank detected, Q R still reconstructs."""
    rng = make_rng(seed)
    p = min(p, n // 2)
    defect = min(defect, p - 1)
    rank_true = p - defect
    x = _random_block(rng, n, rank_true, complex_=complex_)
    coeffs = rng.standard_normal((rank_true, defect))
    if complex_:
        coeffs = coeffs + 1j * rng.standard_normal(coeffs.shape)
    full = np.concatenate([x, x @ coeffs], axis=1)
    # tol must sit above the sqrt(eps_machine) floor that forming the Gram
    # matrix imposes (squared conditioning) — the solver's deflation_tol
    # contract, not a quirk of this test
    q, r, rank = cholqr_rr(full, tol=1e-6)
    assert rank == rank_true
    assert np.allclose(q @ r, full, atol=1e-8 * max(np.linalg.norm(full), 1.0))
    qa = q[:, :rank]
    assert np.allclose(qa.conj().T @ qa, np.eye(rank), atol=1e-8)
    assert np.allclose(q[:, rank:], 0.0)  # trailing columns zeroed, not junk


@settings(max_examples=25, deadline=None)
@given(n=st.integers(20, 100),
       eps=st.sampled_from([1e-14, 1e-12, 1e-10, 1e-3, 1e-2]),
       seed=st.integers(0, 2**31 - 1), complex_=st.booleans())
def test_property_cholqr_rr_near_dependence_threshold(n, eps, seed, complex_):
    """Nearly dependent columns land on the right side of the rank cutoff."""
    rng = make_rng(seed)
    basis, _ = np.linalg.qr(_random_block(rng, n, 4, complex_=complex_))
    # third column leaves span{q0, q1} by exactly eps along q2
    x = np.concatenate([basis[:, :2], basis[:, 1:2] + eps * basis[:, 2:3]],
                       axis=1)
    q, r, rank = cholqr_rr(x, tol=1e-6)
    assert rank == (2 if eps < 1e-6 else 3)
    assert np.allclose(q @ r, x, atol=1e-7)
    qa = q[:, :rank]
    assert np.allclose(qa.conj().T @ qa, np.eye(rank), atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 100), seed=st.integers(0, 2**31 - 1),
       complex_=st.booleans(),
       scheme=st.sampled_from(["cholqr", "cholqr_rr", "shifted_cholqr",
                               "tsqr", "householder", "cgs", "mgs"]))
def test_property_p1_single_column_all_schemes(n, seed, complex_, scheme):
    """The degenerate p=1 block: every QR reduces to normalization."""
    rng = make_rng(seed)
    x = _random_block(rng, n, 1, complex_=complex_)
    if scheme in ("cholqr", "cholqr_rr"):
        q, r, rank = qr_factorization(x, scheme)
    else:
        (q, r), rank = QR_FUNS[scheme](x), 1
    assert rank == 1 and r.shape == (1, 1)
    nrm = np.linalg.norm(x)
    assert abs(abs(r[0, 0]) - nrm) <= 1e-10 * nrm
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-10
    assert np.allclose(q @ r, x, atol=1e-10 * max(nrm, 1.0))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(10, 80), p=st.integers(1, 4),
       seed=st.integers(0, 2**31 - 1), complex_=st.booleans())
def test_property_project_out_empty_and_complex(n, p, seed, complex_):
    """k=0 basis is the identity; complex projections annihilate the basis."""
    rng = make_rng(seed)
    w = _random_block(rng, n, p, complex_=complex_)
    w0, c0 = project_out(np.zeros((n, 0), dtype=w.dtype), w)
    assert np.array_equal(w0, w) and c0.shape == (0, p)
    k = min(4, n - p)
    basis, _ = np.linalg.qr(_random_block(rng, n, k, complex_=complex_))
    w2, _ = _two_cgs_passes(basis, w)
    assert np.linalg.norm(basis.conj().T @ w2) <= \
        1e-10 * max(np.linalg.norm(w), 1.0)
