"""The thin-QR / reordered-Schur deflation extraction against its oracle.

``repro.la.dense.invariant_subspace`` (behind ``harmonic_ritz_vectors``,
``generalized_ritz_vectors`` and the sketched pencil)
must span what the Gram + QZ + eigenvector-splitting formulation of
``tests/fixtures/reference_deflation.py`` spans, be orthonormal and real
for real input, never raise on behalf of a solve, and charge the ledger
for the work it does.
"""

import numpy as np
import pytest
import scipy.linalg as sla

import repro.la.dense as dense
from repro import Options, install_ledger, solve
from repro.krylov.deflation import (generalized_ritz_vectors,
                                    harmonic_ritz_vectors,
                                    sketched_generalized_ritz_vectors,
                                    sketched_harmonic_ritz_vectors)
from repro.la.dense import _order, invariant_subspace
from repro.util.ledger import Kernel

from conftest import make_rng
from fixtures.reference_deflation import (make_pencil, randn,
                                          reference_generalized_ritz_vectors,
                                          reference_harmonic_ritz_vectors,
                                          reference_invariant_subspace,
                                          select_real_subspace)

DTYPES = [np.float64, np.complex128]
#: what ``invariant_subspace`` selects by; the Ritz extractions of the
#: solvers always keep the smallest harmonic Ritz values (the paper's choice)
TARGETS = ["smallest", "largest", "smallest_real", "largest_real"]
RITZ_TARGETS = TARGETS[:1]


def sin_angle(p, q):
    """Sine of the largest principal angle between span(p) and span(q)."""
    assert p.shape == q.shape
    return np.linalg.norm(q - p @ (p.conj().T @ q), 2)


def selected_values(gm, w_hat, target):
    """The pencil's values in selection order (from the oracle's pencil)."""
    vals = sla.eigvals(gm.conj().T @ gm, gm.conj().T @ w_hat)
    return vals[_order(vals, target)]


def straddles(vals, k):
    return k < len(vals) and abs(vals[k - 1].imag) > 1e-12 * abs(vals[k - 1]) \
        and np.isclose(vals[k], np.conj(vals[k - 1]))


@pytest.mark.parametrize("k", [1, 4, 10])
@pytest.mark.parametrize("target", RITZ_TARGETS)
@pytest.mark.parametrize("strategy", ["A", "B"])
@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "c128"])
def test_generalized_matches_oracle(dtype, strategy, target, k):
    checked = 0
    for seed in range(8):
        rng = make_rng(seed, k, strategy == "A", TARGETS.index(target))
        gm, w_hat = make_pencil(rng, dtype, strategy)
        pk = generalized_ritz_vectors(gm, w_hat, k, dtype=dtype)
        assert pk.shape == (gm.shape[1], k)
        assert pk.dtype == dtype                      # real stays real
        assert np.linalg.norm(pk.conj().T @ pk - np.eye(k)) <= 1e-13
        if dtype is np.float64 and straddles(
                selected_values(gm, w_hat, target), k):
            continue                                  # asserted separately
        ref = reference_generalized_ritz_vectors(gm, w_hat, k, dtype=dtype,
                                                 target=target)
        assert sin_angle(pk, ref) <= 1e-8
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize("target", RITZ_TARGETS)
def test_straddling_pair_contributes_one_real_direction(target):
    """k-th value half of a conjugate pair: the k-1 whole values' space,
    plus one direction inside the pair's plane — and still k real columns."""
    found = 0
    for seed in range(40):
        rng = make_rng(seed, 17)
        gm, w_hat = make_pencil(rng, np.float64, "B")
        vals = selected_values(gm, w_hat, target)
        for k in range(1, 11):
            if not straddles(vals, k):
                continue
            found += 1
            pk = generalized_ritz_vectors(gm, w_hat, k, dtype=np.float64)
            assert pk.shape[1] == k and pk.dtype == np.float64
            assert np.linalg.norm(pk.T @ pk - np.eye(k)) <= 1e-13
            outer = reference_generalized_ritz_vectors(
                gm, w_hat, k + 1, dtype=np.float64, target=target)
            assert np.linalg.norm(pk - outer @ (outer.T @ pk), 2) <= 1e-8
            if k > 1:
                inner = reference_generalized_ritz_vectors(
                    gm, w_hat, k - 1, dtype=np.float64, target=target)
                assert np.linalg.norm(inner - pk @ (pk.T @ inner), 2) <= 1e-8
    assert found >= 5


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "c128"])
@pytest.mark.parametrize("target", TARGETS)
def test_standard_problem_matches_oracle(dtype, target):
    # the first-cycle (eq. 2) use: eigenvalues of the matrix
    # itself; here the straddling direction is geev's on both sides only up
    # to the scaling, so compare where the k-th value is whole
    rng = make_rng(3, TARGETS.index(target))
    checked = 0
    for _ in range(6):
        a = randn(rng, (30, 30), dtype) + 3.0 * np.eye(30)
        vals = np.linalg.eigvals(a)
        vals = vals[_order(vals, target)]
        for k in (1, 4, 10):
            if dtype is np.float64 and straddles(vals, k):
                continue
            pk = invariant_subspace(a, k, target=target)
            ref = reference_invariant_subspace(a, k, target=target)
            assert sin_angle(pk, ref) <= 1e-8
            checked += 1
    assert checked >= 6


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "c128"])
def test_harmonic_first_cycle_matches_oracle(dtype):
    rng = make_rng(5)
    gm, _ = make_pencil(rng, dtype, "B", k=0, j=8, p=3)
    hbar, p = gm, 3
    h_last = hbar[-p:, -p:]
    for k in (1, 4, 10):
        vals = np.linalg.eigvals(dense.hessenberg_harmonic_lhs(
            hbar, None, h_last, p))
        if dtype is np.float64 and straddles(vals[_order(vals, "smallest")], k):
            k += 1
        pk = harmonic_ritz_vectors(hbar, None, h_last, p, k, dtype=dtype)
        ref = reference_harmonic_ritz_vectors(hbar, None, h_last, p, k,
                                              dtype=dtype)
        assert sin_angle(pk, ref) <= 1e-8


def test_singular_w_is_an_infinite_value_and_goes_last():
    rng = make_rng(7)
    gm, w_hat = make_pencil(rng, np.float64, "B")
    w_hat[5, 5] = 0.0                      # W singular: one theta infinite
    n = gm.shape[1]
    pk = generalized_ritz_vectors(gm, w_hat, n - 1, dtype=np.float64)
    ref = reference_generalized_ritz_vectors(gm, w_hat, n - 1,
                                             dtype=np.float64)
    assert pk.shape == ref.shape == (n, n - 1)
    assert sin_angle(pk, ref) <= 1e-8
    # the eigenvector left out is the infinite one, W e_5 = 0
    assert np.linalg.norm(gm.T @ w_hat[:, 5]) == 0.0
    assert np.linalg.norm(np.eye(n)[:, 5] - pk @ pk[5]) > 1e-3


def test_rank_deficient_gm_is_deprioritized_not_offered_first():
    rng = make_rng(8)
    gm, w_hat = make_pencil(rng, np.float64, "B")
    gm[:, 3] = 0.0                         # G z = 0 for z = e_3
    k = 4
    pk = generalized_ritz_vectors(gm, w_hat, k, dtype=np.float64)
    assert pk.shape == (gm.shape[1], k)
    assert np.all(np.isfinite(pk))
    assert np.linalg.norm(pk.T @ pk - np.eye(k)) <= 1e-13
    # theta = 0 is not "the smallest value": the null direction stays out
    assert np.linalg.norm(pk[3]) <= 1e-8


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "c128"])
def test_k_at_least_n_returns_the_whole_space(dtype):
    rng = make_rng(9)
    gm, w_hat = make_pencil(rng, dtype, "A", k=2, j=2, p=2)
    n = gm.shape[1]
    for k in (n, n + 5):
        pk = generalized_ritz_vectors(gm, w_hat, k, dtype=dtype)
        assert pk.shape == (n, n)
        assert np.linalg.norm(pk.conj().T @ pk - np.eye(n)) <= 1e-13
    assert invariant_subspace(np.eye(3), 0).shape == (3, 0)


def test_sketched_pencil_routes_through_the_same_extraction():
    rng = make_rng(10)
    p, j = 2, 7
    gm, _ = make_pencil(rng, np.float64, "B", k=0, j=j, p=p)
    hbar = gm
    t0 = np.triu(rng.standard_normal((p, p))) + 2.0 * np.eye(p)
    # the Gram-squared pencil  H^H G_V H g = theta H^H G_V E g
    gv = np.eye(hbar.shape[0])
    gv[:p, :p] = t0.T @ t0
    vals, vecs = sla.eig(hbar.T @ gv @ hbar, hbar.T @ gv[:, :j * p])
    order = _order(vals, "smallest")
    k = 3 if abs(vals[order[2]].imag) == 0 or \
        not np.isclose(vals[order[3]], np.conj(vals[order[2]])) else 4
    ref = select_real_subspace(vals[order], vecs[:, order], k,
                               np.dtype(np.float64))
    pk = sketched_harmonic_ritz_vectors(hbar, t0, k, dtype=np.float64)
    assert sin_angle(pk, ref) <= 1e-8
    # an exact sketch (whitener = identity) is the plain restart pencil
    g2, w2 = make_pencil(rng, np.float64, "A")
    same = sketched_generalized_ritz_vectors(g2, np.eye(g2.shape[0]), w2, 4,
                                             dtype=np.float64)
    assert sin_angle(same, generalized_ritz_vectors(
        g2, w2, 4, dtype=np.float64)) <= 1e-10


# -- the ledger follows the work ------------------------------------------

@pytest.mark.parametrize("rows,cols", [(26, 24), (14, 12), (258, 250)])
def test_charge_of_one_extraction_is_a_formula_of_the_shape(rows, cols):
    rng = make_rng(11, rows)
    gm = rng.standard_normal((rows, cols)) + 4.0 * np.eye(rows, cols)
    with install_ledger() as led:
        generalized_ritz_vectors(gm, np.eye(rows, cols), 10,
                                 dtype=np.float64)
    assert dict(led.flops) == {
        Kernel.QR: 4.0 * rows * cols**2 - 4.0 * cols**3 / 3.0,
        Kernel.BLAS3: 2.0 * rows * cols**2 + 1.0 * cols**3,
        Kernel.EIG: 25.0 * cols**3,
    }
    assert led.reductions == 0 and not led.calls
    # ~ 28 n^3 + the QR against QZ's 50 n^3 on the squared pencil
    assert led.total_flops() < 0.65 * 50.0 * cols**3
    with install_ledger() as led:
        invariant_subspace(gm[:cols], 10)
    assert dict(led.flops) == {Kernel.EIG: 25.0 * cols**3}


# -- containment: the extraction never raises on behalf of a solve ---------

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_pencil_is_rejected_not_raised(bad):
    rng = make_rng(12)
    gm, w_hat = make_pencil(rng, np.float64, "A")
    for poison_w in (False, True):
        g, w = gm.copy(), w_hat.copy()
        (w if poison_w else g)[2, 1] = bad
        with install_ledger() as led:
            pk = generalized_ritz_vectors(g, w, 4, dtype=np.float64)
        assert pk.shape == (gm.shape[1], 0)
        assert led.calls["deflation_rejected"] == 1
        assert not led.flops                     # nothing was computed
    hbar = gm[4:, 4:].copy()
    hbar[0, 0] = bad
    with install_ledger() as led:
        pk = harmonic_ritz_vectors(hbar, None, hbar[-2:, -2:], 2, 4,
                                   dtype=np.float64)
    assert pk.shape == (hbar.shape[1], 0)
    assert led.calls["deflation_rejected"] == 1


@pytest.mark.parametrize("failing", ["gees", "trsen"])
def test_lapack_failure_is_contained(monkeypatch, failing):
    real = sla.get_lapack_funcs

    def with_failure(names, arrays):
        def fail(fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                return out if kwargs.get("lwork") == -1 else out[:-1] + (1,)
            return call
        return [fail(fn) if name == failing else fn
                for name, fn in zip(names, real(names, arrays))]

    monkeypatch.setattr(dense.sla, "get_lapack_funcs", with_failure)
    a = make_rng(13).standard_normal((12, 12))
    with install_ledger() as led:
        pk = invariant_subspace(a, 3)
    assert pk.shape == (12, 0)
    assert led.calls["deflation_rejected"] == 1


def test_solve_survives_a_rejecting_extraction(monkeypatch):
    """Both solvers keep the previous pair (or plain cycles) on a zero-column
    basis: the rejected update degrades the solve, it does not end it."""
    import repro.krylov.deflation as deflation

    def reject(a, k, **kwargs):
        from repro.util import ledger
        ledger.current().event("deflation_rejected")
        return np.zeros((a.shape[0], 0), dtype=a.dtype)

    n = 80
    a = (np.diag(4.0 * np.ones(n)) + np.diag(-1.4 * np.ones(n - 1), -1)
         + np.diag(-0.6 * np.ones(n - 1), 1))
    b = make_rng(14).standard_normal((n, 3))
    for method in ("gcrodr", "bgcrodr"):
        opts = Options(krylov_method=method, gmres_restart=10, recycle=3,
                       tol=1e-8, max_it=400)
        healthy = solve(a, b, options=opts)
        with monkeypatch.context() as mp:
            mp.setattr(deflation, "invariant_subspace", reject)
            with install_ledger() as led:
                res = solve(a, b, options=opts)
        assert np.all(res.converged)
        assert led.calls["deflation_rejected"] >= 1
        assert np.all(healthy.converged)
        resid = np.linalg.norm(b - a @ res.x, axis=0) / np.linalg.norm(b, axis=0)
        assert np.all(resid <= 1e-7)
