"""Tests for true Block GMRES."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Options
from repro.krylov.base import FunctionPreconditioner
from repro.krylov.bgmres import bgmres
from repro.krylov.gmres import gmres
from repro.util import ledger

from conftest import (complex_shifted, convection_diffusion_1d,
                      laplacian_1d, laplacian_2d, make_rng,
                      relative_residuals)


def _opts(**kw):
    kw.setdefault("krylov_method", "bgmres")
    return Options(**kw)


class TestBlockConvergence:
    def test_multiple_rhs(self, rng):
        a = convection_diffusion_1d(300)
        b = rng.standard_normal((300, 5))
        res = bgmres(a, b, options=_opts(tol=1e-10))
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-9)
        assert res.method == "bgmres"

    def test_single_rhs_degenerates_to_gmres(self, rng):
        a = convection_diffusion_1d(200)
        b = rng.standard_normal(200)
        rb = bgmres(a, b, options=_opts(tol=1e-9))
        rg = gmres(a, b, options=Options(tol=1e-9))
        assert rb.converged.all()
        # identical mathematics: same iteration count within round-off slack
        assert abs(rb.iterations - rg.iterations) <= 2

    def test_block_beats_pseudo_block_in_iterations(self, rng):
        """The core promise of block methods (paper section V-B)."""
        a = laplacian_2d(18)
        n = a.shape[0]
        b = rng.standard_normal((n, 8))
        o = dict(gmres_restart=30, tol=1e-8, max_it=4000)
        rb = bgmres(a, b, options=_opts(**o))
        rg = gmres(a, b, options=Options(**o))
        assert rb.converged.all()
        # block iterations advance all columns at once and converge in far
        # fewer of them
        assert rb.iterations < rg.iterations

    def test_complex_block(self, rng):
        a = complex_shifted(200)
        b = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
        res = bgmres(a, b, options=_opts(tol=1e-9))
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-8)

    def test_exact_solution_small_system(self, rng):
        n, p = 36, 3
        a = laplacian_1d(n, shift=1.0)
        b = rng.standard_normal((n, p))
        res = bgmres(a, b, options=_opts(gmres_restart=n, tol=1e-12, max_it=n))
        x_ref = spla.spsolve(a.tocsc(), b)
        assert np.allclose(res.x, x_ref, atol=1e-7)

    def test_max_it(self, rng):
        a = laplacian_1d(400)
        b = rng.standard_normal((400, 2))
        res = bgmres(a, b, options=_opts(gmres_restart=10, max_it=23, tol=1e-14))
        assert res.iterations <= 23


class TestBreakdown:
    def test_colinear_rhs_detected(self, rng):
        a = convection_diffusion_1d(150)
        v = rng.standard_normal(150)
        b = np.column_stack([v, 2 * v, rng.standard_normal(150)])
        res = bgmres(a, b, options=_opts(tol=1e-9, max_it=2000))
        assert res.breakdown
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-8)

    def test_duplicated_rhs_all_converge(self, rng):
        a = laplacian_1d(100, shift=0.5)
        v = rng.standard_normal(100)
        b = np.column_stack([v, v])
        res = bgmres(a, b, options=_opts(tol=1e-10, max_it=1000))
        assert res.converged.all()
        assert np.allclose(res.x[:, 0], res.x[:, 1], atol=1e-7)

    def test_one_zero_column(self, rng):
        a = laplacian_1d(80, shift=1.0)
        b = rng.standard_normal((80, 3))
        b[:, 0] = 0.0
        res = bgmres(a, b, options=_opts(tol=1e-10))
        assert res.converged.all()
        assert np.linalg.norm(res.x[:, 0]) < 1e-8


class TestBlockPreconditioning:
    @pytest.mark.parametrize("variant", ["left", "right"])
    def test_variants(self, rng, variant):
        a = convection_diffusion_1d(200)
        ilu = spla.spilu(a.tocsc(), drop_tol=1e-3)
        m = FunctionPreconditioner(lambda x: np.column_stack(
            [ilu.solve(x[:, j]) for j in range(x.shape[1])]))
        b = rng.standard_normal((200, 4))
        res = bgmres(a, b, m, options=_opts(variant=variant, tol=1e-9))
        assert res.converged.all()
        assert np.all(relative_residuals(a, res.x, b) < 1e-8)


class TestBlockCommunication:
    def test_one_spmm_per_block_iteration(self, rng):
        a = convection_diffusion_1d(200)
        b = rng.standard_normal((200, 6))
        with ledger.install() as led:
            res = bgmres(a, b, options=_opts(tol=1e-8))
        # one fused operator application (p columns) per block iteration
        # plus one explicit residual per restart and the initial residual
        expected_max = (res.iterations + res.restarts + 1) * 6
        assert led.calls["operator_apply"] <= expected_max

    def test_reductions_constant_per_iteration(self, rng):
        a = convection_diffusion_1d(250)
        per_it = {}
        for p in (2, 6):
            b = rng.standard_normal((250, p))
            with ledger.install() as led:
                res = bgmres(a, b, options=_opts(tol=1e-8))
            per_it[p] = led.reductions / max(res.iterations, 1)
        # block methods exchange more data, not more messages
        assert per_it[6] < 2.0 * per_it[2]


@settings(max_examples=10, deadline=None)
@given(n=st.integers(20, 70), p=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
def test_property_bgmres_solves_spd(n, p, seed):
    rng = make_rng(seed)
    a = laplacian_1d(n, shift=1.0)
    b = rng.standard_normal((n, p))
    res = bgmres(a, b, options=_opts(gmres_restart=min(25, max(n // p, 2)),
                                     tol=1e-9, max_it=60 * n))
    assert res.converged.all()
    assert np.all(relative_residuals(a, res.x, b) < 1e-8)
