"""Tests for BGMRES block-size reduction."""

import numpy as np
import scipy.sparse as sp

from repro import Options
from repro.krylov.bgmres import bgmres
from repro.util import ledger

from conftest import laplacian_1d, relative_residuals


class TestBlockSizeReduction:
    def _colinear_problem(self, rng, n=250, eps=1e-10):
        a = sp.diags([-np.ones(n - 1), 2.4 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1]).tocsr()
        v = rng.standard_normal(n)
        b = np.column_stack([v, 2 * v + eps * rng.standard_normal(n),
                             rng.standard_normal(n)])
        return a, b

    def test_reduction_converges_all_columns(self, rng):
        a, b = self._colinear_problem(rng)
        o = Options(krylov_method="bgmres", tol=1e-9, max_it=2000,
                    block_reduction=True, deflation_tol=1e-8)
        with ledger.install() as led:
            res = bgmres(a, b, options=o)
        assert res.converged.all()
        assert led.calls["block_reduction"] >= 1
        assert np.all(relative_residuals(a, res.x, b) < 1e-8)

    def test_reduction_saves_work(self, rng):
        """Narrower blocks => fewer operator columns for the same result."""
        a, b = self._colinear_problem(rng)
        apps = {}
        for red in (False, True):
            o = Options(krylov_method="bgmres", tol=1e-9, max_it=2000,
                        block_reduction=red, deflation_tol=1e-8)
            with ledger.install() as led:
                res = bgmres(a, b, options=o)
            assert res.converged.all()
            apps[red] = led.calls["operator_apply"]
        assert apps[True] <= apps[False]

    def test_no_reduction_on_full_rank(self, rng):
        a = laplacian_1d(150, shift=0.4)
        b = rng.standard_normal((150, 3))
        o = Options(krylov_method="bgmres", tol=1e-9, max_it=2000,
                    block_reduction=True)
        with ledger.install() as led:
            res = bgmres(a, b, options=o)
        assert res.converged.all()
        assert led.calls["block_reduction"] == 0

    def test_option_parses_from_cli(self):
        from repro import parse_hpddm_args
        o = parse_hpddm_args(["-hpddm_krylov_method", "bgmres",
                              "-hpddm_block_reduction",
                              "-hpddm_deflation_tol", "1e-6"])
        assert o.block_reduction
        assert o.deflation_tol == 1e-6
