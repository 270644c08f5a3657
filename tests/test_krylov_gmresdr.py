"""Tests for GMRES-DR (deflated restarting, the PETSc DGMRES baseline)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import Options, solve
from repro.krylov.gcrodr import gcrodr
from repro.krylov.gmres import gmres
from repro.krylov.gmresdr import gmresdr
from repro.precond.simple import SSORPreconditioner
from repro.util import ledger
from repro.util.ledger import CostLedger

from conftest import complex_shifted, laplacian_1d, relative_residuals


def _opts(**kw):
    kw.setdefault("krylov_method", "gmresdr")
    kw.setdefault("gmres_restart", 30)
    kw.setdefault("recycle", 10)
    kw.setdefault("tol", 1e-8)
    kw.setdefault("max_it", 6000)
    return Options(**kw)


def _counted(fn, a, b, m, options, **kw):
    led = CostLedger()
    with ledger.install(led):
        res = fn(a, b, m, options=options, **kw)
    return res, led


class TestConvergence:
    def test_deflation_rescues_restarted_gmres(self, rng):
        a = laplacian_1d(600)
        b = rng.standard_normal(600)
        rd = gmresdr(a, b, options=_opts())
        rg = gmres(a, b, options=Options(gmres_restart=30, tol=1e-8,
                                         max_it=6000))
        assert rd.converged.all()
        assert relative_residuals(a, rd.x, b)[0] < 1e-7
        assert (not rg.converged.all()) or rd.iterations < rg.iterations

    def test_equivalent_to_gcrodr_on_single_system(self, rng):
        """Parks et al.: GMRES-DR == GCRO-DR for one linear system — here
        by construction, so the iterate and every charged cost are the
        same bits, real and complex, left and right preconditioned."""
        for a in (laplacian_1d(300), complex_shifted(300)):
            n = a.shape[0]
            b = rng.standard_normal(n)
            if np.iscomplexobj(a.data):
                b = b + 1j * rng.standard_normal(n)
            m = SSORPreconditioner(a)
            for variant in ("right", "left"):
                rd, led_d = _counted(gmresdr, a, b, m, _opts(variant=variant))
                rc, led_c = _counted(
                    gcrodr, a, b, m,
                    _opts(krylov_method="gcrodr", variant=variant),
                    recycle=None, same_system=False)
                assert rd.converged.all()
                assert rd.x.tobytes() == rc.x.tobytes()
                assert rd.iterations == rc.iterations
                assert led_d.counts() == led_c.counts()

    def test_same_system_flag_does_not_reach_the_restarts(self, rng):
        """Every restart re-harvests the harmonic Ritz vectors (Morgan's
        deflated restart) whatever ``recycle_same_system`` says."""
        a = laplacian_1d(300)
        b = rng.standard_normal(300)
        r0, led0 = _counted(gmresdr, a, b, None, _opts())
        r1, led1 = _counted(gmresdr, a, b, None,
                            _opts(recycle_same_system=True))
        assert r0.restarts > 1
        assert r1.x.tobytes() == r0.x.tobytes()
        assert led1.counts() == led0.counts()

    @pytest.mark.parametrize("m,k", [(8, 2), (12, 4), (20, 5)])
    def test_nonsymmetric_convection_diffusion_converges(self, m, k):
        """Nonsymmetric convection-diffusion: every deflated restart must keep
        the Arnoldi relation exact under verify=full and the solve must not
        stagnate (a carried augmented basis drifts ~1e-2 here)."""
        n = 200
        a = sp.diags([-1.4 * np.ones(n - 1), 2.2 * np.ones(n),
                      -0.6 * np.ones(n - 1)], [-1, 0, 1]).tocsr()
        b = np.random.default_rng(0).standard_normal(n)
        res = solve(a, b, options=_opts(gmres_restart=m, recycle=k,
                                        tol=1e-10, max_it=2000,
                                        verify="full"))
        assert res.converged.all()
        assert res.iterations <= 200
        assert relative_residuals(a, res.x, b)[0] <= 1e-9

    def test_preconditioned(self, rng):
        a = laplacian_1d(400)
        b = rng.standard_normal(400)
        m = SSORPreconditioner(a)
        res = gmresdr(a, b, m, options=_opts(variant="right"))
        assert res.converged.all()
        assert relative_residuals(a, res.x, b)[0] < 1e-7

    def test_left_preconditioning(self, rng):
        a = laplacian_1d(300)
        b = rng.standard_normal(300)
        m = SSORPreconditioner(a)
        res = gmresdr(a, b, m, options=_opts(variant="left"))
        assert res.converged.all()

    def test_complex(self, rng):
        a = complex_shifted(300)
        b = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        res = gmresdr(a, b, options=_opts())
        assert res.converged.all()
        assert relative_residuals(a, res.x, b)[0] < 1e-7

    def test_easy_system_single_cycle(self, rng):
        a = laplacian_1d(100, shift=1.0)
        b = rng.standard_normal(100)
        res = gmresdr(a, b, options=_opts())
        assert res.converged.all()
        assert res.restarts == 1


class TestGuards:
    def test_flexible_rejected(self):
        a = laplacian_1d(30)
        with pytest.raises(ValueError, match="variable"):
            gmresdr(a, np.ones(30), options=_opts(variant="flexible"))

    def test_multiple_rhs_rejected(self, rng):
        a = laplacian_1d(30)
        with pytest.raises(ValueError, match="single"):
            gmresdr(a, np.ones((30, 2)), options=_opts())

    def test_k_bounds_enforced(self):
        with pytest.raises(Exception):
            Options(krylov_method="gmresdr", gmres_restart=10, recycle=10)

    def test_api_dispatch(self, rng):
        a = laplacian_1d(120, shift=0.3)
        res = solve(a, rng.standard_normal(120),
                    options=_opts(gmres_restart=20, recycle=5))
        assert res.method == "gmresdr"
        assert res.converged.all()

    def test_no_cross_solve_recycling(self, rng):
        """The paper's point: DGMRES cannot recycle between solves."""
        a = laplacian_1d(200)
        res = solve(a, rng.standard_normal(200), options=_opts(max_it=8000))
        assert res.info.get("recycle") is None
