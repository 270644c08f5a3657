"""Integration tests: solvers x preconditioners x problems, end to end."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import Options, Solver, as_operator, install_ledger, solve
from repro.precond.amg import SmoothedAggregationAMG
from repro.precond.schwarz import SchwarzPreconditioner
from repro.precond.simple import JacobiPreconditioner, SSORPreconditioner
from repro.problems.elasticity import PAPER_INCLUSIONS, elasticity_3d
from repro.problems.maxwell import (antenna_ring_rhs, decompose_maxwell,
                                    maxwell_chamber)
from repro.problems.poisson import poisson_2d

from conftest import relative_residuals


@pytest.fixture(scope="module")
def poisson():
    return poisson_2d(24)


@pytest.fixture(scope="module")
def elasticity():
    return elasticity_3d(5, inclusion=PAPER_INCLUSIONS[0])


@pytest.fixture(scope="module")
def chamber():
    return maxwell_chamber(5, omega=6.0)


class TestSolverPreconditionerMatrix:
    """Every Krylov method against every preconditioner family."""

    METHODS = [
        ("gmres", {}),
        ("bgmres", {}),
        ("gcrodr", {"recycle": 5}),
        ("bgcrodr", {"recycle": 5}),
    ]
    PRECONDITIONERS = {
        "none": lambda a: None,
        "jacobi": lambda a: JacobiPreconditioner(a),
        "ssor": lambda a: SSORPreconditioner(a),
        "amg": lambda a: SmoothedAggregationAMG(a, coarse_size=60),
        "schwarz": lambda a: SchwarzPreconditioner(a, nparts=3, overlap=1),
    }

    @pytest.mark.parametrize("method,extra", METHODS)
    @pytest.mark.parametrize("prec", list(PRECONDITIONERS))
    def test_poisson_grid(self, poisson, rng, method, extra, prec):
        b = rng.standard_normal((poisson.n, 2))
        m = self.PRECONDITIONERS[prec](poisson.a)
        opts = Options(krylov_method=method, gmres_restart=25, tol=1e-8,
                       variant="right", max_it=4000, **extra)
        res = solve(poisson.a, b, m, options=opts)
        assert res.converged.all(), (method, prec)
        assert np.all(relative_residuals(poisson.a, res.x, b) < 1e-7)


class TestElasticityEndToEnd:
    def test_sequence_with_recycling_and_amg(self, rng):
        opts = Options(krylov_method="gcrodr", gmres_restart=30, recycle=8,
                       tol=1e-8, max_it=3000)
        s = Solver(options=opts)
        for inc in PAPER_INCLUSIONS[:2]:
            prob = elasticity_3d(5, inclusion=inc)
            m = SmoothedAggregationAMG(prob.a, nullspace=prob.nullspace,
                                       block_size=3, smoother="cg",
                                       smoother_iterations=3)
            res = s.solve(prob.a, prob.rhs_vector, m=m)
            assert res.converged.all()
            assert not res.info["same_system"]

    def test_block_solve_multiple_loads(self, elasticity, rng):
        loads = np.column_stack([elasticity.rhs_vector,
                                 rng.standard_normal(elasticity.n)])
        m = SSORPreconditioner(elasticity.a)
        res = solve(elasticity.a, loads, m,
                    options=Options(krylov_method="bgmres", tol=1e-8,
                                    variant="right", max_it=4000))
        assert res.converged.all()


class TestMaxwellEndToEnd:
    def test_oras_multi_antenna_block(self, chamber, rng):
        b = antenna_ring_rhs(chamber, n_antennas=4)
        dec = decompose_maxwell(chamber, 4, overlap=1, impedance=True)
        m = SchwarzPreconditioner(chamber.a, variant="oras",
                                  decomposition=dec.decomposition,
                                  local_matrices=dec.local_matrices)
        res = solve(chamber.a, b, m,
                    options=Options(krylov_method="bgmres", gmres_restart=40,
                                    tol=1e-6, variant="right", max_it=1500))
        assert res.converged.all()
        assert np.all(relative_residuals(chamber.a, res.x, b) < 1e-5)

    def test_bgcrodr_on_maxwell(self, chamber):
        b = antenna_ring_rhs(chamber, n_antennas=4)
        dec = decompose_maxwell(chamber, 4, overlap=1, impedance=True)
        m = SchwarzPreconditioner(chamber.a, variant="oras",
                                  decomposition=dec.decomposition,
                                  local_matrices=dec.local_matrices)
        s = Solver(m, options=Options(krylov_method="bgcrodr",
                                      gmres_restart=40, recycle=8, tol=1e-6,
                                      variant="right", max_it=1500,
                                      recycle_same_system=True))
        r1 = s.solve(chamber.a, b[:, :2])
        r2 = s.solve(chamber.a, b[:, 2:])
        assert r1.converged.all() and r2.converged.all()
        assert r2.info["same_system"]


class TestDistributedIntegration:
    def test_distributed_operator_through_full_stack(self, poisson, rng):
        """Partitioned operator + Schwarz + GCRO-DR, with ledger
        accounting."""
        dist = as_operator(poisson.a, nranks=4)
        m = SchwarzPreconditioner(poisson.a, nparts=4, overlap=1)
        b = rng.standard_normal(poisson.n)
        with install_ledger() as led:
            res = solve(dist, b, m,
                        options=Options(krylov_method="gcrodr",
                                        gmres_restart=20, recycle=5,
                                        tol=1e-8, variant="right",
                                        max_it=2000))
        assert res.converged.all()
        assert led.p2p_messages > 0            # halo traffic happened
        assert led.reductions > res.iterations  # dots + norms counted

    def test_distributed_matches_serial_solution(self, poisson, rng):
        b = rng.standard_normal(poisson.n)
        opts = Options(tol=1e-10, max_it=4000)
        x_serial = solve(poisson.a, b, options=opts).x
        x_dist = solve(as_operator(poisson.a, nranks=3), b,
                       options=opts).x
        assert np.allclose(x_serial, x_dist, atol=1e-6)


class TestLedgerDrivenModeling:
    def test_whole_solve_modelable(self, poisson, rng):
        from repro.perfmodel.estimate import modeled_time
        b = rng.standard_normal(poisson.n)
        dist = as_operator(poisson.a, nranks=4)
        with install_ledger() as led:
            res = solve(dist, b, options=Options(tol=1e-8, max_it=4000))
        assert res.converged.all()
        t = modeled_time(led, 4)
        assert t.total > 0
        assert t.compute > 0 and t.reduction > 0 and t.p2p > 0

    def test_reductions_scale_with_method(self, poisson, rng):
        """GCRO-DR's extra projection costs ~1 reduction per iteration."""
        b = rng.standard_normal(poisson.n)
        counts = {}
        for method, extra in [("gmres", {}), ("gcrodr", {"recycle": 5})]:
            with install_ledger() as led:
                res = solve(poisson.a, b,
                            options=Options(krylov_method=method,
                                            gmres_restart=20, tol=1e-8,
                                            max_it=4000, **extra))
            counts[method] = led.reductions / max(res.iterations, 1)
        assert counts["gcrodr"] < 2.5 * counts["gmres"]
