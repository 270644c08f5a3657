"""Tests for the implicit-heat driver and variable-coefficient Poisson."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro import Options
from repro.problems.heat import ImplicitHeat
from repro.problems.poisson import poisson_2d, poisson_2d_variable


class TestImplicitHeat:
    def test_stepping_solves_the_implicit_system(self, rng):
        heat = ImplicitHeat(nx=16, dt=1e-2)
        u0 = heat.u.copy()
        res = heat.step()
        assert res.converged.all()
        assert heat.t == pytest.approx(1e-2)
        assert not np.allclose(heat.u, u0)

    def test_matches_direct_solve(self):
        heat = ImplicitHeat(nx=12, dt=5e-3)
        f = heat.source(heat.problem.points, heat.dt)
        expect = spla.spsolve(heat.lhs.tocsc(), f)   # u0 = 0
        heat.step()
        assert np.allclose(heat.u, expect, atol=1e-6)

    def test_unforced_diffusion_decays(self, rng):
        heat = ImplicitHeat(nx=14, dt=1e-2,
                            source=lambda pts, t: np.zeros(len(pts)))
        heat.u = rng.standard_normal(heat.problem.n)
        e0 = heat.energy()
        heat.run(5)
        assert heat.energy() < e0

    def test_recycling_reduces_iterations_over_steps(self):
        """The paper's eq.-(4) motivation, end to end."""
        heat = ImplicitHeat(nx=40, dt=50.0)  # large dt => stiff solves
        heat.run(4)
        its = heat.iterations_per_step
        assert len(its) == 4
        # recycled steps are cheaper than the first
        assert min(its[1:]) < its[0]
        # and the same-system fast path was engaged
        assert heat.results[1].info["same_system"]

    def test_crank_nicolson(self, rng):
        heat = ImplicitHeat(nx=10, dt=1e-2, theta=0.5)
        res = heat.step()
        assert res.converged.all()

    def test_custom_solver_options(self):
        heat = ImplicitHeat(nx=10, dt=1e-2,
                            solver_options=Options(krylov_method="lgmres",
                                                   tol=1e-10, max_it=2000))
        res = heat.step()
        assert res.converged.all()
        assert res.method == "lgmres"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ImplicitHeat(nx=8, dt=-1.0)
        with pytest.raises(ValueError):
            ImplicitHeat(nx=8, theta=0.0)


class TestVariableCoefficientPoisson:
    def test_constant_coefficient_matches_plain(self):
        prob = poisson_2d_variable(6, lambda x, y: 1.0)
        ref = poisson_2d(6)
        assert abs(prob.a - ref.a).max() < 1e-10

    def test_scaling_by_constant(self):
        prob = poisson_2d_variable(5, lambda x, y: 3.0)
        ref = poisson_2d(5)
        assert abs(prob.a - 3.0 * ref.a).max() < 1e-10

    def test_spd_with_contrast(self, rng):
        def c(x, y):
            return np.where((x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.1, 1e4, 1.0)
        prob = poisson_2d_variable(12, c)
        assert abs(prob.a - prob.a.T).max() < 1e-9
        w = spla.eigsh(prob.a, k=1, which="SA",
                       return_eigenvectors=False, maxiter=10000)
        assert w[0] > 0

    def test_array_coefficient(self, rng):
        nx = 6
        c = 1.0 + rng.random((nx + 2, nx + 2))
        prob = poisson_2d_variable(nx, c)
        assert prob.n == 36

    def test_array_shape_checked(self):
        with pytest.raises(ValueError, match="coefficient array"):
            poisson_2d_variable(6, np.ones((5, 5)))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            poisson_2d_variable(4, lambda x, y: -1.0)

    def test_solution_flattens_in_high_coefficient_region(self):
        """Physics check: u is nearly constant inside a 1e4 inclusion."""
        def c(x, y):
            return np.where((x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.06, 1e4, 1.0)
        prob = poisson_2d_variable(24, c)
        f = np.ones(prob.n)
        u = spla.spsolve(prob.a.tocsc(), f)
        x, y = prob.points.T
        inside = (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.04
        assert inside.sum() > 5
        assert u[inside].std() < 0.05 * max(abs(u).max(), 1e-12)

    def test_rectangular(self):
        prob = poisson_2d_variable(4, lambda x, y: 1.0, ny=7)
        assert prob.a.shape == (28, 28)
