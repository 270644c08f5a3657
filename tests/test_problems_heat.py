"""Tests for implicit heat stepping and variable-coefficient Poisson."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import Options, Solver
from repro.problems.poisson import poisson_2d, poisson_2d_variable
from repro.problems.transient import HeatSequence

#: GCRO-DR(30,10) with the same-system fast path: the paper's configuration
#: for a fixed-operator sequence (section III-B, eq. 4)
HEAT_OPTIONS = Options(krylov_method="gcrodr", gmres_restart=30, recycle=10,
                       tol=1e-8, max_it=20000, recycle_same_system=True)


def step_heat(n_steps, *, nx, dt, u0=None, options=HEAT_OPTIONS, **kw):
    """Step the fixed-operator heat equation (``HeatSequence`` with
    ``growth=1.0``) through one :class:`Solver`; returns the sequence,
    the final field and every step's result."""
    seq = HeatSequence(nx=nx, n_steps=n_steps, dt0=dt, growth=1.0,
                       epoch_length=n_steps, **kw)
    solver = Solver(options=options)
    u = seq.u0() if u0 is None else u0
    results = []
    for step in seq.steps():
        res = solver.solve(seq.operator(step), seq.rhs(step, u))
        assert res.converged.all()
        u = res.x
        results.append(res)
    return seq, u, results


class TestImplicitHeat:
    """du/dt - Delta u = f, one implicit step per linear solve."""

    def test_stepping_solves_the_implicit_system(self):
        seq, u, (res,) = step_heat(1, nx=16, dt=1e-2)
        assert seq.steps()[0].t == pytest.approx(1e-2)
        assert not np.allclose(u, seq.u0())

    def test_matches_direct_solve(self):
        dt = 5e-3
        seq, u, _ = step_heat(1, nx=12, dt=dt)
        prob = seq.problem
        f = seq.source(prob.points, dt)
        lhs = sp.eye(prob.n) / dt + prob.a              # u0 = 0
        assert np.allclose(u, spla.spsolve(lhs.tocsc(), f), atol=1e-6)

    def test_unforced_diffusion_decays(self, rng):
        u0 = rng.standard_normal(14 * 14)
        _, u, _ = step_heat(5, nx=14, dt=1e-2, u0=u0,
                            source=lambda pts, t: np.zeros(len(pts)))
        assert np.linalg.norm(u) < np.linalg.norm(u0)

    def test_recycling_reduces_iterations_over_steps(self):
        """The paper's eq.-(4) motivation, end to end."""
        _, _, results = step_heat(4, nx=40, dt=50.0)  # large dt: stiff
        its = [r.iterations for r in results]
        # recycled steps are cheaper than the first
        assert min(its[1:]) < its[0]
        # and the same-system fast path was engaged
        assert results[1].info["same_system"]

    def test_crank_nicolson(self, rng):
        dt = 1e-2
        u0 = rng.standard_normal(10 * 10)
        seq, u, _ = step_heat(1, nx=10, dt=dt, u0=u0, theta=0.5)
        prob = seq.problem
        eye = sp.eye(prob.n)
        rhs = (eye / dt - 0.5 * prob.a) @ u0 + seq.source(prob.points, dt)
        want = spla.spsolve((eye / dt + 0.5 * prob.a).tocsc(), rhs)
        assert np.allclose(u, want, atol=1e-6)

    def test_custom_solver_options(self):
        opts = Options(krylov_method="lgmres", tol=1e-10, max_it=2000)
        _, _, (res,) = step_heat(1, nx=10, dt=1e-2, options=opts)
        assert res.method == "lgmres"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HeatSequence(nx=8, dt0=-1.0)
        with pytest.raises(ValueError):
            HeatSequence(nx=8, theta=0.0)


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
