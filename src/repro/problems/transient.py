"""Transient operator/RHS sequences — the macro workload of the paper.

Section III-B's same-system fast path, the setup cache and recycled
subspaces all pay off on the *sequences* that implicit time stepping
produces: hundreds of solves where the
operator is constant for a while, then changes (adaptive ``dt``, a
frequency ramp), then is constant again.  This module emits those
sequences as first-class objects so the service layer
(:class:`repro.service.SequenceDriver`) can drive them through every
reuse tier in one scenario.

Two concrete sequences:

:class:`HeatSequence`
    backward-Euler / Crank-Nicolson stepping of ``du/dt - Delta u = f``
    (the paper's eq. 4) under an adaptive-``dt`` schedule
    ``dt_e = dt0 * growth**e`` that changes the operator fingerprint every
    ``epoch_length`` steps; ``growth=1.0`` is the fixed-operator sequence
    the same-system fast path (section III-B) is for.

:class:`MaxwellRampSequence`
    a lossless (``sigma = 0``) time-harmonic Maxwell frequency ramp
    ``K - omega_e^2 M_eps`` over the imaging chamber of
    :mod:`repro.problems.maxwell` — the EMTensor imaging workflow sweeps
    frequencies exactly like this.  Each ramp rung is the mass-matrix
    shift ``K + (-omega^2) M_eps`` of the fixed stiffness ``K``.

Both are deterministic: no RNG, analytic sources, byte-stable operators.

Step ``t+1``'s RHS derives from step ``t``'s solution for the heat
sequence (``depends_on_previous``), which is what forces the scheduler
to respect intra-sequence order while still coalescing across tenants.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .maxwell import (MaxwellProblem, _scatter_assemble, antenna_ring_rhs,
                      maxwell_chamber)
from .poisson import PAPER_NUS, PoissonProblem, poisson_2d

__all__ = ["SequenceStep", "HeatSequence", "MaxwellRampSequence"]


@dataclasses.dataclass(frozen=True)
class SequenceStep:
    """One rung of a transient sequence.

    ``sigma`` is the scalar such that the step's operator equals
    ``base + sigma * mass`` (the identity for the heat sequence).
    ``epoch`` increments exactly
    when the operator fingerprint changes; ``t`` is the time at the *end*
    of the step.
    """

    index: int
    t: float
    dt: float
    epoch: int
    sigma: float


class HeatSequence:
    """Adaptive-``dt`` implicit heat stepping as an operator sequence.

    Parameters
    ----------
    problem:
        the spatial :class:`PoissonProblem` (or ``None`` to build
        ``poisson_2d(nx)``).
    n_steps:
        number of time steps (one linear solve each).
    dt0:
        initial time step.
    epoch_length:
        steps per epoch ``K``; the time step (hence the operator
        fingerprint) changes every ``K`` steps.
    growth:
        per-epoch ``dt`` growth factor (> 0; 1.0 degenerates to the
        fixed-operator sequence of implicit heat stepping).
    theta:
        implicitness: 1.0 = backward Euler, 0.5 = Crank-Nicolson.
    source:
        ``f(points, t) -> ndarray``; defaults to the paper's nu-family
        pulse cycling per step (deterministic, no RNG).
    """

    #: step t+1's RHS derives from step t's solution
    depends_on_previous = True
    dtype = np.float64

    def __init__(self, problem: PoissonProblem | None = None, *,
                 nx: int = 16, n_steps: int = 40, dt0: float = 1e-3,
                 epoch_length: int = 10, growth: float = 1.25,
                 theta: float = 1.0,
                 source: Callable[[np.ndarray, float], np.ndarray] | None = None):
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if epoch_length < 1:
            raise ValueError("epoch_length must be >= 1")
        if dt0 <= 0 or growth <= 0:
            raise ValueError("dt0 and growth must be positive")
        if not 0.0 < theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        self.problem = problem if problem is not None else poisson_2d(nx)
        self.n_steps = int(n_steps)
        self.dt0 = float(dt0)
        self.epoch_length = int(epoch_length)
        self.growth = float(growth)
        self.theta = float(theta)
        self.source = source if source is not None else self._paper_source
        a = self.problem.a
        n = self.problem.n
        self._a = sp.csr_matrix(a)
        self._eye = sp.eye(n, format="csr")
        #: the dt-independent part of the implicit operator: theta * A
        self.base = sp.csr_matrix(theta * a)
        self._lhs_by_epoch: dict[int, sp.csr_matrix] = {}
        self._steps = self._build_steps()

    # -- schedule --------------------------------------------------------
    def dt_of_epoch(self, epoch: int) -> float:
        return self.dt0 * self.growth ** epoch

    def epoch_of(self, index: int) -> int:
        return index // self.epoch_length

    def _build_steps(self) -> list[SequenceStep]:
        steps = []
        t = 0.0
        for i in range(self.n_steps):
            epoch = self.epoch_of(i)
            dt = self.dt_of_epoch(epoch)
            t += dt
            steps.append(SequenceStep(index=i, t=t, dt=dt, epoch=epoch,
                                      sigma=1.0 / dt))
        return steps

    def steps(self) -> list[SequenceStep]:
        return list(self._steps)

    @property
    def n_epochs(self) -> int:
        return self.epoch_of(self.n_steps - 1) + 1

    @property
    def total_time(self) -> float:
        """Simulated seconds covered by the whole sequence."""
        return self._steps[-1].t

    # -- operators and right-hand sides ----------------------------------
    def operator(self, step: SequenceStep) -> sp.csr_matrix:
        """Assembled implicit operator ``theta A + (1/dt) I``.

        Cached per epoch and returned as the *same object* within an
        epoch, so both the object tag and the value fingerprint are
        constant until the schedule actually changes ``dt``.
        """
        lhs = self._lhs_by_epoch.get(step.epoch)
        if lhs is None:
            dt = self.dt_of_epoch(step.epoch)
            lhs = sp.csr_matrix(self.base + self._eye / dt)
            self._lhs_by_epoch[step.epoch] = lhs
        return lhs

    def u0(self) -> np.ndarray:
        return np.zeros(self.problem.n)

    def _paper_source(self, points: np.ndarray, t: float) -> np.ndarray:
        # cycle the paper's four nu parameters per pulse; keyed by the
        # integer pulse count so it is schedule-independent
        nu = PAPER_NUS[int(round(t / self.dt0)) % len(PAPER_NUS)]
        x, y = points[:, 0], points[:, 1]
        return (np.exp(-(1 - x) ** 2 / nu) * np.exp(-(1 - y) ** 2 / nu)) / nu

    def rhs(self, step: SequenceStep, u_prev: np.ndarray) -> np.ndarray:
        """theta-scheme right-hand side from the previous step's field."""
        f = self.source(self.problem.points, step.t)
        return (u_prev / step.dt
                - (1.0 - self.theta) * (self._a @ u_prev)
                + f)


class MaxwellRampSequence:
    """Lossless time-harmonic Maxwell frequency ramp.

    The operator at ramp rung ``e`` is ``K - omega_e^2 M_eps`` with
    ``omega_e = omega0 * omega_growth**e`` — a mass-matrix shift of the
    fixed stiffness ``K`` (shift value ``-omega_e^2``), held for
    ``epoch_length`` steps while the excitation walks around the antenna
    ring.  RHS columns are independent across steps (no intra-sequence
    dependency); the imaging workflow solves one antenna per solve.
    """

    depends_on_previous = False
    dtype = np.complex128

    def __init__(self, problem: MaxwellProblem | None = None, *,
                 n: int = 4, n_steps: int = 8, omega0: float = 8.0,
                 epoch_length: int = 4, omega_growth: float = 1.1,
                 n_antennas: int = 8):
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if epoch_length < 1:
            raise ValueError("epoch_length must be >= 1")
        if omega0 <= 0 or omega_growth <= 0:
            raise ValueError("omega0 and omega_growth must be positive")
        if problem is None:
            problem = maxwell_chamber(n, omega=omega0, cylinder=False,
                                      sigma_background=0.0)
        self.problem = problem
        self.n_steps = int(n_steps)
        self.omega0 = float(omega0)
        self.epoch_length = int(epoch_length)
        self.omega_growth = float(omega_growth)
        mesh = problem.mesh
        free = problem.free_edges
        # lossless split A(omega) = K - omega^2 M_eps on the free edges
        k_full = _scatter_assemble(mesh, problem.elem_k.astype(np.complex128))
        m_full = _scatter_assemble(
            mesh, (problem.eps[:, None, None]
                   * problem.elem_m).astype(np.complex128))
        self.base = sp.csr_matrix(k_full[free][:, free])
        self.mass = sp.csr_matrix(m_full[free][:, free])
        #: one RHS column per antenna, built once at omega0; per-step
        #: columns rescale by omega_e/omega0 (the i*omega*J source factor)
        self._ring = antenna_ring_rhs(problem, n_antennas=n_antennas)
        self.n_antennas = int(n_antennas)
        self._lhs_by_epoch: dict[int, sp.csr_matrix] = {}
        self._steps = self._build_steps()

    def omega_of_epoch(self, epoch: int) -> float:
        return self.omega0 * self.omega_growth ** epoch

    def epoch_of(self, index: int) -> int:
        return index // self.epoch_length

    def _build_steps(self) -> list[SequenceStep]:
        steps = []
        for i in range(self.n_steps):
            epoch = self.epoch_of(i)
            omega = self.omega_of_epoch(epoch)
            # "time" of a ramp rung is the rung count — one simulated
            # second per solve keeps time-per-simulated-second meaningful
            steps.append(SequenceStep(index=i, t=float(i + 1), dt=1.0,
                                      epoch=epoch, sigma=-omega ** 2))
        return steps

    def steps(self) -> list[SequenceStep]:
        return list(self._steps)

    @property
    def n_epochs(self) -> int:
        return self.epoch_of(self.n_steps - 1) + 1

    @property
    def total_time(self) -> float:
        return self._steps[-1].t

    def operator(self, step: SequenceStep) -> sp.csr_matrix:
        """``K - omega_e^2 M_eps``, cached per epoch (stable tag + fp)."""
        lhs = self._lhs_by_epoch.get(step.epoch)
        if lhs is None:
            lhs = sp.csr_matrix(self.base + step.sigma * self.mass)
            self._lhs_by_epoch[step.epoch] = lhs
        return lhs

    def u0(self) -> np.ndarray:
        return np.zeros(self.base.shape[0], dtype=np.complex128)

    def rhs(self, step: SequenceStep, u_prev: np.ndarray) -> np.ndarray:
        omega = self.omega_of_epoch(step.epoch)
        col = self._ring[:, step.index % self.n_antennas]
        return (omega / self.omega0) * col
