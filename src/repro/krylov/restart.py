"""The one restart loop under every GMRES-family solver (paper Fig. 1).

How a restarted solve *starts, restarts, stops and is packed* lives here
only: :class:`RestartLoop` holds the counters, the stopping rule and the
block engine's seed-and-cycle call; :class:`RestartedSolve` adds the state
of a preconditioned solve, the explicit residual at a restart, the block
cycle with its least-squares update, and the :class:`SolveResult`.

A solver is a *policy* over these — how a cycle is built, what is harvested
at a restart, what is carried.  ``bgmres`` is :meth:`RestartedSolve.cycle`
in a loop, ``gcrodr`` the same loop with a pair, a harvest and an update;
``gmres`` / ``pgcrodr`` run :mod:`repro.krylov.pgcrodr`'s pseudo-block
cycle on this state; ``gmresdr`` is ``gcrodr`` on one system with nothing
carried in or out; ``lgmres`` keeps its single-RHS inner loop and uses the
state only; the shifted family engine uses the loop.  What happens to the
recycled pair (adoption, harvest, update, repair) is not the loop's: it is
:mod:`repro.krylov.recycling`'s, whichever driver carries the pair.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..la.orthogonalization import _gram, qr_factorization, slab_matmul
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import as_block, column_norms
from ..util.options import Options
from ..verify.checker import NULL_CHECKER, checker_for
from .base import (ConvergenceHistory, IdentityPreconditioner, SolveResult,
                   as_operator, initial_state, residual_targets,
                   setup_preconditioning)
from .basis import BasisArena
from .cycle import CycleState, block_arnoldi_cycle, complete_block

__all__ = ["RestartLoop", "RestartedSolve"]


class RestartLoop:
    """Counters, stopping rule and seed-and-cycle call of a restarted solve
    that iterates with ``op_apply`` from the residual block ``r``.  Bare, it
    runs unpreconditioned cycles without targets or history — what the
    shifted family engine, which keeps its own per-shift ones, asks for."""

    inner_m = targets = history = None
    identity_m = True
    #: columns that met non-finite data and can never advance again (a
    #: per-column mask under :class:`RestartedSolve`)
    frozen = False

    def __init__(self, options: Options, op_apply=None, r=None):
        self.options, self.op_apply, self.r = options, op_apply, r
        self.led, self.tr = ledger.current(), trace.current()
        self.total_it = self.cycles = 0
        self.breakdown = False
        self.converged = np.zeros(0, dtype=bool)

    @property
    def running(self) -> bool:
        """The loop condition: a column left that can still converge, budget
        left."""
        options = self.options
        return not np.all(self.converged | self.frozen) \
            and self.total_it < options.max_it

    @property
    def budget(self) -> int:
        return self.options.max_it - self.total_it

    def block_cycle(self, arena: BasisArena, steps: int, *, ck=None,
                    span: dict | None = None, block_reduction: bool = False
                    ) -> tuple[CycleState, np.ndarray] | None:
        """Seed one cycle from the residual block and run it.

        Rank-revealing CholQR of ``r`` (paper lines 11 / 24), deficient
        directions completed (against ``ck`` too) or — ``block_reduction``,
        a ``bgmres`` policy — dropped, then up to ``steps`` block-Arnoldi
        steps in a ``cycle`` span carrying ``span`` (``None``: the caller's
        own span is open).  Returns ``(state, s1)``; ``None`` stops the
        solve: the residual is numerically zero or no step could run.
        """
        o = self.options
        v1, s1, rank = qr_factorization(self.r, "cholqr_rr",
                                        tol=o.deflation_tol)
        if rank == 0:
            return None
        if rank < v1.shape[1]:
            self.breakdown = True
            if block_reduction:
                # only the `rank` independent directions continue; the LS
                # problem still tracks every RHS column through the p-wide S1
                v1 = np.ascontiguousarray(v1[:, :rank])
                s1 = s1[:rank, :]
                self.led.event("block_reduction")
            else:
                v1 = complete_block(v1, rank,
                                    against=None if ck is None else [ck])
        with nullcontext() if span is None else \
                self.tr.span("cycle", index=self.cycles, **span):
            state = block_arnoldi_cycle(
                self.op_apply, self.inner_m, v1, s1, max_steps=steps, ck=ck,
                ortho=o.orthogonalization,
                deflation_tol=o.deflation_tol, targets=self.targets,
                history=self.history, identity_m=self.identity_m,
                iteration_budget=self.budget, arena=arena)
        self.total_it += state.steps
        self.cycles += 1
        self.breakdown |= state.breakdown
        return (state, s1) if state.steps else None


class RestartedSolve(RestartLoop):
    """State of one restarted, preconditioned solve ``A X = B``.  ``context``
    labels the verify checker (``None``: the solver takes no part in
    ``-hpddm_verify``); ``single_rhs`` is a single-RHS solver's error for a
    block right-hand side."""

    def __init__(self, a, b, m, options: Options, x0, *,
                 context: str | None, single_rhs: str | None = None):
        super().__init__(options)
        self.a = as_operator(a)
        self.op_apply, self.inner_m, self.left_m = \
            setup_preconditioning(self.a, m, options)
        self.identity_m = isinstance(self.inner_m, IdentityPreconditioner)
        self.b_in = as_block(b)
        if single_rhs and self.b_in.shape[1] != 1:
            raise ValueError(single_rhs)
        self.squeeze = np.asarray(b).ndim == 1
        self.x, self.b2, self.r = initial_state(self.a, self.b_in, x0)
        if self.left_m is not None:
            self.b2 = np.asarray(self.left_m(self.b2))
            self.r = np.asarray(self.left_m(self.r)) if x0 is not None \
                else self.b2.copy()
        self.n, self.p = self.b2.shape
        self.dtype = self.x.dtype
        self.targets = residual_targets(self.b2, options.tol)
        self.history = ConvergenceHistory(rhs_norms=column_norms(self.b2))
        self.chk = checker_for(options, context=context) if context \
            else NULL_CHECKER
        self.frozen = np.zeros(self.p, dtype=bool)
        self.record_residual()

    def record_residual(self) -> None:
        """Append ``||r||`` to the history and refresh ``converged`` and
        ``frozen``."""
        rn = column_norms(self.r)
        self.history.append(rn)
        self.converged = rn <= self.targets
        self.frozen |= ~np.isfinite(rn)

    def restart_residual(self, what: str, *, gap: bool = True) -> None:
        """The explicit residual at a restart (insurance against drift):
        ``r`` (through ``M`` under left preconditioning), one fused norm
        reduction, ``converged``, ``frozen`` (a non-finite residual), the
        reported-vs-true gap check (not after a breakdown, which the last
        estimate predates), the history record."""
        if self.left_m is None:
            self.r = self.b2 - self.op_apply(self.x)
        else:
            self.r = np.asarray(self.left_m(
                self.b_in.astype(self.dtype) - self.a.matmat(self.x)))
        rn = column_norms(self.r)
        self.led.reduction(nbytes=self.p * 8)
        self.converged = rn <= self.targets
        self.frozen |= ~np.isfinite(rn)
        history = self.history
        safe = np.where(history.rhs_norms > 0, history.rhs_norms, 1.0)
        if gap and not self.chk.is_off:
            self.chk.check_residual_gap(history.records[-1] * safe, rn,
                                        history.rhs_norms, self.targets,
                                        what=what)
        history.records[-1] = rn / safe

    def cycle(self, arena: BasisArena, steps: int, *, span: dict,
              what: tuple[str, str], pair=None,
              block_reduction: bool = False) -> CycleState | None:
        """One restart cycle of the block engine, iterate updated: on
        ``(I - C_k C_k^H) A`` with Fig. 1 line 28's ``U_k y_k`` term when
        given ``pair = (U_k, C_k)``, a plain BGMRES cycle (k = 0) without.
        ``what`` labels the ``verify=full`` basis / Arnoldi checks.  Returns
        the cycle state; ``None`` stops the solve."""
        led, p = self.led, self.p
        u_k, c_k = pair if pair is not None else (None, None)
        chr_prev = ek = None
        if c_k is not None:
            chr_prev = _gram(c_k, self.r)    # C_k^H R_{j-1} (line 28, 1st term)
        ran = self.block_cycle(arena, steps, ck=c_k, span=span,
                               block_reduction=block_reduction)
        if ran is None:
            return None
        state, _ = ran
        with self.tr.span("least_squares"):
            y = state.hqr.solve()                    # (jp x p)
            z = state.z_stack(state.steps)
            kc = 0 if c_k is None else c_k.shape[1]
            if c_k is None:
                self.x += slab_matmul(z, y)
            else:
                ek = state.ek_matrix()               # (k x jp)
                led.reduction(nbytes=kc * p * 8)     # §III-D's reduction
                yk = chr_prev - ek @ y               # line 28
                self.x += slab_matmul(u_k, yk) + slab_matmul(z, y)
            led.flop(Kernel.BLAS3, 2.0 * self.n * (kc + z.shape[1]) * p)
        if self.chk.wants_full and not state.breakdown:
            # V orthonormal AND orthogonal to C_k (without a pair [C_k V] is V)
            self.chk.check_orthonormality(state.cv_stack(), what=what[0])
            self.chk.check_arnoldi(self.op_apply, z, state.v_stack(),
                                   state.hqr.hessenberg(), ck=c_k, ek=ek,
                                   what=what[1])
        return state

    def result(self, method: str, info: dict) -> SolveResult:
        """Pack the solve; ``info`` gains the variant and the verify report.
        ``method`` gains the ``f`` prefix (FGMRES, FGCRO-DR) when the Arnoldi
        loop applies a variable preconditioner."""
        if self.inner_m.is_variable:
            method = "f" + method
        info = {"variant": self.options.variant, **info}
        if not self.chk.is_off:
            info["verify"] = self.chk.report()
        return SolveResult(
            x=self.x[:, 0] if self.squeeze else self.x,
            converged=self.converged, iterations=self.total_it,
            history=self.history, method=method, restarts=self.cycles,
            breakdown=self.breakdown, info=info)
