"""Shared block-Arnoldi cycle used by Block GMRES and (Block) GCRO-DR.

One cycle performs up to ``max_steps`` block-Arnoldi iterations with the
(possibly preconditioned) operator, optionally projecting every candidate
block against a fixed orthonormal basis ``C_k`` first — that projection is
the ``(I - C_k C_k^H) A`` operator of the paper's Fig. 1 line 26, and its
coefficients accumulate into ``E_k = C_k^H A Z_{m-k}``.  Each step (Fig. 1
lines 25–27) is one ``step`` call of the scheme's engine
(:func:`repro.la.orthogonalization.make_arnoldi_engine`), whatever the
scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..la.blockqr import BlockHessenbergQR
from ..la.orthogonalization import (make_arnoldi_engine, project_out,
                                    qr_factorization)
from ..trace import tracer as trace
from ..util import ledger
from ..util.misc import default_rng
from .base import ConvergenceHistory
from .basis import BasisArena

__all__ = ["CycleState", "block_arnoldi_cycle", "complete_block"]


def complete_block(q: np.ndarray, rank: int, *, against: list[np.ndarray] | None = None,
                   rng_seed: int = 7) -> np.ndarray:
    """Fill the trailing ``p - rank`` (zero) columns of ``q`` with random
    directions orthonormalized against its leading columns and ``against``.

    Used when the initial residual block of a cycle is rank deficient (some
    RHS columns converged or became colinear): the deficient directions carry
    a zero row in ``S``, so they do not perturb the least-squares solution —
    they merely keep the block Arnoldi basis full width.
    """
    n, p = q.shape
    if rank >= p:
        return q
    rng = default_rng(rng_seed)
    fill = rng.standard_normal((n, p - rank))
    if np.iscomplexobj(q):
        fill = fill + 1j * rng.standard_normal((n, p - rank))
    fill = fill.astype(q.dtype)
    stack = [q[:, :rank]] + (against or [])
    width = sum(b.shape[1] for b in stack)
    if width:
        if width > rank:
            # extra blocks to project against: the pieces are individually
            # orthonormal but need not be mutually orthogonal, so stack and
            # re-orthonormalize before projecting
            basis, _ = np.linalg.qr(np.column_stack(stack))
        else:
            # only q's own leading columns — already orthonormal; skip the
            # redundant stack-and-re-QR
            basis = q[:, :rank]
        # two CGS passes leave the fill orthogonal to working precision
        fill, _ = project_out(basis, fill)
        fill, _ = project_out(basis, fill)
    qf, _, rk = qr_factorization(fill, "cholqr_rr")
    out = np.array(q, copy=True)
    out[:, rank:rank + rk] = qf[:, :rk]
    # in the (vanishingly unlikely) event the random fill was itself
    # deficient, leave the remaining columns zero: harmless for the LS solve.
    return out


@dataclass
class CycleState:
    """Everything a caller needs after one block-Arnoldi cycle.

    The basis lives in ``arena``; the ``*_stack`` accessors are zero-copy
    views, valid until the solve's next cycle re-binds it.  After a block
    breakdown the last block is the zero-padded rank-revealing factor, so
    ``V`` always has the ``(steps+1)p`` columns ``hqr`` assumes.
    """

    arena: BasisArena
    hqr: BlockHessenbergQR
    e_cols: list[np.ndarray] = field(default_factory=list)  # C^H A Z columns
    steps: int = 0
    breakdown: bool = False
    converged_early: bool = False

    def v_stack(self, count: int | None = None) -> np.ndarray:
        """``[V_0..V_{count-1}]`` (default: all ``steps+1`` blocks)."""
        return self.arena.v(count)

    def z_stack(self, count: int | None = None) -> np.ndarray:
        """``[Z_0..]``; aliases ``v_stack`` when ``M`` is the identity."""
        return self.arena.z(self.steps if count is None else count)

    def cv_stack(self) -> np.ndarray:
        """The augmented basis ``[C_k | V_0..V_steps]``."""
        return self.arena.basis()

    def ek_matrix(self) -> np.ndarray:
        """E_k = C_k^H A Z (k x jp)."""
        if not self.e_cols:
            return np.zeros((0, 0))
        return np.concatenate(self.e_cols, axis=1)


def block_arnoldi_cycle(op_apply, inner_m, v1: np.ndarray, s1: np.ndarray, *,
                        max_steps: int,
                        ck: np.ndarray | None = None,
                        ortho: str = "cgs",
                        deflation_tol: float = 1e-12,
                        targets: np.ndarray | None = None,
                        history: ConvergenceHistory | None = None,
                        identity_m: bool = False,
                        iteration_budget: int | None = None,
                        arena: BasisArena | None = None,
                        ) -> CycleState:
    """Run up to ``max_steps`` block-Arnoldi iterations.

    Parameters
    ----------
    op_apply:
        the (left-preconditioned if applicable) operator, block in/block out.
    inner_m:
        preconditioner applied inside the loop (identity for left/none).
    v1, s1:
        QR factors of the starting residual block (paper lines 11/24).
    ck:
        optional fixed orthonormal basis to project out (GCRO-DR's ``C_k``);
        projection coefficients are recorded as ``E_k`` columns.
    targets:
        absolute per-column residual targets; the cycle stops early once all
        columns are below target (checked via the Hessenberg-QR tail, which
        equals the true residual norm in exact arithmetic).
    history:
        optional convergence history to append per-iteration tail norms to.
    iteration_budget:
        remaining global iteration allowance (max_it enforcement).
    arena:
        the solve's :class:`BasisArena`, re-bound here (allocated per call
        when omitted); the returned state's basis views live in it.
    """
    dtype = v1.dtype
    n, p = v1.shape
    k = ck.shape[1] if ck is not None else 0
    if arena is None:
        arena = BasisArena(n, p, k, max_steps, dtype, identity_m=identity_m)
    led = ledger.current()
    tr = trace.current()

    # the engine's begin projects v1 against C_k when its stacked projector
    # needs a C_k-orthogonal seed
    engine = make_arnoldi_engine(ortho, tol=deflation_tol)
    v1 = engine.begin(v1, ck)

    steps = max_steps
    if iteration_budget is not None:
        steps = min(steps, max(iteration_budget, 0))

    arena.bind(v1, ck, max_steps=steps)
    hqr = BlockHessenbergQR(max_steps, p, np.asarray(s1, dtype=dtype), dtype=dtype)
    state = CycleState(arena=arena, hqr=hqr)

    vj = v1
    for j in range(steps):
        with tr.span("arnoldi_step", j=j):
            zj = vj if identity_m else \
                np.asarray(inner_m(vj)).astype(dtype, copy=False)
            if arena.zslab is not None:
                arena.zslab[:, j * p:(j + 1) * p] = zj
            w = op_apply(zj)
            with tr.span("ortho", scheme=ortho):
                arena.slot()[:] = w
                q, h, s, rank, e_col = engine.step(arena.stacked(), p, k=k)
                if k:
                    state.e_cols.append(e_col)
            h_col = np.concatenate([h, s], axis=0)
            res = hqr.add_column(h_col)
            state.steps = j + 1
        if history is not None:
            history.append(res)
        led.event("arnoldi_step")
        # commit V_{j+1} (zero-padded on a breakdown: V keeps H̄'s shape)
        vj = q
        arena.slot()[:] = q
        arena.advance()
        if rank < p:
            # block breakdown: terminate the cycle; the caller restarts from
            # the freshly computed residual (rank-revealing QR at restart
            # deflates for real, cf. paper section V-C).
            state.breakdown = True
            break
        if targets is not None and np.all(res <= targets):
            state.converged_early = True
            break
    return state
