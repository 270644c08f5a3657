"""True Block GMRES(m) — block Arnoldi over all RHS columns at once.

Unlike the pseudo-block method (which fuses ``p`` independent Krylov
recursions), Block GMRES searches the *sum* of the Krylov spaces of all
columns: every iteration enlarges the space by ``p`` directions shared by
all RHSs, which typically slashes iteration counts (paper Fig. 8:
BGMRES(50) needs 158 block iterations where 32 consecutive GMRES(50)
solves need 20,068) at the price of ``p x p``-denser small operations and
``p``-times-thicker basis blocks.

Rank-revealing CholQR is applied to the residual block at every restart to
detect breakdowns (near-colinear residuals), as the paper does in
section V-C; deficient directions are replaced by random orthonormal
completions so the block keeps full width (no block-size reduction, again
following the paper).
"""

from __future__ import annotations

import numpy as np

from ..la.orthogonalization import qr_factorization
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import as_block, column_norms
from ..util.options import Options
from ..verify import checker_for
from .base import (ConvergenceHistory, IdentityPreconditioner, SolveResult,
                   as_operator, initial_state, residual_targets)
from .basis import BasisArena
from .cycle import block_arnoldi_cycle, complete_block
from .gmres import setup_preconditioning

__all__ = ["bgmres"]


def bgmres(a, b, m=None, *, options: Options | None = None,
           x0: np.ndarray | None = None) -> SolveResult:
    """Solve ``A X = B`` with Block GMRES(m) (BGMRES).

    Accepts the same arguments as :func:`repro.krylov.gmres.gmres`; the
    ``qr`` option selects the distributed QR used on the residual block
    (CholQR by default; ``"cholqr_rr"`` is always used at restarts for
    breakdown detection).
    """
    options = options or Options()
    a = as_operator(a)
    op_apply, inner_m, left_m = setup_preconditioning(a, m, options)
    b_in = as_block(b)
    squeeze = np.asarray(b).ndim == 1

    x, b2, r = initial_state(a, b_in, x0)
    if left_m is not None:
        b2 = np.asarray(left_m(b2))
        r = np.asarray(left_m(r)) if x0 is not None else b2.copy()
    n, p = b2.shape
    dtype = x.dtype
    targets = residual_targets(b2, options.tol)
    identity_m = isinstance(inner_m, IdentityPreconditioner)

    history = ConvergenceHistory(rhs_norms=column_norms(b2))
    rn = column_norms(r)
    history.append(rn)
    converged = rn <= targets

    restart = min(options.gmres_restart, max(n // p, 1))
    arena = BasisArena(n, p, 0, restart, dtype, identity_m=identity_m)
    led = ledger.current()
    tr = trace.current()
    chk = checker_for(options, context="bgmres")
    total_it = 0
    cycles = 0
    breakdown_seen = False

    while not np.all(converged) and total_it < options.max_it:
        cycles += 1
        v1, s1, rank = qr_factorization(r, "cholqr_rr", tol=options.deflation_tol)
        if rank == 0:
            break  # residual numerically zero in every direction
        if rank < p:
            breakdown_seen = True
            if options.block_reduction:
                # block-size reduction: continue the cycle with only the
                # `rank` independent directions; the least-squares problem
                # still tracks every RHS column through the p-wide S1.
                v1 = np.ascontiguousarray(v1[:, :rank])
                s1 = s1[:rank, :]
                led.event("block_reduction")
            else:
                v1 = complete_block(v1, rank)
        with tr.span("cycle", index=cycles - 1, kind="bgmres"):
            state = block_arnoldi_cycle(
                op_apply, inner_m, v1, s1,
                max_steps=restart, ortho=options.orthogonalization,
                qr_scheme=options.qr, deflation_tol=options.deflation_tol,
                targets=targets, history=history, identity_m=identity_m,
                iteration_budget=options.max_it - total_it,
                plan=options.plan, arena=arena)
        total_it += state.steps
        breakdown_seen |= state.breakdown
        if state.steps == 0:
            break
        with tr.span("least_squares"):
            y = state.hqr.solve()
            z = state.z_stack(state.steps)
            x += z @ y
            led.flop(Kernel.BLAS3, 2.0 * n * z.shape[1] * p)
        if chk.wants_full and not state.breakdown:
            vst = state.v_stack()
            chk.check_orthonormality(vst, what="block-Arnoldi basis")
            chk.check_arnoldi(op_apply, z, vst, state.hqr.hessenberg(),
                              what="block-Arnoldi relation")
        # explicit residual at restart
        if left_m is None:
            r = b2 - op_apply(x)
        else:
            r = np.asarray(left_m(b_in.astype(dtype) - a.matmat(x)))
        rn = column_norms(r)
        led.reduction(nbytes=p * 8)
        converged = rn <= targets
        if not chk.is_off and not state.breakdown:
            safe = np.where(history.rhs_norms > 0, history.rhs_norms, 1.0)
            chk.check_residual_gap(history.records[-1] * safe, rn,
                                   history.rhs_norms, targets,
                                   what=f"BGMRES restart {cycles}")
        history.records[-1] = rn / np.where(history.rhs_norms > 0,
                                            history.rhs_norms, 1.0)

    result_x = x[:, 0] if squeeze else x
    method = "fbgmres" if options.variant == "flexible" else "bgmres"
    info = {"variant": options.variant, "restart": restart, "block_size": p}
    if not chk.is_off:
        info["verify"] = chk.report()
    return SolveResult(
        x=result_x, converged=converged, iterations=total_it,
        history=history, method=method, restarts=cycles,
        breakdown=breakdown_seen,
        info=info,
    )
