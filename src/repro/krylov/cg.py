"""(Pseudo-block) Preconditioned Conjugate Gradient.

Callable directly for SPD systems, and used — with a fixed, small
iteration count — as the *variable* smoother inside the multigrid
preconditioner of the paper's elasticity experiment (``-mg_levels_ksp_type
cg -mg_levels_ksp_max_it 4`` makes the multigrid cycles nonlinear, forcing
FGMRES/FGCRO-DR on the outside).

The ``p`` right-hand sides are fused: one SpMM per iteration and batched
column-wise inner products (two global reductions per iteration, as in any
textbook PCG).
"""

from __future__ import annotations

import numpy as np

from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import as_block, column_norms
from ..util.options import Options
from .base import (ConvergenceHistory, IdentityPreconditioner, SolveResult,
                   as_operator, as_preconditioner, initial_state,
                   residual_targets)

__all__ = ["cg"]


def _coldot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column-wise <x_j, y_j> in one fused reduction."""
    led = ledger.current()
    led.reduction(nbytes=x.shape[1] * x.itemsize)
    led.flop(Kernel.BLAS1, 4.0 * x.size)
    return np.einsum("ij,ij->j", x.conj(), y)


def cg(a, b, m=None, *, options: Options | None = None,
       x0: np.ndarray | None = None) -> SolveResult:
    """Solve the SPD system ``A X = B`` with fused pseudo-block PCG.

    Iterates every column until *all* columns satisfy the relative
    tolerance (converged columns are frozen).  ``options.max_it`` doubles
    as the fixed smoother length when ``options.tol`` is unreachable.
    """
    options = options or Options()
    a = as_operator(a)
    prec = as_preconditioner(m)
    identity_m = isinstance(prec, IdentityPreconditioner)
    b_in = as_block(b)
    squeeze = np.asarray(b).ndim == 1

    x, b2, r = initial_state(a, b_in, x0)
    n, p = b2.shape
    targets = residual_targets(b2, options.tol)
    led = ledger.current()

    history = ConvergenceHistory(rhs_norms=column_norms(b2))
    rn = column_norms(r)
    history.append(rn)
    converged = rn <= targets
    active = ~converged

    z = r if identity_m else np.asarray(prec(r))
    d = z.copy()
    rz = _coldot(r, z)

    it = 0
    while np.any(active) and it < options.max_it:
        ad = a.matmat(d)
        dad = _coldot(d, ad)
        # frozen/stalled columns: keep alpha at zero so they stop moving
        safe = np.abs(dad) > 0
        alpha = np.zeros(p, dtype=rz.dtype)
        alpha[safe & active] = rz[safe & active] / dad[safe & active]
        x += d * alpha
        r = r - ad * alpha
        rn = column_norms(r)
        led.reduction(nbytes=p * 8)
        history.append(rn)
        newly = active & (rn <= targets)
        converged |= newly
        active &= ~newly
        z = r if identity_m else np.asarray(prec(r))
        rz_new = _coldot(r, z)
        beta = np.zeros(p, dtype=rz.dtype)
        nz = np.abs(rz) > 0
        beta[nz & active] = rz_new[nz & active] / rz[nz & active]
        d = z + d * beta
        rz = rz_new
        it += 1

    result_x = x[:, 0] if squeeze else x
    return SolveResult(
        x=result_x, converged=converged, iterations=it,
        history=history, method="cg",
        info={"block_size": p},
    )
