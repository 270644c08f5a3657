"""(Pseudo-block, flexible) restarted GMRES.

``gmres`` fuses the ``p`` independent single-RHS GMRES recursions into block
kernels — the *pseudo-block* method of section V-B1 of the paper:

* one SpMM (``A @ V_j``) instead of ``p`` SpMVs,
* one preconditioner application on an ``n x p`` block,
* one global reduction for the batched Arnoldi dot products instead of
  ``p`` separate reductions per iteration (``m`` instead of ``m * p`` for a
  whole cycle, in the paper's accounting).

Each RHS keeps its own Hessenberg matrix and Givens (Householder-panel)
machinery; convergence is per column, and converged columns are frozen
while the remaining ones iterate.

Preconditioning sides follow HPDDM semantics:

* ``variant="left"``: run on ``z -> M(A z)`` and the preconditioned residual;
* ``variant="right"`` / ``"flexible"``: store ``Z_j = M(V_j)`` and update the
  iterate from ``Z`` (for a constant ``M`` this is algebraically right
  preconditioning; for a variable ``M`` it is FGMRES).
"""

from __future__ import annotations

import numpy as np

from ..la.blockqr import BlockHessenbergQR
from ..la.orthogonalization import pseudo_block_tensor
from ..plan.pseudoblock import make_pseudo_block_orthogonalizer
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import as_block, column_norms
from ..util.options import Options
from ..verify import checker_for
from .base import (ConvergenceHistory, IdentityPreconditioner, Operator,
                   Preconditioner, SolveResult, as_operator, as_preconditioner,
                   initial_state, residual_targets)

__all__ = ["gmres"]


def setup_preconditioning(a: Operator, m: Preconditioner | None, options: Options):
    """Normalize the preconditioning side into (op_apply, inner_m, left_m).

    Returns
    -------
    op_apply:
        the operator the Krylov method actually iterates with (A, or M∘A for
        left preconditioning).
    inner_m:
        the preconditioner applied inside the Arnoldi loop (identity for
        left preconditioning, M for right/flexible).
    left_m:
        M when left preconditioning is active (used to transform the RHS),
        else None.
    """
    prec = as_preconditioner(m)
    if prec.is_variable and options.variant != "flexible":
        raise ValueError(
            "variable (nonlinear) preconditioners require variant='flexible' "
            "(FGMRES / FGCRO-DR) — cf. paper section III-C")
    if isinstance(prec, IdentityPreconditioner):
        return a.matmat, prec, None
    if options.variant == "left":
        def op_apply(x: np.ndarray) -> np.ndarray:
            return prec(a.matmat(x))
        return op_apply, IdentityPreconditioner(), prec
    return a.matmat, prec, None


def _freeze_column(arrs: list[np.ndarray], col: int) -> None:
    for arr in arrs:
        arr[:, col] = 0.0


def gmres(a, b, m=None, *, options: Options | None = None,
          x0: np.ndarray | None = None) -> SolveResult:
    """Solve ``A X = B`` column-wise with fused (pseudo-block) GMRES(m).

    Parameters
    ----------
    a:
        operator (scipy sparse, dense array, or :class:`Operator`).
    b:
        right-hand side(s), shape ``(n,)`` or ``(n, p)``.
    m:
        preconditioner (None, callable, sparse matrix, or
        :class:`Preconditioner`).
    options:
        solver options; ``gmres_restart``, ``tol``, ``max_it``, ``variant``,
        and ``orthogonalization`` are honoured.
    x0:
        initial guess (zeros by default).
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

    history = ConvergenceHistory(rhs_norms=column_norms(b2))
    history.append(column_norms(r))

    restart = min(options.gmres_restart, n)
    identity_m = isinstance(inner_m, IdentityPreconditioner)
    led = ledger.current()
    tr = trace.current()
    chk = checker_for(options, context="gmres")

    total_it = 0
    cycles = 0
    converged = column_norms(r) <= targets
    # one basis tensor per solve; a restart re-zeroes only the blocks the
    # previous cycle wrote (frozen columns must read as zero)
    v = pseudo_block_tensor(restart + 1, n, p, dtype)
    z = v if identity_m else pseudo_block_tensor(restart, n, p, dtype)
    j = 0

    while not np.all(converged) and total_it < options.max_it:
        cycles += 1
        with tr.span("cycle", index=cycles - 1):
            # ---- start of a restart cycle -------------------------------
            v[1: j + 1] = 0.0
            beta = column_norms(r)
            led.reduction(nbytes=p * 8)
            active = ~converged & (beta > 0)
            v0 = np.zeros_like(r)
            nz = beta > 0
            v0[:, nz] = r[:, nz] / beta[nz]
            v[0] = v0
            hqrs = [BlockHessenbergQR(restart, 1, np.array([[beta[l]]]),
                                      dtype=dtype)
                    for l in range(p)]
            col_iters = np.zeros(p, dtype=int)  # Arnoldi columns per RHS
            orth = make_pseudo_block_orthogonalizer(
                options.orthogonalization, plan=options.plan, n=n, p=p,
                dtype=dtype, max_cols=restart + 1)
            orth.begin(v[:1])

            j = 0
            while j < restart and np.any(active) and total_it < options.max_it:
                with tr.span("arnoldi_step", j=j):
                    zj = v[j] if identity_m else \
                        np.asarray(inner_m(v[j])).astype(dtype, copy=False)
                    if not identity_m:
                        z[j] = zj
                    w = op_apply(zj)
                    # fused orthogonalization against each column's own
                    # basis: the whole bundle advances with the active
                    # scheme's reduction count (cgs 2, imgs 3, mgs j+2,
                    # cgs2_1r 2, sketched 1 per step)
                    with tr.span("ortho", scheme=options.orthogonalization):
                        w, dots, nrm = orth.step(v[: j + 1], w, j)
                    appended = np.zeros(p, dtype=bool)

                    new_res = np.zeros(p)
                    for l in range(p):
                        if not active[l]:
                            continue
                        scale = max(history.rhs_norms[l], 1.0)
                        if nrm[l] <= 1e-300 or not np.isfinite(nrm[l]):
                            # exact (lucky) breakdown for this column: the
                            # Krylov space is invariant; solve and freeze.
                            hcol = np.concatenate(
                                [dots[:, l], [0.0]]).reshape(-1, 1)
                            res = hqrs[l].add_column(hcol.astype(dtype))
                            col_iters[l] = j + 1
                            active[l] = False
                            new_res[l] = float(res[0])
                            continue
                        v[j + 1, :, l] = w[:, l] / nrm[l]
                        appended[l] = True
                        hcol = np.concatenate(
                            [dots[:, l], [nrm[l]]]).reshape(-1, 1)
                        res = hqrs[l].add_column(hcol.astype(dtype))
                        col_iters[l] = j + 1
                        new_res[l] = float(res[0])
                        if new_res[l] <= targets[l]:
                            active[l] = False
                    orth.commit(appended)
                # history: converged/frozen columns keep their last value
                prev = history.records[-1] * np.where(history.rhs_norms > 0,
                                                      history.rhs_norms, 1.0)
                rec = np.where(col_iters == j + 1, new_res, prev)
                history.append(rec)
                total_it += 1
                j += 1

            # ---- end of cycle: update the iterate -----------------------
            with tr.span("least_squares"):
                for l in range(p):
                    jc = col_iters[l]
                    if jc == 0:
                        continue
                    y = hqrs[l].solve()[:, 0]
                    zl = z[:jc, :, l]
                    x[:, l] += zl.T @ y
                    led.flop(Kernel.BLAS2, 2.0 * n * jc)
        if chk.wants_full:
            # per-column Arnoldi relation and basis orthonormality: each RHS
            # keeps its own recurrence, so each is checked independently
            for l in range(p):
                jc = col_iters[l]
                if jc == 0:
                    continue
                v_l = np.ascontiguousarray(v[: jc + 1, :, l].T)
                z_l = v_l[:, :jc] if identity_m else \
                    np.ascontiguousarray(z[:jc, :, l].T)
                chk.check_orthonormality(v_l, what=f"GMRES basis (column {l})")
                chk.check_arnoldi(op_apply, z_l, v_l,
                                  hqrs[l].hessenberg(),
                                  what=f"GMRES Arnoldi relation (column {l})")
        # explicit residual at restart (cheap insurance against drift)
        r = b2 - op_apply(x) if left_m is None else np.asarray(left_m(
            b_in.astype(dtype) - a.matmat(x)))
        rn = column_norms(r)
        led.reduction(nbytes=p * 8)
        converged = rn <= targets
        if not chk.is_off:
            safe = np.where(history.rhs_norms > 0, history.rhs_norms, 1.0)
            chk.check_residual_gap(history.records[-1] * safe, rn,
                                   history.rhs_norms, targets,
                                   what=f"GMRES restart {cycles}")
        history.records[-1] = rn / np.where(history.rhs_norms > 0,
                                            history.rhs_norms, 1.0)

    result_x = x[:, 0] if squeeze else x
    method = "fgmres" if options.variant == "flexible" else "gmres"
    info = {"variant": options.variant, "restart": restart}
    if not chk.is_off:
        info["verify"] = chk.report()
    return SolveResult(
        x=result_x, converged=converged, iterations=total_it,
        history=history, method=method, restarts=cycles,
        info=info,
    )
