"""Loose GMRES (Baker, Jessup & Manteuffel) — the PETSc baseline of Fig. 3c/d.

LGMRES(m, l) augments each restart cycle's Krylov space with the ``l`` most
recent *error approximations* ``z_i = x_{i} - x_{i-1}`` (the correction made
by cycle ``i``).  Unlike GCRO-DR the augmentation vectors are not deflated
eigendirections and carry no spectral information across *different*
operators, which is why the paper finds GCRO-DR converges in 96 fewer
iterations on the elasticity sequence (269 vs 173).

Single right-hand side only, mirroring the PETSc implementation
(``-ksp_type lgmres -ksp_lgmres_augment l``); flexible preconditioning is
likewise unsupported in PETSc ("unfortunately, the flexible variant of
LGMRES is not in PETSc"), so a variable preconditioner is refused.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..la.blockqr import BlockHessenbergQR
from ..util.ledger import Kernel
from ..util.misc import column_norms
from ..util.options import Options
from .base import SolveResult, as_preconditioner
from .restart import RestartedSolve

__all__ = ["lgmres"]


def lgmres(a, b, m=None, *, options: Options | None = None,
           x0: np.ndarray | None = None, augment: int | None = None) -> SolveResult:
    """Solve ``A x = b`` with LGMRES(m, l).

    ``augment`` (aka ``-ksp_lgmres_augment``) defaults to ``options.recycle``
    so LGMRES(30, 10) and GCRO-DR(30, 10) can be compared with identical
    option objects, as in the paper's elasticity experiment.
    """
    options = options or Options(krylov_method="lgmres")
    if as_preconditioner(m).is_variable:
        raise ValueError("LGMRES does not support a variable preconditioner "
                         "(matching PETSc's implementation)")
    if options.orthogonalization != "cgs":
        raise ValueError("LGMRES orthogonalizes with cgs only, got "
                         f"{options.orthogonalization!r}")
    l_aug = options.recycle if augment is None else int(augment)
    st = RestartedSolve(
        a, b, m, options, x0, context=None,
        single_rhs="LGMRES handles a single right-hand side "
                   "(PETSc parity); loop over columns for multiple RHSs")
    n, dtype, led = st.n, st.dtype, st.led
    m_total = min(options.gmres_restart, n)   # total space per cycle (Krylov + aug)
    # stored error approximations, most recent first
    corrections: deque[np.ndarray] = deque(maxlen=max(l_aug, 0))

    while st.running:
        st.cycles += 1
        r = st.r
        beta = float(column_norms(r)[0])
        led.reduction()
        if beta == 0.0:
            break
        v = np.zeros((m_total + 1, n), dtype=dtype)
        z = np.zeros((m_total, n), dtype=dtype)
        v[0] = r[:, 0] / beta
        hqr = BlockHessenbergQR(m_total, 1, np.array([[beta]]), dtype=dtype)
        n_aug = min(len(corrections), l_aug)
        n_kry = m_total - n_aug

        j = 0
        while j < m_total and st.budget > 0:
            # augmented directions are appended after the Krylov ones;
            # both go through the same generalized-Arnoldi machinery.
            if j < n_kry:
                c_dir = v[j]
            else:
                c_dir = corrections[j - n_kry][:, 0]
            zj = c_dir if st.identity_m else np.asarray(
                st.inner_m(c_dir.reshape(-1, 1))).astype(dtype, copy=False)[:, 0]
            z[j] = zj
            w = st.op_apply(zj.reshape(-1, 1))[:, 0]
            basis = v[: j + 1]
            dots = basis.conj() @ w
            led.reduction(nbytes=(j + 1) * w.itemsize)
            led.flop(Kernel.BLAS3, 4.0 * (j + 1) * n)
            w = w - basis.T @ dots
            nrm = float(np.linalg.norm(w))
            led.reduction()
            hcol = np.concatenate([dots, [nrm]]).reshape(-1, 1).astype(dtype)
            res = hqr.add_column(hcol)
            st.history.append(res)
            st.total_it += 1
            j += 1
            if nrm <= 1e-300:   # lucky breakdown: restart from the new residual
                break
            v[j] = w / nrm
            if float(res[0]) <= st.targets[0]:
                break

        if j == 0:
            break
        y = hqr.solve()[:, 0]
        dx = z[:j].T @ y
        led.flop(Kernel.BLAS2, 2.0 * n * j)
        st.x[:, 0] += dx
        # store the (normalized) error approximation for the next cycles
        ndx = float(np.linalg.norm(dx))
        led.reduction()
        if l_aug > 0 and ndx > 0:
            corrections.appendleft((dx / ndx).reshape(-1, 1))
        st.restart_residual("LGMRES restart")

    return st.result("lgmres", {"restart": m_total, "augment": l_aug})
