"""(Pseudo-block, flexible) restarted GMRES.

``gmres`` fuses the ``p`` independent single-RHS GMRES recursions into block
kernels — the *pseudo-block* method of section V-B1 of the paper:

* one SpMM (``A @ V_j``) instead of ``p`` SpMVs,
* one preconditioner application on an ``n x p`` block,
* one global reduction for the batched Arnoldi dot products instead of
  ``p`` separate reductions per iteration (``m`` instead of ``m * p`` for a
  whole cycle, in the paper's accounting).

Each RHS keeps its own Hessenberg matrix and Givens rotations; convergence
is per column, and converged columns are frozen while the remaining ones
iterate.  GMRES is the k = 0 policy of the pseudo-block GCRO-DR cycle
(:class:`repro.krylov.pgcrodr._PseudoBlockCycle` on the
:class:`~repro.krylov.restart.RestartedSolve` state): no column carries a
recycled pair and nothing is harvested.

Preconditioning sides follow HPDDM semantics:

* ``variant="left"``: run on ``z -> M(A z)`` and the preconditioned residual;
* ``variant="right"``: store ``Z_j = M(V_j)`` and update the
  iterate from ``Z`` (for a constant ``M`` this is algebraically right
  preconditioning; for a variable ``M`` it is FGMRES).
"""

from __future__ import annotations

import numpy as np

from ..util.options import Options
from .base import SolveResult
from .pgcrodr import _PseudoBlockCycle
from .restart import RestartedSolve

__all__ = ["gmres"]


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
    st = RestartedSolve(a, b, m, options, x0, context="gmres")
    restart = min(options.gmres_restart, st.n)
    cyc = _PseudoBlockCycle(st)
    while st.running:
        st.cycles += 1
        with st.tr.span("cycle", index=st.cycles - 1):
            cyc.seed(restart)
            cyc.arnoldi()
        cyc.update(("GMRES basis", "GMRES Arnoldi relation"))
        st.restart_residual(f"GMRES restart {st.cycles}")
    return st.result("gmres", {"restart": restart})
