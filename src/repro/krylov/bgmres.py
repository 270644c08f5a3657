"""True Block GMRES(m) — block Arnoldi over all RHS columns at once.

Unlike the pseudo-block method (which fuses ``p`` independent Krylov
recursions), Block GMRES searches the *sum* of the Krylov spaces of all
columns: every iteration enlarges the space by ``p`` directions shared by
all RHSs, which typically slashes iteration counts (paper Fig. 8:
BGMRES(50) needs 158 block iterations where 32 consecutive GMRES(50)
solves need 20,068) at the price of ``p x p``-denser small operations and
``p``-times-thicker basis blocks.

BGMRES is the k = 0 policy of the block GCRO-DR cycle
(:meth:`repro.krylov.restart.RestartedSolve.cycle`): no recycled pair, no
harvest, ``options.block_reduction`` as its one extra choice at a
rank-deficient restart (section V-C: drop the dependent directions instead
of completing the block).
"""

from __future__ import annotations

import numpy as np

from ..util.options import Options
from .base import SolveResult
from .basis import BasisArena
from .restart import RestartedSolve

__all__ = ["bgmres"]


def bgmres(a, b, m=None, *, options: Options | None = None,
           x0: np.ndarray | None = None) -> SolveResult:
    """Solve ``A X = B`` with Block GMRES(m) (BGMRES).

    Accepts the same arguments as :func:`repro.krylov.gmres.gmres`.  The
    residual block is always factored by the rank-revealing
    ``"cholqr_rr"``, which detects block breakdown at every restart.
    """
    options = options or Options()
    st = RestartedSolve(a, b, m, options, x0, context="bgmres")
    restart = min(options.gmres_restart, max(st.n // st.p, 1))
    arena = BasisArena(st.n, st.p, 0, restart, st.dtype,
                       identity_m=st.identity_m)
    while st.running:
        state = st.cycle(arena, restart, span={"kind": "bgmres"},
                         what=("block-Arnoldi basis",
                               "block-Arnoldi relation"),
                         block_reduction=options.block_reduction)
        if state is None:
            break
        st.restart_residual(f"BGMRES restart {st.cycles}",
                            gap=not state.breakdown)
    return st.result("bgmres", {"restart": restart, "block_size": st.p})
