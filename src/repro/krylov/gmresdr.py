"""GMRES-DR (Morgan 2002) — GMRES with deflated restarting.

The related-work baseline of section II: PETSc's Deflated GMRES keeps the
``k`` harmonic Ritz vectors of each cycle *inside* the restart space, so a
single solve converges like unrestarted GMRES on the deflated spectrum —
but, as the paper stresses, "as implemented, these methods cannot be used
to recycle Krylov subspace from one linear system solve to the next" (and
cannot handle variable preconditioning).  That is precisely GCRO-DR's
advantage; Parks et al. prove the two are algebraically equivalent on a
single system.

So GMRES-DR *is* single-system GCRO-DR here: no space comes in, every
restart re-harvests the harmonic Ritz vectors (``same_system=False``,
Morgan's deflated restart, whatever ``recycle_same_system`` says), and the
space built is not handed out.  Single right-hand side, fixed
(right/left/none) preconditioning.
"""

from __future__ import annotations

import numpy as np

from ..util.misc import as_block
from ..util.options import Options
from .base import SolveResult, as_preconditioner
from .gcrodr import gcrodr

__all__ = ["gmresdr"]


def gmresdr(a, b, m=None, *, options: Options | None = None,
            x0: np.ndarray | None = None) -> SolveResult:
    """Solve ``A x = b`` with GMRES-DR(m, k).

    ``options.recycle`` plays the role of ``k`` (the number of harmonic
    Ritz vectors retained through every restart).
    """
    options = options or Options(krylov_method="gcrodr", recycle=10)
    if not 0 < options.recycle < options.gmres_restart:
        raise ValueError("GMRES-DR requires 0 < k < m")
    if as_preconditioner(m).is_variable:
        raise ValueError("GMRES-DR cannot handle a variable preconditioner "
                         "(paper section II-C) — use FGCRO-DR")
    if as_block(b).shape[1] != 1:
        raise ValueError("GMRES-DR handles a single right-hand side")
    res = gcrodr(a, b, m, options=options, x0=x0, recycle=None,
                 same_system=False)
    res.method = "gmresdr"
    del res.info["recycle"]
    return res
