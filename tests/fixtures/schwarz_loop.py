"""The per-subdomain Schwarz loop — oracle for the fused batch.

``SchwarzPreconditioner`` sends every subdomain solve of an apply through
one block-diagonal factor pair built at set-up.  This is the one-level sum
as eq. (6) writes it, one ``SparseLU.solve`` per subdomain, which left
``src/`` together with the switch that selected it; it is kept as the
reference the batch must reproduce in values (to rounding) and in
``CostLedger.counts()`` (exactly) — see ``tests/test_exec_modes.py``.
"""

from __future__ import annotations

import copy
import functools

import numpy as np

from repro.precond.schwarz import SchwarzPreconditioner


def loop_local_solves(m: SchwarzPreconditioner, x: np.ndarray,
                      dtype) -> np.ndarray:
    """``sum_i R_i^T (D_i) B_i^{-1} R_i x``, one subdomain at a time."""
    y = np.zeros((m.n, x.shape[1]), dtype=dtype)
    for dofs, d, lu in zip(m.subdomains, m.pou, m.solvers):
        local = lu.solve(x[dofs])
        if m.variant in ("ras", "oras"):
            local = local * d[:, None]
        y[dofs] += local
    return y


def looped(m: SchwarzPreconditioner) -> SchwarzPreconditioner:
    """A twin of ``m`` (same factors) whose ``apply`` runs the loop."""
    twin = copy.copy(m)
    twin._local_solves = functools.partial(loop_local_solves, twin)
    return twin
