"""The SA-AMG apply and set-up kernels as first written — oracle for the
live-work V-cycle and the vectorized set-up.

``chebyshev_iteration`` and ``vcycle`` are the smoother and the V-cycle of
``repro.krylov.chebyshev`` / ``repro.precond.amg`` as they were while the
recurrence ran its full textbook loop (the ``r``/``d`` update after the last
``x`` update, i.e. one dead ``A d`` per call), re-inverted the diagonal on
every call and built a fresh ``n x p`` temporary per arithmetic step.
``greedy_aggregation`` and ``tentative_prolongator`` are the set-up kernels
of ``repro.precond.aggregation`` as they were while they indexed numpy
arrays node by node and called ``np.linalg.qr`` once per aggregate.

The production kernels perform the same floating-point operations in the
same order, so they are held to these **bitwise**
(``tests/test_precond.py``); the ``amg`` section of
``benchmarks/bench_micro_kernels.py`` times them against each other.
``vcycle`` / ``apply`` / ``build_levels`` work on the production
``SmoothedAggregationAMG`` object, reading only ``levels[*].{a, op, p,
restrict, diag, lam_max}``, ``smoother_iterations`` and ``_coarse_lu``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.krylov.base import as_operator
from repro.krylov.chebyshev import estimate_lambda_max
from repro.precond.aggregation import strength_graph
from repro.util import ledger
from repro.util.ledger import Kernel
from repro.util.misc import as_block


def chebyshev_iteration(a, diag, b, *, degree, lam_min, lam_max, x0=None):
    b = as_block(b)
    n, p = b.shape
    dinv = (1.0 / np.where(np.abs(diag) > 0, diag, 1.0)).astype(b.dtype)
    x = np.zeros_like(b) if x0 is None else as_block(x0).astype(b.dtype, copy=True)
    theta = 0.5 * (lam_max + lam_min)
    delta = 0.5 * (lam_max - lam_min)
    if delta <= 0:
        delta = 0.5 * theta if theta > 0 else 1.0
    sigma1 = theta / delta
    rho = 1.0 / sigma1
    r = dinv[:, None] * (b - a.matmat(x)) if x0 is not None else dinv[:, None] * b
    d = r / theta
    led = ledger.current()
    for _ in range(degree):
        x = x + d
        r = r - dinv[:, None] * a.matmat(d)
        led.flop(Kernel.BLAS1, 4.0 * n * p)
        rho_new = 1.0 / (2.0 * sigma1 - rho)
        d = rho_new * rho * d + (2.0 * rho_new / delta) * r
        rho = rho_new
    return x


def _smooth(amg, level, b, x):
    return chebyshev_iteration(
        level.op, level.diag, b, degree=amg.smoother_iterations,
        lam_min=level.lam_max / 10.0, lam_max=1.1 * level.lam_max, x0=x)


def vcycle(amg, lvl, b):
    """The Chebyshev V-cycle with an LU coarse solve, on ``amg``'s levels."""
    level = amg.levels[lvl]
    if lvl == len(amg.levels) - 1:
        return amg._coarse_lu.solve(b)
    x = _smooth(amg, level, b, None)
    r = b - level.a @ x
    ledger.current().flop(Kernel.SPMM, 2.0 * level.a.nnz * b.shape[1])
    rc = level.restrict @ r
    xc = vcycle(amg, lvl + 1, rc)
    x = x + level.p @ xc
    x = _smooth(amg, level, b, x)
    return x


def apply(amg, x):
    return vcycle(amg, 0, as_block(x).astype(amg.dtype, copy=False))


def greedy_aggregation(strength):
    n = strength.shape[0]
    indptr, indices = strength.indptr, strength.indices
    agg = np.full(n, -1, dtype=np.int64)
    next_id = 0
    # pass 1
    for i in range(n):
        if agg[i] != -1:
            continue
        neigh = indices[indptr[i]: indptr[i + 1]]
        if np.all(agg[neigh] == -1):
            agg[i] = next_id
            agg[neigh] = next_id
            next_id += 1
    # pass 2
    for i in range(n):
        if agg[i] != -1:
            continue
        neigh = indices[indptr[i]: indptr[i + 1]]
        assigned = agg[neigh]
        assigned = assigned[assigned >= 0]
        if assigned.size:
            vals, counts = np.unique(assigned, return_counts=True)
            agg[i] = vals[np.argmax(counts)]
    # pass 3
    for i in range(n):
        if agg[i] == -1:
            agg[i] = next_id
            next_id += 1
    return agg


def tentative_prolongator(agg, nullspace, *, block_size=1):
    nullspace = np.asarray(nullspace, dtype=nullspace.dtype)
    if nullspace.ndim == 1:
        nullspace = nullspace.reshape(-1, 1)
    n_rows, nvec = nullspace.shape
    n_nodes = agg.shape[0]
    if n_nodes * block_size != n_rows:
        raise ValueError(f"{n_nodes} nodes x block {block_size} != {n_rows} rows")
    n_agg = int(agg.max()) + 1
    rows_by_agg = [[] for _ in range(n_agg)]
    for node, a_id in enumerate(agg):
        base = node * block_size
        rows_by_agg[a_id].extend(range(base, base + block_size))

    data, rows, cols = [], [], []
    coarse_ns = np.zeros((n_agg * nvec, nvec), dtype=nullspace.dtype)
    for a_id, agg_rows in enumerate(rows_by_agg):
        agg_rows = np.asarray(agg_rows, dtype=np.int64)
        local = nullspace[agg_rows]                   # (rows, nvec)
        q, r = np.linalg.qr(local)
        keep = min(q.shape[1], nvec)
        for v in range(keep):
            col = a_id * nvec + v
            rows.extend(agg_rows.tolist())
            cols.extend([col] * len(agg_rows))
            data.extend(q[:, v].tolist())
        coarse_ns[a_id * nvec: a_id * nvec + keep, :] = r[:keep, :]
    t = sp.csr_matrix((data, (rows, cols)), shape=(n_rows, n_agg * nvec))
    return t, coarse_ns


def build_levels(a, *, nullspace=None, block_size=1, threshold=0.0,
                 square_graph=0, coarse_size=300, max_levels=10,
                 omega=4.0 / 3.0):
    """The coarsening loop of ``SmoothedAggregationAMG.__init__`` over the
    reference kernels; returns ``[(a, p, diag), ...]`` (``p`` is ``None``
    on the coarsest level)."""
    from repro.precond.amg import _condense_to_nodes
    a = sp.csr_matrix(a)
    dtype = np.promote_types(a.dtype, np.float64)
    current = a.astype(dtype)
    ns = np.ones((a.shape[0], 1)) if nullspace is None else nullspace
    ns = np.asarray(ns, dtype=dtype)
    if ns.ndim == 1:
        ns = ns.reshape(-1, 1)
    bs = block_size
    levels = []
    for lvl in range(max_levels):
        diag = np.asarray(current.diagonal())
        lam = estimate_lambda_max(as_operator(current), diag)
        levels.append([current, None, diag])
        if current.shape[0] <= coarse_size:
            break
        graph = strength_graph(_condense_to_nodes(current, bs),
                               threshold=threshold,
                               square=1 if lvl < square_graph else 0)
        agg = greedy_aggregation(graph)
        if (int(agg.max()) + 1) * ns.shape[1] >= current.shape[0]:
            break
        t, ns = tentative_prolongator(agg, ns, block_size=bs)
        dinv = 1.0 / np.where(np.abs(diag) > 0, diag, 1.0)
        p = sp.csr_matrix(
            t - sp.diags(omega / max(lam, 1e-12) * dinv) @ (current @ t))
        levels[-1][1] = p
        current = sp.csr_matrix(p.conj().T @ current @ p)
        bs = ns.shape[1]
    return [tuple(level) for level in levels]
