"""The rank-by-rank execution of a row-partitioned run — oracle for the halo
charge of ``as_operator(a, nranks=P)`` and for the reductions of the ``la``
tall-skinny QR kernels.

A row-partitioned :class:`repro.krylov.base.Operator` runs its SpMM as one
global product plus a halo charge computed once from the sparsity pattern.
This module is the execution that charge stands for, as a real MPI run
partitions the work: each rank owns a contiguous block of rows, receives
the ghost entries its rows touch from their owners before its local
products, and charges that receive event by event.  ``tests/
test_exec_modes.py`` holds the operator to it in values (to rounding) and
in ``CostLedger.counts()`` (exactly).

The QRs run on per-rank row blocks, every reduction an all-reduce of the
per-rank partials.  The ``la`` kernels must charge the same reductions and
reduction bytes; their flop charges are their own, so these charge none.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from repro.krylov.base import Operator, as_operator
from repro.util import ledger
from repro.util.ledger import Kernel
from repro.util.misc import as_block


def partition(n: int, nranks: int) -> list[slice]:
    """Each rank's rows: the balanced contiguous split of ``n`` rows."""
    offsets = np.linspace(0, n, nranks + 1).astype(np.int64)
    return [slice(int(lo), int(hi)) for lo, hi in zip(offsets, offsets[1:])]


def allreduce_sum(parts: list[np.ndarray]) -> np.ndarray:
    """Sum the per-rank partials one rank at a time: one reduction."""
    out = np.zeros_like(parts[0])
    for c in parts:
        out += c
    ledger.current().reduction(nbytes=out.nbytes)
    return out


# -- the SpMM: PETSc MatMPIAIJ storage, one rank at a time --------------------
def split_blocks(a, nranks: int) -> list[tuple]:
    """Per rank: its rows, its ghost columns, the owner of each ghost, its
    *diagonal* block (its rows restricted to its own columns) and its
    *off-diagonal* block (restricted to the ghost columns, compressed), or
    ``None`` for a rank without ghosts."""
    a = sp.csr_matrix(a)
    parts = partition(a.shape[0], nranks)
    starts = np.array([r.start for r in parts])
    blocks = []
    for rows in parts:
        local = a[rows]
        cols = np.unique(local.indices)
        ghost = cols[(cols < rows.start) | (cols >= rows.stop)]
        owners = np.searchsorted(starts, ghost, side="right") - 1
        blocks.append((rows, ghost, owners, sp.csr_matrix(local[:, rows]),
                       sp.csr_matrix(local[:, ghost]) if ghost.size else None))
    return blocks


def matmat(a, nranks: int, x: np.ndarray, blocks=None) -> np.ndarray:
    """Halo exchange + local diag / off-diagonal products, rank by rank."""
    a = sp.csr_matrix(a)
    blocks = blocks if blocks is not None else split_blocks(a, nranks)
    x = as_block(x)
    p = x.shape[1]
    led = ledger.current()
    y = np.empty((a.shape[0], p), dtype=np.promote_types(a.dtype, x.dtype))
    for rows, ghost, owners, diag, off in blocks:
        if ghost.size:                       # one message per neighbour
            led.p2p(messages=np.unique(owners).size,
                    nbytes=ghost.size * x.itemsize * p)
        yr = diag @ x[rows]
        if off is not None:
            yr = yr + off @ x[ghost]          # the received halo
        y[rows] = yr
    led.flop(Kernel.SPMV if p == 1 else Kernel.SPMM, 2.0 * a.nnz * p)
    led.event("operator_apply", p)
    return y


def per_rank(a, nranks: int) -> Operator:
    """A twin of ``as_operator(a, nranks=nranks)`` (same shape, tag and
    diagonal) whose ``matmat`` runs the rank loop on blocks split once."""
    twin = copy.copy(as_operator(a))
    twin.matmat = functools.partial(matmat, a, nranks,
                                    blocks=split_blocks(a, nranks))
    return twin


# -- tall-skinny QR: per-rank row blocks, all-reduced Grams -------------------
def _whiten(parts: list[np.ndarray], r: np.ndarray) -> list[np.ndarray]:
    return [sla.solve_triangular(r.T, a.T, lower=True).T for a in parts]


def cholqr(x: np.ndarray, nranks: int) -> tuple[np.ndarray, np.ndarray]:
    parts = [x[rows] for rows in partition(len(x), nranks)]
    gram = allreduce_sum([a.conj().T @ a for a in parts])
    r = np.linalg.cholesky(gram).conj().T       # redundant on every rank
    return np.vstack(_whiten(parts, r)), r


def cholqr2(x: np.ndarray, nranks: int) -> tuple[np.ndarray, np.ndarray]:
    parts = [x[rows] for rows in partition(len(x), nranks)]
    p = x.shape[1]
    gram = allreduce_sum([a.conj().T @ a for a in parts])
    shift = 11.0 * (len(x) * p + p * (p + 1)) * np.finfo(np.float64).eps \
        * float(np.trace(gram).real)
    r1 = np.linalg.cholesky(
        gram + shift * np.eye(p, dtype=gram.dtype)).conj().T
    q1 = _whiten(parts, r1)
    r2 = np.linalg.cholesky(
        allreduce_sum([a.conj().T @ a for a in q1])).conj().T
    return np.vstack(_whiten(q1, r2)), r2 @ r1


def tsqr(x: np.ndarray, nranks: int) -> tuple[np.ndarray, np.ndarray]:
    """Local QRs, then a binary tree over the R factors (tracked by rank
    index, as a real run addresses its partners): one reduction."""
    parts = [x[rows] for rows in partition(len(x), nranks)]
    p = x.shape[1]
    rs = [np.linalg.qr(a, mode="r") for a in parts]
    level = list(range(len(rs)))
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            top, bottom = level[i], level[i + 1]
            rs[top] = np.linalg.qr(np.vstack([rs[top], rs[bottom]]),
                                   mode="r")
            nxt.append(top)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    ledger.current().reduction(nbytes=p * p * x.itemsize)
    r = rs[level[0]]
    return np.vstack([sla.solve_triangular(r.conj().T, a.conj().T,
                                           lower=True).conj().T
                      for a in parts]), r


def cgs(x: np.ndarray, nranks: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical Gram-Schmidt, one column at a time: ``2p - 1`` reductions."""
    work = [x[rows].astype(np.promote_types(x.dtype, np.float64), copy=True)
            for rows in partition(len(x), nranks)]
    p = x.shape[1]
    r = np.zeros((p, p), dtype=work[0].dtype)
    for j in range(p):
        if j > 0:
            coeffs = allreduce_sum(
                [w[:, :j].conj().T @ w[:, j: j + 1] for w in work])
            for w in work:
                w[:, j: j + 1] -= w[:, :j] @ coeffs
            r[:j, j] = coeffs[:, 0]
        nrm2 = allreduce_sum(
            [np.array([np.vdot(w[:, j], w[:, j]).real]) for w in work])
        nrm = float(np.sqrt(nrm2[0]))
        if nrm > 0:
            for w in work:
                w[:, j] /= nrm
        r[j, j] = nrm
    return np.vstack(work), r
