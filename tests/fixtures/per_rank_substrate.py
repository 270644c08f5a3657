"""The rank-by-rank execution of the simulated-MPI substrate — oracle for
``repro.distla`` / ``repro.simmpi``.

Every distributed primitive in ``src/`` runs as one global kernel plus the
ledger charge a run over its virtual grid would make.  This module is the
execution that charge stands for, as a real MPI run partitions the work:
one array per rank, local kernels on each rank's rows, a halo gather before
each local SpMM, and reductions as an all-reduce of per-rank partials,
charged event by event.  It left ``src/`` together with the switch that
selected it, and is kept as the reference the primitives must reproduce in
values (to rounding) and in ``CostLedger.counts()`` (exactly) — see
``tests/test_exec_modes.py``.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from repro.distla.distcsr import DistributedCSR
from repro.simmpi.grid import VirtualGrid
from repro.trace import tracer as trace
from repro.util import ledger
from repro.util.ledger import Kernel
from repro.util.misc import as_block


# -- collectives -------------------------------------------------------------
def allreduce_sum(grid: VirtualGrid, contributions: list[np.ndarray]
                  ) -> np.ndarray:
    """Sum the per-rank partials one rank at a time: one reduction."""
    if len(contributions) != grid.nranks:
        raise ValueError(f"expected {grid.nranks} contributions, "
                         f"got {len(contributions)}")
    with trace.current().detail_span("simmpi.allreduce_sum"):
        out = np.zeros_like(contributions[0])
        for c in contributions:
            out += c
        ledger.current().reduction(nbytes=out.nbytes)
    return out


def dot_columns(grid: VirtualGrid, x: np.ndarray, y: np.ndarray
                ) -> np.ndarray:
    """Per-rank column dots, then the all-reduce of the partials."""
    with trace.current().detail_span("simmpi.dot_columns"):
        parts = [np.einsum("ij,ij->j", x[grid.rows(r)].conj(), y[grid.rows(r)])
                 for r in range(grid.nranks)]
        return allreduce_sum(grid, parts)


def norm_columns(grid: VirtualGrid, x: np.ndarray) -> np.ndarray:
    """Per-rank squared column norms, all-reduced, then the root."""
    with trace.current().detail_span("simmpi.norm_columns"):
        parts = []
        for r in range(grid.nranks):
            xr = x[grid.rows(r)]
            parts.append(np.einsum("ij,ij->j", xr.conj(), xr).real)
        return np.sqrt(allreduce_sum(grid, parts))


# -- the SpMM: PETSc MatMPIAIJ storage, one rank at a time --------------------
def split_blocks(a: DistributedCSR
                 ) -> tuple[list[sp.csr_matrix], list[sp.csr_matrix | None]]:
    """Every rank's *diagonal* block (its rows restricted to its own
    columns) and *off-diagonal* block (its rows restricted to its ghost
    columns, compressed), or ``None`` for a rank without ghosts."""
    diag, off = [], []
    for r, plan in enumerate(a.plans):
        rows = a.grid.rows(r)
        local = a.global_matrix[rows]
        diag.append(sp.csr_matrix(local[:, rows]))
        off.append(sp.csr_matrix(local[:, plan.ghost_cols])
                   if plan.n_ghost else None)
    return diag, off


def matmat(a: DistributedCSR, x: np.ndarray, blocks=None) -> np.ndarray:
    """Halo exchange + local diag / off-diagonal products, rank by rank."""
    diag, off = blocks if blocks is not None else split_blocks(a)
    x = as_block(x)
    p = x.shape[1]
    led = ledger.current()
    y = np.empty((a.shape[0], p), dtype=np.promote_types(a.dtype, x.dtype))
    for r, plan in enumerate(a.plans):
        rows = a.grid.rows(r)
        plan.charge(x.itemsize, p)
        yr = diag[r] @ x[rows]
        if off[r] is not None:
            yr = yr + off[r] @ x[plan.ghost_cols]      # the received halo
        y[rows] = yr
    led.flop(Kernel.SPMV if p == 1 else Kernel.SPMM, 2.0 * a.nnz * p)
    led.event("operator_apply", p)
    return y


def per_rank(a: DistributedCSR) -> DistributedCSR:
    """A twin of ``a`` (same plans, same tag) whose ``matmat`` runs the
    rank loop on blocks split once."""
    twin = copy.copy(a)
    twin.matmat = functools.partial(matmat, twin, blocks=split_blocks(a))
    return twin


# -- block vectors: one array per rank ----------------------------------------
class PerRankBlockVector:
    """``DistributedBlockVector`` with one array per rank: every operation
    loops over the virtual ranks and routes reductions through the rank
    loop of :func:`allreduce_sum`."""

    def __init__(self, grid: VirtualGrid, locals_: list[np.ndarray]):
        self.grid = grid
        self.locals = [as_block(loc) for loc in locals_]
        self.p = self.locals[0].shape[1]

    @classmethod
    def from_global(cls, grid: VirtualGrid, x: np.ndarray
                    ) -> "PerRankBlockVector":
        x = as_block(x)
        return cls(grid, [x[grid.rows(r)].copy() for r in range(grid.nranks)])

    def to_global(self) -> np.ndarray:
        return np.concatenate(self.locals, axis=0)

    def _like(self, locals_: list[np.ndarray]) -> "PerRankBlockVector":
        return PerRankBlockVector(self.grid, locals_)

    def dot(self, other: "PerRankBlockVector") -> np.ndarray:
        return allreduce_sum(self.grid, [a.conj().T @ b for a, b in
                                         zip(self.locals, other.locals)])

    def col_dots(self, other: "PerRankBlockVector") -> np.ndarray:
        return allreduce_sum(self.grid, [np.einsum("ij,ij->j", a.conj(), b)
                                         for a, b in zip(self.locals,
                                                         other.locals)])

    def gram_against(self, basis_blocks: list["PerRankBlockVector"]
                     ) -> np.ndarray:
        parts = [np.concatenate([b.locals[r].conj().T @ self.locals[r]
                                 for b in basis_blocks], axis=0)
                 for r in range(self.grid.nranks)]
        return allreduce_sum(self.grid, parts)

    def norms(self) -> np.ndarray:
        return np.sqrt(allreduce_sum(
            self.grid, [np.einsum("ij,ij->j", a.conj(), a).real
                        for a in self.locals]))

    def axpy(self, alpha, other: "PerRankBlockVector") -> "PerRankBlockVector":
        return self._like([a + alpha * b
                           for a, b in zip(self.locals, other.locals)])

    def scale(self, alpha) -> "PerRankBlockVector":
        return self._like([alpha * a for a in self.locals])

    def combine(self, coeffs: np.ndarray) -> "PerRankBlockVector":
        return self._like([a @ np.asarray(coeffs) for a in self.locals])

    def copy(self) -> "PerRankBlockVector":
        return self._like([a.copy() for a in self.locals])

    def axpy_(self, alpha, other: "PerRankBlockVector"
              ) -> "PerRankBlockVector":
        for a, b in zip(self.locals, other.locals):
            a += alpha * b
        return self

    def scale_(self, alpha) -> "PerRankBlockVector":
        for a in self.locals:
            a *= alpha
        return self


# -- tall-skinny QR: per-rank locals, all-reduced Grams -----------------------
def distributed_cholqr(x: PerRankBlockVector
                       ) -> tuple[PerRankBlockVector, np.ndarray]:
    grid = x.grid
    gram = allreduce_sum(grid, [a.conj().T @ a for a in x.locals])
    r = np.linalg.cholesky(gram).conj().T       # redundant on every rank
    ledger.current().flop(Kernel.BLAS3, 2.0 * grid.n * x.p ** 2)
    return x._like([sla.solve_triangular(r.T, a.T, lower=True).T
                    for a in x.locals]), r


def distributed_cholqr2(x: PerRankBlockVector
                        ) -> tuple[PerRankBlockVector, np.ndarray]:
    grid, p = x.grid, x.p
    led = ledger.current()
    gram = allreduce_sum(grid, [a.conj().T @ a for a in x.locals])
    shift = 11.0 * (grid.n * p + p * (p + 1)) * np.finfo(np.float64).eps \
        * float(np.trace(gram).real)
    r1 = np.linalg.cholesky(
        gram + shift * np.eye(p, dtype=gram.dtype)).conj().T
    led.flop(Kernel.BLAS3, 2.0 * grid.n * p ** 2)
    q1 = [sla.solve_triangular(r1.T, a.T, lower=True).T for a in x.locals]
    g2 = allreduce_sum(grid, [a.conj().T @ a for a in q1])
    r2 = np.linalg.cholesky(g2).conj().T
    led.flop(Kernel.BLAS3, 2.0 * grid.n * p ** 2)
    return x._like([sla.solve_triangular(r2.T, a.T, lower=True).T
                    for a in q1]), r2 @ r1


def distributed_tsqr(x: PerRankBlockVector
                     ) -> tuple[PerRankBlockVector, np.ndarray]:
    """Local QRs, a binary tree over the R factors (tracked by rank index,
    as a real run addresses its partners), per-rank back-substitution."""
    p = x.p
    led = ledger.current()
    rs = []
    for a in x.locals:
        _, r = np.linalg.qr(a)
        led.flop(Kernel.QR, 4.0 * a.shape[0] * p ** 2)
        rs.append(r)
    level = list(range(len(rs)))
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            a_idx, b_idx = level[i], level[i + 1]
            _, rs[a_idx] = np.linalg.qr(np.vstack([rs[a_idx], rs[b_idx]]))
            led.flop(Kernel.QR, 8.0 * p ** 3)
            nxt.append(a_idx)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    led.reduction(nbytes=p * p * x.locals[0].itemsize)
    r_final = rs[level[0]]
    return x._like([sla.solve_triangular(r_final.conj().T, a.conj().T,
                                         lower=True).conj().T
                    for a in x.locals]), r_final


def distributed_cgs_qr(x: PerRankBlockVector
                       ) -> tuple[PerRankBlockVector, np.ndarray]:
    grid, p = x.grid, x.p
    work = [a.astype(np.promote_types(a.dtype, np.float64), copy=True)
            for a in x.locals]
    r = np.zeros((p, p), dtype=work[0].dtype)
    for j in range(p):
        if j > 0:
            coeffs = allreduce_sum(
                grid, [w[:, :j].conj().T @ w[:, j: j + 1] for w in work])
            for w in work:
                w[:, j: j + 1] -= w[:, :j] @ coeffs
            r[:j, j] = coeffs[:, 0]
        nrm2 = allreduce_sum(
            grid, [np.array([np.vdot(w[:, j], w[:, j]).real]) for w in work])
        nrm = float(np.sqrt(nrm2[0]))
        if nrm > 0:
            for w in work:
                w[:, j] /= nrm
        r[j, j] = nrm
    return x._like(work), r
