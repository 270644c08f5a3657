"""Smoothed-aggregation algebraic multigrid — the GAMG stand-in.

Implements the pieces the paper's experiments exercise:

* strength threshold (``-pc_gamg_threshold``) and graph squaring
  (``-pc_gamg_square_graph``) controlling setup cost vs robustness
  (Fig. 2a/b vs 2c/d);
* near-nullspace vectors — the six rigid-body modes for elasticity
  (``MatNullSpaceCreateRigidBody`` in the paper's ex56 run);
* pluggable smoothers: Chebyshev (PETSc's default — keeps the cycle
  linear), or a fixed number of GMRES / CG iterations
  (``-mg_levels_ksp_type gmres/cg``) which makes the preconditioner
  *variable*: the outer method must run right-preconditioned, which stores
  ``Z = M(V)`` (FGMRES / FGCRO-DR, section III-C).

The V-cycle is standard SA: smoothed prolongation
``P = (I - omega D^{-1} A) T`` and Galerkin coarse operators, with a
sparse-LU coarse solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..direct.solver import SparseLU
from ..krylov.base import Operator, Preconditioner, as_operator
from ..krylov.cg import cg as cg_solve
from ..krylov.chebyshev import (chebyshev_smooth, estimate_lambda_max,
                                safe_reciprocal)
from ..krylov.gmres import gmres as gmres_solve
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import CostLedger, Kernel
from ..util.misc import as_block
from ..util.options import Options
from .aggregation import greedy_aggregation, strength_graph, tentative_prolongator

__all__ = ["SmoothedAggregationAMG", "AMGLevel"]


@dataclass
class AMGLevel:
    """One level of the hierarchy; ``op``, ``dinv`` and ``restrict`` are built
    at set-up: an apply re-wraps, re-inverts and re-conjugates nothing."""

    a: sp.csr_matrix
    op: Operator                     # ``a`` as the smoothers take it
    p: sp.csr_matrix | None          # prolongator to THIS level from coarser
    diag: np.ndarray
    lam_max: float
    dinv: np.ndarray                 # ``1 / diag``, zeros treated as one
    restrict: sp.csc_matrix | None = None    # ``p^H`` (None on the coarsest)
    _work: np.ndarray | None = None  # smoother scratch, see ``workspace``

    def workspace(self, p: int, dtype) -> np.ndarray:
        """Smoother scratch ``(r, d, dinv)``: three ``n x p`` blocks, ``dinv``
        spread over the columns so that every ufunc of the recurrence runs
        one contiguous loop.  Kept for the last ``(p, dtype)`` only."""
        w = self._work
        if w is None or w.shape[2] != p or w.dtype != dtype:
            w = self._work = np.empty((3, self.a.shape[0], p), dtype=dtype)
            w[2] = self.dinv[:, None]
        return w


def _condense_to_nodes(a: sp.csr_matrix, block_size: int) -> sp.csr_matrix:
    """Sum |entries| of each bs x bs block to get the node-graph matrix."""
    if block_size == 1:
        return a
    n_nodes = a.shape[0] // block_size
    coo = a.tocoo()
    rows = coo.row // block_size
    cols = coo.col // block_size
    return sp.csr_matrix((np.abs(coo.data), (rows, cols)),
                         shape=(n_nodes, n_nodes))


class SmoothedAggregationAMG(Preconditioner):
    """SA-AMG V-cycle preconditioner.

    Parameters
    ----------
    a:
        system matrix (CSR).
    threshold:
        strength-of-connection drop tolerance (``-pc_gamg_threshold``).
    square_graph:
        number of levels on which to square the strength graph
        (``-pc_gamg_square_graph``).
    nullspace:
        near-nullspace block (n x nvec); defaults to the constant vector.
    block_size:
        DOFs per mesh node (3 for 3-D elasticity) — aggregation is per node.
    smoother:
        ``"chebyshev"`` (linear), ``"gmres"`` or ``"cg"`` (variable!),
        or ``"jacobi"``.
    smoother_iterations:
        sweeps per pre/post smoothing application
        (``-mg_levels_ksp_max_it``).
    coarse_size:
        stop coarsening below this many unknowns; solve directly.
    max_levels:
        hierarchy depth cap.
    coarse_solver:
        ``"lu"`` (exact, default) or ``"cg"`` — a fixed number of CG sweeps
        (``coarse_iterations``) on the coarsest level.  An inexact coarse
        solve leaves a low-dimensional error subspace exactly like the
        approximately-solved coarse problems of extreme-scale multigrid;
        it also makes the preconditioner *variable*.
    """

    def __init__(self, a: sp.spmatrix, *, threshold: float = 0.0,
                 square_graph: int = 0,
                 nullspace: np.ndarray | None = None,
                 block_size: int = 1,
                 smoother: str = "chebyshev",
                 smoother_iterations: int = 2,
                 coarse_size: int = 300,
                 max_levels: int = 10,
                 omega: float = 4.0 / 3.0,
                 coarse_solver: str = "lu",
                 coarse_iterations: int = 10):
        a = sp.csr_matrix(a)
        self.dtype = np.promote_types(a.dtype, np.float64)
        a = a.astype(self.dtype)
        if smoother not in ("chebyshev", "jacobi", "gmres", "cg"):
            raise ValueError(f"unknown smoother {smoother!r}")
        if coarse_solver not in ("lu", "cg"):
            raise ValueError(f"unknown coarse_solver {coarse_solver!r}")
        self.smoother = smoother
        self.smoother_iterations = int(smoother_iterations)
        self.coarse_solver = coarse_solver
        self.coarse_iterations = int(coarse_iterations)
        #: Krylov smoothers / inexact coarse solves are nonlinear:
        #: the preconditioner is variable
        self.is_variable = smoother in ("gmres", "cg") or coarse_solver == "cg"
        self.levels: list[AMGLevel] = []
        # private setup ledger, replayed onto the ambient one: totals are
        # unchanged, and ``setup_cost`` records what a setup cache amortizes
        led = CostLedger()

        # the span sits on the *ambient* ledger and encloses the merge, so
        # its window records the full setup cost; the inner SparseLU span
        # opens against the private ledger and is skipped by ``exclusive``
        with trace.current().span("setup.amg", threshold=threshold,
                                  smoother=smoother):
            with ledger.install(led), led.timer("amg_setup"):
                ns = np.ones(a.shape[0]) if nullspace is None else nullspace
                ns = as_block(np.asarray(ns, dtype=self.dtype))
                bs = block_size
                current = a
                for lvl in range(max_levels):
                    diag = np.asarray(current.diagonal())
                    op = as_operator(current)
                    lam = estimate_lambda_max(op, diag)
                    self.levels.append(AMGLevel(
                        a=current, op=op, p=None, diag=diag, lam_max=lam,
                        dinv=safe_reciprocal(diag)))
                    if current.shape[0] <= coarse_size:
                        break
                    node_mat = _condense_to_nodes(current, bs)
                    sq = 1 if lvl < square_graph else 0
                    graph = strength_graph(node_mat, threshold=threshold,
                                           square=sq)
                    agg = greedy_aggregation(graph)
                    n_agg = int(agg.max()) + 1
                    if n_agg * ns.shape[1] >= current.shape[0]:
                        break  # coarsening stalled
                    t, coarse_ns = tentative_prolongator(agg, ns, block_size=bs)
                    # smoothed prolongator: P = (I - omega D^{-1} A) T
                    p = t - sp.diags(omega / max(lam, 1e-12)
                                     * self.levels[-1].dinv) @ (current @ t)
                    p = sp.csr_matrix(p)
                    coarse = sp.csr_matrix(p.conj().T @ current @ p)
                    led.flop(Kernel.SPMM, 4.0 * current.nnz * t.shape[1])
                    self.levels[-1].p = p
                    self.levels[-1].restrict = p.conj().T
                    current = coarse
                    ns = coarse_ns
                    bs = ns.shape[1]   # coarse DOFs per aggregate = nvec
                # coarse solver
                self._coarse_lu = (SparseLU(self.levels[-1].a)
                                   if coarse_solver == "lu" else None)
            self.setup_cost = led
            ledger.current().merge(led)

    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def operator_complexity(self) -> float:
        """sum(nnz over levels) / nnz(fine) — the standard AMG metric."""
        fine = self.levels[0].a.nnz
        return sum(l.a.nnz for l in self.levels) / max(fine, 1)

    # ------------------------------------------------------------------
    def _smooth(self, level: AMGLevel, b: np.ndarray, x: np.ndarray | None
                ) -> np.ndarray:
        """One pre/post smoothing application on a level; ``x`` (``None``:
        zero start) is the V-cycle's own and may be smoothed in place."""
        its = self.smoother_iterations
        if self.smoother == "chebyshev":
            r, d, dinv = level.workspace(b.shape[1], b.dtype)
            return chebyshev_smooth(
                level.op, dinv, b, x, r, d, degree=its,
                lam_min=level.lam_max / 10.0, lam_max=1.1 * level.lam_max)
        if self.smoother == "jacobi":
            dinv = 0.7 * level.dinv[:, None]
            xk = np.zeros_like(b) if x is None else x
            for _ in range(its):
                xk = xk + dinv * (b - level.a @ xk)
            ledger.current().flop(Kernel.SPMM,
                                  2.0 * level.a.nnz * b.shape[1] * its)
            return xk
        # Krylov smoothers (variable preconditioning!)
        opts = Options(tol=1e-25, max_it=its, gmres_restart=max(its, 1))
        fn = cg_solve if self.smoother == "cg" else gmres_solve
        res = fn(level.a, b, options=opts, x0=x)
        return as_block(res.x)

    def _vcycle(self, lvl: int, b: np.ndarray) -> np.ndarray:
        """One V-cycle from ``lvl`` down; the caller owns the result.  Every
        sparse product is charged ``2 nnz p`` as SPMM: the smoother's through
        ``level.op``, the residual and the two grid transfers here."""
        level = self.levels[lvl]
        if lvl == len(self.levels) - 1:
            if self._coarse_lu is not None:
                return self._coarse_lu.solve(b)
            res = cg_solve(level.a, b, options=Options(
                tol=1e-12, max_it=self.coarse_iterations))
            return as_block(res.x)
        x = self._smooth(level, b, None)
        r = level.a @ x
        np.subtract(b, r, out=r)
        xc = self._vcycle(lvl + 1, level.restrict @ r)
        px = level.p @ xc
        ledger.current().flop(Kernel.SPMM, 2.0 * b.shape[1]
                              * (level.a.nnz + 2 * level.p.nnz))
        # into the product's own block (a Krylov smoother's x is not ours)
        return self._smooth(level, b, np.add(x, px, out=px))

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = as_block(x)
        x = x.astype(np.result_type(self.dtype, x.dtype), copy=False)
        ledger.current().event("amg_vcycle", x.shape[1])
        return self._vcycle(0, x)

    def __repr__(self) -> str:
        sizes = " -> ".join(str(l.a.shape[0]) for l in self.levels)
        return (f"SmoothedAggregationAMG(levels={self.n_levels} [{sizes}], "
                f"smoother={self.smoother!r}, "
                f"complexity={self.operator_complexity:.2f})")
