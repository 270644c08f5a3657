"""Foundation of the Krylov layer: operators, preconditioners, results.

Design notes
------------
Every solver works on ``n x p`` *blocks* of vectors so that single-RHS,
pseudo-block (fused) and true block methods share one code path.  The two
kernels that touch distributed data are:

* ``Operator.matmat`` — sparse matrix x dense block (SpMM), whose MPI
  pattern is the halo exchange of SpMV with ``p``-times-larger buffers
  (paper section V-B2), charged when the operator is row-partitioned
  (``as_operator(a, nranks=P)``);
* inner products, which are global reductions, accounted by the
  orthogonalization kernels.

Preconditioning sides are normalized here once and for all:

* ``left``  — the solver runs on ``z -> M(A z)`` and the *preconditioned*
  residual; mirrors PETSc's left preconditioning.
* ``right`` — implemented via the flexible machinery (store ``Z = M(V)``):
  for a constant preconditioner it is algebraically right preconditioning,
  for a variable one it is FGMRES / FGCRO-DR (cf. the paper's closing note:
  FGCRO-DR "leads to less operations at a cost of additional storage").
  The method label gains its ``f`` prefix when ``M`` is variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

from ..util import ledger
from ..util.ledger import CostTable, Kernel
from ..util.misc import as_block, column_norms, identity_tag, result_dtype

__all__ = [
    "Operator",
    "as_operator",
    "operator_tag",
    "Preconditioner",
    "IdentityPreconditioner",
    "FunctionPreconditioner",
    "as_preconditioner",
    "setup_preconditioning",
    "ConvergenceHistory",
    "SolveResult",
    "eps_all_below",
    "true_residual_norms",
]


class Operator:
    """Minimal linear-operator protocol: ``shape``, ``dtype``, ``matmat``.

    ``halo`` is the point-to-point traffic of one apply on a row-partitioned
    run (a :class:`~repro.util.ledger.CostTable` of messages and ghost
    entries per column, see :func:`as_operator`); ``None`` charges none.
    """

    def __init__(self, shape: tuple[int, int], dtype, matmat: Callable[[np.ndarray], np.ndarray],
                 *, nnz: int | None = None, tag: Any = None,
                 diag: np.ndarray | None = None,
                 halo: CostTable | None = None):
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self._matmat = matmat
        self.nnz = nnz
        self._diag = diag
        self.halo = halo
        # identity tag used for same-system detection in sequences;
        # monotonic (never reused after GC), unlike a bare id()
        self.tag = tag if tag is not None else identity_tag(matmat)

    def diagonal(self) -> np.ndarray:
        """Operator diagonal (needed by Jacobi/Chebyshev smoothers)."""
        if self._diag is None:
            raise ValueError("operator diagonal unavailable; wrap an explicit "
                             "matrix or pass diag= to Operator")
        return self._diag

    def matmat(self, x: np.ndarray) -> np.ndarray:
        x = as_block(x)
        led = ledger.current()
        if self.nnz is not None:
            kern = Kernel.SPMV if x.shape[1] == 1 else Kernel.SPMM
            led.flop(kern, 2.0 * self.nnz * x.shape[1])
        if self.halo is not None:
            self.halo.charge(led, itemsize=x.itemsize, p=x.shape[1])
        led.event("operator_apply", x.shape[1])
        y = self._matmat(x)
        return as_block(np.asarray(y))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matmat(x)


def _sparse_halo(a: sp.csr_matrix, nranks: int) -> CostTable:
    """Halo of one SpMM of ``a`` row-partitioned by the balanced contiguous
    split ``np.linspace(0, n, nranks + 1)``: every rank receives each
    distinct off-rank column its rows touch, one message per owning
    neighbour (PETSc ``MatMPIAIJ``)."""
    n = a.shape[0]
    offsets = np.linspace(0, n, nranks + 1).astype(np.int64)
    owner = np.repeat(np.arange(nranks), np.diff(offsets))
    rank = np.repeat(owner, np.diff(a.indptr))
    cols = a.indices.astype(np.int64)
    ghost = rank != owner[cols]
    rank, cols = rank[ghost], cols[ghost]
    return CostTable(p2p_messages=np.unique(rank * nranks + owner[cols]).size,
                     p2p_items=np.unique(rank * n + cols).size)


def as_operator(a: Any, *, nranks: int = 1) -> Operator:
    """Wrap a scipy sparse matrix or ndarray; an :class:`Operator` passes
    through.

    ``nranks > 1`` row-partitions a sparse or dense matrix over that many
    virtual ranks (balanced contiguous split): every apply then also
    charges the halo exchange a distributed SpMM pays — message count
    independent of the block width, bytes ``p`` times larger (paper
    section V-B2).
    """
    if nranks != 1:
        if not (sp.issparse(a) or isinstance(a, np.ndarray)) \
                or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("only a square sparse or dense matrix can be "
                             "row-partitioned")
        if not 1 <= nranks <= a.shape[0]:
            raise ValueError(f"nranks must be in [1, {a.shape[0]}], "
                             f"got {nranks}")
    if isinstance(a, Operator):
        return a
    if sp.issparse(a):
        # tag the caller's object, not the (possibly fresh) tocsr() result,
        # so repeated solves with the same matrix are detected as unchanged
        tag = identity_tag(a)
        a = a.tocsr()
        halo = _sparse_halo(a, nranks) if nranks != 1 else None
        return Operator(a.shape, a.dtype, lambda x, _a=a: _a @ x, nnz=a.nnz,
                        tag=tag, diag=np.asarray(a.diagonal()), halo=halo)
    if isinstance(a, np.ndarray):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense operator must be a square 2-D array")
        # every rank receives every row it does not own, from each peer
        halo = CostTable(p2p_messages=nranks * (nranks - 1),
                         p2p_items=(nranks - 1) * len(a)) \
            if nranks != 1 else None
        return Operator(a.shape, a.dtype, lambda x, _a=a: _a @ x,
                        nnz=a.shape[0] * a.shape[1], tag=identity_tag(a),
                        diag=np.diagonal(a).copy(), halo=halo)
    if callable(a):
        raise ValueError("bare callables need an explicit Operator(shape, dtype, fn) wrapper")
    raise TypeError(f"cannot interpret {type(a).__name__} as a linear operator")


def operator_tag(a: Any) -> Any:
    """The identity tag ``as_operator(a)`` carries, without wrapping ``a``."""
    return a.tag if isinstance(a, Operator) else identity_tag(a)


class Preconditioner:
    """Preconditioner protocol: ``apply(X) -> M^{-1} X`` on n x p blocks.

    ``is_variable`` declares a nonlinear/nondeterministic preconditioner
    (e.g. a Krylov smoother inside multigrid, section III-C of the paper);
    solvers reject ``variant='left'`` for variable preconditioners, because
    the left preconditioned recurrence is invalid when ``M`` changes between
    applications; ``right`` stores ``Z = M(V)`` and stays valid.
    """

    is_variable: bool = False

    def apply(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        ledger.current().event("precond_apply", as_block(x).shape[1])
        return self.apply(x)


class IdentityPreconditioner(Preconditioner):
    """No-op preconditioner (returns its input, no copy)."""

    def apply(self, x: np.ndarray) -> np.ndarray:
        return as_block(x)

    def __call__(self, x: np.ndarray) -> np.ndarray:  # skip event logging
        return as_block(x)


class FunctionPreconditioner(Preconditioner):
    """Adapter for plain callables (the paper's PETSc-callback use case)."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], *, is_variable: bool = False):
        self._fn = fn
        self.is_variable = bool(is_variable)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return as_block(np.asarray(self._fn(as_block(x))))


def as_preconditioner(m: Any) -> Preconditioner:
    if m is None:
        return IdentityPreconditioner()
    if isinstance(m, Preconditioner):
        return m
    if sp.issparse(m) or isinstance(m, np.ndarray):
        op = as_operator(m)
        return FunctionPreconditioner(op.matmat)
    if callable(m):
        return FunctionPreconditioner(m)
    raise TypeError(f"cannot interpret {type(m).__name__} as a preconditioner")


def setup_preconditioning(a: Operator, m: Any, options):
    """Normalize the preconditioning side into ``(op_apply, inner_m, left_m)``:
    what the method iterates with (``A``, or ``M∘A`` under left
    preconditioning), what the Arnoldi loop applies (``M`` under right, else
    the identity) and ``M`` when it transforms the RHS (left).
    """
    prec = as_preconditioner(m)
    if prec.is_variable and options.variant == "left":
        raise ValueError(
            "variable (nonlinear) preconditioners require variant='right' "
            "(FGMRES / FGCRO-DR) — cf. paper section III-C")
    if isinstance(prec, IdentityPreconditioner):
        return a.matmat, prec, None
    if options.variant == "left":
        def op_apply(x: np.ndarray) -> np.ndarray:
            return prec(a.matmat(x))
        return op_apply, IdentityPreconditioner(), prec
    return a.matmat, prec, None


@dataclass
class ConvergenceHistory:
    """Per-iteration, per-column relative residual norms."""

    rhs_norms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    records: list[np.ndarray] = field(default_factory=list)

    def append(self, abs_norms: np.ndarray) -> None:
        safe = np.where(self.rhs_norms > 0, self.rhs_norms, 1.0)
        self.records.append(np.asarray(abs_norms, dtype=float) / safe)

    def matrix(self) -> np.ndarray:
        """(niter+1) x p array of relative residual norms."""
        if not self.records:
            return np.zeros((0, len(self.rhs_norms)))
        return np.vstack(self.records)

    def iterations_to_tol(self, tol: float) -> np.ndarray:
        """First iteration index at which each column dipped below tol."""
        mat = self.matrix()
        out = np.full(mat.shape[1], -1, dtype=int)
        for j in range(mat.shape[1]):
            hit = np.nonzero(mat[:, j] <= tol)[0]
            if hit.size:
                out[j] = int(hit[0])
        return out

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class SolveResult:
    """Outcome of a linear solve.

    Attributes
    ----------
    x:
        solution block, same shape as the input RHS.
    converged:
        per-column convergence flags.
    iterations:
        total inner iterations performed (block iterations for block
        methods — each advances all ``p`` columns at once).
    history:
        :class:`ConvergenceHistory` (entry 0 is the initial residual).
    method:
        resolved method name ("gmres", "bgcrodr", ...).
    restarts:
        number of restart cycles.
    breakdown:
        True when a rank-revealing QR detected (and deflated past) a block
        breakdown.
    info:
        free-form diagnostics (recycle dimension actually used, etc.).
    """

    x: np.ndarray
    converged: np.ndarray
    iterations: int
    history: ConvergenceHistory
    method: str
    restarts: int = 0
    breakdown: bool = False
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def residual_norms(self) -> np.ndarray:
        mat = self.history.matrix()
        return mat[-1] if mat.size else np.zeros(0)

    def iterations_per_rhs(self, tol: float) -> np.ndarray:
        return self.history.iterations_to_tol(tol)

    def __repr__(self) -> str:  # concise, informative
        ok = bool(np.all(self.converged))
        return (f"SolveResult(method={self.method!r}, iterations={self.iterations}, "
                f"restarts={self.restarts}, converged={ok})")

    def report(self, *, width: int = 60, height: int = 12) -> str:
        """Text summary with an ASCII convergence chart (log residual)."""
        mat = self.history.matrix()
        lines = [repr(self)]
        if mat.size == 0:
            return lines[0]
        worst = mat.max(axis=1)
        worst = np.where(worst > 0, worst, np.nan)
        finite = worst[np.isfinite(worst)]
        if finite.size >= 2 and finite.max() > 0:
            logs = np.log10(np.where(np.isfinite(worst), worst, np.nan))
            lo = np.nanmin(logs)
            hi = np.nanmax(logs)
            span = max(hi - lo, 1e-12)
            idx = np.linspace(0, len(logs) - 1, min(width, len(logs))).astype(int)
            cols = logs[idx]
            grid = [[" "] * len(cols) for _ in range(height)]
            for c, v in enumerate(cols):
                if not np.isfinite(v):
                    continue
                rrow = int(round((hi - v) / span * (height - 1)))
                grid[rrow][c] = "*"
            lines.append(f"max rel. residual, 1e{hi:+.0f} (top) .. "
                         f"1e{lo:+.0f} (bottom), {len(logs) - 1} iterations")
            lines.extend("|" + "".join(row) for row in grid)
        return "\n".join(lines)


def eps_all_below(abs_norms: np.ndarray, targets: np.ndarray) -> bool:
    """The paper's ``EPS`` function (Fig. 1, lines 40-45): true residual
    column norms all below their per-column absolute targets."""
    return bool(np.all(abs_norms <= targets))


def initial_state(a: Operator, b: np.ndarray, x0: np.ndarray | None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common setup: promote dtypes, shape X0, compute R0 = B - A X0."""
    b = as_block(b)
    dtype = result_dtype(a.dtype, b.dtype)
    b = b.astype(dtype, copy=False)
    n, p = b.shape
    if a.shape[1] != n:
        raise ValueError(f"operator/rhs shape mismatch: {a.shape} vs {b.shape}")
    if x0 is None:
        x = np.zeros((n, p), dtype=dtype)
        r = b.copy()
    else:
        x = as_block(x0).astype(dtype, copy=True)
        if x.shape != b.shape:
            raise ValueError(f"x0 shape {x.shape} does not match rhs {b.shape}")
        r = b - a.matmat(x)
    return x, b, r


def true_residual_norms(a, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column ``||b_j - A x_j||`` recomputed from scratch.

    The reference quantity of the reported-vs-true residual invariant
    (:mod:`repro.verify`): solvers report Hessenberg-tail estimates, and
    this is what those estimates are checked against.
    """
    a = as_operator(a)
    x = as_block(x)
    b = as_block(b)
    return column_norms(b - a.matmat(x.astype(result_dtype(a.dtype, b.dtype),
                                              copy=False)))


def residual_targets(b: np.ndarray, tol: float) -> np.ndarray:
    """Absolute per-column convergence targets: tol * ||b_j|| (zero-safe)."""
    nb = column_norms(b)
    return tol * np.where(nb > 0, nb, 1.0)
