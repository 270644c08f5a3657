"""SparseLU facade: factor once, solve many (the PARDISO role).

Combines a fill-reducing ordering, a numeric LU and level-scheduled
blocked triangular solves into the interface the Schwarz preconditioner
consumes: ``factor = SparseLU(B_i); factor.solve(R_i x)`` where the solve
handles an ``n x p`` block in one forward elimination + backward
substitution pass ("it can be done in a single forward elimination and
backward substitution as long as the vectors are stored contiguously" —
paper section V-A).

The numeric phase is SuperLU (:func:`scipy.sparse.linalg.splu`), the
stand-in for PARDISO's; its factors are *extracted* and every solve runs
through our own blocked sweep (:mod:`repro.direct.triangular`), so
multi-RHS measurements benchmark this library's code, not SuperLU's.
The extracted level-ordered factors are the only copy of each factor: the
``SuperLU`` object is released when ``_superlu`` returns.  It used to stay
alive as long as the solver did, with its supernodal storage and cached CSC
``L`` / ``U``, because ``perm_r`` / ``perm_c`` were kept as SuperLU's own
arrays — views whose ``.base`` is that object; they are owned copies now.

SuperLU is asked to order by what it measures.  A matrix whose stored
pattern equals its transpose's (every Schwarz subdomain matrix) has its
symmetric structure ordered — minimum degree on ``A + A^T``, the pivot kept
on the diagonal unless it is under a tenth of its column — which leaves
about a third fewer entries in ``L + U`` than COLAMD with partial pivoting,
the bare ``splu`` every other pattern gets.  Either factor is accepted on
evidence: ``L U`` must reproduce ``A x`` for a probe ``x`` to ``1e-10``; a
symmetric-path miss refactors the bare way (``lu_repivot`` event), a miss
after that raises ``LinAlgError`` — as does a matrix SuperLU finds
exactly singular.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import CostLedger, Kernel
from ..util.misc import as_block
from .triangular import TriangularFactor

__all__ = ["SparseLU"]

#: how SuperLU is asked to factor a matrix with a symmetric pattern
_SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                  options={"SymmetricMode": True})
#: largest scaled backward error of the probe at which ``L U`` is accepted
_PROBE_TOL = 1e-10


class SparseLU:
    """Sparse LU factorization with blocked multi-RHS solves.

    Parameters
    ----------
    a:
        square sparse matrix (real or complex).  SuperLU orders it by the
        symmetry of its pattern (see the module docstring;
        ``self.symmetric`` says which way).
    """

    def __init__(self, a: sp.spmatrix):
        a = sp.csc_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError("SparseLU requires a square matrix")
        self.n = a.shape[0]
        self.dtype = np.promote_types(a.dtype, np.float64)
        # run the whole numeric phase under a private ledger and replay it
        # onto the ambient one: totals are unchanged, and ``setup_cost``
        # records exactly what this factorization charged — the quantity a
        # setup cache amortizes (charged once per operator, not per solve)
        led = CostLedger()
        # the span is opened against the *ambient* ledger, so its window
        # sees the merged total; work inside runs under the private ledger
        # and is therefore excluded from any enclosing span's exclusive cost
        with trace.current().span("setup.lu", n=self.n) as span:
            with ledger.install(led):
                self._factorize(a)
            if span is not None:
                span.attrs.update(symmetric=self.symmetric,
                                  factor_nnz=self.factor_nnz)
            self.setup_cost = led
            ledger.current().merge(led)

    def _factorize(self, a: sp.csc_matrix) -> None:
        a = a.astype(self.dtype)
        pattern = sp.csc_matrix((np.ones(a.nnz, dtype=bool), a.indices,
                                 a.indptr), shape=a.shape)
        #: factored by the symmetric-pattern path
        self.symmetric = (pattern != pattern.T).nnz == 0
        l_mat, u_mat, err = self._superlu(
            a, **(_SYMMETRIC if self.symmetric else {}))
        if self.symmetric and not err <= _PROBE_TOL:
            self.symmetric = False
            ledger.current().event("lu_repivot")
            l_mat, u_mat, err = self._superlu(a)
        if not err <= _PROBE_TOL:              # also catches NaN
            raise np.linalg.LinAlgError(
                f"LU of the {self.n} x {self.n} matrix reproduces it "
                f"only to a backward error of {err:.1e}")
        self.factor_nnz = int(l_mat.nnz + u_mat.nnz)
        self._ltri = TriangularFactor(l_mat, lower=True, unit_diagonal=True)
        self._utri = TriangularFactor(u_mat, lower=False)

    def _superlu(self, a: sp.csc_matrix, **spec
                 ) -> tuple[sp.csr_matrix, sp.csr_matrix, float]:
        """One SuperLU factorization: extracted ``L``, ``U`` and their error,
        ``|Pr^T L U Pc^T x - A x| / (|A| |x| + |A x|)`` in the infinity norm
        for one fixed ``x`` (as many flops as a sweep pair: charged as one)."""
        led = ledger.current()
        with led.timer("superlu_factor"):
            try:
                lu = spla.splu(a, **spec)
            except RuntimeError as exc:        # "Factor is exactly singular"
                raise np.linalg.LinAlgError(
                    f"SuperLU cannot factor the {self.n} x {self.n} "
                    f"matrix: {exc}") from exc
        l_mat, u_mat = sp.csr_matrix(lu.L), sp.csr_matrix(lu.U)
        # Pr[perm_r[i], i] = 1; copied, so no view keeps ``lu`` alive
        self.perm_r, self.perm_c = lu.perm_r.copy(), lu.perm_c.copy()
        # standard LU flop estimate: 2 sum_j nnz(L(:,j)) * nnz(U(j,:))
        l_cols = np.diff(sp.csc_matrix(lu.L).indptr)
        u_rows = np.diff(u_mat.indptr)
        led.flop(Kernel.FACTORIZATION,
                 2.0 * float(np.dot(l_cols.astype(float), u_rows)))
        led.event("lu_factorization")
        z = np.cos(np.arange(self.n))          # |z|_inf = 1
        b = a @ z[self.perm_c]
        led.flop(Kernel.SPMV, 2.0 * a.nnz)
        led.flop(Kernel.BLAS2, 2.0 * (l_mat.nnz + u_mat.nnz))
        if not self.n:                         # 0 x 0: nothing to reproduce
            return l_mat, u_mat, 0.0
        with np.errstate(invalid="ignore"):    # a non-finite factor: NaN
            gap = (l_mat @ (u_mat @ z))[self.perm_r] - b
        err = np.abs(gap).max() / (spla.norm(a, np.inf) + np.abs(b).max())
        return l_mat, u_mat, float(err)

    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A X = B`` for an ``n x p`` block in one sweep pair."""
        squeeze = np.asarray(b).ndim == 1
        b = as_block(b)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        # Pr A Pc = L U with Pr[perm_r[i], i] = 1, Pc[i, perm_c[i]] = 1
        #   =>  x = Pc U^{-1} L^{-1} Pr b
        bp = np.empty_like(b, dtype=np.promote_types(self.dtype, b.dtype))
        bp[self.perm_r] = b
        x = self._utri.solve(self._ltri.solve(bp))[self.perm_c]
        ledger.current().event("direct_solve", b.shape[1])
        return x[:, 0] if squeeze else x

    def as_preconditioner(self):
        """Wrap as a :class:`repro.Preconditioner` (exact local solver)."""
        from ..krylov.base import FunctionPreconditioner
        return FunctionPreconditioner(self.solve)

    @property
    def n_levels(self) -> tuple[int, int]:
        """Sweep steps of one solve: (L, U) levels of the block DAGs."""
        return self._ltri.n_levels, self._utri.n_levels

    def __repr__(self) -> str:
        return (f"SparseLU(n={self.n}, symmetric={self.symmetric}, "
                f"factor_nnz={self.factor_nnz})")
