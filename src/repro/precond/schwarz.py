"""Overlapping Schwarz preconditioners: ASM, RAS, and ORAS (eq. 6).

The one-level preconditioners of the paper's Maxwell solver:

.. math::

    M^{-1}_{ASM}  = \\sum_i R_i^T        B_i^{-1} R_i \\qquad
    M^{-1}_{ORAS} = \\sum_i R_i^T D_i    B_i^{-1} R_i

* ``R_i`` — Boolean restriction to the delta-overlap subdomain;
* ``D_i`` — diagonal partition of unity with ``sum R_i^T D_i R_i = I``;
* ``B_i`` — the local operator: the plain submatrix ``R_i A R_i^T`` for
  ASM/RAS, or a matrix with **optimized transmission conditions** for ORAS
  (impedance/Robin conditions on the subdomain interfaces — supplied by
  the discretization, or approximated algebraically with a complex
  interface shift).

Every subdomain solve is a :class:`repro.direct.SparseLU` factorization
applied to the whole ``n x p`` RHS block at once — the coupling between
Schwarz methods and blocked direct solves that Fig. 6 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..direct.solver import SparseLU
from ..direct.triangular import TriangularFactor, concat_factors
from ..krylov.base import Preconditioner
from ..problems.partition import OverlappingDecomposition, decompose
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import CostLedger, CostTable
from ..util.misc import as_block

__all__ = ["SchwarzPreconditioner", "algebraic_interface_shift"]


@dataclass
class _FusedBatch:
    """Block-diagonal batching of the per-subdomain direct solves.

    All subdomain systems are solved in ONE pair of blocked triangular
    sweeps (levels = max over subdomains, each level a wide BLAS-3 block),
    then scattered back through a single SpMM whose values carry the
    partition-of-unity weights.  The restriction is composed with the row
    permutations into one gather, the column permutations into the column
    order of the scatter: an apply copies the ``(sum n_i) x p`` block
    nowhere else.  The ledger is charged exactly what the per-subdomain
    loop charges: the concatenated factors' flop counts sum to the
    per-factor totals, and ``events`` replays the remaining per-subdomain
    event counts in O(1).
    """

    gather: np.ndarray            # global DOF feeding each factored row
    l_factor: TriangularFactor    # block-diagonal L
    u_factor: TriangularFactor    # block-diagonal U
    scatter: sp.csr_matrix        # (n x sum n_i) R_i^T D_i Pc scatter-add
    events: CostTable


def algebraic_interface_shift(a: sp.csr_matrix, subdomain: np.ndarray,
                              shift: complex) -> sp.csr_matrix:
    """Local matrix with a Robin-like complex shift on interface DOFs.

    An *algebraic* stand-in for optimized transmission conditions when no
    discretization is available: interface DOFs (those coupled to the
    exterior) get ``shift * |diag|`` added, mimicking the absorbing
    impedance condition ``dE/dn - i omega E`` that makes ORAS effective on
    indefinite time-harmonic problems.
    """
    local = sp.csr_matrix(a[subdomain][:, subdomain])
    n = a.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[subdomain] = True
    # interface = subdomain rows with at least one exterior neighbour
    rows = a[subdomain]
    interface_local = np.zeros(len(subdomain), dtype=bool)
    for k in range(len(subdomain)):
        cols = rows.indices[rows.indptr[k]: rows.indptr[k + 1]]
        if np.any(~mask[cols]):
            interface_local[k] = True
    diag = np.abs(local.diagonal())
    bump = np.where(interface_local, shift * np.where(diag > 0, diag, 1.0), 0.0)
    return sp.csr_matrix(local + sp.diags(bump))


class SchwarzPreconditioner(Preconditioner):
    """One-level overlapping Schwarz preconditioner.

    Parameters
    ----------
    a:
        global system matrix.
    nparts:
        number of subdomains (ignored if ``decomposition`` is given).
    overlap:
        delta, in graph layers (``-pc_asm_overlap`` analogue).
    variant:
        ``"asm"`` (symmetric, no weighting), ``"ras"`` (restricted:
        boolean PoU on the way back), ``"oras"`` (RAS with optimized local
        operators).
    local_matrices:
        per-subdomain operators ``B_i`` for ORAS, as built by the
        discretization (e.g. :func:`repro.problems.maxwell.local_impedance_matrices`).
        When omitted for ORAS, an algebraic interface shift is used.
    interface_shift:
        the algebraic Robin shift (complex for time-harmonic problems).
    decomposition:
        a prebuilt :class:`OverlappingDecomposition` (e.g. from mesh
        coordinates); otherwise the matrix graph is band-partitioned.
    points:
        node coordinates forwarded to the RCB partitioner.
    coarse:
        add a Nicolaides coarse correction: one coarse DOF per subdomain
        (the partition-of-unity vector ``R_i^T D_i 1``), solved directly
        and applied additively.  The classic cure for the one-level
        iteration growth the paper observes in its strong-scaling study
        ("the number of iterations slightly increases with the number of
        MPI processes", Fig. 7) — kept off by default to stay faithful to
        the paper's one-level eq. (6).
    """

    is_variable = False

    def __init__(self, a: sp.spmatrix, *, nparts: int = 4, overlap: int = 1,
                 variant: str = "ras",
                 local_matrices: list[sp.spmatrix] | None = None,
                 interface_shift: complex = 0.0,
                 decomposition: OverlappingDecomposition | None = None,
                 points: np.ndarray | None = None,
                 coarse: bool = False):
        if variant not in ("asm", "ras", "oras"):
            raise ValueError(f"unknown Schwarz variant {variant!r}")
        a = sp.csr_matrix(a)
        self.a = a
        self.variant = variant
        self.n = a.shape[0]
        # private setup ledger, replayed onto the ambient one: totals are
        # unchanged, and ``setup_cost`` records what a setup cache amortizes
        led = CostLedger()
        # the span sits on the *ambient* ledger and encloses the merge, so
        # its window records the full setup cost; per-subdomain SparseLU
        # spans open against the private ledger and are skipped by
        # ``exclusive``
        with trace.current().span("setup.schwarz", variant=variant,
                                  coarse=bool(coarse)):
            with ledger.install(led), led.timer("schwarz_setup"):
                if decomposition is None:
                    pou_kind = ("boolean" if variant in ("ras", "oras")
                                else "multiplicity")
                    decomposition = decompose(a, nparts, overlap=overlap,
                                              points=points, pou=pou_kind)
                self.decomposition = decomposition
                self.subdomains = decomposition.overlapping
                self.pou = decomposition.pou
                self.solvers: list[SparseLU] = []
                for i, dofs in enumerate(self.subdomains):
                    if local_matrices is not None:
                        b_i = sp.csc_matrix(local_matrices[i])
                        if b_i.shape[0] != len(dofs):
                            raise ValueError(
                                f"local matrix {i} has size {b_i.shape[0]}, "
                                f"subdomain has {len(dofs)} DOFs")
                    elif variant == "oras" and interface_shift != 0.0:
                        b_i = algebraic_interface_shift(a, dofs, interface_shift)
                    else:
                        b_i = sp.csc_matrix(a[dofs][:, dofs])
                    self.solvers.append(SparseLU(b_i))
                led.event("schwarz_factorizations", len(self.subdomains))
                # the batch is part of the set-up every apply solves with,
                # so it is built (and timed) here, not on first apply; a
                # single subdomain has nothing to batch
                self._fused_batch = (self._build_fused_batch()
                                     if len(self.solvers) > 1 else None)

                # optional Nicolaides coarse space: Z[:, i] = R_i^T D_i 1
                self._coarse_z = None
                self._coarse_solve = None
                if coarse:
                    dtype = np.promote_types(a.dtype, np.float64)
                    z = np.zeros((self.n, len(self.subdomains)), dtype=dtype)
                    for i, (dofs, d) in enumerate(
                            zip(self.subdomains, self.pou)):
                        z[dofs, i] = d
                    e = z.conj().T @ (a @ z)
                    led.reduction(nbytes=e.nbytes)
                    try:
                        e_inv = np.linalg.inv(e)
                    except np.linalg.LinAlgError:
                        e_inv = np.linalg.pinv(e)
                    self._coarse_z = z
                    self._coarse_solve = e_inv
                    led.event("schwarz_coarse_setup")
            self.setup_cost = led
            ledger.current().merge(led)

    # ------------------------------------------------------------------
    @property
    def nparts(self) -> int:
        return len(self.subdomains)

    def _local_solves(self, x: np.ndarray, dtype) -> np.ndarray:
        """One-level sum: ``sum_i R_i^T (D_i) B_i^{-1} R_i x``.

        All subdomain solves go through one block-diagonal factor pair
        (``tests/fixtures/schwarz_loop.py`` is the per-subdomain loop the
        batch is held to, in values and in ledger counts).
        """
        batch = self._fused_batch
        if batch is None:
            dofs, d, lu = self.subdomains[0], self.pou[0], self.solvers[0]
            local = lu.solve(x[dofs])
            if self.variant in ("ras", "oras"):
                local = local * d[:, None]
            y = np.zeros((self.n, x.shape[1]), dtype=dtype)
            y[dofs] += local
            return y
        z = batch.u_factor.solve(batch.l_factor.solve(x[batch.gather]))
        batch.events.charge(ledger.current(), p=x.shape[1])
        return np.asarray(batch.scatter @ z).astype(dtype, copy=False)

    def _build_fused_batch(self) -> _FusedBatch:
        solvers = self.solvers
        sizes = np.array([len(dofs) for dofs in self.subdomains])
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        cat_dofs = np.concatenate(self.subdomains)
        ncat = int(cat_dofs.size)
        perm_r = np.concatenate([s.perm_r + o for s, o in zip(solvers, offsets)])
        perm_c = np.concatenate([s.perm_c + o for s, o in zip(solvers, offsets)])
        # factored row perm_r[i] is local row i, local solution i is
        # factored unknown perm_c[i]
        row_of = np.empty(ncat, dtype=np.int64)
        row_of[perm_r] = np.arange(ncat)
        if self.variant in ("ras", "oras"):
            weights = np.concatenate(self.pou)
        else:
            weights = np.ones(ncat)
        nparts = len(solvers)
        return _FusedBatch(
            gather=cat_dofs[row_of],
            l_factor=concat_factors([s._ltri for s in solvers]),
            u_factor=concat_factors([s._utri for s in solvers]),
            scatter=sp.csr_matrix((weights, (cat_dofs, perm_c)),
                                  shape=(self.n, ncat)),
            # the combined triangular solves charge ONE event pair and the
            # batched path never enters SparseLU.solve; replay the rest so
            # the calls Counter matches the per-subdomain loop exactly
            events=CostTable(events_per_col=(
                ("triangular_solve", 2 * (nparts - 1)),
                ("direct_solve", nparts),
            )),
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``M^{-1} X`` — all ``p`` columns through every subdomain solve
        in one blocked forward/backward substitution (paper section V-A)."""
        x = as_block(x)
        p = x.shape[1]
        dtype = np.promote_types(self.a.dtype, x.dtype)
        led = ledger.current()
        if self._coarse_z is None:
            y = self._local_solves(x, dtype)
        else:
            # hybrid (multiplicative) two-level: coarse solve first, local
            # solves on the remaining residual — the standard balancing form
            zx = self._coarse_z.conj().T @ x
            led.reduction(nbytes=zx.nbytes)
            y0 = self._coarse_z @ (self._coarse_solve @ zx)
            r = x - np.asarray(self.a @ y0)
            y = y0 + self._local_solves(r, dtype)
        led.p2p(messages=2 * self.nparts,
                nbytes=int(sum(len(s) for s in self.subdomains) - self.n)
                * np.dtype(dtype).itemsize * p)
        led.event("schwarz_apply", p)
        return y

    def __repr__(self) -> str:
        return (f"SchwarzPreconditioner(variant={self.variant!r}, "
                f"nparts={self.nparts}, n={self.n})")
