"""Shifted-system family engine: k solves for the reductions of one.

Families ``(A + sigma_i M) x_i = b_i`` share their Krylov subspace — the
shift invariance ``K_m(A, R) = K_m(A + sigma I, R)`` means ONE block
Arnoldi sweep (one set of global reductions) can answer an entire
frequency / regularization / time-step sweep.  Two engines live here:

* **shifted block GMRES** (Soodhalter, arXiv:1412.0393): the per-shift
  residuals are stacked into one ``n x k`` block, a single block Arnoldi
  cycle is run on the *unshifted* operator, and each shift solves its own
  small least-squares problem against the shifted Hessenberg
  ``H-bar + sigma E-bar`` — redundant dense work replicated on every rank,
  zero additional communication;
* **unprojected recycled shifted block GCRO-DR** (Burke,
  arXiv:2209.06922): a recycle pair ``(U_k, C_k)`` with ``A U_k = C_k``
  is harvested ONCE from the shared basis and reused across every shift
  *without per-shift projection* — ``(A + sigma) U = C + sigma U`` is
  exact algebra, so augmenting the search space costs one fused Gram
  reduction per cycle regardless of the number of shifts.

Both compose with the existing low-synchronization orthogonalization
schemes (cgs2_1r / cholqr2), so the per-step reduction budget
is **unchanged by the number of shifts**: a cycle pays

====================  =========================================
phase                 global reductions
====================  =========================================
restart CholQR-RR     1
Arnoldi step          <= 2 per step (scheme-dependent, as before)
per-shift LS solves   0  (dense, redundant, local)
fused family Gram     1  (recycled variant only)
explicit residuals    1  (one stacked SpMM + one fused norm)
====================  =========================================

Per-shift *sequential* solves (:func:`sequential_shifted_solves`) remain
the bit-exact convergence oracle — they pay the full per-shift reduction
bill the family engine amortizes away.  With a recycling method they are
also the *projected* contrast: one projected GCRO-DR solve per shift,
chaining the recycle space with a per-shift re-orthonormalization.

See ``docs/SHIFTED.md`` for the algorithm walkthrough and the
reduction-count table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

from ..la.blockqr import BlockHessenbergQR
from ..la.orthogonalization import slab_matmul
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import as_block, column_norms
from ..util.options import Options
from .base import (ConvergenceHistory, SolveResult, as_operator,
                   residual_targets)
from .basis import BasisArena
from . import recycling
from .recycling import RecycledSubspace
from .restart import RestartLoop

__all__ = [
    "ShiftedFamilyResult",
    "solve_shifted_family",
    "sequential_shifted_solves",
    "shifted_matrix",
]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class ShiftedFamilyResult:
    """Per-shift solutions of one family solve ``(A + sigma_i M) x = b_i``.

    ``results[i]`` is a full :class:`SolveResult` for shift ``shifts[i]``
    (its ``info["shift"]`` records sigma); family-level counters live on
    this object and in ``info``.
    """

    shifts: tuple
    results: list[SolveResult]
    iterations: int
    restarts: int
    method: str
    breakdown: bool = False
    info: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> SolveResult:
        return self.results[i]

    @property
    def converged(self) -> np.ndarray:
        return np.array([bool(np.all(r.converged)) for r in self.results])

    @property
    def x(self) -> np.ndarray:
        """Solutions stacked column-wise (n x k)."""
        return np.column_stack([np.asarray(r.x).reshape(-1)
                                for r in self.results])


# ---------------------------------------------------------------------------
# shifted operators (oracles, projected variant, verification)
# ---------------------------------------------------------------------------

def shifted_matrix(a, sigma, mass=None):
    """Materialize ``A + sigma M`` (``M = I`` by default), sparse-aware."""
    if sp.issparse(a):
        n = a.shape[0]
        dtype = np.result_type(a.dtype, np.asarray(sigma).dtype)
        if mass is None:
            m_mat = sp.identity(n, dtype=dtype, format="csr")
        else:
            m_mat = mass
        return (a + sigma * m_mat).tocsr()
    a = np.asarray(a)
    m_mat = np.eye(a.shape[0], dtype=a.dtype) if mass is None \
        else np.asarray(mass)
    return a + sigma * m_mat


def sequential_shifted_solves(a, b, shifts, *, mass=None,
                              options: Options | None = None,
                              x0: np.ndarray | None = None
                              ) -> ShiftedFamilyResult:
    """Solve every shift with its own sequential solve — the oracle.

    Each shift pays the full reduction bill of one standalone solve; for
    recycling methods the recycle space is chained shift-to-shift with the
    per-shift re-orthonormalization (``same_system=False``) — exactly the
    *projected* contrast the unprojected family engine amortizes away.
    """
    from .. import api  # deferred: api imports this module

    options = options or Options()
    sig = _shift_array(shifts)
    b_in = as_block(np.asarray(b))
    squeeze = np.asarray(b).ndim == 1
    results: list[SolveResult] = []
    space = None
    for i, sigma in enumerate(sig):
        a_sig = shifted_matrix(a, sigma, mass)
        b_col = b_in[:, 0] if b_in.shape[1] == 1 else b_in[:, i]
        if not squeeze:
            b_col = b_col.reshape(-1, 1)
        x0_col = _x0_column(x0, i, squeeze)
        kwargs: dict[str, Any] = {}
        if options.is_recycling:
            kwargs = {"recycle": space, "same_system": False}
        res = api.solve(a_sig, b_col, options=options, x0=x0_col, **kwargs)
        res.info["shift"] = complex(sigma) if np.iscomplexobj(sig) \
            else float(sigma)
        if options.is_recycling and res.info.get("recycle") is not None:
            space = res.info["recycle"]
        results.append(res)
    method = "shifted_sequential"
    return ShiftedFamilyResult(
        shifts=tuple(np.asarray(sig).tolist()), results=results,
        iterations=sum(r.iterations for r in results),
        restarts=sum(r.restarts for r in results),
        method=method,
        breakdown=any(r.breakdown for r in results),
        info={"variant": "sequential", "shifts": len(results)},
    )


def _shift_array(shifts) -> np.ndarray:
    sig = np.atleast_1d(np.asarray(shifts))
    if sig.ndim != 1 or sig.size == 0:
        raise ValueError("shifts must be a non-empty 1-D sequence")
    return sig


def _x0_column(x0, i: int, squeeze: bool):
    if x0 is None:
        return None
    x0a = np.asarray(x0)
    col = x0a if x0a.ndim == 1 else x0a[:, i]
    return col if squeeze else col.reshape(-1, 1)


# ---------------------------------------------------------------------------
# per-shift dense cores: redundant local work that never touches the ledger
# (the family update charges each phase as one total, beside the call)
# ---------------------------------------------------------------------------

def _per_shift_ls(hbar: np.ndarray, s1_col: np.ndarray, sigma,
                  steps: int, kblk: int, dtype
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One shift's dense LS ``min ||S1 e_i - (H + sigma E) y||``.

    Incremental block-Givens QR of the shifted Hessenberg: redundant local
    work, no communication.  Returns ``(y, tails)`` where ``tails[j]`` is
    the LS residual norm after step ``j+1`` (the shift's convergence
    history inside the cycle).
    """
    hq = BlockHessenbergQR(steps, kblk, s1_col, dtype=dtype)
    eye = np.eye(kblk, dtype=dtype)
    tails = np.empty(steps)
    for j in range(steps):
        h_col = np.array(hbar[: (j + 2) * kblk, j * kblk: (j + 1) * kblk],
                         copy=True)
        h_col[j * kblk: (j + 1) * kblk, :] += sigma * eye
        tails[j] = float(hq.add_column(h_col, charge=False)[0])
    with ledger.install(ledger.CostLedger()):
        y = hq.solve()
    return y, tails


def _metric_factor(gw: np.ndarray) -> np.ndarray:
    """``L`` with ``L L^H = G_W`` so ``||W v|| = ||L^H v||``.

    Cholesky when the Gram is numerically SPD; eigenvalue-clipped square
    root otherwise (U nearly inside span(V) makes W rank deficient — the
    LS then minimizes over the well-determined subspace, and the explicit
    restart residual restores exactness).
    """
    gw = 0.5 * (gw + gw.conj().T)
    try:
        return np.linalg.cholesky(gw)
    except np.linalg.LinAlgError:
        w, q = np.linalg.eigh(gw)
        w = np.clip(w, 0.0, None)
        return q * np.sqrt(w)[None, :]


def _assemble_metric(g: np.ndarray, kr: int, rows: int, dtype) -> np.ndarray:
    """G_W = W^H W for W = [C | U | V] from the fused Gram
    ``g = [C|U]^H [U|V]`` (C and V are each orthonormal)."""
    dim = 2 * kr + rows
    gw = np.eye(dim, dtype=dtype)
    gw[:kr, kr:2 * kr] = g[:kr, :kr]          # C^H U
    gw[:kr, 2 * kr:] = g[:kr, kr:]            # C^H V
    gw[kr:2 * kr, kr:2 * kr] = g[kr:, :kr]    # U^H U
    gw[kr:2 * kr, 2 * kr:] = g[kr:, kr:]      # U^H V
    gw[kr:2 * kr, :kr] = gw[:kr, kr:2 * kr].conj().T
    gw[2 * kr:, :kr] = gw[:kr, 2 * kr:].conj().T
    gw[2 * kr:, kr:2 * kr] = gw[kr:2 * kr, 2 * kr:].conj().T
    return gw


def _per_shift_augmented_ls(lfac: np.ndarray, hbar: np.ndarray,
                            s1_col: np.ndarray, sigma,
                            steps: int, kblk: int, kr: int, rows: int,
                            dtype) -> tuple[np.ndarray, np.ndarray, float]:
    """One shift's whitened augmented LS over ``W = [C, U, V_{j+1}]``.

    ``(A + sigma)[U, V_j] = W T_sigma`` with
    ``T_sigma = [[I, 0], [sigma I, 0], [0, H + sigma E]]`` — pure local
    dense algebra shared-metric-factored by ``lfac``.  Returns
    ``(a, y, resnorm)``: recycle coefficients, basis coefficients, and the
    LS residual norm in the W-metric.
    """
    cols = steps * kblk
    dim = 2 * kr + rows
    zdim = kr + cols
    t = np.zeros((dim, zdim), dtype=dtype)
    t[:kr, :kr] = np.eye(kr, dtype=dtype)
    t[kr:2 * kr, :kr] = sigma * np.eye(kr, dtype=dtype)
    hsig = np.array(hbar[:rows, :cols], copy=True)
    idx = np.arange(min(rows, cols))
    hsig[idx, idx] += sigma
    t[2 * kr:, kr:] = hsig
    rho = np.zeros((dim, 1), dtype=dtype)
    rho[2 * kr: 2 * kr + kblk, 0] = s1_col[:, 0]
    lh = lfac.conj().T
    f = lh @ t
    rhs = lh @ rho
    z, *_ = np.linalg.lstsq(f, rhs, rcond=None)
    resnorm = float(np.linalg.norm(rhs - f @ z))
    return z[:kr], z[kr:], resnorm


# ---------------------------------------------------------------------------
# family update — one restart's post-cycle work
# ---------------------------------------------------------------------------

def _family_update(op_apply, x, b2, sig, s1, hbar, zstack, steps: int, dtype,
                   u_k, c_k, vfull):
    """Post-cycle family update: per-shift LS + X update + restart residual.

    Updates the ``n x k`` solutions ``x`` in place and returns ``(r, rn,
    tails)``: the stacked restart residuals, their norms and every shift's
    in-cycle LS residual history.  A non-empty pair ``(u_k, c_k)`` selects
    the unprojected recycled variant, which also reads ``vfull``, the
    ``n x rows`` ``V_{j+1}``.  Everything except that variant's single
    fused Gram and the final stacked residual norm is communication-free —
    no reduction scales with the number of shifts.
    """
    led = ledger.current()
    n, nshifts = x.shape
    kblk = nshifts
    cols = steps * kblk
    kr = 0 if u_k is None else int(u_k.shape[1])
    tails = []
    with trace.current().span("least_squares", shifts=nshifts,
                              recycled=bool(kr)):
        if kr:
            rows = int(vfull.shape[1])
            dim, zdim = 2 * kr + rows, kr + cols
            # one fused Gram [C|U]^H [U|V_{j+1}] — the only extra reduction
            g = np.concatenate([c_k, u_k], axis=1).conj().T \
                @ np.concatenate([u_k, vfull], axis=1)
            led.reduction(nbytes=(2 * kr) * (kr + rows)
                          * np.dtype(dtype).itemsize)
            led.flop(Kernel.BLAS3, 2.0 * n * (2 * kr) * (kr + rows))
            # Cholesky of the W-metric, shared by every shift
            lfac = _metric_factor(_assemble_metric(g, kr, rows, dtype))
            led.flop(Kernel.FACTORIZATION, dim ** 3 / 3.0)
            ys, ams = [], []
            for i in range(nshifts):
                a_i, y_i, res = _per_shift_augmented_ls(
                    lfac, hbar, s1[:, i: i + 1], sig[i], steps, kblk, kr,
                    rows, dtype)
                ams.append(a_i[:, 0])
                ys.append(y_i[:, 0])
                tails.append(np.array([res]))
            # per-shift whitened LS: F = L^H T_sigma, rhs = L^H rho, dense QR
            led.flop(Kernel.BLAS3, nshifts * 2.0 * dim * dim * (zdim + 1))
            led.flop(Kernel.QR, nshifts * 4.0 * dim * zdim ** 2)
            x += slab_matmul(u_k, np.column_stack(ams)) \
                + slab_matmul(zstack, np.column_stack(ys))
            led.flop(Kernel.BLAS3, 2.0 * n * zdim * nshifts)
        else:
            ys = []
            for i in range(nshifts):
                y, tail = _per_shift_ls(hbar, s1[:, i: i + 1], sig[i], steps,
                                        kblk, dtype)
                ys.append(y[:, 0])
                tails.append(tail)
            # per-shift incremental QR of H-bar + sigma E-bar (block Givens)
            led.flop(Kernel.BLAS3,
                     nshifts * (steps * (steps - 1) / 2.0 + steps)
                     * 2.0 * (2 * kblk) ** 2 * kblk)
            led.flop(Kernel.QR, nshifts * steps * 16.0 * kblk ** 3)
            # per-shift triangular solve
            led.flop(Kernel.BLAS2, nshifts * 1.0 * cols ** 2)
            x += slab_matmul(zstack, np.column_stack(ys))
            led.flop(Kernel.BLAS3, 2.0 * n * cols * nshifts)
    # explicit restart residuals: ONE stacked operator application (charged
    # by the operator itself) covers every shift; the sigma_i x_i correction
    # is column-wise local work, and one fused reduction carries all k norms
    r = b2 - op_apply(x) - x * sig[None, :]
    led.flop(Kernel.BLAS1, 3.0 * n * nshifts)
    rn = column_norms(r)
    led.reduction(nbytes=nshifts * 8)
    return r, rn, tails


# ---------------------------------------------------------------------------
# the family solve
# ---------------------------------------------------------------------------

def solve_shifted_family(a, b, shifts, *, mass=None,
                         options: Options | None = None,
                         x0: np.ndarray | None = None,
                         recycle: RecycledSubspace | None = None
                         ) -> ShiftedFamilyResult:
    """Solve the family ``(A + sigma_i M) x_i = b_i`` on one shared basis.

    Parameters
    ----------
    a:
        the base operator ``A`` (matrix or :class:`Operator`).
    b:
        right-hand side(s): an ``(n,)`` vector shared by every shift, or
        an ``(n, k)`` block whose column ``i`` belongs to ``shifts[i]``.
    shifts:
        the family's ``sigma_i`` values (real or complex).
    mass:
        optional mass matrix ``M`` (default: identity).  A sparse ``M`` is
        factored once (:class:`repro.direct.SparseLU`) and the family is
        solved in transformed form ``(M^{-1} A + sigma I) x = M^{-1} b``;
        a prefactored :class:`SparseLU` is accepted directly (the solve
        service caches one per family fingerprint).
    options:
        ``krylov_method`` in the GMRES family selects the shared-basis
        engine; a recycling method (``gcrodr``/``bgcrodr`` with
        ``recycle=k``) selects the unprojected recycled engine.
        Preconditioning is rejected — it breaks the shift invariance the
        engine is built on.
    recycle:
        optional :class:`RecycledSubspace` of the *base* operator to adopt
        instead of harvesting one.
    """
    options = options or Options()
    sig = _shift_array(shifts)

    a_op = as_operator(a)
    n = a_op.shape[0]
    k = int(sig.size)
    dtype = np.result_type(a_op.dtype, np.asarray(b).dtype, sig.dtype,
                           np.float64)
    sig = sig.astype(dtype, copy=False)
    led = ledger.current()
    tr = trace.current()

    op_apply, b2, mass_lu = _setup_family_operator(a_op, b, k, mass, dtype)
    x = _initial_x(x0, n, k, dtype)
    if x0 is None:
        r = b2.copy()
    else:
        r = b2 - op_apply(x) - x * sig[None, :]
        led.flop(Kernel.BLAS1, 3.0 * n * k)

    targets = residual_targets(b2, options.tol)
    rhs_norms = column_norms(b2)
    histories = [ConvergenceHistory(rhs_norms=rhs_norms[i: i + 1])
                 for i in range(k)]
    rn = column_norms(r)
    led.reduction(nbytes=k * 8)
    for i in range(k):
        histories[i].append(rn[i: i + 1])

    recycled_mode = options.is_recycling
    kr_target = options.recycle if recycled_mode else 0
    restart = min(options.gmres_restart, max(n // k, 1))
    u_k: np.ndarray | None = None
    c_k: np.ndarray | None = None
    if recycled_mode and recycle is not None and recycle.k > 0:
        u_k = np.asarray(recycle.u, dtype=dtype).copy()
        c_k = np.asarray(recycle.c, dtype=dtype).copy()

    loop = RestartLoop(options, op_apply, r)
    loop.converged = rn <= targets
    safe = np.where(rhs_norms > 0, rhs_norms, 1.0)
    arena = BasisArena(n, k, 0, restart, dtype)

    while loop.running:
        have_space = u_k is not None and u_k.shape[1] > 0
        inner = max(restart - u_k.shape[1], 1) if have_space else restart
        with tr.span("cycle", index=loop.cycles, kind="shifted", shifts=k,
                     recycled=have_space):
            # the family's sigma-residuals and per-shift histories are its
            # own: the base-operator cycle runs without targets or history
            ran = loop.block_cycle(arena, inner)
            if ran is None:
                break
            state, s1 = ran
            hbar = state.hqr.hessenberg()
            zstack = state.z_stack(state.steps)
            loop.r, rn, tails = _family_update(
                op_apply, x, b2, sig, np.asarray(s1, dtype=dtype), hbar,
                zstack, state.steps, dtype, u_k, c_k, state.v_stack())
            if recycled_mode and not have_space:
                # harvest the recycle pair ONCE from this base-operator
                # cycle; it is reused across every shift and every later
                # cycle without per-shift projection (Burke's unprojected
                # recycled shifted method).
                u_k, c_k = _harvest_family_pair(state, hbar, zstack,
                                                kr_target, dtype, op_apply)
        loop.converged = rn <= targets
        for i in range(k):
            for tail in tails[i]:
                histories[i].append(np.array([tail]))
            histories[i].records[-1] = rn[i: i + 1] / safe[i: i + 1]
    converged, total_it, cycles, breakdown_seen = \
        loop.converged, loop.total_it, loop.cycles, loop.breakdown

    out_recycle = None
    if u_k is not None and u_k.shape[1]:
        out_recycle = RecycledSubspace(
            u_k, c_k, op_tag=(a_op.tag if mass is None else None),
            meta={"k": u_k.shape[1], "family": True})

    method = "shifted_bgcrodr" if recycled_mode else "shifted_bgmres"
    fam_info: dict[str, Any] = {
        "shifts": k, "restart": restart, "variant":
        ("unprojected" if recycled_mode else "shared"),
        "mass": mass is not None,
    }
    if recycled_mode:
        fam_info["k"] = 0 if u_k is None else int(u_k.shape[1])
        fam_info["recycle"] = out_recycle
    results = []
    squeeze = np.asarray(b).ndim == 1
    for i in range(k):
        xi = x[:, i].copy() if squeeze else x[:, i: i + 1].copy()
        results.append(SolveResult(
            x=xi, converged=converged[i: i + 1].copy(),
            iterations=total_it, history=histories[i], method=method,
            restarts=cycles, breakdown=breakdown_seen,
            info={"shift": (complex(sig[i]) if np.iscomplexobj(sig)
                            else float(sig[i].real)),
                  "family": fam_info}))
    return ShiftedFamilyResult(
        shifts=tuple(np.asarray(sig).tolist()), results=results,
        iterations=total_it, restarts=cycles, method=method,
        breakdown=breakdown_seen, info=dict(fam_info))


def _setup_family_operator(a_op, b, k: int, mass, dtype):
    """Build the family operator/rhs: identity mass, or ``M^{-1}``-transform."""
    b_in = as_block(np.asarray(b)).astype(dtype, copy=False)
    if b_in.shape[1] == 1 and k > 1:
        b_in = np.tile(b_in, (1, k))
    if b_in.shape[1] != k:
        raise ValueError(
            f"b must have 1 or {k} columns for a {k}-shift family; "
            f"got {b_in.shape[1]}")
    if mass is None:
        return a_op.matmat, b_in, None
    from ..direct.solver import SparseLU
    lu = mass if isinstance(mass, SparseLU) else SparseLU(mass)

    def op_apply(block: np.ndarray) -> np.ndarray:
        return np.asarray(lu.solve(a_op.matmat(block))).astype(dtype,
                                                               copy=False)

    b2 = np.asarray(lu.solve(b_in)).astype(dtype, copy=False)
    return op_apply, b2, lu


def _initial_x(x0, n: int, k: int, dtype) -> np.ndarray:
    if x0 is None:
        return np.zeros((n, k), dtype=dtype)
    x0a = np.asarray(x0, dtype=dtype)
    if x0a.ndim == 1:
        return np.tile(x0a.reshape(-1, 1), (1, k))
    if x0a.shape != (n, k):
        raise ValueError(f"x0 must have shape ({n},) or ({n}, {k})")
    return x0a.copy()


def _harvest_family_pair(state, hbar, zstack, kr: int, dtype, op_apply
                         ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``(U_k, C_k)`` with ``A U = C`` from a base-operator cycle, or
    ``(None, None)``: harmonic Ritz vectors of the *unshifted* Hessenberg
    deflate every member of the family (shift invariance).  One ``A U_k``
    on k columns and one Householder QR reduction, once per family."""
    if state.breakdown or state.steps * state.hqr.p <= kr:
        return None, None
    pk = recycling.harmonic_basis(
        hbar, state.hqr.triangular(), state.hqr.last_subdiagonal_block(),
        state.hqr.p, kr, dtype)
    if not pk.shape[1]:
        return None, None
    with trace.current().span("recycle_update", kind="harvest"):
        u_k, c_k = recycling.harvest(hbar, pk, state.v_stack(), zstack,
                                     slab_matmul)
        ledger.current().flop(Kernel.BLAS3, 4.0 * zstack.shape[0]
                              * hbar.shape[0] * c_k.shape[1])
        return recycling._exact_pair(u_k, c_k, op_apply)
