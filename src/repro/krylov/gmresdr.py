"""GMRES-DR (Morgan 2002) — GMRES with deflated restarting.

The related-work baseline of section II: PETSc's Deflated GMRES keeps the
``k`` harmonic Ritz vectors of each cycle *inside* the restart space, so a
single solve converges like unrestarted GMRES on the deflated spectrum —
but, as the paper stresses, "as implemented, these methods cannot be used
to recycle Krylov subspace from one linear system solve to the next" (and
cannot handle variable preconditioning).  That is precisely GCRO-DR's
advantage; Parks et al. prove the two are equivalent for a single system,
which `tests/test_krylov_gmresdr.py` verifies numerically.

Implementation follows Morgan's augmented-Arnoldi recurrence: after a
cycle, the new basis is ``V^new_{k+1} = V_{m+1} Q`` where ``Q`` spans the
harmonic Ritz vectors *plus* the least-squares residual, and the new
reduced matrix ``H^new = Q_{k+1}^H Hbar_m Q_k`` has a full (k+1) x k
leading block — the Arnoldi recurrence continues from column k+1.
Single right-hand side, fixed (right/left/none) preconditioning.
"""

from __future__ import annotations

import numpy as np

from ..la.dense import hessenberg_harmonic_lhs, invariant_subspace
from ..la.orthogonalization import (SCHEMES,
                                    make_pseudo_block_orthogonalizer)
from ..util.ledger import Kernel
from ..util.misc import column_norms
from ..util.options import Options
from .base import SolveResult
from .basis import TransposedBasisArena
from .restart import RestartedSolve

__all__ = ["gmresdr"]


def gmresdr(a, b, m=None, *, options: Options | None = None,
            x0: np.ndarray | None = None) -> SolveResult:
    """Solve ``A x = b`` with GMRES-DR(m, k).

    ``options.recycle`` plays the role of ``k`` (the number of harmonic
    Ritz vectors retained through every restart).
    """
    options = options or Options(krylov_method="gcrodr", recycle=10)
    k = options.recycle
    if not 0 < k < options.gmres_restart:
        raise ValueError("GMRES-DR requires 0 < k < m")
    if options.variant == "flexible":
        raise ValueError("GMRES-DR cannot handle variable preconditioning "
                         "(paper section II-C) — use FGCRO-DR")
    st = RestartedSolve(a, b, m, options, x0, context="gmresdr",
                        single_rhs="GMRES-DR handles a single right-hand side")
    n, dtype, op_apply, inner_m = st.n, st.dtype, st.op_apply, st.inner_m
    identity_m, x, targets, history = \
        st.identity_m, st.x, st.targets, st.history
    led, tr, chk = st.led, st.tr, st.chk

    m_dim = min(options.gmres_restart, n - 1)
    # GMRES-DR has always run its Arnoldi with one full reorthogonalization
    # pass; "cgs" therefore maps to the equivalent two-pass scheme so the
    # historical behavior (and reduction counts) are preserved exactly.
    scheme = options.orthogonalization
    if scheme == "cgs":
        scheme = "imgs"

    # carried between cycles: augmented basis V (n x (k+1)) and the full
    # leading block H (k+1 x k); empty before the first cycle
    v_aug: np.ndarray | None = None
    h_lead: np.ndarray | None = None

    while st.running:
        st.cycles += 1
        r = st.r
        v = np.zeros((n, m_dim + 1), dtype=dtype)
        hbar = np.zeros((m_dim + 1, m_dim), dtype=dtype)
        if v_aug is None:
            beta = float(column_norms(r)[0])
            led.reduction()
            if beta == 0:
                break
            v[:, 0] = r[:, 0] / beta
            start = 0
            c_rhs = np.zeros(m_dim + 1, dtype=dtype)
            c_rhs[0] = beta
        else:
            kk = v_aug.shape[1] - 1
            v[:, : kk + 1] = v_aug
            hbar[: kk + 1, :kk] = h_lead
            start = kk
            # rhs in the new basis: V^H r (r lies in span(V_aug))
            c_rhs = np.zeros(m_dim + 1, dtype=dtype)
            c_rhs[: kk + 1] = v_aug.conj().T @ r[:, 0]
            led.reduction(nbytes=(kk + 1) * r.itemsize)

        # ---- (augmented) Arnoldi from column `start` to m ----------------
        orth = make_pseudo_block_orthogonalizer(
            scheme, n=n, p=1, dtype=dtype, max_cols=m_dim + 1)
        # transposed-basis arena: each committed column is written once and
        # the per-step (j+1, n, 1) basis is a contiguous prefix view
        varena = TransposedBasisArena(m_dim + 1, n, dtype)
        varena.seed(v, start + 1)
        orth.begin(varena.prefix(start))
        j = start
        lucky = False
        with tr.span("cycle", index=st.cycles - 1, kind="gmresdr"):
            while j < m_dim and st.budget > 0:
                with tr.span("arnoldi_step", j=j):
                    zj = v[:, j] if identity_m else np.asarray(
                        inner_m(v[:, j].reshape(-1, 1)))[:, 0].astype(dtype)
                    w = op_apply(zj.reshape(-1, 1))
                    with tr.span("ortho", scheme=scheme):
                        w2, dots, nrms = orth.step(varena.prefix(j), w, j)
                    w = w2[:, 0]
                    coeffs = dots[:, 0]
                    nrm = float(nrms[0])
                    hbar[: j + 1, j] = coeffs
                    hbar[j + 1, j] = nrm
                    st.total_it += 1
                    j += 1
                    if nrm <= 1e-300:
                        lucky = True
                        break
                    v[:, j] = w / nrm
                    varena.append(v[:, j])
                    orth.commit(np.ones(1, dtype=bool))
                # residual estimate via a small LS solve (redundant work)
                y_est, *_ = np.linalg.lstsq(hbar[: j + 1, :j], c_rhs[: j + 1],
                                            rcond=None)
                res_est = float(np.linalg.norm(
                    c_rhs[: j + 1] - hbar[: j + 1, :j] @ y_est))
                history.append(np.array([res_est]))
                if res_est <= targets[0]:
                    break
        jc = j
        if jc == 0:
            break

        # ---- solve the projected problem and update x ---------------------
        with tr.span("least_squares"):
            hj = hbar[: jc + 1, :jc]
            y, *_ = np.linalg.lstsq(hj, c_rhs[: jc + 1], rcond=None)
            if identity_m:
                dx = v[:, :jc] @ y
            else:
                dx = np.asarray(inner_m(v[:, :jc] @ y.reshape(-1, 1)))[:, 0]
            x[:, 0] += dx
        if chk.wants_full:
            # the augmented-Arnoldi relation A M V_jc = V_{jc+1} Hbar holds
            # across deflated restarts for a constant M (Morgan's identity);
            # Z is recomputed since only V is stored
            v_jc = v[:, : jc + 1]
            zst = v_jc[:, :jc] if identity_m else \
                np.asarray(inner_m(v[:, :jc])).astype(dtype, copy=False)
            chk.check_orthonormality(v_jc, what="augmented Arnoldi basis")
            chk.check_arnoldi(op_apply, zst, v_jc, hbar[: jc + 1, :jc],
                              what="augmented Arnoldi relation")
        # after a lucky breakdown the last recorded estimate predates the
        # breakdown step, so the gap is not meaningful
        st.restart_residual(f"GMRES-DR restart {st.cycles}", gap=not lucky)
        if np.all(st.converged):
            break

        # ---- deflated restart: harmonic Ritz + LS residual ---------------
        with tr.span("eig", kind="harmonic_ritz"):
            hmat = hessenberg_harmonic_lhs(hj, None,
                                           hbar[jc: jc + 1, jc - 1: jc], 1)
            pk = invariant_subspace(hmat, min(k, jc - 1),
                                    target=options.recycle_target)
        if pk.shape[1] == 0:
            v_aug = None
            h_lead = None
            continue
        kk = pk.shape[1]
        # append the LS residual of the projected problem (Morgan's trick)
        ls_res = c_rhs[: jc + 1] - hj @ y
        p_ext = np.zeros((jc + 1, kk + 1), dtype=dtype)
        p_ext[:jc, :kk] = pk
        p_ext[:, kk] = ls_res
        q, _ = np.linalg.qr(p_ext)
        led.flop(Kernel.QR, 4.0 * (jc + 1) * (kk + 1) ** 2)
        v_aug = v[:, : jc + 1] @ q               # n x (kk+1), orthonormal
        h_lead = q[:, : kk + 1].conj().T @ hj @ q[:jc, :kk]
        led.flop(Kernel.BLAS3, 4.0 * n * (jc + 1) * (kk + 1))
        if not SCHEMES[scheme].exact_basis:
            # single-pass / sketched schemes leave V only approximately
            # (sketch-)orthonormal; restore the carried augmented basis to
            # machine precision so c_rhs = V^H r stays exact:
            # V = Q2 R2  =>  A M Q2[:, :kk] = Q2 (R2 H R2[:kk,:kk]^-1)
            q2, r2 = np.linalg.qr(v_aug)
            led.flop(Kernel.QR, 4.0 * n * (kk + 1) ** 2)
            v_aug = q2
            h_lead = r2 @ h_lead @ np.linalg.inv(r2[:kk, :kk])

    return st.result("gmresdr", {"restart": m_dim, "k": k})
