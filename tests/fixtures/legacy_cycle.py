"""The list-of-blocks block-Arnoldi cycle — oracle for the arena cycle.

This is the loop ``repro.krylov.cycle.block_arnoldi_cycle`` ran before the
basis moved onto :class:`repro.krylov.basis.BasisArena`: the basis is a
Python list of contiguous ``n x p`` blocks and every orthogonalization
step re-materializes the stacked operand with ``np.concatenate``.  It is
kept only as the reference the zero-copy cycle must match *bitwise* —
``V``, ``Z``, ``E_k``, the Hessenberg-QR state and ``CostLedger.counts()``
(see ``tests/test_basis_arena.py``).  Every engine takes the stacked
``[C_k | V | W]`` operand; here it gets a freshly concatenated copy each
step, which is exactly what the arena's zero-copy views replace.  Every
stacked operand is made column-major, the arena's layout: BLAS results
depend on operand layout in the last bits, and the oracle's bits must be
the arena's.  The seed projection against ``C_k`` (low-synchronization
schemes only; the ``cgs`` engine's ``begin`` leaves the seed alone) uses
the library's ``slab_matmul`` for the same reason: it is the product the
engines' ``begin`` spells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.la.blockqr import BlockHessenbergQR
from repro.la.orthogonalization import (LOW_SYNC_SCHEMES,
                                        make_arnoldi_engine, slab_matmul)
from repro.trace import tracer as trace
from repro.util import ledger


@dataclass
class LegacyCycleState:
    v_blocks: list[np.ndarray]            # j+1 orthonormal blocks (n x p)
    z_blocks: list[np.ndarray]            # j preconditioned blocks (n x p)
    hqr: BlockHessenbergQR
    e_cols: list[np.ndarray] = field(default_factory=list)
    steps: int = 0
    breakdown: bool = False
    converged_early: bool = False
    e0: np.ndarray | None = None

    def v_stack(self) -> np.ndarray:
        return np.concatenate(self.v_blocks, axis=1)

    def z_stack(self) -> np.ndarray:
        return np.concatenate(self.z_blocks, axis=1)

    def ek_matrix(self) -> np.ndarray:
        if not self.e_cols:
            return np.zeros((0, 0))
        return np.concatenate(self.e_cols, axis=1)


def legacy_block_arnoldi_cycle(op_apply, inner_m, v1, s1, *, max_steps,
                               ck=None, ortho="cgs", deflation_tol=1e-12,
                               targets=None,
                               identity_m=False) -> LegacyCycleState:
    dtype = v1.dtype
    p = v1.shape[1]
    k = ck.shape[1] if ck is not None else 0
    led = ledger.current()
    tr = trace.current()

    e0 = None
    if ortho in LOW_SYNC_SCHEMES and k:
        e0 = np.asarray(ck).conj().T @ v1
        v1 = v1 - slab_matmul(ck, e0)
        led.flop(ledger.Kernel.BLAS3, 4.0 * v1.shape[0] * k * p)
        led.reduction(nbytes=k * p * v1.itemsize)
    # the seed is projected above, as the cycle did before the engines'
    # ``begin`` took that over, so ``begin`` is not called
    engine = make_arnoldi_engine(ortho, tol=deflation_tol)

    hqr = BlockHessenbergQR(max_steps, p, np.asarray(s1, dtype=dtype),
                            dtype=dtype)
    state = LegacyCycleState(v_blocks=[v1], z_blocks=[], hqr=hqr, e0=e0)

    for j in range(max_steps):
        with tr.span("arnoldi_step", j=j):
            vj = state.v_blocks[j]
            zj = vj if identity_m else \
                np.asarray(inner_m(vj)).astype(dtype, copy=False)
            state.z_blocks.append(zj)
            w = op_apply(zj)
            with tr.span("ortho", scheme=ortho):
                stacked = np.asfortranarray(np.concatenate(
                    ([ck] if k else []) + state.v_blocks + [w], axis=1))
                q, h, s, rank, e_col = engine.step(stacked, p, k=k)
                if k:
                    state.e_cols.append(e_col)
            h_col = np.concatenate([h, s], axis=0)
            res = hqr.add_column(h_col)
            state.steps = j + 1
        led.event("arnoldi_step")
        if rank < p:
            state.breakdown = True
            break
        state.v_blocks.append(q)
        if targets is not None and np.all(res <= targets):
            state.converged_early = True
            break
    return state
