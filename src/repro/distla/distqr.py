"""Distributed tall-skinny QR over a virtual process grid.

The communication-critical kernel of GCRO-DR (paper lines 11 and 24):

* **CholQR** — one Gram, one all-reduce, one redundant Cholesky, one local
  triangular solve (single reduction total);
* **TSQR** — per-rank local Householder QR, a binary reduction tree over
  the small R factors (single reduction, unconditionally stable);
* **CGS** — column-by-column projection: ``2p - 1`` reductions, retained
  as the baseline the paper's §III-D compares against.

CholQR, CholQR2 and CGS run as one GEMM / solve on the contiguous backing
store of a :class:`DistributedBlockVector`, charging the reductions a
rank-partitioned run pays; TSQR runs its local QRs on the per-rank views,
because its local-QR + reduction-tree flop counts *are* the algorithm being
accounted.  The rank-by-rank bodies are a test oracle under
``tests/fixtures/``, held to the same numerics and bit-identical ledger
counts.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..util import ledger
from ..util.ledger import Kernel
from .. import verify
from .distvec import DistributedBlockVector

__all__ = ["distributed_cholqr", "distributed_cholqr2", "distributed_tsqr",
           "distributed_cgs_qr"]


def _verify_qr(x: DistributedBlockVector, q: DistributedBlockVector,
               r: np.ndarray, what: str) -> None:
    """Report the factorization to the ambient invariant checker (if any).

    Assembles the global arrays only at ``full`` level — the allgather this
    implies in a real run is exactly why the check is opt-in.  Columns below
    the numerical rank (zero/deficient diagonal of ``R``) are excluded from
    the orthonormality test; the reconstruction test covers all of them.
    """
    chk = verify.current()
    if not chk.wants_full:
        return
    d = np.abs(np.diagonal(r))
    scale = float(d.max()) if d.size else 0.0
    rank = int(np.count_nonzero(d > 1e-12 * scale)) if scale > 0 else 0
    chk.check_qr(x.to_global(), q.to_global(), r, rank=rank, what=what)


def distributed_cholqr(x: DistributedBlockVector
                       ) -> tuple[DistributedBlockVector, np.ndarray]:
    """CholQR on a distributed block: one reduction, Gram + local solves."""
    grid = x.grid
    led = ledger.current()
    data = x.global_data
    gram = data.conj().T @ data                 # the single reduction
    led.reduction(nbytes=gram.nbytes)
    r = np.linalg.cholesky(gram).conj().T       # redundant on every rank
    led.flop(Kernel.BLAS3, 2.0 * grid.n * x.p ** 2)
    q = sla.solve_triangular(r.T, data.T, lower=True).T
    qv = DistributedBlockVector._from_data(grid, q)
    _verify_qr(x, qv, r, "distributed CholQR")
    return qv, r


def distributed_cholqr2(x: DistributedBlockVector
                        ) -> tuple[DistributedBlockVector, np.ndarray]:
    """CholQR2: shifted first pass + one refinement pass — 2 reductions.

    The first Gram gets the classic ``11(np + p(p+1)) u ||x||^2`` diagonal
    shift so the Cholesky cannot break down; the second pass restores
    orthonormality to machine precision.  The distributed counterpart of
    :func:`repro.la.orthogonalization.cholqr2`.
    """
    grid = x.grid
    p = x.p
    led = ledger.current()
    u = np.finfo(np.float64).eps
    data = x.global_data
    gram = data.conj().T @ data                     # reduction 1
    led.reduction(nbytes=gram.nbytes)
    shift = 11.0 * (grid.n * p + p * (p + 1)) * u * float(np.trace(gram).real)
    r1 = np.linalg.cholesky(
        gram + shift * np.eye(p, dtype=gram.dtype)).conj().T
    led.flop(Kernel.BLAS3, 2.0 * grid.n * p ** 2)
    q1 = sla.solve_triangular(r1.T, data.T, lower=True).T
    g2 = q1.conj().T @ q1                           # reduction 2
    led.reduction(nbytes=g2.nbytes)
    r2 = np.linalg.cholesky(g2).conj().T
    led.flop(Kernel.BLAS3, 2.0 * grid.n * p ** 2)
    q = sla.solve_triangular(r2.T, q1.T, lower=True).T
    qv = DistributedBlockVector._from_data(grid, q)
    r = r2 @ r1
    _verify_qr(x, qv, r, "distributed CholQR2")
    return qv, r


def distributed_tsqr(x: DistributedBlockVector
                     ) -> tuple[DistributedBlockVector, np.ndarray]:
    """TSQR: local Householder QRs + a binary tree over the R factors.

    The tree is executed explicitly (one reduction charged); the thin Q is
    reconstructed by back-substituting the combined R — stable for any
    block the local QRs can handle.
    """
    p = x.p
    led = ledger.current()
    rs = []
    for a in x.locals:
        rs.append(np.linalg.qr(a, mode="r"))
        led.flop(Kernel.QR, 4.0 * a.shape[0] * p ** 2)
    # binary reduction tree over the p x p R factors: pairs merge, an odd
    # one out is carried to the next level
    while len(rs) > 1:
        merged = []
        for top, bottom in zip(rs[::2], rs[1::2]):
            merged.append(np.linalg.qr(np.vstack([top, bottom]), mode="r"))
            led.flop(Kernel.QR, 8.0 * p ** 3)
        rs = merged + rs[2 * len(merged):]
    data = x.global_data
    led.reduction(nbytes=p * p * data.itemsize)
    r_final = rs[0]
    try:
        q = sla.solve_triangular(r_final.conj().T, data.conj().T,
                                 lower=True).conj().T
    except (sla.LinAlgError, ValueError):
        q = np.linalg.lstsq(r_final.conj().T, data.conj().T,
                            rcond=None)[0].conj().T
    qv = DistributedBlockVector._from_data(x.grid, q)
    _verify_qr(x, qv, r_final, "distributed TSQR")
    return qv, r_final


def distributed_cgs_qr(x: DistributedBlockVector
                       ) -> tuple[DistributedBlockVector, np.ndarray]:
    """Classical Gram-Schmidt, one column at a time: 2p - 1 reductions."""
    p = x.p
    led = ledger.current()
    work = x.global_data.astype(
        np.promote_types(x.global_data.dtype, np.float64), copy=True)
    r = np.zeros((p, p), dtype=work.dtype)
    for j in range(p):
        if j > 0:
            coeffs = work[:, :j].conj().T @ work[:, j: j + 1]
            led.reduction(nbytes=coeffs.nbytes)
            work[:, j: j + 1] -= work[:, :j] @ coeffs
            r[:j, j] = coeffs[:, 0]
        nrm2 = np.array([np.vdot(work[:, j], work[:, j]).real])
        led.reduction(nbytes=nrm2.nbytes)
        nrm = float(np.sqrt(nrm2[0]))
        if nrm > 0:
            work[:, j] /= nrm
        r[j, j] = nrm
    qv = DistributedBlockVector._from_data(x.grid, work)
    _verify_qr(x, qv, r, "distributed CGS QR")
    return qv, r
