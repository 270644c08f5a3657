"""The einsum pseudo-block projector cores — oracle for the BLAS cores.

These are the ``_pb_step_*`` cores of ``repro.la.orthogonalization`` as they
were while the basis tensor was stored ``(cols, n, p)``: every contraction
an ``np.einsum`` over the 3-D basis, which cannot reach BLAS (a column's
basis has no unit stride) and runs at ~2 GF/s.  Same signatures, same
results to rounding; kept only as the reference for
``tests/test_pb_projector.py`` and the ``pb_projector`` section of
``benchmarks/bench_micro_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from repro.util.misc import column_norms


def _pb_step_cgs(basis, w):
    dots = np.einsum("inp,np->ip", basis.conj(), w)
    w2 = w - np.einsum("inp,ip->np", basis, dots)
    return w2, dots, column_norms(w2)


def _pb_step_cgs2_1r(basis, w):
    d1 = np.einsum("inp,np->ip", basis.conj(), w)
    w1 = w - np.einsum("inp,ip->np", basis, d1)
    d2 = np.einsum("inp,np->ip", basis.conj(), w1)
    w1sq = np.einsum("np,np->p", w1.conj(), w1).real
    w2 = w1 - np.einsum("inp,ip->np", basis, d2)
    dots = d1 + d2
    nrm2 = w1sq - np.einsum("ip,ip->p", d2.conj(), d2).real
    nrm = np.sqrt(np.maximum(nrm2, 0.0))
    bad = (nrm2 < 0.25 * w1sq) & (w1sq > 0)
    nbad = int(np.count_nonzero(bad))
    if nbad:
        nrm = np.where(bad, column_norms(w2), nrm)
    return w2, dots, nrm, nbad


CORES = {"_pb_step_cgs": _pb_step_cgs, "_pb_step_cgs2_1r": _pb_step_cgs2_1r}
