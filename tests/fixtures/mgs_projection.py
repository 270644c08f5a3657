"""Modified Gram-Schmidt projection — the count oracle of paper §III-D.

CGS projects a block against a ``k``-column basis with one reduction (all
``k`` dot products travel together); MGS needs the updated remainder
before each next dot product, so it pays ``k`` sequential reductions.  No
solver orthogonalizes this way — the Arnoldi schemes are ``cgs``,
``cgs2_1r`` and ``cholqr2`` — so MGS lives here, as the
reference the paper's count argument and the ``ortho`` section of
``benchmarks/bench_micro_kernels.py`` (loss of orthogonality and wall time
of ``cgs2_1r`` against MGS) measure against.  This is the arithmetic and
the charges of the ``mgs`` branch ``repro.la.orthogonalization.project_out``
had while MGS was a scheme.
"""

from __future__ import annotations

import numpy as np

from repro.util import ledger
from repro.util.ledger import Kernel
from repro.util.misc import as_block


def mgs_project_out(basis: np.ndarray, w: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``(w - basis @ coeffs, coeffs)`` one basis column at a time: ``k``
    reductions for a ``k``-column ``basis``."""
    w = as_block(w)
    if basis.size == 0:
        return w.copy(), np.zeros((0, w.shape[1]), dtype=w.dtype)
    led = ledger.current()
    # a C-order copy whatever w's layout: a GEMV's bits depend on it
    w2 = np.array(w, order="C")
    k = basis.shape[1]
    coeffs = np.zeros((k, w.shape[1]),
                      dtype=np.promote_types(basis.dtype, w.dtype))
    for i in range(k):
        c = basis[:, i:i + 1].conj().T @ w2
        led.reduction(nbytes=w.shape[1] * w.itemsize)
        led.flop(Kernel.BLAS2, 4.0 * basis.shape[0] * w.shape[1])
        w2 -= basis[:, i:i + 1] @ c
        coeffs[i] = c[0]
    return w2, coeffs
