"""The one-GEMM slab products — oracle for the row-panel kernels.

``conj_gram`` and ``slab_matmul`` of ``repro.la.orthogonalization`` as every
product over an ``n x cols`` basis slab was written before the row panels:
one BLAS call over the whole slab.  The kernels keep exactly this below two
panels, for complex operands and for self-Grams; above, they sum per-panel
products and agree to rounding.  Kept only as the reference for
``tests/test_slab_panels.py``.
"""

from __future__ import annotations

import numpy as np


def conj_gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(x):
        return (x.T @ y.conj()).conj()
    return x.T @ y


def slab_matmul(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    return x @ c


#: every module that binds a kernel by name, and the names it binds
BOUND = {
    "repro.la.orthogonalization": ("conj_gram", "slab_matmul"),
    "repro.krylov.restart": ("slab_matmul",),
    "repro.krylov.gcrodr": ("slab_matmul",),
}


def install(monkeypatch) -> None:
    """Route every bound name to the one-GEMM formulation for one test."""
    import importlib

    for module, names in BOUND.items():
        mod = importlib.import_module(module)
        for name in names:
            monkeypatch.setattr(mod, name, globals()[name])
