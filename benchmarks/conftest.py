"""Benchmark-suite configuration: make `import common` work from anywhere,
and measure on one BLAS thread or not at all.

The thread pin is set here, before any benchmark module loads numpy, and
then checked against what numpy's bundled OpenBLAS says it will use — the
environment variable is only a request, and a numpy loaded earlier (by a
plugin, or an interpreter started with two threads) ignores it.
"""

import ctypes
import glob
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

sys.path.insert(0, str(Path(__file__).parent))


def blas_threads() -> int:
    """Threads numpy's bundled OpenBLAS runs a BLAS call on, asked of the
    library itself (``numpy.libs/libscipy_openblas64_*.so``)."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        numpy.__file__)), "numpy.libs", "libscipy_openblas64_*.so"))
    if not libs:
        raise RuntimeError("numpy's bundled OpenBLAS not found: cannot "
                           "check that benchmarks run on one BLAS thread")
    get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return int(get())


_threads = blas_threads()
if _threads != 1:
    raise RuntimeError(
        f"numpy's OpenBLAS runs {_threads} threads; every benchmark is "
        f"measured on one (a threaded GEMM on a skinny block measures "
        f"thread contention, not the kernel).  Export "
        f"{'=1 '.join(THREAD_VARS)}=1 before starting pytest.")
