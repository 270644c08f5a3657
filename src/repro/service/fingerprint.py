"""Cheap operator fingerprints for setup caching and same-system detection.

A fingerprint answers "is this numerically the *same* operator I solved
with before?" without holding a reference to the matrix.  It splits into

* a **structure** hash over ``shape``, ``dtype`` and the sparsity pattern
  (``indptr``/``indices``), which changes when the graph changes; and
* a **value** hash over the ``data`` array, which changes when any entry
  changes — including in-place mutation of a cached operator, which must
  produce a cache *miss*, never a stale factorization.

Hashing is a single streaming pass over the CSR arrays (BLAKE2b), i.e.
``O(nnz)`` bytes — negligible next to a factorization or even one SpMM
sweep, so :class:`repro.api.Solver` can afford to fingerprint on every
call.

Operators that do not expose their entries (bare :class:`repro.Operator`
wrappers around callables) get an *opaque* fingerprint derived from their
GC-safe identity tag: caching then degrades to object identity, which is
safe (two distinct opaque operators never alias) but cannot coalesce
value-equal duplicates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.sparse as sp

from ..util.misc import identity_tag

__all__ = ["Fingerprint", "operator_fingerprint"]


#: ``np.dtype -> (str(dtype), its bytes)``: ``str(dtype)`` costs ~3 us, and a
#: request would pay it once per digested array plus once for the label
_DTYPE_NAMES: dict[np.dtype, tuple[str, bytes]] = {}


def _dtype_name(dtype: np.dtype) -> tuple[str, bytes]:
    try:
        return _DTYPE_NAMES[dtype]
    except KeyError:
        name = str(dtype)
        out = _DTYPE_NAMES[dtype] = (name, name.encode())
        return out


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        h.update(_dtype_name(arr.dtype)[1])
        h.update(arr.data)      # the buffer itself, no tobytes() copy
    return h.hexdigest()


@dataclass(frozen=True)
class Fingerprint:
    """Hashable identity of an operator's numerical content.

    Two fingerprints compare equal iff shape, dtype, sparsity structure
    and values all match (up to BLAKE2b collision odds, ~2^-64).  For
    opaque operators ``structure``/``values`` encode the identity tag and
    equality degrades to object identity.
    """

    kind: str                 # "csr", "csc", "dense", "opaque"
    shape: tuple[int, ...]
    dtype: str
    structure: str
    values: str

    @property
    def opaque(self) -> bool:
        return self.kind == "opaque"

    def same_structure(self, other: "Fingerprint") -> bool:
        """Equal sparsity pattern (values may differ)."""
        return (self.kind == other.kind and self.shape == other.shape
                and self.structure == other.structure)

    def short(self) -> str:
        """Compact label for logs and ``info["service"]`` reports."""
        return f"{self.kind}{self.shape[0]}x{self.shape[-1]}:{self.values[:8]}"


def operator_fingerprint(a: Any) -> Fingerprint:
    """Fingerprint a sparse matrix, dense array, or operator-like object.

    Accepts everything :func:`repro.as_operator` accepts.  Sparse and dense
    matrices are fingerprinted by value; anything else (an
    :class:`~repro.krylov.base.Operator`, row-partitioned or not) by its
    identity tag.
    """
    if sp.issparse(a):
        if a.format not in ("csr", "csc"):
            a = a.tocsr()
        return Fingerprint(
            kind=a.format,
            shape=tuple(a.shape),
            dtype=_dtype_name(a.dtype)[0],
            structure=_digest(a.indptr, a.indices),
            values=_digest(a.data),
        )
    if isinstance(a, np.ndarray):
        return Fingerprint(
            kind="dense",
            shape=tuple(a.shape),
            dtype=_dtype_name(a.dtype)[0],
            structure="dense",
            values=_digest(a),
        )
    # Operator (or anything else): fall back to the GC-safe identity tag (a
    # fresh tag per distinct object).
    tag = getattr(a, "tag", None)
    if tag is None:
        tag = identity_tag(a)
    shape = tuple(getattr(a, "shape", ()) or ())
    dtype = str(getattr(a, "dtype", "unknown"))
    return Fingerprint(kind="opaque", shape=shape, dtype=dtype,
                       structure=f"tag:{tag}", values=f"tag:{tag}")
