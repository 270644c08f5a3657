"""Small shared helpers: shaping, dtype promotion, norms, RNG discipline."""

from __future__ import annotations

import itertools
import weakref
from typing import Any

import numpy as np

__all__ = [
    "as_block",
    "column_norms",
    "invalid_input",
    "result_dtype",
    "is_complex_dtype",
    "default_rng",
    "relative_residual_norms",
    "next_tag",
    "identity_tag",
]


_TAG_COUNTER = itertools.count(1)
# id(obj) -> (weakref, tag); entries are dropped when the object dies, and
# a stale entry whose id() was recycled is detected by the ref check below.
_TAG_REGISTRY: dict[int, tuple[Any, int]] = {}


def next_tag() -> int:
    """A process-unique monotonic identity tag.

    Unlike ``id()``, a tag is never reused after garbage collection, so it
    is safe for same-system detection across solver sequences (a recycled
    ``id`` could spuriously re-enable the unchanged-operator fast path).
    """
    return next(_TAG_COUNTER)


def _drop_dead_tag(key: int) -> None:
    entry = _TAG_REGISTRY.get(key)
    if entry is not None and entry[0]() is None:
        del _TAG_REGISTRY[key]


def identity_tag(obj: Any) -> int:
    """Stable monotonic tag for a live object (the GC-safe ``id``).

    Repeated calls on the same live object return the same tag; a new
    object always gets a fresh tag even if it reuses the old address.
    Objects that cannot be weak-referenced get a fresh tag on every call —
    same-system detection then degrades to a (safe) false negative.
    """
    key = id(obj)
    entry = _TAG_REGISTRY.get(key)
    if entry is not None and entry[0]() is obj:
        return entry[1]
    tag = next(_TAG_COUNTER)
    try:
        ref = weakref.ref(obj)
        weakref.finalize(obj, _drop_dead_tag, key)
    except TypeError:
        return tag
    _TAG_REGISTRY[key] = (ref, tag)
    return tag


def as_block(x: np.ndarray, *, copy: bool = False) -> np.ndarray:
    """Return ``x`` as a 2-D ``n x p`` block (a vector becomes ``n x 1``).

    The solver stack works exclusively on tall-skinny blocks so single- and
    multiple-RHS code paths are uniform ("pseudo-block" fusion falls out of
    operating on whole blocks at once).
    """
    arr = np.array(x, copy=True) if copy else np.asarray(x)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError(f"expected a vector or an n x p block, got ndim={arr.ndim}")
    return arr


def column_norms(x: np.ndarray) -> np.ndarray:
    """2-norm of every column, computed in one fused pass (one 'reduction')."""
    x = as_block(x)
    return np.sqrt(np.einsum("ij,ij->j", x.real, x.real) + (
        np.einsum("ij,ij->j", x.imag, x.imag) if np.iscomplexobj(x) else 0.0
    ))


def invalid_input(n: int, b: Any, x0: Any = None) -> str | None:
    """Why ``b`` / ``x0`` cannot be solved against an ``n``-row operator, or
    ``None``: the door check of ``api.solve`` and the solve services.  A
    non-finite entry never reaches a solver — there a NaN column stalls the
    pseudo-block loop and poisons every column of a block it shares."""
    for name, arr in (("b", b), ("x0", x0)):
        if arr is None:
            continue
        arr = np.asarray(arr)
        if arr.dtype.kind not in "biufc":
            return f"{name} has non-numeric dtype {arr.dtype}"
        if arr.ndim not in (1, 2) or arr.shape[0] != n:
            return (f"{name} has shape {arr.shape}; expected a vector or "
                    f"block with the operator's {n} rows")
        finite = np.isfinite(arr)
        if not finite.all():
            col = int(np.flatnonzero(~as_block(finite).all(axis=0))[0])
            return f"{name} column {col} holds a non-finite value"
    return None


def result_dtype(*arrays: np.ndarray | np.dtype | type) -> np.dtype:
    """Common floating dtype of the operands (at least float64)."""
    dtypes = []
    for a in arrays:
        if isinstance(a, np.ndarray):
            dtypes.append(a.dtype)
        else:
            dtypes.append(np.dtype(a))
    return np.promote_types(np.result_type(*dtypes), np.float64)


def is_complex_dtype(dtype: np.dtype | type) -> bool:
    return np.issubdtype(np.dtype(dtype), np.complexfloating)


def default_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize a seed-or-generator argument to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def relative_residual_norms(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column ||r_j|| / ||b_j|| with a safe fallback for zero columns."""
    nb = column_norms(b)
    nr = column_norms(r)
    safe = np.where(nb > 0.0, nb, 1.0)
    return nr / safe
