"""Persistent storage of recycled Krylov subspaces between solves.

The paper allocates persistent memory for the recycled vectors ``U_k`` and
``C_k`` between cycles "using a singleton class" (section III-D).  The
Python equivalent is an explicit, picklable holder object that the caller
threads through a sequence of solves (or lets :class:`repro.api.Solver` or
the service's ``SetupCache`` manage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["RecycledSubspace"]


@dataclass
class RecycledSubspace:
    """The pair ``(U_k, C_k)`` with ``A U_k = C_k`` and ``C_k^H C_k = I``.

    ``op_tag`` identifies the operator the invariants currently hold for —
    when the next solve presents a different operator, GCRO-DR must
    re-orthonormalize (``[Q,R] = qr(A U_k)``, paper lines 4-6) unless the
    caller promises the operator is unchanged
    (``-hpddm_recycle_same_system``).

    ``fingerprint`` (when stamped by :class:`repro.service.SolveService`
    or a cache-backed :class:`repro.api.Solver`) additionally pins the
    operator's *values*: unlike ``op_tag``, it distinguishes an operator
    whose entries were mutated in place, so cached spaces are never
    adopted under the fast path against numerically different systems.
    """

    u: np.ndarray
    c: np.ndarray
    op_tag: Any = None
    meta: dict[str, Any] = field(default_factory=dict)
    fingerprint: Any = None

    @property
    def k(self) -> int:
        return 0 if self.u is None else self.u.shape[1]

    def matches_operator(self, tag: Any) -> bool:
        return self.op_tag is not None and self.op_tag == tag

    def matches_fingerprint(self, fingerprint: Any) -> bool:
        """Value-level match (stricter than ``matches_operator``)."""
        return self.fingerprint is not None and self.fingerprint == fingerprint

    def copy(self) -> "RecycledSubspace":
        return RecycledSubspace(self.u.copy(), self.c.copy(), self.op_tag,
                                dict(self.meta), self.fingerprint)
