"""Execution-mode switch of the simulated-MPI substrate.

The distributed primitives in :mod:`repro.simmpi` and :mod:`repro.distla`
each have two numerically equivalent implementations:

* ``"fused"`` (default) — one vectorized numpy/scipy operation on the
  global array, with the ledger charged in O(1) from a precomputed
  :class:`~repro.util.ledger.CostTable`.  This is the fast path: at
  ``nranks >= 64`` the per-rank Python loops dominate the actual numerics
  by an order of magnitude.
* ``"per_rank"`` — execute every collective, halo exchange and local
  kernel rank-by-rank, charging the ledger event-by-event.  This is the
  validation oracle: the equivalence tests assert that both modes produce
  allclose numerics and *bit-identical* ledger counts, so the paper's
  counting arguments are provably unaffected by the fast path.

The mode is ambient process state (like the ledger stack): primitives
consult :func:`exec_mode` at call time.  It is private to those two
packages — no solver, preconditioner or option reads it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["EXEC_MODES", "exec_mode", "set_exec_mode", "use_exec_mode"]

EXEC_MODES = ("fused", "per_rank")

_MODE: list[str] = ["fused"]


def _check(mode: str) -> str:
    if mode not in EXEC_MODES:
        raise ValueError(f"unknown exec_mode {mode!r}; expected one of {EXEC_MODES}")
    return mode


def exec_mode() -> str:
    """The currently active execution mode (``"fused"`` or ``"per_rank"``)."""
    return _MODE[-1]


def set_exec_mode(mode: str) -> str:
    """Set the active mode in place; returns the previous one."""
    previous = _MODE[-1]
    _MODE[-1] = _check(mode)
    return previous


@contextmanager
def use_exec_mode(mode: str) -> Iterator[str]:
    """Temporarily switch the execution mode.

    >>> with use_exec_mode("per_rank"):
    ...     exec_mode()
    'per_rank'
    >>> exec_mode()
    'fused'
    """
    _MODE.append(_check(mode))
    try:
        yield mode
    finally:
        _MODE.pop()
