"""Numerical invariant verification subsystem (``-hpddm_verify``).

See :mod:`repro.verify.checker` for the contract catalogue and levels.
"""

from .checker import (NULL_CHECKER, VERIFY_LEVELS, InvariantChecker,
                      InvariantViolation, NullChecker, activate, checker_for,
                      current)

__all__ = [
    "NULL_CHECKER",
    "VERIFY_LEVELS",
    "InvariantChecker",
    "InvariantViolation",
    "NullChecker",
    "activate",
    "checker_for",
    "current",
]
