"""Compiled-vs-interpret conservation cross-check.

The execution-plan compiler (``-hpddm_plan compiled``) is required to be a
*pure* optimization: for any workload, the
:class:`~repro.util.ledger.CostLedger` counts *and* the iterates must be
bit-identical against the interpreter.  This module packages that
equivalence as an invariant check so the conformance matrix (and users
debugging a lowering change) can assert it for whole solves.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..util import ledger
from ..util.ledger import CostLedger
from .checker import InvariantChecker

__all__ = ["cross_check_plan_modes"]


def cross_check_plan_modes(fn: Callable[[str], Any], *,
                           checker: InvariantChecker | None = None,
                           extract: Callable[[Any], np.ndarray] | None = None,
                           what: str = "workload") -> tuple[Any, Any]:
    """Run ``fn`` under both plan modes and assert the oracle contract.

    ``fn`` takes the plan mode (``"interpret"`` / ``"compiled"``) — e.g.
    ``lambda plan: solve(A, b, options=o.replace(plan=plan))`` — and is
    invoked once per mode under a fresh ledger.  The compiled plan promises
    **bit-identical** iterates, so the numeric comparison is exact
    (``np.array_equal``), not a tolerance.

    Returns the two results ``(interpret_result, compiled_result)``.
    """
    chk = checker or InvariantChecker("full", context="cross-check")
    results: dict[str, Any] = {}
    ledgers: dict[str, CostLedger] = {}
    for mode in ("interpret", "compiled"):
        with ledger.install() as led:
            results[mode] = fn(mode)
        ledgers[mode] = led
    chk.check_ledger_conservation(ledgers["interpret"], ledgers["compiled"],
                                  what=what)
    a, b = results["interpret"], results["compiled"]
    if extract is not None:
        a_arr, b_arr = np.asarray(extract(a)), np.asarray(extract(b))
    elif isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        a_arr, b_arr = a, b
    else:
        a_arr = b_arr = None
    if a_arr is not None and not np.array_equal(a_arr, b_arr):
        gap = float(np.max(np.abs(a_arr - b_arr)))
        chk._record("plan_mode_numerics", gap, 0.0,
                    f"{what}: compiled plan iterates diverge from the "
                    "interpreter (bit-identity contract)")
    return results["interpret"], results["compiled"]
