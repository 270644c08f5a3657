"""Public solve API: one entry point, HPDDM-style method dispatch.

Two levels of convenience:

* :func:`solve` — one-shot functional interface;
* :class:`Solver` — stateful interface for *sequences* of linear systems
  ``A_i X_i = B_i`` (paper eq. 1): it owns the recycled subspace between
  solves, auto-detects unchanged operators (the non-variable fast path of
  section III-B) and re-orthonormalizes the recycled space when the
  operator does change.
"""

from __future__ import annotations

from contextlib import ExitStack
from functools import partial

import numpy as np

from .krylov import recycling
from .krylov.base import SolveResult, as_operator
from .krylov.bgmres import bgmres
from .krylov.gcrodr import gcrodr
from .krylov.gmres import gmres
from .krylov.gmresdr import gmresdr
from .krylov.lgmres import lgmres
from .krylov.pgcrodr import pgcrodr
from .krylov.recycling import PseudoBlockRecycle, RecycledSubspace
from .krylov.shifted import (ShiftedFamilyResult, shifted_matrix,
                             solve_shifted_family)
from .service.cache import SetupCache
from .service.fingerprint import operator_fingerprint
from .service.service import recycle_kind
from .util import ledger
from .util.misc import as_block, invalid_input
from .util.options import OptionError, Options
from . import trace, verify

__all__ = ["solve", "Solver"]


def solve(a, b, m=None, *, options: Options | None = None,
          x0: np.ndarray | None = None,
          recycle: "RecycledSubspace | PseudoBlockRecycle | None" = None,
          same_system: bool | None = None,
          shifts=None, mass=None) -> SolveResult:
    """Solve ``A X = B`` with the method selected by ``options.krylov_method``.

    Parameters mirror the individual solver functions; ``recycle`` and
    ``same_system`` are only consumed by the recycling methods.

    With ``shifts=[sigma_1, ..., sigma_k]`` the call solves the *family*
    ``(A + sigma_i M) x_i = b_i`` on one shared block-Arnoldi basis
    (:mod:`repro.krylov.shifted`) and returns a
    :class:`~repro.krylov.shifted.ShiftedFamilyResult` with one
    :class:`SolveResult` per shift; ``mass`` is the optional ``M``
    (identity by default).  Preconditioning is rejected for family solves
    — it breaks the shift invariance the shared basis relies on.

    With ``options.verify != "off"`` one :class:`~repro.verify.InvariantChecker`
    is activated around the whole solve (so every solver hook feeds a
    single report, returned in ``result.info["verify"]``), and
    the reported final residual is cross-checked against ``||B - A X||``.

    >>> import scipy.sparse as sp, numpy as np
    >>> A = sp.diags([2.0] * 100)
    >>> b = np.ones(100)
    >>> res = solve(A, b, options=Options(krylov_method="gmres"))
    >>> bool(res.converged.all())
    True
    """
    options = options or Options()
    problem = invalid_input(np.shape(a)[0], b, x0)
    if problem is not None:
        raise ValueError(problem)
    if shifts is not None and m is not None:
        raise OptionError(
            "preconditioning breaks the shift invariance family solves "
            "rely on; solve shifted families unpreconditioned (or fold "
            "the preconditioner into the operator before shifting)")
    if shifts is None and mass is not None:
        raise OptionError("mass is only meaningful together with shifts")
    run = partial(_solve_checked, a, b, m, options=options, x0=x0,
                  recycle=recycle, same_system=same_system, shifts=shifts,
                  mass=mass)
    tracer = trace.tracer_for(options)
    # trace=off default: no spans, no extra info keys, no extra ledger —
    # counts() and info stay byte-identical to the untraced behavior
    return _solve_traced(tracer, options, run, shifts) if tracer.enabled \
        else run()


def _solve_traced(tracer, options: Options, run, shifts):
    """Run ``run()`` under a root ``solve`` span and attach ``info["trace"]``.

    The one trace prologue/epilogue of plain and family solves.  What an
    ambient tracer adds per call is O(spans of *this* solve): the span
    bookkeeping, one ``to_dict`` of the root and an O(names) summary.
    """
    with ExitStack() as stack:
        if ledger.current().is_null:
            # spans diff the ambient ledger; give them a real one so the
            # trace carries counts even when the caller installed none
            stack.enter_context(ledger.install())
        stack.enter_context(trace.install(tracer))
        span_attrs = {} if shifts is None else {"shifts": len(list(shifts))}
        with tracer.span("solve", method=options.krylov_method,
                         variant=options.variant, **span_attrs) as root:
            res = run()
    # a family reports the engine that ran; a plain solve the method asked for
    method = res.method if isinstance(res, ShiftedFamilyResult) \
        else options.krylov_method
    tracer.metrics.counter("solve_total").inc(method=method)
    tracer.metrics.histogram("solve_iterations").observe(
        res.iterations, method=method)
    for cyc in root.find("cycle"):
        if cyc.cost is not None:
            tracer.metrics.histogram("reductions_per_cycle").observe(
                cyc.cost.reductions, method=method)
    res.info["trace"] = {
        "level": tracer.level,
        "span": root.to_dict(),
        "summary": tracer.summary(),
    }
    return res


def _solve_checked(a, b, m, *, options: Options,
                   **kw) -> SolveResult | ShiftedFamilyResult:
    """The verify-wrapped dispatch body shared by both trace paths and by
    plain and family solves; ``kw`` are :func:`_dispatch`'s."""
    if options.verify == "off":
        return _dispatch(a, b, m, options=options, **kw)
    chk = verify.InvariantChecker(
        options.verify,
        context=options.krylov_method if kw["shifts"] is None else "shifted")
    with verify.activate(chk):
        res = _dispatch(a, b, m, options=options, **kw)
        for op, sres, b_col, what in _true_residuals(a, b, m, res, options,
                                                     kw["mass"]):
            chk.check_final_residual(
                op, as_block(np.asarray(sres.x)), b_col,
                sres.history.records[-1], options.tol,
                converged=sres.converged, what=what)
    res.info["verify"] = chk.report()
    return res


def _true_residuals(a, b, m, res, options: Options, mass):
    """``(operator, result, b, label)`` of each reported-vs-true residual
    check: one for a plain solve, one per shift for a family.

    Skipped where the solver's residual is a transformed one, so a gap
    against ``||B - A X||`` is expected, not a defect: under left
    preconditioning, and for a family with a mass matrix (the engine
    solves the ``M^{-1}``-transformed system).
    """
    b_blk = as_block(np.asarray(b))
    if not isinstance(res, ShiftedFamilyResult):
        if res.history.records and not (options.variant == "left"
                                        and m is not None):
            yield a, res, b_blk, "final residual"
    elif mass is None:
        for i, (sres, sigma) in enumerate(zip(res.results, res.shifts)):
            if sres.history.records:
                b_col = b_blk[:, [0 if b_blk.shape[1] == 1 else i]]
                yield (shifted_matrix(a, sigma), sres, b_col,
                       f"final residual (shift {i})")


def _dispatch(a, b, m, *, options: Options, x0, recycle, same_system,
              shifts, mass) -> SolveResult | ShiftedFamilyResult:
    if shifts is not None:
        rec = recycle if isinstance(recycle, RecycledSubspace) else None
        return solve_shifted_family(a, b, shifts, mass=mass, options=options,
                                    x0=x0, recycle=rec)
    method = options.krylov_method
    if method == "gmres":
        return gmres(a, b, m, options=options, x0=x0)
    if method == "bgmres":
        return bgmres(a, b, m, options=options, x0=x0)
    if method == "gmresdr":
        return gmresdr(a, b, m, options=options, x0=x0)
    if method == "lgmres":
        return lgmres(a, b, m, options=options, x0=x0)
    if method == "gcrodr" and as_block(np.asarray(b)).shape[1] > 1:
        # pseudo-block fusion for multiple RHSs: independent recurrences
        # with batched kernels (paper section V-B1); "bgcrodr" selects the
        # true block method instead.
        rec = recycle if isinstance(recycle, PseudoBlockRecycle) else None
        return pgcrodr(a, b, m, options=options, x0=x0,
                       recycle=rec, same_system=same_system)
    if method in ("gcrodr", "bgcrodr"):
        rec = recycle if isinstance(recycle, RecycledSubspace) else None
        return gcrodr(a, b, m, options=options, x0=x0,
                      recycle=rec, same_system=same_system)
    raise ValueError(f"unknown krylov_method {method!r}")


class Solver:
    """Stateful solver for sequences of linear systems.

    Keeps the recycled Krylov subspace alive between calls (the paper's
    "persistent memory ... allocated using a singleton class") and stamps
    every new pair with the operator's value
    :class:`~repro.service.fingerprint.Fingerprint`.  Whether the next
    call takes the same-system fast path — skip the ``qr(A U_k)``
    re-orthonormalization and freeze the recycled space at restarts
    (``-hpddm_recycle_same_system``) — is
    :func:`repro.krylov.recycling.same_system`'s decision: equal values
    (the same matrix, or an equal copy) take it, changed values never do
    (a matrix whose ``data`` was mutated in place keeps its identity tag
    but not its fingerprint), and the flag only speaks where values cannot
    be compared (an opaque :class:`~repro.krylov.base.Operator`).

    ``reset()`` drops the recycled subspace, so the next solve on this
    instance starts a fresh sequence.

    With a shared ``setup_cache`` (a :class:`repro.service.SetupCache`),
    recycled subspaces are published under the operator's value
    fingerprint, and a Solver with no pair of its own takes the cached
    one: repeat traffic against the same operator hits the fast path
    across *distinct* Solver instances, and a pair the cache adopted from
    a neighbouring operator (``SetupCache.adopt_from``) is taken and
    re-derived, since its stamp names the neighbour.

    Example
    -------
    >>> import numpy as np, scipy.sparse as sp
    >>> A = sp.diags([-np.ones(99), 2*np.ones(100), -np.ones(99)], [-1,0,1]).tocsr()
    >>> s = Solver(options=Options(krylov_method="gcrodr", gmres_restart=20,
    ...                            recycle=5, tol=1e-8))
    >>> r1 = s.solve(A, np.ones(100))
    >>> r2 = s.solve(A, np.arange(100.0))   # reuses the recycled subspace
    >>> bool(r2.converged.all()) and r2.info["same_system"]
    True
    """

    def __init__(self, m=None, *, options: Options | None = None,
                 setup_cache: SetupCache | None = None):
        self.options = options or Options()
        self.preconditioner = m
        self.setup_cache = setup_cache
        self.recycled: RecycledSubspace | PseudoBlockRecycle | None = None
        self.results: list[SolveResult] = []

    def solve(self, a, b, *, x0: np.ndarray | None = None,
              m=None, same_system: bool | None = None) -> SolveResult:
        """Solve the next system in the sequence."""
        op = as_operator(a)
        fp = operator_fingerprint(a)
        if self.recycled is None and self.setup_cache is not None:
            self.recycled = self.setup_cache.get(
                fp, recycle_kind(self.options))
        if same_system is None:
            same_system = recycling.same_system(self.recycled, op.tag, fp,
                                                options=self.options)
        prec = m if m is not None else self.preconditioner
        res = solve(op, b, prec, options=self.options, x0=x0,
                    recycle=self.recycled, same_system=same_system)
        new_space = res.info.get("recycle")
        if new_space is not None:
            new_space.fingerprint = fp
            self.recycled = new_space
            if self.setup_cache is not None:
                self.setup_cache.put(fp, recycle_kind(self.options),
                                     new_space)
        self.results.append(res)
        return res

    def reset(self) -> None:
        """Drop the recycled subspace and the history.

        After a reset the next solve has no pair, so it is never treated as
        same-system and never adopts this instance's previous recycle
        space, even against the very same operator object (it may still
        take one from a shared ``setup_cache``).
        """
        self.recycled = None
        self.results.clear()

    @property
    def total_iterations(self) -> int:
        return sum(r.iterations for r in self.results)
