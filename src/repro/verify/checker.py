"""Runtime numerical invariant checker for the Krylov solver stack.

The solvers of this library share one uniform implementation across
left/right (constant or variable) preconditioning and across
pseudo-block/block/recycling organizations.  That uniformity rests on a handful of *algebraic contracts*
that finite-precision block orthogonalization degrades silently (Parks,
Soodhalter & Szyld; Thomas, Baker & Gaudreault):

* the (block) Arnoldi relation ``A Z_m = V_{m+1} \\bar H_m`` (plus the
  ``C_k E_k`` term under GCRO-DR's projected operator);
* orthonormality of the Krylov basis, ``\\|V^H V - I\\|``;
* the recycled-space identities ``A U_k = C_k`` and ``C_k^H C_k = I`` —
  including after the same-system skip of Fig. 1 lines 3-7, where the
  solver *assumes* they still hold;
* agreement of the Hessenberg-tail (reported) residual with the explicitly
  recomputed one at restarts and at convergence.

Solvers call the checker at checkpoint hooks, gated by the Options level
(``-hpddm_verify {off,cheap,full}``, default off):

* ``off``   — every hook is a no-op on a shared null checker;
* ``cheap`` — only checks that cost small (non-``n``-sized) work: recycled
  basis orthonormality, reported-vs-true residual gaps;
* ``full``  — additionally re-applies the operator and re-forms Gram
  matrices to verify the Arnoldi relation, basis orthonormality and the
  ``A U = C`` map.

Verification work never pollutes cost accounting: each check runs under a
throwaway :class:`~repro.util.ledger.CostLedger`, so enabling ``verify``
does not change the reductions/flops a benchmark observes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from ..util import ledger
from ..util.ledger import CostLedger
from ..util.misc import column_norms

__all__ = [
    "VERIFY_LEVELS",
    "InvariantViolation",
    "InvariantChecker",
    "NullChecker",
    "current",
    "activate",
    "checker_for",
]

VERIFY_LEVELS = ("off", "cheap", "full")

#: smallest reference magnitude used in relative drifts (avoids 0/0)
_TINY = 1e-300


class InvariantViolation(FloatingPointError):
    """A numerical invariant drifted beyond its tolerance.

    Subclasses :class:`FloatingPointError`, which is what numerical-drift
    handlers already catch.
    """

    def __init__(self, name: str, value: float, tol: float, what: str):
        self.name = name
        self.value = value
        self.tol = tol
        self.what = what
        super().__init__(
            f"invariant {name!r} violated for {what}: "
            f"drift {value:.3e} > tol {tol:.3e}")


def _trim_zero_tail(v: np.ndarray, hbar: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """Drop trailing all-zero columns of a basis (lucky-breakdown slots).

    Pseudo-block solvers leave ``v_{j+1}`` unset when a column hits an exact
    breakdown; the matching Hessenberg rows are zero, so trimming both keeps
    the Arnoldi relation intact.
    """
    nrm = column_norms(v)
    keep = v.shape[1]
    while keep > 0 and nrm[keep - 1] == 0.0:
        keep -= 1
    if keep == v.shape[1]:
        return v, hbar
    v = v[:, :keep]
    if hbar is not None:
        hbar = hbar[:keep, :]
    return v, hbar


class InvariantChecker:
    """Records invariant drifts and raises :class:`InvariantViolation`.

    Parameters
    ----------
    level:
        ``"cheap"`` or ``"full"`` (``"off"`` callers should use the shared
        :data:`NULL_CHECKER` via :func:`checker_for`).
    context:
        free-form label (usually the solver name) prefixed to ``what``.
    raise_on_violation:
        when False, violations are only recorded (``report()["violations"]``)
        — used by tests that want to inspect every drift at once.

    Tolerances are instance attributes so callers can tighten or loosen
    individual checks; the defaults are calibrated to pass comfortably on
    healthy solves of well-conditioned problems while firing on the kind of
    orthogonality loss an incorrect block orthogonalization introduces.
    """

    is_off = False

    #: ``||V^H V - I||_F / sqrt(cols)`` ceiling for Krylov bases
    orth_tol: float = 1.0e-6
    #: relative Arnoldi-relation residual ceiling
    arnoldi_tol: float = 1.0e-7
    #: ``||C^H C - I||_F / sqrt(k)`` ceiling for recycled bases
    recycle_orth_tol: float = 1.0e-6
    #: relative ``||A U - C||`` ceiling for the recycled map
    recycle_map_tol: float = 1.0e-6
    #: reported-vs-true residual gap, relative to ``||b||``
    residual_gap_rtol: float = 1.0e-5
    #: factor by which the true residual may exceed the target when the
    #: reported one claims convergence (false-convergence detector)
    false_convergence_factor: float = 100.0

    def __init__(self, level: str = "full", *, context: str = "",
                 raise_on_violation: bool = True):
        if level not in VERIFY_LEVELS or level == "off":
            raise ValueError(
                f"checker level must be 'cheap' or 'full', got {level!r}")
        self.level = level
        self.context = context
        self.raise_on_violation = raise_on_violation
        self.drifts: dict[str, float] = {}
        self.violations: list[dict[str, Any]] = []
        self.n_checks = 0

    # ------------------------------------------------------------------
    @property
    def wants_full(self) -> bool:
        return self.level == "full"

    def _label(self, what: str) -> str:
        return f"{self.context}: {what}" if self.context else what

    def _record(self, name: str, value: float, tol: float, what: str) -> None:
        self.n_checks += 1
        value = float(value)
        self.drifts[name] = max(self.drifts.get(name, 0.0), value)
        if value > tol or not np.isfinite(value):
            what = self._label(what)
            self.violations.append(
                {"name": name, "value": value, "tol": tol, "what": what})
            if self.raise_on_violation:
                raise InvariantViolation(name, value, tol, what)

    @contextmanager
    def _scratch_ledger(self) -> Iterator[None]:
        """Run verification math without charging the caller's ledger."""
        with ledger.install(CostLedger()):
            yield

    # ------------------------------------------------------------------
    # full-level checks (re-apply the operator / re-form Gram matrices)
    # ------------------------------------------------------------------
    def check_orthonormality(self, v: np.ndarray, *, what: str = "Krylov basis"
                             ) -> None:
        """``||V^H V - I||_F / sqrt(cols)`` must stay below ``orth_tol``."""
        if not self.wants_full or v.size == 0:
            return
        with self._scratch_ledger():
            v, _ = _trim_zero_tail(v)
            if v.shape[1] == 0:
                return
            g = v.conj().T @ v
            drift = np.linalg.norm(g - np.eye(g.shape[0], dtype=g.dtype))
            drift /= max(np.sqrt(g.shape[0]), 1.0)
        self._record("orthonormality", drift, self.orth_tol, what)

    def check_arnoldi(self, op_apply, z: np.ndarray, v: np.ndarray,
                      hbar: np.ndarray, *, ck: np.ndarray | None = None,
                      ek: np.ndarray | None = None,
                      what: str = "Arnoldi relation") -> None:
        """Verify ``A Z = V_{m+1} \\bar H_m`` (``+ C_k E_k`` when projected).

        ``op_apply`` is the operator the solver iterated with (including a
        left preconditioner when applicable); ``z`` holds the preconditioned
        basis blocks (``= v[:, :m]`` without inner preconditioning).
        """
        if not self.wants_full or z.size == 0:
            return
        with self._scratch_ledger():
            az = np.asarray(op_apply(z))
            if ck is not None and ek is not None and ck.shape[1] and ek.size:
                az = az - ck @ ek
            v, hbar = _trim_zero_tail(v, hbar)
            resid = az - v @ hbar
            ref = max(float(np.linalg.norm(az)), float(np.linalg.norm(hbar)),
                      _TINY)
            drift = float(np.linalg.norm(resid)) / ref
        self._record("arnoldi_residual", drift, self.arnoldi_tol, what)

    # ------------------------------------------------------------------
    # recycled-space identities (cheap: C^H C; full: + A U = C)
    # ------------------------------------------------------------------
    def check_recycle(self, u: np.ndarray | None, c: np.ndarray | None, *,
                      op_apply=None, what: str = "recycled space") -> None:
        """Verify ``C^H C = I`` (cheap+) and ``A U = C`` (full only)."""
        if u is None or c is None or c.shape[1] == 0:
            return
        with self._scratch_ledger():
            k = c.shape[1]
            g = c.conj().T @ c
            orth = np.linalg.norm(g - np.eye(k, dtype=g.dtype))
            orth /= max(np.sqrt(k), 1.0)
        self._record("recycle_orthonormality", orth, self.recycle_orth_tol,
                     what)
        if not self.wants_full or op_apply is None:
            return
        with self._scratch_ledger():
            au = np.asarray(op_apply(u))
            rel = float(np.linalg.norm(au - c))
            rel /= max(float(np.linalg.norm(au)), _TINY)
        self._record("recycle_map", rel, self.recycle_map_tol, what)

    # ------------------------------------------------------------------
    # cheap checks
    # ------------------------------------------------------------------
    def check_residual_gap(self, predicted: np.ndarray, true: np.ndarray,
                           rhs_norms: np.ndarray,
                           targets: np.ndarray | None = None, *,
                           what: str = "restart residual") -> None:
        """Reported (Hessenberg-tail) vs explicitly recomputed residual.

        Both arguments are *absolute* per-column norms.  Two failure modes:
        a large relative gap, and *false convergence* — the reported norm is
        below target while the true one is far above it.
        """
        predicted = np.asarray(predicted, dtype=float)
        true = np.asarray(true, dtype=float)
        scale = np.where(rhs_norms > 0, rhs_norms, 1.0)
        gap = float(np.max(np.abs(predicted - true) / scale, initial=0.0))
        self._record("residual_gap", gap, self.residual_gap_rtol, what)
        if targets is not None:
            claimed = predicted <= targets
            if np.any(claimed):
                worst = float(np.max(
                    np.where(claimed, true / np.maximum(targets, _TINY), 0.0)))
                self._record("false_convergence", worst,
                             self.false_convergence_factor, what)

    def check_final_residual(self, a, x: np.ndarray, b: np.ndarray,
                             reported_rel: np.ndarray, tol: float, *,
                             converged: np.ndarray | None = None,
                             what: str = "final residual") -> None:
        """Reported relative residual vs the true ``||b - A x|| / ||b||``."""
        with self._scratch_ledger():
            from ..krylov.base import true_residual_norms
            true_abs = true_residual_norms(a, x, b)
        rhs = column_norms(np.atleast_2d(np.asarray(b).T).T)
        scale = np.where(rhs > 0, rhs, 1.0)
        reported_abs = np.asarray(reported_rel, dtype=float) * scale
        targets = None
        if converged is not None:
            # columns reported converged must truly be (up to the factor)
            targets = np.where(converged, tol * scale, np.inf)
        self.check_residual_gap(reported_abs, true_abs, rhs, targets,
                                what=what)

    # ------------------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """Summary of every drift observed (max per invariant name)."""
        return {
            "level": self.level,
            "context": self.context,
            "checks": self.n_checks,
            "max_drift": dict(self.drifts),
            "violations": list(self.violations),
        }


class NullChecker:
    """Shared no-op checker installed when verification is off."""

    is_off = True
    level = "off"
    wants_full = False

    def check_orthonormality(self, *a: Any, **k: Any) -> None:
        pass

    def check_arnoldi(self, *a: Any, **k: Any) -> None:
        pass

    def check_recycle(self, *a: Any, **k: Any) -> None:
        pass

    def check_residual_gap(self, *a: Any, **k: Any) -> None:
        pass

    def check_final_residual(self, *a: Any, **k: Any) -> None:
        pass

    def report(self) -> dict[str, Any]:
        return {"level": "off", "checks": 0, "max_drift": {},
                "violations": []}


NULL_CHECKER = NullChecker()

_STACK: list[InvariantChecker] = []


def current() -> "InvariantChecker | NullChecker":
    """The innermost active checker (the shared null checker when none)."""
    return _STACK[-1] if _STACK else NULL_CHECKER


@contextmanager
def activate(checker: InvariantChecker) -> Iterator[InvariantChecker]:
    """Install ``checker`` as the ambient checker for a region.

    :func:`repro.api.solve` installs one per solve; solvers receive it
    through :func:`checker_for`.
    """
    _STACK.append(checker)
    try:
        yield checker
    finally:
        _STACK.pop()


def checker_for(options, *, context: str = ""
                ) -> "InvariantChecker | NullChecker":
    """Resolve the checker a solver should use.

    An ambient checker (installed by :func:`repro.api.solve` or a test)
    takes precedence, so one checker accumulates the whole solve's report;
    otherwise a fresh checker is built from ``options.verify``.
    """
    amb = current()
    if not amb.is_off:
        # the api-level ambient checker is built without seeing the solver
        # options; scale it here so scheme-dependent ceilings still apply
        if isinstance(amb, InvariantChecker):
            _apply_scheme_tolerances(amb, options)
        return amb
    level = getattr(options, "verify", "off")
    if level == "off":
        return NULL_CHECKER
    chk = InvariantChecker(level, context=context)
    _apply_scheme_tolerances(chk, options)
    return chk


def _apply_scheme_tolerances(chk: InvariantChecker, options) -> InvariantChecker:
    """Scale the basis-orthonormality ceiling to the active scheme.

    The ceiling is the scheme's theoretical loss-of-orthogonality bound
    from the registry (:data:`repro.la.orthogonalization.SCHEMES`):
    two-pass schemes are held to a *tighter* ceiling than the default (so
    regressions are not masked), single-pass schemes to the looser one
    their analysis guarantees (so ``verify=full`` does not false-positive
    by design).  The recycled pair keeps the default ceiling under every
    scheme: it is exactly orthonormal mid-solve (``recycling.repair``).
    """
    from ..la.orthogonalization import SCHEMES  # deferred: keep verify light
    info = SCHEMES.get(getattr(options, "orthogonalization", ""))
    if info is not None:
        chk.orth_tol = info.orth_tol
    return chk
