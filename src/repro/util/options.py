"""HPDDM-style option registry for the solver stack.

The original library (HPDDM) is configured through prefixed command-line
options such as ``-hpddm_krylov_method gcrodr -hpddm_recycle 10``.  This
module provides the Python equivalent: a validated, immutable options
object that every solver in :mod:`repro.krylov` consumes, plus a parser for
HPDDM-flavoured argument lists so that the examples can mirror the paper's
artifact description verbatim.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = ["Options", "OptionError", "parse_hpddm_args"]


class OptionError(ValueError):
    """Raised when an option value is out of its validity domain."""


def _scheme_names() -> tuple[tuple[str, ...], tuple[str, ...]]:
    # Single source of truth: the scheme registry in la/orthogonalization
    # (deferred import: util must stay importable before la).
    from ..la.orthogonalization import ORTHO_SCHEME_NAMES, QR_SCHEME_NAMES
    return ORTHO_SCHEME_NAMES, QR_SCHEME_NAMES


_KRYLOV_METHODS = ("gmres", "bgmres", "cg", "bcg", "gcrodr", "bgcrodr",
                   "gmresdr", "lgmres")
_VARIANTS = ("left", "right", "flexible")
_STRATEGIES = ("A", "B")
_TARGETS = ("smallest", "largest", "smallest_real", "largest_real")
_VERIFY_LEVELS = ("off", "cheap", "full")
_FLUSH_POLICIES = ("batch_full", "queue_drained", "explicit")
_SERVICE_MODES = ("sync", "async")
_TRACE_LEVELS = ("off", "summary", "full")


@dataclass(frozen=True)
class Options:
    """Validated option set for every Krylov method in the library.

    Names deliberately follow the HPDDM command-line options documented in
    the paper's artifact description (``-hpddm_<name>``) so the mapping from
    paper to code is one-to-one.

    Immutable: assigning a field raises
    :class:`dataclasses.FrozenInstanceError`; derive a variant with
    :meth:`replace`, which re-validates.  ``extra`` (the flags
    :func:`parse_hpddm_args` does not know) is the one mutable value.

    Parameters
    ----------
    krylov_method:
        ``"gmres"`` (pseudo-block when ``p > 1``), ``"bgmres"`` (true block),
        ``"cg"``/``"bcg"``, ``"gcrodr"``/``"bgcrodr"`` (recycling),
        ``"gmresdr"`` (deflated restarting) or ``"lgmres"`` (Loose GMRES
        baseline).
    gmres_restart:
        maximum Krylov subspace dimension ``m`` before restarting.
    recycle:
        dimension ``k`` of the recycled subspace (GCRO-DR only, ``0 < k < m``).
    recycle_strategy:
        ``"A"`` uses eq. (3a) of the paper for the generalized eigenproblem
        right-hand side (one extra global reduction), ``"B"`` uses eq. (3b)
        (communication-free).
    recycle_same_system:
        enable the non-variable fast path: when solving a sequence with an
        unchanged operator, skip re-orthonormalizing ``U_k`` (paper lines 3-7)
        and skip updating the recycled space at restarts (lines 31-38).
    variant:
        preconditioning side: ``"left"``, ``"right"`` or ``"flexible"``
        (FGMRES / FGCRO-DR; stores the preconditioned Krylov basis).
    tol:
        relative convergence tolerance on the (unpreconditioned for
        right/flexible, preconditioned for left) residual of *every* column.
    max_it:
        global cap on iterations (inner iterations for restarted methods).
    orthogonalization:
        Gram-Schmidt scheme used inside the Arnoldi process.
    qr:
        algorithm for the distributed QR of the residual block (paper
        lines 11 and 24): CholQR by default, rank-revealing CholQR
        (``"cholqr_rr"``) additionally detects block breakdowns.
    deflation_tol:
        relative rank tolerance used by rank-revealing CholQR (and, with
        ``block_reduction``, for deciding which residual directions to
        deflate — HPDDM's ``-hpddm_deflation_tol``).
    block_reduction:
        enable block-size reduction at restarts in BGMRES: when the
        residual block is numerically rank deficient, continue with a
        narrower Arnoldi block while still solving for every column (the
        paper cites this as the Robbé-Sadkane / Agullo-Giraud-Jing line of
        work it deliberately does not enable; implemented here as the
        restart-level variant for the ablation study).
    recycle_target:
        which end of the (harmonic) Ritz spectrum to retain.
    verify:
        runtime invariant-checking level (``-hpddm_verify``): ``"off"``
        (default, zero overhead), ``"cheap"`` (recycled-basis
        orthonormality and reported-vs-true residual gaps — small-matrix
        work only), or ``"full"`` (additionally re-applies the operator to
        verify the Arnoldi relation ``A Z = V H̄``, Krylov-basis
        orthonormality, the recycled map ``A U = C`` — including after the
        same-system skip — and distributed QR factorizations).  Violations
        raise :class:`repro.verify.InvariantViolation`.  Verification work
        is never charged to the cost ledger.
    trace:
        span tracing level (``-hpddm_trace``): ``"off"`` (default, the
        null tracer — zero overhead, byte-identical ledger counts and
        ``info``), ``"summary"`` (solver-phase spans; per-solve summary in
        ``info["trace"]``), or ``"full"`` (additionally per-primitive
        spans inside the simulated-MPI substrate).  An ambient tracer
        installed via :func:`repro.trace.install` takes precedence.  See
        ``docs/OBSERVABILITY.md``.
    service_pmax:
        maximum block width a :class:`repro.service.SolveService` batch
        may reach (``-hpddm_service_pmax``): queued requests sharing an
        operator fingerprint and compatible options are coalesced into
        one ``n x p`` block solve with ``p <= service_pmax``.
    service_flush:
        batch dispatch policy of the solve service
        (``-hpddm_service_flush``): ``"batch_full"`` dispatches a group as
        soon as it reaches ``service_pmax`` columns (remaining requests go
        out on ``flush()``); ``"queue_drained"`` coalesces maximally and
        dispatches only when the queue is drained via ``flush()`` or a
        result is demanded; ``"explicit"`` dispatches on ``flush()`` only
        and treats demanding an unsolved result as an error.
    service_cache_entries:
        capacity of the service's LRU :class:`repro.service.SetupCache`
        (``-hpddm_service_cache_entries``): number of distinct operators
        whose factorizations / preconditioner setups / recycled subspaces
        are retained.  With ``service_shards > 1`` the capacity applies
        *per shard*.
    service_mode:
        which service front end handles submitted requests
        (``-hpddm_service_mode``): ``"sync"`` (the original blocking
        :class:`repro.service.SolveService` — the oracle) or ``"async"``
        (the deadline-scheduled, sharded, pipelined
        :class:`repro.service.AsyncSolveService` running in simulated
        time).  Both modes produce the same per-request answers and
        conserve cost attribution bit-for-bit.
    service_shards:
        number of :class:`~repro.service.shard.ShardedSetupCache` shards
        — and concurrent batch workers — of the async service
        (``-hpddm_service_shards``).  Operator fingerprints are routed to
        shards by consistent hashing; each shard executes at most one
        batch at a time in simulated time.
    service_deadline:
        default per-request deadline of the async service in *modeled*
        seconds relative to arrival (``-hpddm_service_deadline``); ``0``
        means no deadline.  A request whose batch completes after its
        deadline counts as a deadline miss (``service_deadline_misses``
        metric); requests submitted with an already-expired deadline are
        rejected at admission.
    service_queue_depth:
        admission-control bound of the async service
        (``-hpddm_service_queue_depth``): maximum queued (not yet
        dispatched) requests *per shard*; ``0`` means unbounded.  A
        submit against a full shard queue returns an explicit rejection
        (``rejected="queue_full"``) instead of queueing.
    sequence_adopt:
        carry recycled subspaces across transient epoch boundaries
        (``-hpddm_sequence_adopt``, default on): when the operator
        fingerprint changes, the driver seeds the new operator's cache
        entry from the previous one via
        :meth:`repro.service.SetupCache.adopt_from`.  The carried pair
        keeps its original fingerprint stamp, so the first solve against
        the new operator runs the adoption-boundary repair instead of the
        same-system fast path — adopted state is repaired, never trusted.
    sequence_warm_start:
        use step ``t``'s solution as the initial guess of step ``t+1``'s
        solve in a transient sequence (``-hpddm_sequence_warm_start``,
        default off so per-step iteration counts stay comparable across
        the reuse ladder).
    """

    krylov_method: str = "gmres"
    gmres_restart: int = 30
    recycle: int = 0
    recycle_strategy: str = "A"
    recycle_same_system: bool = False
    variant: str = "right"
    tol: float = 1.0e-8
    max_it: int = 2000
    orthogonalization: str = "cgs"
    qr: str = "cholqr"
    deflation_tol: float = 1.0e-12
    recycle_target: str = "smallest"
    block_reduction: bool = False
    verify: str = "off"
    trace: str = "off"
    service_pmax: int = 16
    service_flush: str = "batch_full"
    service_cache_entries: int = 32
    service_mode: str = "sync"
    service_shards: int = 1
    service_deadline: float = 0.0
    service_queue_depth: int = 0
    sequence_adopt: bool = True
    sequence_warm_start: bool = False
    # where parse_hpddm_args puts the flags it does not know; callers read it
    extra: dict[str, Any] = field(default_factory=dict)  # lint: allow(option-census)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        if self.krylov_method not in _KRYLOV_METHODS:
            raise OptionError(
                f"unknown krylov_method {self.krylov_method!r}; expected one of {_KRYLOV_METHODS}"
            )
        if self.variant not in _VARIANTS:
            raise OptionError(f"unknown variant {self.variant!r}; expected one of {_VARIANTS}")
        ortho_names, qr_names = _scheme_names()
        if self.orthogonalization not in ortho_names:
            raise OptionError(
                f"unknown orthogonalization {self.orthogonalization!r}; expected one of {ortho_names}"
            )
        if self.qr not in qr_names:
            raise OptionError(f"unknown qr {self.qr!r}; expected one of {qr_names}")
        if self.recycle_strategy not in _STRATEGIES:
            raise OptionError(
                f"unknown recycle_strategy {self.recycle_strategy!r}; expected one of {_STRATEGIES}"
            )
        if self.recycle_target not in _TARGETS:
            raise OptionError(
                f"unknown recycle_target {self.recycle_target!r}; expected one of {_TARGETS}"
            )
        if self.verify not in _VERIFY_LEVELS:
            raise OptionError(
                f"unknown verify level {self.verify!r}; expected one of {_VERIFY_LEVELS}"
            )
        if self.trace not in _TRACE_LEVELS:
            raise OptionError(
                f"unknown trace level {self.trace!r}; "
                f"expected one of {_TRACE_LEVELS}"
            )
        if self.service_flush not in _FLUSH_POLICIES:
            raise OptionError(
                f"unknown service_flush {self.service_flush!r}; "
                f"expected one of {_FLUSH_POLICIES}"
            )
        if self.service_pmax < 1:
            raise OptionError("service_pmax must be >= 1")
        if self.service_cache_entries < 1:
            raise OptionError("service_cache_entries must be >= 1")
        if self.service_mode not in _SERVICE_MODES:
            raise OptionError(
                f"unknown service_mode {self.service_mode!r}; "
                f"expected one of {_SERVICE_MODES}"
            )
        if self.service_shards < 1:
            raise OptionError("service_shards must be >= 1")
        if self.service_deadline < 0:
            raise OptionError("service_deadline must be >= 0 (0 = none)")
        if self.service_queue_depth < 0:
            raise OptionError("service_queue_depth must be >= 0 "
                              "(0 = unbounded)")
        if self.gmres_restart < 1:
            raise OptionError("gmres_restart must be >= 1")
        if self.max_it < 1:
            raise OptionError("max_it must be >= 1")
        if not (0.0 < self.tol < 1.0):
            raise OptionError("tol must lie strictly between 0 and 1")
        if self.is_recycling or self.krylov_method == "gmresdr":
            if not (0 < self.recycle < self.gmres_restart):
                raise OptionError(
                    "recycle (k) must satisfy 0 < k < gmres_restart (m) for GCRO-DR; "
                    f"got k={self.recycle}, m={self.gmres_restart}"
                )
        elif self.recycle < 0:
            raise OptionError("recycle must be non-negative")

    # -- derived properties ----------------------------------------------
    @property
    def is_block(self) -> bool:
        """True for *true* block methods (block Arnoldi, p-wide blocks)."""
        return self.krylov_method in ("bgmres", "bcg", "bgcrodr")

    @property
    def is_recycling(self) -> bool:
        return self.krylov_method in ("gcrodr", "bgcrodr")

    @property
    def is_flexible(self) -> bool:
        return self.variant == "flexible"

    # -- conveniences ------------------------------------------------------
    def replace(self, **kwargs: Any) -> "Options":
        """Return a copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def hpddm_args(self) -> list[str]:
        """Render back to HPDDM-style command-line arguments: one flag per
        option that differs from its default, which
        :func:`parse_hpddm_args` reads back to an equal object.  ``extra``
        (flags the parser did not know) is not rendered."""
        args: list[str] = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name != "extra" and value != f.default:
                args += [f"-hpddm_{f.name}", _render(value)]
        return args


def _render(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


#: ``Options`` field name -> its annotation (``"bool"``, ``"int"``, ...)
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(Options)}


def parse_hpddm_args(args: Iterable[str], *, prefix: str = "-hpddm_",
                     defaults: Mapping[str, Any] | None = None) -> Options:
    """Parse an HPDDM-style argument list into an :class:`Options` object.

    Examples
    --------
    >>> opt = parse_hpddm_args(["-hpddm_krylov_method", "gcrodr",
    ...                         "-hpddm_recycle", "10",
    ...                         "-hpddm_gmres_restart", "30",
    ...                         "-hpddm_recycle_same_system"])
    >>> opt.krylov_method, opt.recycle, opt.recycle_same_system
    ('gcrodr', 10, True)
    """
    kv: dict[str, Any] = dict(defaults or {})
    arglist = list(args)
    i = 0
    while i < len(arglist):
        tok = arglist[i]
        if not tok.startswith(prefix):
            i += 1
            continue
        name = tok[len(prefix):]
        kind = _FIELD_TYPES.get(name)
        if kind == "bool":
            # a boolean flag may optionally be followed by true/false
            if i + 1 < len(arglist) and arglist[i + 1].lower() in ("true", "false", "0", "1"):
                kv[name] = arglist[i + 1].lower() in ("true", "1")
                i += 2
            else:
                kv[name] = True
                i += 1
            continue
        if i + 1 >= len(arglist):
            raise OptionError(f"option {tok} expects a value")
        raw = arglist[i + 1]
        kv[name] = int(raw) if kind == "int" \
            else float(raw) if kind == "float" else raw
        i += 2
    extra = {k: v for k, v in kv.items() if k not in _FIELD_TYPES}
    kv = {k: v for k, v in kv.items() if k in _FIELD_TYPES}
    if extra:
        kv.setdefault("extra", {}).update(extra)
    return Options(**kv)
