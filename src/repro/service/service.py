"""Inference-style solve server: request coalescing + setup caching.

The paper's thesis is that block methods amortize setup and communication
across right-hand sides (one factorization, BLAS-3 multi-RHS triangular
solves — Fig. 6), and that blocking pays off even for *unrelated* RHS
(Soodhalter, arXiv:1412.0393; Parks-Soodhalter-Szyld, arXiv:1604.01713).
:class:`SolveService` turns that into an API property: callers submit
independent solve requests ``(A, b, options)``; the service

1. **coalesces** queued requests that share an operator fingerprint (and
   compatible options) into one ``n x p`` block dispatched through
   :func:`repro.api.solve` — which routes to ``bgmres`` / ``pgcrodr`` /
   ``gcrodr`` exactly as a direct block call would — bounded by
   ``Options.service_pmax`` and governed by ``Options.service_flush``;
2. **caches setup** in an LRU :class:`~repro.service.cache.SetupCache`:
   ``SparseLU`` factorizations, Schwarz/AMG preconditioner setups and
   recycled subspaces are built once per operator *value* and reused by
   every later batch — the paper's non-variable fast path (section III-B)
   triggers automatically, across distinct callers;
3. **attributes cost**: each batch runs under a private
   :class:`~repro.util.ledger.CostLedger`; the total (merged back onto
   the ambient ledger, so global accounting is unchanged) is split
   exactly across the batch's columns and each request receives its
   amortized share in ``result.info["service"]["cost"]``.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

from ..krylov.base import ConvergenceHistory, Preconditioner, SolveResult
from ..krylov.pgcrodr import PseudoBlockRecycle
from ..krylov.recycling import RecycledSubspace
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import CostLedger
from ..util.misc import as_block, invalid_input
from ..util.options import Options
from .cache import SetupCache
from .fingerprint import Fingerprint, operator_fingerprint

__all__ = ["SolveRequest", "SolveService", "options_key", "options_digest"]

_PRECOND_SPECS = ("lu", "schwarz", "amg")


@dataclass
class SolveRequest:
    """One queued solve.  ``result`` is filled when its batch is solved.

    A *family* request (``shifts`` non-empty) asks for every system
    ``(A + sigma_i M) x = b`` of a shifted family at once; its ``width``
    is the number of shifts and its ``result`` is a
    :class:`~repro.krylov.shifted.ShiftedFamilyResult` restricted to its
    own shifts.
    """

    index: int
    a: Any
    fingerprint: Fingerprint
    b: np.ndarray
    width: int
    options: Options
    x0: np.ndarray | None = None
    squeeze: bool = False
    shifts: tuple = ()
    mass: Any = field(default=None, repr=False)
    result: SolveResult | None = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        return self.result is not None

    def urgency(self) -> tuple[int, float, int]:
        """Queue order inside a coalescing group: submission order."""
        return (0, math.inf, self.index)


class _RequestGroup:
    """The queued requests of one coalescing key, most urgent first.

    A heap on :meth:`SolveRequest.urgency` — a total order, it ends in
    the request index — so queueing and dispatching a request cost
    O(log q) and nothing ever re-sorts or re-scans the group.
    """

    __slots__ = ("heap", "width")

    def __init__(self) -> None:
        self.heap: list[tuple[tuple, SolveRequest]] = []
        self.width = 0  #: columns queued

    def __len__(self) -> int:
        return len(self.heap)

    @property
    def head(self) -> SolveRequest:
        """The most urgent queued request."""
        return self.heap[0][1]

    def push(self, req: SolveRequest) -> None:
        heapq.heappush(self.heap, (req.urgency(), req))
        self.width += req.width

    def pop_chunk(self, p_max: int) -> list[SolveRequest]:
        """Greedy most-urgent prefix of total width <= p_max (>= 1 request).

        A family group is never split: its members share one right-hand
        side and one Arnoldi basis, so the whole group is one dispatch
        regardless of ``p_max`` (the union of shifts is the block width).
        """
        heap = self.heap
        chunk = [heapq.heappop(heap)[1]]
        whole = bool(chunk[0].shifts)
        width = chunk[0].width
        while heap and (whole or width + heap[0][1].width <= p_max):
            chunk.append(heapq.heappop(heap)[1])
            width += chunk[-1].width
        self.width -= width
        return chunk


#: the dataclass fields of :class:`Options`, sorted by name once
_OPTION_FIELDS = tuple(sorted(f.name for f in fields(Options)))


def _key_state(options: Options) -> tuple[str, tuple, str]:
    """``(repr(extra), options_key, options_digest)``, stored on ``options``.

    :class:`Options` is frozen, so its key is computed once per object.
    ``extra`` is the one mutable value: it is re-read on every call, and a
    changed ``extra`` recomputes the key (at ``extra``'s sorted position,
    as always).
    """
    extra = repr(options.extra)
    state = options.__dict__.get("_okey")
    if state is None or state[0] != extra:
        key = tuple((k, extra if k == "extra" else repr(getattr(options, k)))
                    for k in _OPTION_FIELDS)
        state = (extra, key, options_digest(key))
        object.__setattr__(options, "_okey", state)
    return state


def options_key(options: Options) -> tuple:
    """Hashable compatibility key: requests coalesce iff keys are equal."""
    return _key_state(options)[1]


def options_digest(okey: tuple) -> str:
    """Short stable digest of an options key, for cache kinds and records."""
    return hashlib.blake2b(repr(okey).encode(), digest_size=6).hexdigest()


def _okey_digest(options: Options, okey: tuple) -> str:
    """``options_digest(okey)``, read off ``options`` when ``okey`` is the
    key stored there (a batch's options and the key it queued under)."""
    _, key, digest = _key_state(options)
    return digest if key is okey else options_digest(okey)


def _recycle_kind(digest: str) -> str:
    return f"recycle:{digest}"


def _rhs_digest(b: np.ndarray) -> str:
    """Stable digest of a right-hand side's value, for family coalescing."""
    arr = np.ascontiguousarray(b)
    h = hashlib.blake2b(digest_size=8)
    h.update(str((arr.shape, arr.dtype.str)).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _family_recycle_kind(digest: str, fpm: Fingerprint | None) -> str:
    tag = fpm.short() if fpm is not None else "none"
    return f"family_recycle:{digest}:{tag}"


def _as_matrix(a: Any) -> sp.spmatrix:
    """The explicit matrix a built-in preconditioner spec is set up on: a
    sparse matrix as is, a dense one as CSR; any operator is refused."""
    if sp.issparse(a):
        return a
    if isinstance(a, np.ndarray):
        return sp.csr_matrix(a)
    raise TypeError(
        "built-in preconditioner specs ('lu', 'schwarz', 'amg') need an "
        f"explicit sparse/dense operator, got {type(a).__name__}; pass a "
        "Preconditioner instance or a callable builder instead")


class SolveService:
    """Queue, coalesce, and batch-solve linear-system requests.

    Parameters
    ----------
    options:
        default :class:`Options` for requests submitted without their own;
        also supplies the service knobs ``service_pmax``,
        ``service_flush`` and ``service_cache_entries``
        (``-hpddm_service_*``).
    preconditioner:
        how to precondition each operator: ``None`` (no preconditioning),
        ``"lu"`` (exact :class:`~repro.direct.solver.SparseLU`),
        ``"schwarz"`` / ``"amg"`` (built with ``precond_opts``), a
        :class:`~repro.krylov.base.Preconditioner` instance (used as-is,
        caller manages its validity), or a callable ``a -> preconditioner``
        (built once per operator fingerprint and cached).
    precond_opts:
        keyword arguments for the built-in preconditioner builders.
    cache:
        a shared :class:`SetupCache`; by default a private one sized by
        ``options.service_cache_entries``.

    Example
    -------
    >>> import numpy as np, scipy.sparse as sp
    >>> from repro.service import SolveService
    >>> from repro.util.options import Options
    >>> a = sp.diags([2.0] * 50).tocsr()
    >>> svc = SolveService(options=Options(krylov_method="gmres"))
    >>> reqs = [svc.submit(a, np.ones(50) * (j + 1)) for j in range(4)]
    >>> _ = svc.flush()
    >>> all(r.result.converged.all() for r in reqs)
    True
    >>> reqs[0].result.info["service"]["batch_width"]
    4
    """

    def __init__(self, *, options: Options | None = None,
                 preconditioner: Any = None,
                 precond_opts: dict[str, Any] | None = None,
                 cache: SetupCache | None = None):
        self.options = options or Options()
        if isinstance(preconditioner, str) \
                and preconditioner not in _PRECOND_SPECS:
            raise ValueError(f"unknown preconditioner spec {preconditioner!r}; "
                             f"expected one of {_PRECOND_SPECS}")
        self.preconditioner = preconditioner
        self.precond_opts = dict(precond_opts or {})
        self.cache = cache if cache is not None else SetupCache(
            self.options.service_cache_entries)
        self.p_max = self.options.service_pmax
        self.flush_policy = self.options.service_flush
        self._queue: dict[tuple, _RequestGroup] = {}  # non-empty groups only
        self._next_index = 0
        self._next_batch = 0
        self.batches: list[dict[str, Any]] = []

    # -- submission ------------------------------------------------------
    def _make_request(self, a: Any, b: np.ndarray, *, options, x0,
                      shifts=(), mass=None, cls=SolveRequest,
                      fingerprint: Fingerprint | None = None,
                      **extra) -> SolveRequest:
        opts = options or self.options
        fp = operator_fingerprint(a) if fingerprint is None else fingerprint
        b_arr = np.asarray(b)
        sig = tuple(np.ravel(np.asarray(list(shifts))).tolist()) \
            if len(shifts) else ()
        width = len(sig) if sig else as_block(b_arr).shape[1]
        req = cls(index=self._next_index, a=a, fingerprint=fp, b=b_arr,
                  width=width, options=opts, x0=x0,
                  squeeze=b_arr.ndim == 1 and not sig,
                  shifts=sig, mass=mass, **extra)
        problem = invalid_input(np.shape(a)[0], b_arr, x0)
        if problem is not None:
            self._refuse_invalid(req, problem)
        self._next_index += 1
        return req

    def _refuse_invalid(self, req: SolveRequest, problem: str) -> None:
        """A malformed request joins no queue: it would hang or poison the
        block it is batched into, and every co-batched tenant with it."""
        raise ValueError(problem)

    def _request_key(self, req: SolveRequest) -> tuple:
        """The coalescing-group key this request queues under.

        Family requests key on ``(fp(A), fp(M), rhs-digest, options)`` so
        every shift of a family — across callers — lands in one group,
        one setup-cache entry, and one dispatch.
        """
        if req.shifts:
            fpm = operator_fingerprint(req.mass) \
                if req.mass is not None else None
            return ("family", req.fingerprint, fpm, _rhs_digest(req.b),
                    options_key(req.options))
        return (req.fingerprint, options_key(req.options))

    def _push(self, key: tuple, req: SolveRequest) -> None:
        group = self._queue.get(key)
        if group is None:
            group = self._queue[key] = _RequestGroup()
        group.push(req)

    def _pop_chunk(self, key: tuple) -> list[SolveRequest]:
        """Take the next batch off a group; an emptied group leaves the queue."""
        group = self._queue[key]
        chunk = group.pop_chunk(self.p_max)
        if not group:
            del self._queue[key]
        return chunk

    def _enqueue(self, req: SolveRequest) -> SolveRequest:
        key = self._request_key(req)
        self._push(key, req)
        if self.flush_policy == "batch_full":
            self._dispatch_full_chunks(key)
        return req

    def submit(self, a: Any, b: np.ndarray, *, options: Options | None = None,
               x0: np.ndarray | None = None,
               fingerprint: Fingerprint | None = None) -> SolveRequest:
        """Queue one solve request; returns a handle to poll for results.

        Under the ``"batch_full"`` flush policy a group is dispatched as
        soon as it reaches ``service_pmax`` columns; otherwise requests
        wait for :meth:`flush`.  ``fingerprint``: for a caller that has just
        hashed ``a`` (:class:`SequenceDriver`), sparing the second pass.
        """
        return self._enqueue(self._make_request(
            a, b, options=options, x0=x0, fingerprint=fingerprint))

    def submit_family(self, a: Any, b: np.ndarray, shifts, *,
                      mass: Any = None, options: Options | None = None,
                      x0: np.ndarray | None = None) -> SolveRequest:
        """Queue a shifted-family request ``(A + sigma_i M) x = b``.

        Requests that share the operator, mass matrix, right-hand side
        *value* and options coalesce into a single family: their shift
        unions are solved on one shared block-Arnoldi basis by
        ``api.solve(..., shifts=...)`` and each request receives the
        slice belonging to its own shifts.
        """
        sig = tuple(np.ravel(np.asarray(list(shifts))).tolist())
        if not sig:
            raise ValueError("a family request needs at least one shift")
        return self._enqueue(self._make_request(
            a, b, options=options, x0=x0, shifts=sig, mass=mass))

    def solve(self, a: Any, b: np.ndarray, *, options: Options | None = None,
              x0: np.ndarray | None = None) -> SolveResult:
        """Synchronous convenience: submit and solve immediately.

        The request still flows through the cache (so it benefits from —
        and populates — cached setup) but is never held back waiting for
        batch-mates.
        """
        req = self.submit(a, b, options=options, x0=x0)
        if not req.done:
            self._dispatch_group(self._request_key(req))
        return req.result

    def result(self, req: SolveRequest) -> SolveResult:
        """The request's result, flushing its group if still queued.

        Under the ``"explicit"`` policy an unsolved request is an error
        (nothing dispatches without :meth:`flush`).
        """
        if not req.done:
            if self.flush_policy == "explicit":
                raise RuntimeError(
                    "request not solved yet and service_flush='explicit'; "
                    "call flush() first")
            self._dispatch_group(self._request_key(req))
        return req.result

    def flush(self) -> list[SolveRequest]:
        """Dispatch every queued request; returns the completed requests."""
        done: list[SolveRequest] = []
        for key in list(self._queue):
            done.extend(self._dispatch_group(key))
        return done

    @property
    def pending(self) -> int:
        """Number of queued, not-yet-solved requests."""
        return sum(len(group) for group in self._queue.values())

    # -- dispatch --------------------------------------------------------
    def _dispatch_full_chunks(self, key: tuple) -> None:
        """batch_full policy: peel off p_max-wide chunks as they fill."""
        while key in self._queue and self._queue[key].width >= self.p_max:
            self._solve_batch(key, self._pop_chunk(key))

    def _dispatch_group(self, key: tuple) -> list[SolveRequest]:
        done = []
        while key in self._queue:
            chunk = self._pop_chunk(key)
            self._solve_batch(key, chunk)
            done.extend(chunk)
        return done

    # -- setup resolution ------------------------------------------------
    def _resolve_preconditioner(self, a: Any, fp: Fingerprint
                                ) -> tuple[Any, bool | None]:
        """(preconditioner, cache_hit); hit is None when nothing is cached."""
        spec = self.preconditioner
        if spec is None:
            return None, None
        if isinstance(spec, Preconditioner):
            return spec, None
        if spec == "lu":
            from ..direct.solver import SparseLU
            lu, hit = self.cache.get_or_build(
                fp, "lu", lambda: SparseLU(_as_matrix(a), **self.precond_opts))
            return lu.as_preconditioner(), hit
        if spec == "schwarz":
            from ..precond.schwarz import SchwarzPreconditioner
            return self.cache.get_or_build(
                fp, "precond",
                lambda: SchwarzPreconditioner(_as_matrix(a),
                                              **self.precond_opts))
        if spec == "amg":
            from ..precond.amg import SmoothedAggregationAMG
            return self.cache.get_or_build(
                fp, "precond",
                lambda: SmoothedAggregationAMG(_as_matrix(a),
                                               **self.precond_opts))
        if callable(spec):
            return self.cache.get_or_build(fp, "precond", lambda: spec(a))
        raise TypeError(f"cannot interpret {type(spec).__name__} as a "
                        "preconditioner spec")

    def _cached_recycle(self, fp: Fingerprint, kind: str, p: int
                        ) -> tuple[Any, bool | None]:
        """Recycled state for this (operator, options) pair, if compatible."""
        space = self.cache.get(fp, kind)
        if space is None:
            return None, False
        if isinstance(space, PseudoBlockRecycle) and space.p != p:
            return None, False  # width changed; pseudo-block state unusable
        return space, True

    # -- the batch solve -------------------------------------------------
    def _solve_batch(self, key: tuple, chunk: list[SolveRequest]) -> None:
        from .. import api  # deferred: repro.api has no import-time cycle here

        if chunk and chunk[0].shifts:
            return self._solve_family_batch(key, chunk)
        fp, okey = key
        opts = chunk[0].options
        digest = _okey_digest(opts, okey)
        batch_id = self._next_batch
        self._next_batch += 1

        blocks = [as_block(r.b) for r in chunk]
        bmat = np.hstack(blocks) if len(blocks) > 1 else blocks[0]
        p = bmat.shape[1]
        x0 = None
        if any(r.x0 is not None for r in chunk):
            cols = [as_block(r.x0) if r.x0 is not None
                    else np.zeros((bmat.shape[0], r.width), dtype=bmat.dtype)
                    for r in chunk]
            x0 = np.hstack(cols) if len(cols) > 1 else cols[0]

        ambient = ledger.current()
        batch_led = CostLedger()
        recycling = opts.is_recycling
        tr = trace.current()
        # the span opens against the *ambient* ledger before the private
        # batch ledger is installed, so its window sees exactly the merged
        # batch total (inner solve spans record against the batch ledger
        # and are excluded from this span's exclusive cost — see
        # Span.exclusive)
        with tr.span("service.batch", batch=batch_id, width=p,
                     requests=len(chunk)):
            with ledger.install(batch_led):
                m, setup_hit = self._resolve_preconditioner(chunk[0].a, fp)
                recycle = same_system = None
                adopted = False
                if recycling:
                    recycle, found = self._cached_recycle(
                        fp, _recycle_kind(digest), p)
                    # the cache key is the *value* fingerprint, so a hit
                    # means the operator is numerically unchanged: take the
                    # paper's same-system fast path (section III-B)
                    # automatically — except for opaque operators, where
                    # equality only means object identity and in-place
                    # mutation is undetectable, and except for *adopted*
                    # spaces (``SetupCache.adopt_from``), which keep the
                    # previous operator's fingerprint stamp so the
                    # adoption-boundary repair runs instead of being
                    # trusted against the wrong operator (False, not None:
                    # the solver would guess by identity tag, which a
                    # matrix mutated in place keeps).
                    if found and not recycle.matches_fingerprint(fp):
                        adopted, same_system = True, False
                    elif found and not fp.opaque:
                        same_system = True
                res = api.solve(chunk[0].a, bmat, m, options=opts, x0=x0,
                                recycle=recycle, same_system=same_system)
                new_space = res.info.get("recycle")
                if recycling and new_space is not None:
                    new_space.fingerprint = fp
                    self.cache.put(fp, _recycle_kind(digest), new_space)
            ambient.merge(batch_led)
        tr.metrics.histogram("service_batch_occupancy").observe(p)
        tr.metrics.counter("service_requests_total").inc(len(chunk))
        tr.metrics.counter("service_batches_total").inc()
        if setup_hit is not None:
            tr.metrics.counter("service_setup_cache_total").inc(
                outcome="hit" if setup_hit else "miss")
        if recycling:
            tr.metrics.counter("service_recycle_cache_total").inc(
                outcome="hit" if same_system else "miss")

        self._scatter(chunk, res, batch_led, batch_id=batch_id, p=p,
                      setup_hit=setup_hit,
                      recycle_hit=bool(same_system) if recycling else None,
                      recycle_adopted=adopted if recycling else None)
        self.batches.append({
            "batch": batch_id,
            "fingerprint": fp.short(),
            "okey_digest": digest,
            "requests": len(chunk),
            "request_indices": [r.index for r in chunk],
            "width": p,
            "method": res.method,
            "iterations": res.iterations,
            "setup_cache_hit": setup_hit,
            "ledger": batch_led,
        })

    def _scatter(self, chunk: list[SolveRequest], res: SolveResult,
                 batch_led: CostLedger, *, batch_id: int, p: int,
                 setup_hit: bool | None, recycle_hit: bool | None,
                 recycle_adopted: bool | None = None) -> None:
        """Slice the block result and the ledger back onto each request.

        Everything the batch's requests share — the shares, the column
        arrays, the fingerprint label, the carried ``info`` keys, the
        cache statistics — is computed once; a width-1 request takes its
        share as its cost ledger.
        """
        shares = batch_led.split(p)
        x = as_block(np.asarray(res.x))
        records = res.history.records
        rhs_norms = np.asarray(res.history.rhs_norms)
        converged = np.atleast_1d(res.converged)
        label = chunk[0].fingerprint.short()  # one operator per batch
        carried = {k: res.info[k] for k in ("verify", "same_system", "k",
                                            "variant") if k in res.info}
        cache_stats = self.cache.stats()
        j0 = 0
        for req in chunk:
            j1 = j0 + req.width
            if req.width == 1:
                cost = shares[j0]
            else:
                cost = CostLedger()
                for share in shares[j0:j1]:
                    cost.merge(share)
            xcol = x[:, j0:j1]
            req.result = SolveResult(
                x=xcol[:, 0] if req.squeeze else xcol,
                converged=converged[j0:j1],
                iterations=res.iterations,
                history=ConvergenceHistory(
                    rhs_norms=rhs_norms[j0:j1],
                    records=[rec[j0:j1] for rec in records]),
                method=res.method,
                restarts=res.restarts,
                breakdown=res.breakdown,
                info={
                    "service": {
                        "batch": batch_id,
                        "batch_width": p,
                        "columns": (j0, j1),
                        "coalesced_requests": len(chunk),
                        "fingerprint": label,
                        "setup_cache_hit": setup_hit,
                        "recycle_cache_hit": recycle_hit,
                        "recycle_adopted": recycle_adopted,
                        "cache": cache_stats,
                        "cost": cost,
                    },
                    **carried,
                },
            )
            j0 = j1

    # -- the family batch solve ------------------------------------------
    def _solve_family_batch(self, key: tuple,
                            chunk: list[SolveRequest]) -> None:
        """One dispatch for a coalesced shifted family.

        The union of the chunk's shifts is solved on a single shared
        block-Arnoldi basis through ``api.solve(..., shifts=...)``; the
        mass factorization (when present) and the recycle space are the
        group's one setup-cache entry, keyed on the family fingerprint
        ``(fp(A), fp(M), rhs-digest, options)``.
        """
        from .. import api

        _, fp, fpm, _bdigest, okey = key
        opts = chunk[0].options
        digest = _okey_digest(opts, okey)
        batch_id = self._next_batch
        self._next_batch += 1

        union: list = []
        for req in chunk:
            for s in req.shifts:
                if s not in union:
                    union.append(s)
        k = len(union)

        ambient = ledger.current()
        batch_led = CostLedger()
        recycling = opts.is_recycling
        rkind = _family_recycle_kind(digest, fpm)
        tr = trace.current()
        with tr.span("service.batch", batch=batch_id, width=k,
                     requests=len(chunk), family=True):
            with ledger.install(batch_led):
                mass_op = setup_hit = None
                if chunk[0].mass is not None:
                    from ..direct.solver import SparseLU
                    mass = chunk[0].mass
                    mass_op, setup_hit = self.cache.get_or_build(
                        fpm, "mass_lu", lambda: SparseLU(_as_matrix(mass)))
                recycle = recycle_hit = None
                if recycling:
                    recycle = self.cache.get(fp, rkind)
                    recycle_hit = recycle is not None
                fam = api.solve(chunk[0].a, chunk[0].b, options=opts,
                                x0=chunk[0].x0, shifts=union, mass=mass_op,
                                recycle=recycle)
                new_space = fam.info.get("recycle")
                if recycling and new_space is not None:
                    new_space.fingerprint = fp
                    self.cache.put(fp, rkind, new_space)
            ambient.merge(batch_led)
        tr.metrics.histogram("service_batch_occupancy").observe(k)
        tr.metrics.counter("service_requests_total").inc(len(chunk))
        tr.metrics.counter("service_batches_total").inc()
        tr.metrics.counter("service_family_batches_total").inc()
        if setup_hit is not None:
            tr.metrics.counter("service_setup_cache_total").inc(
                outcome="hit" if setup_hit else "miss")
        if recycling:
            tr.metrics.counter("service_recycle_cache_total").inc(
                outcome="hit" if recycle_hit else "miss")

        self._scatter_family(chunk, union, fam, batch_led,
                             batch_id=batch_id, setup_hit=setup_hit,
                             recycle_hit=recycle_hit)
        self.batches.append({
            "batch": batch_id,
            "fingerprint": fp.short(),
            "okey_digest": digest,
            "requests": len(chunk),
            "request_indices": [r.index for r in chunk],
            "width": k,
            "family": True,
            "shifts": k,
            "method": fam.method,
            "iterations": fam.iterations,
            "setup_cache_hit": setup_hit,
            "ledger": batch_led,
        })

    def _scatter_family(self, chunk, union: list, fam, batch_led: CostLedger,
                        *, batch_id: int, setup_hit, recycle_hit) -> None:
        """Slice the family result and ledger back onto each request.

        A shift requested by several callers is attributed to each of
        them (its column share appears in every requester's cost), so
        per-request costs over-count shared columns; the batch ledger in
        ``self.batches`` remains the conserved total.
        """
        from ..krylov.shifted import ShiftedFamilyResult

        k = len(union)
        shares = batch_led.split(k)
        pos = {s: i for i, s in enumerate(union)}
        label = chunk[0].fingerprint.short()  # one operator per family
        cache_stats = self.cache.stats()
        for req in chunk:
            idx = [pos[s] for s in req.shifts]
            cost = CostLedger()
            for i in idx:
                cost.merge(shares[i])
            info = dict(fam.info)
            info["service"] = {
                "batch": batch_id,
                "family": True,
                "batch_width": k,
                "shift_indices": idx,
                "coalesced_requests": len(chunk),
                "fingerprint": label,
                "setup_cache_hit": setup_hit,
                "recycle_cache_hit": recycle_hit,
                "cache": cache_stats,
                "cost": cost,
            }
            req.result = ShiftedFamilyResult(
                shifts=tuple(req.shifts),
                results=[fam.results[i] for i in idx],
                iterations=fam.iterations,
                restarts=fam.restarts,
                method=fam.method,
                breakdown=fam.breakdown,
                info=info,
            )
