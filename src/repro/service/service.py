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
from typing import Any

import numpy as np
import scipy.sparse as sp

from ..krylov import recycling
from ..krylov.base import (ConvergenceHistory, Preconditioner, SolveResult,
                           operator_tag)
from ..krylov.recycling import PseudoBlockRecycle
from ..krylov.shifted import ShiftedFamilyResult
from ..trace import tracer as trace
from ..util import ledger
from ..util.ledger import CostLedger
from ..util.misc import as_block, invalid_input
from ..util.options import OptionError, Options
from .cache import SetupCache
from .fingerprint import Fingerprint, operator_fingerprint

__all__ = ["SolveRequest", "SolveService", "options_key", "options_digest",
           "recycle_kind"]

_PRECOND_SPECS = ("lu", "schwarz", "amg")


@dataclass
class SolveRequest:
    """One queued solve.  ``result`` is filled when its batch is solved.

    A *family* request (``shifts`` non-empty) asks for every system
    ``(A + sigma_i M) x = b_i`` of a shifted family at once; its ``width``
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
        regardless of ``p_max`` (the union of its ``(shift, b column)``
        pairs is the block width).
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


def recycle_kind(options: Options) -> str:
    """The setup-cache kind a recycled pair solved under ``options`` is
    kept as, by the service and a cache-backed :class:`repro.api.Solver`."""
    return f"recycle:{_key_state(options)[2]}"


def _rhs_digest(b: np.ndarray) -> str:
    """Stable digest of a right-hand side's value, for family coalescing."""
    arr = np.ascontiguousarray(b)
    h = hashlib.blake2b(digest_size=8)
    h.update(str((arr.shape, arr.dtype.str)).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


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


def _column_problem(b: np.ndarray, x0: np.ndarray | None, k: int,
                    width: int) -> str | None:
    """Why ``b`` / ``x0`` have the wrong column count for a request of
    ``width`` columns and ``k`` shifts (0: a plain request), or ``None``.
    Caught at the door: at dispatch it would fail the whole batch."""
    if k and b.ndim == 2 and b.shape[1] not in (1, k):
        return f"b has {b.shape[1]} columns; a {k}-shift family takes 1 or {k}"
    if x0 is None or (k and x0.ndim == 1):
        return None
    got = 1 if x0.ndim == 1 else x0.shape[1]
    return None if got == width else f"x0 has {got} columns; expected {width}"


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
                      shifts=None, mass=None, cls=SolveRequest,
                      fingerprint: Fingerprint | None = None,
                      **extra) -> SolveRequest:
        sig = ()
        if shifts is not None:
            sig = tuple(np.ravel(np.asarray(list(shifts))).tolist())
            if not sig:
                raise ValueError("a family request needs at least one shift")
        elif mass is not None:
            raise OptionError("mass is only meaningful together with shifts")
        opts = options or self.options
        fp = operator_fingerprint(a) if fingerprint is None else fingerprint
        b_arr = np.asarray(b)
        if x0 is not None:
            x0 = np.asarray(x0)
        width = len(sig) if sig else as_block(b_arr).shape[1]
        req = cls(index=self._next_index, a=a, fingerprint=fp, b=b_arr,
                  width=width, options=opts, x0=x0,
                  squeeze=b_arr.ndim == 1 and not sig,
                  shifts=sig, mass=mass, **extra)
        problem = invalid_input(np.shape(a)[0], b_arr, x0)
        if problem is None and (sig or x0 is not None):
            problem = _column_problem(b_arr, x0, len(sig), width)
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
               fingerprint: Fingerprint | None = None,
               shifts=None, mass: Any = None) -> SolveRequest:
        """Queue one solve request; returns a handle to poll for results.

        Under the ``"batch_full"`` flush policy a group is dispatched as
        soon as it reaches ``service_pmax`` columns; otherwise requests
        wait for :meth:`flush`.  ``fingerprint``: for a caller that has just
        hashed ``a`` (:class:`SequenceDriver`), sparing the second pass.

        ``shifts=[sigma_1, ...]`` (and an optional mass matrix ``mass``)
        asks for the family ``(A + sigma_i M) x = b_i`` instead, as
        ``api.solve(a, b, shifts=, mass=)`` does; family requests sharing
        ``A``, ``M``, the value of ``b`` and the options coalesce into one
        dispatch (:func:`_family_block`).
        """
        return self._enqueue(self._make_request(
            a, b, options=options, x0=x0, fingerprint=fingerprint,
            shifts=shifts, mass=mass))

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
        """Solve one chunk as one block and slice the result back out.

        A plain chunk's block is its requests' ``b`` side by side; a family
        chunk's is the union of its ``(shift, b column)`` pairs
        (:func:`_family_block`).  The kinds differ only in the set-up
        (preconditioner or mass factorization), the recycle kind and the
        result type.
        """
        from .. import api  # deferred: repro.api has no import-time cycle here

        first = chunk[0]
        fp, opts = first.fingerprint, first.options
        digest = _okey_digest(opts, key[-1])
        batch_id = self._next_batch
        self._next_batch += 1
        family = bool(first.shifts)
        if family:
            bmat, x0, shifts, columns = _family_block(chunk)
            p = len(shifts)
            fpm = key[2]  # one recycle pair per (options, fp(M))
            rkind = f"family_recycle:{digest}:" + (
                fpm.short() if fpm is not None else "none")
            family_flag = {"family": True}  # on the span, info and record
        else:
            blocks = [as_block(r.b) for r in chunk]
            bmat = np.hstack(blocks) if len(blocks) > 1 else blocks[0]
            p = bmat.shape[1]
            x0 = None
            if any(r.x0 is not None for r in chunk):
                cols = [as_block(r.x0) if r.x0 is not None
                        else np.zeros((bmat.shape[0], r.width),
                                      dtype=bmat.dtype)
                        for r in chunk]
                x0 = np.hstack(cols) if len(cols) > 1 else cols[0]
            shifts = columns = None
            rkind = recycle_kind(opts)
            family_flag = {}

        ambient = ledger.current()
        batch_led = CostLedger()
        recycles = opts.is_recycling
        tr = trace.current()
        # the span opens against the *ambient* ledger before the private
        # batch ledger is installed, so its window sees exactly the merged
        # batch total (inner solve spans record against the batch ledger
        # and are excluded from this span's exclusive cost — see
        # Span.exclusive)
        with tr.span("service.batch", batch=batch_id, width=p,
                     requests=len(chunk), **family_flag):
            with ledger.install(batch_led):
                m = mass = setup_hit = None
                if not family:
                    m, setup_hit = self._resolve_preconditioner(first.a, fp)
                elif first.mass is not None:  # one factorization per fp(M)
                    from ..direct.solver import SparseLU
                    mass, setup_hit = self.cache.get_or_build(
                        key[2], "mass_lu",
                        lambda: SparseLU(_as_matrix(first.mass)))
                recycle = None
                same_system = adopted = False
                if recycles:
                    # a family's unprojected engine takes its cached pair as
                    # is; a plain batch asks the pair's stamp, and a pair it
                    # finds but cannot trust was adopted from a neighbour
                    recycle, found = self._cached_recycle(fp, rkind, p)
                    same_system = found if family else recycling.same_system(
                        recycle, operator_tag(first.a), fp, options=opts)
                    adopted = found and not same_system
                res = api.solve(first.a, bmat, m, options=opts, x0=x0,
                                recycle=recycle, same_system=same_system,
                                shifts=shifts, mass=mass)
                new_space = res.info.get("recycle")
                if recycles and new_space is not None:
                    new_space.fingerprint = fp
                    self.cache.put(fp, rkind, new_space)
            ambient.merge(batch_led)
        tr.metrics.histogram("service_batch_occupancy").observe(p)
        tr.metrics.counter("service_requests_total").inc(len(chunk))
        tr.metrics.counter("service_batches_total").inc()
        if family:
            tr.metrics.counter("service_family_batches_total").inc()
        if setup_hit is not None:
            tr.metrics.counter("service_setup_cache_total").inc(
                outcome="hit" if setup_hit else "miss")
        if recycles:
            tr.metrics.counter("service_recycle_cache_total").inc(
                outcome="hit" if same_system else "miss")

        label = fp.short()  # one operator per batch
        service = {
            "batch": batch_id,
            "batch_width": p,
            "coalesced_requests": len(chunk),
            "fingerprint": label,
            "setup_cache_hit": setup_hit,
            "recycle_cache_hit": same_system if recycles else None,
            "recycle_adopted": adopted if recycles else None,
            "cache": self.cache.stats(),
            **family_flag,
        }
        self._scatter(chunk, columns, res, batch_led, service)
        self.batches.append({
            "batch": batch_id,
            "fingerprint": label,
            "okey_digest": digest,
            "requests": len(chunk),
            "request_indices": [r.index for r in chunk],
            "width": p,
            **family_flag,
            "method": res.method,
            "iterations": res.iterations,
            "setup_cache_hit": setup_hit,
            "ledger": batch_led,
        })

    def _scatter(self, chunk: list[SolveRequest], columns: list | None,
                 res: SolveResult | ShiftedFamilyResult,
                 batch_led: CostLedger, service: dict[str, Any]) -> None:
        """Slice the block result and the ledger back onto each request.

        ``columns[i]`` lists the batch columns of family request
        ``chunk[i]``; ``None`` means a plain chunk, whose requests' widths
        sit side by side and are sliced without fancy indexing.  What the
        requests share (``service``, the column arrays) is computed once.
        A column several family requests asked for is attributed to each
        of them; the batch ledger in ``self.batches`` stays the conserved
        total.
        """
        shares = batch_led.split(service["batch_width"])
        if columns is not None:
            for req, idx in zip(chunk, columns):
                req.result = ShiftedFamilyResult(
                    shifts=req.shifts, results=[res.results[i] for i in idx],
                    iterations=res.iterations, restarts=res.restarts,
                    method=res.method, breakdown=res.breakdown,
                    info={**res.info, "service": {
                        **service, "shift_indices": idx,
                        "cost": _merged(shares[i] for i in idx)}})
            return
        x = as_block(np.asarray(res.x))
        records = res.history.records
        rhs_norms = np.asarray(res.history.rhs_norms)
        converged = np.atleast_1d(res.converged)
        carried = {k: res.info[k] for k in ("verify", "same_system", "k",
                                            "variant") if k in res.info}
        j0 = 0
        for req in chunk:
            j1 = j0 + req.width
            cost = shares[j0] if req.width == 1 else _merged(shares[j0:j1])
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
                info={"service": {**service, "columns": (j0, j1),
                                  "cost": cost},
                      **carried},
            )
            j0 = j1


def _merged(shares) -> CostLedger:
    """One ledger holding the sum of ``shares``."""
    cost = CostLedger()
    for share in shares:
        cost.merge(share)
    return cost


def _family_block(chunk: list[SolveRequest]
                  ) -> tuple[np.ndarray, np.ndarray | None, list, list]:
    """``(b, x0, shifts, columns)`` of a family chunk's union block.

    A request asks for one column per shift: the pair ``(sigma_i, j)``,
    ``j`` being its ``b`` column for that shift (0 for a single column,
    ``i`` otherwise).  Equal pairs are one column, in the order they first
    appear; ``columns[r]`` lists request ``r``'s.  The chunk shares one
    ``b`` (its value is in the coalescing key); a vector goes as is.  A
    column starts from the ``x0`` column of the first request that asked
    for it, or from zero; ``x0`` is ``None`` if no request sent one.
    """
    pos: dict[tuple, int] = {}  # (sigma, j) -> union column, in order
    seeds: list = []  # per union column: (x0 of its first requester, i)
    columns: list[list[int]] = []
    for req in chunk:
        single = req.b.ndim == 1 or req.b.shape[1] == 1
        idx = []
        for i, sigma in enumerate(req.shifts):
            pair = (sigma, 0 if single else i)
            if pair not in pos:
                pos[pair] = len(seeds)
                seeds.append((req.x0, i))
            idx.append(pos[pair])
        columns.append(idx)
    shifts = [sigma for sigma, _ in pos]
    b = chunk[0].b
    if b.ndim == 2:
        b = b[:, [j for _, j in pos]]
    x0 = None
    given = [r.x0 for r in chunk if r.x0 is not None]
    if given:
        x0 = np.zeros((b.shape[0], len(shifts)),
                      dtype=np.result_type(b, *given))
        for c, (seed, i) in enumerate(seeds):
            if seed is not None:
                x0[:, c] = seed if seed.ndim == 1 else seed[:, i]
    return b, x0, shifts, columns
