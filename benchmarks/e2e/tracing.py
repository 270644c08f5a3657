"""Per-layer tracing from outside: timing wrappers around public entry points.

Nothing under ``src/`` knows about this file.  :func:`install` rebinds, in
this process only, every module global and class attribute of ``repro.*``
(and of the benchmark's ``workloads`` module) that *is* one of the callables
in :data:`TARGETS` — identity match over ``sys.modules``, so
``from ... import`` aliases are caught — with a wrapper
that appends one span ``(id, key, parent, start, end, reductions, value)``
to an in-memory :class:`Recorder`; the returned handle restores every
binding.  A span's *self* time is its duration minus the durations of the
spans it directly caused, so the self times of a pass sum to the wall
time covered by its top-level spans.

Span keys are ``<layer>.<what>``; :func:`layer_metrics` folds one pass's
spans into the per-layer metrics of ``metrics.py``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple

from repro.util import ledger

__all__ = ["Recorder", "TARGETS", "install", "rebind", "layer_metrics",
           "wave_walls", "quantile", "call_tree"]


class Recorder:
    """Spans of the phase being run (set-up, or one pass), in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # closed spans, in order of completion
        self.stack: list[int] = [-1]   # open span ids; -1 = no parent
        self.next_id = 0

    def take(self) -> list[tuple]:
        """Hand over the phase's spans, ordered by id; the next start at 0."""
        spans = sorted(self.spans)
        del self.spans[:], self.stack[1:]
        self.next_id = 0
        return spans


class Target(NamedTuple):
    key: str        #: span name, ``<layer>.<what>``
    where: str      #: ``package.module:function`` or ``...:Class.method``
    value: Callable[[tuple, Any], float] | None = None  #: span's own count
    ledger: bool = True   #: record the reductions charged across the call
    step_of_result: bool = False  #: factory: wrap ``.step`` of what it returns


def _cols(args: tuple, _result: Any) -> float:
    """Columns of the block handed to ``obj.method(x)``."""
    shape = getattr(args[1], "shape", ()) if len(args) > 1 else ()
    return float(shape[1]) if len(shape) == 2 else 1.0


def _iterations(_args: tuple, result: Any) -> float:
    return float(result.iterations)


def _hit(_args: tuple, result: Any) -> float:
    if isinstance(result, tuple):          # get_or_build -> (artifact, hit)
        return float(bool(result[1]))
    if isinstance(result, list):           # adopt_from -> adopted kinds
        return float(bool(result))
    return float(result is not None)       # get -> artifact or None


_ORTHO = "repro.la.orthogonalization"
_SVC = "repro.service"

TARGETS: tuple[Target, ...] = (
    Target("api.solve", "repro.api:solve"),
    Target("api.solve", "repro.api:Solver.solve"),
    # -- krylov ---------------------------------------------------------
    Target("krylov.driver", "repro.krylov.gcrodr:gcrodr", _iterations),
    Target("krylov.driver", "repro.krylov.pgcrodr:pgcrodr", _iterations),
    Target("krylov.driver", "repro.krylov.gmres:gmres", _iterations),
    Target("krylov.spmm", "repro.krylov.base:Operator.matmat"),
    *(Target("krylov.deflation", f"repro.krylov.deflation:{fn}")
      for fn in ("harmonic_ritz_vectors", "generalized_ritz_vectors",
                 "sketched_harmonic_ritz_vectors",
                 "sketched_generalized_ritz_vectors")),
    # -- la -------------------------------------------------------------
    *(Target("la.ortho", f"{_ORTHO}:{fn}")
      for fn in ("project_out", "project_out_fused",
                 "arnoldi_orthogonalize")),
    Target("la.ortho", f"{_ORTHO}:make_arnoldi_engine",
           step_of_result=True),
    Target("la.ortho",
           "repro.plan.pseudoblock:make_pseudo_block_orthogonalizer",
           step_of_result=True),
    *(Target("la.qr", f"{_ORTHO}:{fn}")
      for fn in ("qr_factorization", "cholqr", "shifted_cholqr", "cholqr2",
                 "cholqr_rr", "tsqr", "householder_qr", "sketched_qr",
                 "classical_gram_schmidt_qr", "modified_gram_schmidt_qr")),
    *(Target("la.dense", f"repro.la.dense:{fn}")
      for fn in ("sorted_eig", "sorted_generalized_eig",
                 "solve_upper_triangular", "hessenberg_harmonic_lhs")),
    Target("la.dense", "repro.la.blockqr:BlockHessenbergQR.add_column"),
    Target("la.dense", "repro.la.blockqr:BlockHessenbergQR.solve"),
    # -- precond / direct -----------------------------------------------
    Target("precond.setup", "repro.precond.amg:SmoothedAggregationAMG.__init__"),
    Target("precond.setup", "repro.precond.schwarz:SchwarzPreconditioner.__init__"),
    Target("precond.apply", "repro.krylov.base:Preconditioner.__call__", _cols),
    Target("direct.factor", "repro.direct.solver:SparseLU.__init__"),
    Target("direct.lu_solve", "repro.direct.solver:SparseLU.solve"),
    Target("direct.trisolve", "repro.direct.triangular:TriangularFactor.solve",
           _cols),
    # -- problems -------------------------------------------------------
    *(Target("problems.assemble", f"repro.problems.maxwell:{fn}")
      for fn in ("maxwell_chamber", "decompose_maxwell", "antenna_ring_rhs")),
    *(Target("problems.assemble", f"repro.problems.transient:HeatSequence.{m}")
      for m in ("__init__", "operator", "rhs")),
    Target("problems.assemble", f"{_SVC}.traffic:build_operators"),
    # -- service --------------------------------------------------------
    *(Target(f"service.{m}", f"{_SVC}.service:SolveService.{m}")
      for m in ("submit", "flush", "result")),
    *(Target(f"service.{m}", f"{_SVC}.scheduler:AsyncSolveService.{m}")
      for m in ("submit", "flush", "result", "advance_to", "drain")),
    Target("service.run", f"{_SVC}.sequence:SequenceDriver.run"),
    Target("service.fingerprint", f"{_SVC}.fingerprint:operator_fingerprint",
           ledger=False),
    *(Target(f"service.cache_{m}", f"{_SVC}.{mod}:{cls}.{m}", _hit,
             ledger=m == "get_or_build")
      for mod, cls in (("cache", "SetupCache"), ("shard", "ShardedSetupCache"))
      for m in ("get_or_build", "get", "adopt_from")),
    # -- observability overhead -----------------------------------------
    Target("trace.summary", "repro.trace.tracer:Tracer.summary", ledger=False),
    Target("trace.span", "repro.trace.tracer:Tracer.span", ledger=False),
    Target("ledger.snapshot", "repro.util.ledger:CostLedger.snapshot",
           ledger=False),
    Target("plan.compiled_cycle",
           "repro.plan.block_cycle:compiled_block_arnoldi_cycle"),
)

#: service-layer spans whose self time is queueing/dispatch bookkeeping
_DISPATCH_KEYS = frozenset(
    f"service.{m}" for m in ("submit", "flush", "result", "advance_to",
                             "drain", "run"))


def _wrap(fn: Callable, target: Target, rec: Recorder) -> Callable:
    """The timing wrapper.  Kept lean: the hot targets are called 10^5x."""
    key, value, want_ledger = target.key, target.value, target.ledger
    spans, stack, clock = rec.spans, rec.stack, time.perf_counter
    current = ledger.current

    def traced(*args, **kwargs):
        sid = rec.next_id
        rec.next_id = sid + 1
        parent = stack[-1]
        stack.append(sid)
        led = current() if want_ledger else None
        red0 = led.reductions if want_ledger else 0
        result = None
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = clock()
            stack.pop()
            spans.append((sid, key, parent, t0, t1,
                          led.reductions - red0 if want_ledger else 0,
                          value(args, result)
                          if value is not None and result is not None
                          else 0.0))

    functools.update_wrapper(traced, fn)
    if not target.step_of_result:
        return traced
    step_target = target._replace(step_of_result=False)

    def traced_factory(*args, **kwargs):
        obj = fn(*args, **kwargs)
        obj.step = _wrap(obj.step, step_target, rec)
        return obj

    functools.update_wrapper(traced_factory, fn)
    return traced_factory


def _resolve(where: str) -> Callable:
    """The callable a ``module:function`` / ``module:Class.method`` names."""
    mod_name, qual = where.split(":")
    owner: Any = importlib.import_module(mod_name)
    for part in qual.split("."):
        # vars(), not getattr: a method as the class stores it, unbound
        owner = vars(owner)[part]
    return owner


def _bindings(original: Callable) -> list[tuple[Any, str]]:
    """Every module global / class attribute that is ``original``.

    Scans ``repro`` and its submodules, and ``workloads`` — the benchmark's
    own call sites hold ``from repro... import`` aliases too.
    """
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name in ("repro", "workloads")
                               or name.startswith("repro.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                found.append((mod, attr))
            elif isinstance(obj, type) and obj.__module__ == name:
                found.extend((obj, a) for a, v in list(vars(obj).items())
                             if v is original)
    return found


class Installed:
    """Handle over a set of rebound attributes; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def bind(self, original: Callable, replacement: Callable) -> int:
        sites = _bindings(original)
        for owner, attr in sites:
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
        return len(sites)

    @property
    def sites(self) -> list[tuple[Any, str, Any]]:
        return list(self._undo)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def install(rec: Recorder) -> Installed:
    """Wrap every target; use as a context manager or call ``restore()``."""
    handle = Installed()
    try:
        for target in TARGETS:
            original = _resolve(target.where)
            if handle.bind(original, _wrap(original, target, rec)) == 0:
                raise LookupError(f"{target.where} is bound nowhere under repro")
    except BaseException:
        handle.restore()
        raise
    return handle


def rebind(where: str, make_replacement: Callable[[Callable], Callable]
           ) -> Installed:
    """Replace one callable everywhere it is bound (selftest fault stubs)."""
    handle = Installed()
    original = _resolve(where)
    handle.bind(original, make_replacement(original))
    return handle


# ---------------------------------------------------------------------------
# folding spans into metrics
# ---------------------------------------------------------------------------

class _Agg:
    __slots__ = ("calls", "wall", "self_wall", "reductions",
                 "reductions_self", "value")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.self_wall = 0.0
        self.reductions = 0
        self.reductions_self = 0
        self.value = 0.0


def _child_totals(spans: list[tuple]) -> tuple[list[float], list[int]]:
    """Wall time and reductions of each span's direct children."""
    child_wall = [0.0] * len(spans)
    child_red = [0] * len(spans)
    for _sid, _key, parent, t0, t1, red, _val in spans:
        if parent >= 0:
            child_wall[parent] += t1 - t0
            child_red[parent] += red
    return child_wall, child_red


def _fold(spans: list[tuple]) -> dict[str, _Agg]:
    """Per-key totals of one phase's spans (as ``Recorder.take`` returns them).

    Inclusive quantities (``calls``, ``wall``, ``reductions``, ``value``)
    count only spans with no ancestor of the same key, so a wrapped
    function that calls another one of its own kind is not counted twice.
    """
    child_wall, child_red = _child_totals(spans)
    aggs: dict[str, _Agg] = defaultdict(_Agg)
    for sid, key, parent, t0, t1, red, val in spans:
        agg = aggs[key]
        agg.self_wall += (t1 - t0) - child_wall[sid]
        agg.reductions_self += red - child_red[sid]
        up = parent
        while up >= 0 and spans[up][1] != key:
            up = spans[up][2]
        if up < 0:
            agg.calls += 1
            agg.wall += t1 - t0
            agg.reductions += red
            agg.value += val
    return aggs


def quantile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def wave_walls(spans: list[tuple]) -> list[float]:
    """Wall seconds of each lock-step wave inside ``SequenceDriver.run``.

    A wave is the driver's submit-steps / flush / collect-results round; it
    ends with the last ``service.result`` that follows a ``service.flush``.
    """
    walls: list[float] = []
    for run in (s for s in spans if s[1] == "service.run"):
        start, in_results = run[3], False
        for s in (s for s in spans if s[2] == run[0]):
            if in_results and s[1] != "service.result":
                walls.append(s[3] - start)
                start, in_results = s[3], False
            if s[1] == "service.flush":
                in_results = True
        walls.append(run[4] - start)
    return walls


def layer_metrics(spans: list[tuple]
                  ) -> tuple[dict[str, float], dict[str, float]]:
    """Fold one phase (a pass, or set-up) into ``(metrics, layer_self)``.

    ``metrics`` holds the span-derived per-layer metrics plus
    ``covered_wall_s``, the wall time inside top-level spans;
    ``layer_self`` is the self time of every layer that was entered.
    """
    aggs = _fold(spans)

    def agg(key: str) -> _Agg:
        return aggs.get(key, _Agg())

    def layer_self(layer: str, keys=None) -> float:
        return sum(a.self_wall for k, a in aggs.items()
                   if k.startswith(layer + ".") and (keys is None or k in keys))

    out = {
        "api.solve_calls": agg("api.solve").calls,
        "api.solve_wall_s": agg("api.solve").wall,
        "api.self_wall_s": layer_self("api"),
        "krylov.driver_calls": agg("krylov.driver").calls,
        "krylov.iterations": agg("krylov.driver").value,
        "krylov.self_wall_s": agg("krylov.driver").self_wall,
        "krylov.reductions_self": agg("krylov.driver").reductions_self,
        "krylov.spmm_calls": agg("krylov.spmm").calls,
        "krylov.spmm_wall_s": agg("krylov.spmm").wall,
        "krylov.deflation_calls": agg("krylov.deflation").calls,
        "krylov.deflation_wall_s": agg("krylov.deflation").wall,
        "la.ortho_calls": agg("la.ortho").calls,
        "la.ortho_wall_s": agg("la.ortho").wall,
        "la.ortho_reductions": agg("la.ortho").reductions,
        "la.qr_calls": agg("la.qr").calls,
        "la.qr_wall_s": agg("la.qr").wall,
        "la.dense_calls": agg("la.dense").calls,
        "la.dense_wall_s": agg("la.dense").wall,
        "precond.setup_calls": agg("precond.setup").calls,
        "precond.setup_wall_s": agg("precond.setup").wall,
        "precond.apply_calls": agg("precond.apply").calls,
        "precond.apply_cols": agg("precond.apply").value,
        "precond.apply_wall_s": agg("precond.apply").wall,
        "precond.apply_self_wall_s": agg("precond.apply").self_wall,
        "direct.factor_calls": agg("direct.factor").calls,
        "direct.factor_wall_s": agg("direct.factor").wall,
        "direct.trisolve_calls": agg("direct.trisolve").calls,
        "direct.trisolve_cols": agg("direct.trisolve").value,
        "direct.trisolve_wall_s": agg("direct.trisolve").wall,
        "problems.assemble_wall_s": agg("problems.assemble").wall,
        "service.submit_calls": agg("service.submit").calls,
        "service.submit_wall_s": agg("service.submit").wall,
        "service.fingerprint_calls": agg("service.fingerprint").calls,
        "service.fingerprint_wall_s": agg("service.fingerprint").wall,
        "service.dispatch_self_wall_s": layer_self("service", _DISPATCH_KEYS),
        "service.adoptions": agg("service.cache_adopt_from").value,
        "trace.summary_calls": agg("trace.summary").calls,
        "trace.summary_wall_s": agg("trace.summary").wall,
        "trace.spans": agg("trace.span").calls,
        "ledger.snapshot_calls": agg("ledger.snapshot").calls,
        "ledger.snapshot_wall_s": agg("ledger.snapshot").wall,
        "plan.compiled_cycle_calls": agg("plan.compiled_cycle").calls,
    }
    out["covered_wall_s"] = sum(a.self_wall for a in aggs.values())
    return ({k: float(v) for k, v in out.items()},
            {layer: layer_self(layer)
             for layer in sorted({k.split(".")[0] for k in aggs})})


def call_tree(spans: list[tuple]) -> list[dict[str, Any]]:
    """Spans of one phase aggregated by call path (``a/b/c``), for the report."""
    aggs: dict[str, list] = {}
    child_wall, _ = _child_totals(spans)
    paths: list[str] = []
    for sid, key, parent, t0, t1, red, _val in spans:
        paths.append(key if parent < 0 else f"{paths[parent]}/{key}")
        row = aggs.setdefault(paths[sid], [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += t1 - t0
        row[2] += (t1 - t0) - child_wall[sid]
        row[3] += red
    return [{"path": p, "calls": c, "wall_s": w, "self_wall_s": s,
             "reductions": r} for p, (c, w, s, r) in sorted(aggs.items())]
