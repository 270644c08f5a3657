"""Observability layer: span tracer, metrics, exports, and the trace gate.

Locks down the tentpole invariants:

* span nesting mirrors the solver's phase structure;
* per-span exclusive costs sum back to the outer ledger window
  (bit-for-bit on every discrete counter) in both execution modes;
* the default null tracer changes nothing — ledger ``counts()`` and
  solver ``info`` are identical with tracing off;
* the trace gate re-derives the paper's reduction shapes (GMRES ``m``,
  GCRO-DR ``2(m-k)``, cgs2_1r <= 2/step) from exported spans;
* the streaming ``Tracer.summary()`` (exclusive costs folded in as spans
  close) equals the tree walk it replaced, kept as the oracle
  ``tests/fixtures/reference_summary.py``, at every instant.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import laplacian_1d, laplacian_2d
from fixtures.reference_summary import reference_summary
from repro import api
from repro.service import SolveService
from repro.trace import (GateError, MetricsRegistry, NullTracer, Tracer,
                         chrome_trace_json, counts_signature, current,
                         install, modeled_span_seconds, run_gate, tracer_for)
from repro.trace.gate import (check_conservation, check_gcrodr_shape,
                              check_gmres_shape, check_step_reduction_bound)
from repro.util import ledger
from repro.util.ledger import CostLedger
from repro.util.options import OptionError, Options


def _merge_exclusives(root):
    total = CostLedger()
    for span in root.walk():
        if span.cost is not None:
            total.merge(span.exclusive())
    return total


# ---------------------------------------------------------------------------
class TestSpanMechanics:
    def test_nesting_and_attrs(self):
        tr = Tracer()
        with install(tr):
            with tr.span("solve", method="gmres") as root:
                with tr.span("cycle", index=0):
                    with tr.span("arnoldi_step", j=0):
                        pass
                with tr.span("cycle", index=1):
                    pass
        assert [c.name for c in root.children] == ["cycle", "cycle"]
        assert root.attrs == {"method": "gmres"}
        assert root.children[0].children[0].name == "arnoldi_step"
        assert len(root.find("cycle")) == 2
        assert [s.name for s in root.walk()] == [
            "solve", "cycle", "arnoldi_step", "cycle"]

    def test_exclusive_subtracts_children(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("outer") as outer:
                led.reduction(count=1)
                with tr.span("inner") as inner:
                    led.reduction(count=2, nbytes=16)
                led.reduction(count=4)
        assert outer.cost.reductions == 7
        assert inner.cost.reductions == 2
        assert outer.exclusive().reductions == 5
        assert inner.exclusive().reductions == 2

    def test_exclusive_skips_other_ledger_children(self):
        """A child recorded under a nested ledger.install must not be
        subtracted — its charges reached the parent only via merge."""
        tr = Tracer()
        outer_led = CostLedger()
        with ledger.install(outer_led), install(tr):
            with tr.span("batch") as batch:
                inner_led = CostLedger()
                with ledger.install(inner_led):
                    with tr.span("solve"):
                        inner_led.reduction(count=3)
                outer_led.merge(inner_led)
        assert batch.cost.reductions == 3
        assert batch.exclusive().reductions == 3  # child not double-counted

    def test_exclusive_zeroes_timers(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("outer") as outer:
                with led.timer("wall"):
                    led.reduction()
        assert outer.exclusive().timers == {}

    def test_open_span_raises(self):
        tr = Tracer()
        cm = tr.span("solve")
        span = cm.__enter__()
        with pytest.raises(RuntimeError, match="still open"):
            span.exclusive()
        cm.__exit__(None, None, None)

    def test_to_dict_roundtrips_through_json(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                led.flop("spmv", 10.0)
        d = json.loads(json.dumps(root.to_dict()))
        assert d["name"] == "solve"
        assert d["flops"] == {"spmv": 10.0}
        assert d["children"] == []

    def test_exception_unwinds_stack(self):
        tr = Tracer()
        with install(tr):
            with pytest.raises(ValueError):
                with tr.span("solve"):
                    with tr.span("cycle"):
                        raise ValueError("boom")
            with tr.span("after"):
                pass
        assert [r.name for r in tr.roots] == ["solve", "after"]
        assert tr.roots[0].cost is not None  # closed despite the exception


# ---------------------------------------------------------------------------
def _assert_summary_matches_walk(tr):
    got = tr.summary()
    assert got == reference_summary(tr)
    return got


#: a random tracing program — spans opened and closed in any order (a
#: parent may close before its child, a span may never close), private
#: ledgers installed and merged back as the service does around a batch;
#: every step first charges the current ledger so no window is empty
_trace_ops = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("open"), st.sampled_from("abcd")),
            st.tuples(st.just("close"), st.integers(0, 3)),  # k-th innermost
            st.tuples(st.just("push_ledger")),
            st.tuples(st.just("pop_ledger"))),
        st.integers(0, 5),                                   # reductions
        st.sampled_from(["spmv", "blas3", "qr"]),
        st.integers(0, 10 ** 6)),                            # flops
    min_size=1, max_size=40)


def _charge(led, count, kernel, flops):
    led.reduction(nbytes=8 * count, count=count)
    led.flop(kernel, float(flops))


class TestStreamingSummary:
    """summary() is O(names) bookkeeping; it must equal the O(spans) walk."""

    def test_summary_while_root_is_open(self, rng):
        """The service case: api.solve reports a summary per batch while
        the caller's own span is still open around all of them."""
        a = laplacian_1d(120, shift=0.5)
        tr = Tracer()
        with install(tr), ledger.install():
            with tr.span("replay") as outer:
                for _ in range(3):
                    res = api.solve(a, rng.standard_normal(120),
                                    options=Options(krylov_method="gmres",
                                                    gmres_restart=10))
                    summary = res.info["trace"]["summary"]
                    assert summary == reference_summary(tr)
                    assert "replay" not in summary["by_name"]
            final = _assert_summary_matches_walk(tr)
        assert final["by_name"]["replay"]["count"] == 1
        assert final["by_name"]["solve"]["count"] == 3
        # and the rows still add up to the root window (conservation)
        rows = final["by_name"].values()
        assert sum(r["reductions"] for r in rows) == outer.cost.reductions
        assert sum(r["flops"] for r in rows) == outer.cost.total_flops()

    def test_nested_private_ledgers(self, rng):
        """service.batch and setup.lu wrap spans recorded against their
        own private ledgers: windows that must not be subtracted twice."""
        a = laplacian_1d(150)
        svc = SolveService(options=Options(krylov_method="gmres", tol=1e-8,
                                           service_pmax=2),
                           preconditioner="lu")
        tr = Tracer()
        with install(tr), ledger.install() as led:
            for _ in range(5):
                svc.submit(a, rng.standard_normal(150))
                _assert_summary_matches_walk(tr)
            svc.flush()
        got = _assert_summary_matches_walk(tr)
        assert got["by_name"]["service.batch"]["count"] == 3
        assert got["by_name"]["setup.lu"]["count"] == 1
        # the batch rows carry the merged private totals exactly once
        assert got["by_name"]["service.batch"]["reductions"] \
            == led.reductions

    def test_exception_unwinding_through_open_spans(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with pytest.raises(ValueError):
                with tr.span("solve"):
                    led.reduction(count=1)
                    with tr.span("cycle"):
                        led.reduction(count=2)
                        with tr.span("ortho"):
                            led.reduction(count=4)
                            raise ValueError("boom")
            got = _assert_summary_matches_walk(tr)
        assert {k: v["reductions"] for k, v in got["by_name"].items()} \
            == {"solve": 1, "cycle": 2, "ortho": 4}

    def test_unwinding_past_spans_that_never_close(self):
        """__exit__ skipped on the inner spans (an abandoned generator):
        they stay open, and nothing of theirs is subtracted or reported."""
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            outer = tr.span("solve")
            outer.__enter__()
            tr.span("cycle").__enter__()
            tr.span("ortho").__enter__()
            led.reduction(count=3)
            outer.__exit__(None, None, None)
            with tr.span("after"):
                led.reduction(count=1)
            got = _assert_summary_matches_walk(tr)
        assert sorted(got["by_name"]) == ["after", "solve"]
        assert got["by_name"]["solve"]["reductions"] == 3
        assert [r.name for r in tr.roots] == ["solve", "after"]

    def test_child_closed_after_its_parent(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            parent = tr.span("parent")
            parent.__enter__()
            led.reduction(count=1, nbytes=8)
            child = tr.span("child")
            child.__enter__()
            led.reduction(count=2, nbytes=16)
            led.flop("blas3", 100.0)
            parent.__exit__(None, None, None)
            # the child is still open: the parent owns everything so far
            got = _assert_summary_matches_walk(tr)
            assert got["by_name"] == {"parent": {
                "count": 1, "reductions": 3, "reduction_bytes": 40,
                "flops": 100.0}}
            led.reduction(count=4, nbytes=8)   # after the parent's window
            child.__exit__(None, None, None)
            got = _assert_summary_matches_walk(tr)
        assert got["by_name"]["child"] == {
            "count": 1, "reductions": 6, "reduction_bytes": 64,
            "flops": 100.0}
        # the child's whole window comes off the parent's row, exactly as
        # Span.exclusive() computes it
        assert got["by_name"]["parent"] == {
            "count": 1, "reductions": -3, "reduction_bytes": -24,
            "flops": 0.0}

    def test_late_close_leaves_open_ancestors_on_the_stack(self):
        tr = Tracer()
        with install(tr), ledger.install():
            with tr.span("root") as root:
                parent = tr.span("parent")
                parent.__enter__()
                child = tr.span("child")
                child.__enter__()
                parent.__exit__(None, None, None)
                child.__exit__(None, None, None)   # no longer on the stack
                with tr.span("next"):
                    pass
        assert [c.name for c in root.children] == ["parent", "next"]
        assert [r.name for r in tr.roots] == ["root"]

    @pytest.mark.parametrize("level", ["summary", "full"])
    def test_both_levels_on_real_solves(self, rng, level):
        a = laplacian_1d(160, shift=0.5)
        tr = Tracer(level)
        with install(tr), ledger.install():
            for method, kw in (("gmres", {}), ("gcrodr", {"recycle": 4}),
                               ("bgmres", {})):
                api.solve(a, rng.standard_normal((160, 2)),
                          options=Options(krylov_method=method, tol=1e-9,
                                          gmres_restart=12, **kw))
                got = _assert_summary_matches_walk(tr)
        assert got["level"] == level
        assert got["spans"] == sum(1 for r in tr.roots for _ in r.walk())

    def test_span_windows_carry_no_timers(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with led.timer("before"):
                pass
            with tr.span("outer") as outer:
                with led.timer("wall"):
                    led.reduction()
        assert outer.cost.timers == {}
        assert outer.cost.counts() == led.counts()

    @settings(max_examples=150, deadline=None)
    @given(ops=_trace_ops, level=st.sampled_from(["summary", "full"]))
    def test_random_span_programs(self, ops, level):
        tr = Tracer(level)
        open_cms, ledgers = [], [CostLedger()]
        ledger._STACK.append(ledgers[0])
        try:
            with install(tr):
                for op, *charge in ops:
                    _charge(ledger.current(), *charge)
                    if op[0] == "open":
                        cm = tr.span(op[1])
                        cm.__enter__()
                        open_cms.append(cm)
                    elif op[0] == "close" and len(open_cms) > op[1]:
                        open_cms.pop(-1 - op[1]).__exit__(None, None, None)
                    elif op[0] == "push_ledger":
                        ledgers.append(CostLedger())
                        ledger._STACK.append(ledgers[-1])
                    elif op[0] == "pop_ledger" and len(ledgers) > 1:
                        ledger._STACK.pop()
                        ledger.current().merge(ledgers.pop())
                    _assert_summary_matches_walk(tr)
        finally:
            del ledger._STACK[-len(ledgers):]

    @settings(max_examples=50, deadline=None)
    @given(ops=_trace_ops)
    def test_rows_conserve_the_root_window(self, ops):
        """Well-nested spans on one ledger: the rows sum to the root."""
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("root") as root:
                cms = []
                for op, *charge in ops:
                    _charge(led, *charge)
                    if op[0] == "open":
                        cms.append(tr.span(op[1]))
                        cms[-1].__enter__()
                    elif op[0] == "close" and cms:
                        cms.pop().__exit__(None, None, None)
                while cms:
                    cms.pop().__exit__(None, None, None)
        rows = _assert_summary_matches_walk(tr)["by_name"].values()
        assert (sum(r["reductions"] for r in rows),
                sum(r["reduction_bytes"] for r in rows),
                sum(r["flops"] for r in rows)) == (
            root.cost.reductions, root.cost.reduction_bytes,
            root.cost.total_flops())
        assert root.cost.counts() == led.counts()


class TestNullTracer:
    def test_default_is_null(self):
        assert isinstance(current(), NullTracer)
        assert not current().enabled

    def test_null_span_is_noop_singleton(self):
        null = current()
        cm1, cm2 = null.span("x"), null.detail_span("y", a=1)
        assert cm1 is cm2
        with cm1 as got:
            assert got is None

    def test_tracer_for_resolution(self):
        assert not tracer_for(Options()).enabled
        tr = tracer_for(Options(trace="summary"))
        assert tr.enabled and tr.level == "summary"
        ambient = Tracer("full")
        with install(ambient):
            assert tracer_for(Options(trace="off")) is ambient

    def test_invalid_tracer_level(self):
        with pytest.raises(ValueError):
            Tracer("off")
        with pytest.raises(ValueError):
            Tracer("verbose")


# ---------------------------------------------------------------------------
class TestSolverTraces:
    def _solve(self, method, rng, **kw):
        a = laplacian_1d(240, shift=0.5)   # well-conditioned: converges fast
        b = rng.standard_normal(240)
        opts = Options(krylov_method=method, tol=1e-10, trace="summary",
                       **kw)
        tr = Tracer()
        led = CostLedger()
        with install(tr), ledger.install(led):
            res = api.solve(a, b, options=opts)
        return res, tr.roots[-1], led

    @pytest.mark.parametrize("method,kw", [
        ("gmres", {}), ("gcrodr", {"recycle": 5}), ("bgmres", {}),
    ])
    def test_conservation(self, rng, method, kw):
        res, root, led = self._solve(method, rng, **kw)
        assert res.converged.all()
        check_conservation(root)  # raises GateError on violation
        # the root window is the whole outer ledger (solve is all that ran)
        assert counts_signature(root.cost) == counts_signature(led)

    def test_cycle_structure_gmres(self, rng):
        res, root, _ = self._solve("gmres", rng)
        cycles = root.find("cycle")
        assert cycles, "gmres must trace cycles"
        for cyc in cycles:
            steps = cyc.find("arnoldi_step")
            assert steps
            for step in steps:
                orthos = step.find("ortho")
                assert len(orthos) == 1
                # op_apply never charges reductions: the step's reductions
                # are exactly the orthogonalization's
                assert step.cost.reductions == orthos[0].cost.reductions

    def test_info_trace_summary(self, rng):
        res, root, _ = self._solve("gmres", rng)
        trace_info = res.info["trace"]
        assert trace_info["level"] == "summary"
        assert trace_info["span"]["name"] == "solve"
        assert "cycle" in trace_info["summary"]["by_name"]

    def test_off_is_byte_identical(self, rng):
        a = laplacian_1d(240)
        b = rng.standard_normal(240)
        led_off, led_on = CostLedger(), CostLedger()
        with ledger.install(led_off):
            r_off = api.solve(a, b, options=Options(krylov_method="gmres"))
        with ledger.install(led_on):
            r_on = api.solve(a, b,
                             options=Options(krylov_method="gmres",
                                             trace="summary"))
        assert led_off.counts() == led_on.counts()
        assert "trace" not in r_off.info
        info_on = {k: v for k, v in r_on.info.items() if k != "trace"}
        assert repr(r_off.info) == repr(info_on)
        np.testing.assert_array_equal(r_off.x, r_on.x)

    def test_full_level_records_collectives(self, rng):
        """The simmpi collectives only open spans at the "full" level."""
        from repro.simmpi import VirtualGrid, dot_columns, norm_columns
        grid = VirtualGrid(64, 4)
        x = rng.standard_normal((64, 3))
        for level, expected in (("summary", 0), ("full", 2)):
            tr = Tracer(level)
            led = CostLedger()
            with install(tr), ledger.install(led):
                with tr.span("solve") as root:
                    dot_columns(grid, x, x)
                    norm_columns(grid, x)
            found = (root.find("simmpi.dot_columns")
                     + root.find("simmpi.norm_columns"))
            assert len(found) == expected
            if level == "full":
                # one global kernel each: no per-rank all-reduce nested in
                # them, and each span owns its one reduction
                assert root.find("simmpi.allreduce_sum") == []
                assert [s.cost.reductions for s in found] == [1, 1]
                check_conservation(root)
                assert root.cost.reductions == 2

    def test_setup_spans(self, rng):
        from repro.precond.schwarz import SchwarzPreconditioner
        a = laplacian_2d(14)
        tr = Tracer()
        with install(tr), ledger.install():
            m = SchwarzPreconditioner(a, nparts=4)
        setup = tr.roots[0]
        assert setup.name == "setup.schwarz"
        assert [c.name for c in setup.children] == ["setup.lu"] * 4
        # the span window matches what the private setup ledger recorded
        assert setup.cost.counts() == m.setup_cost.counts()


# ---------------------------------------------------------------------------
class TestServiceTracing:
    def test_batch_span_and_metrics(self, rng):
        a = laplacian_1d(200)
        svc = SolveService(options=Options(krylov_method="gmres", tol=1e-8))
        tr = Tracer()
        with install(tr), ledger.install() as led:
            handles = [svc.submit(a, rng.standard_normal(200))
                       for _ in range(4)]
            svc.flush()
            for h in handles:
                h.result
        batches = [r for r in tr.roots if r.name == "service.batch"]
        assert len(batches) == 1
        batch = batches[0]
        assert batch.attrs["width"] == 4
        # the batch window equals the merged batch ledger: conservation at
        # this level means the whole outer ledger is the batch window
        assert counts_signature(batch.cost) == counts_signature(led)
        assert tr.metrics.counter("service_requests_total").value() == 4
        assert tr.metrics.counter("service_batches_total").value() == 1
        occ = tr.metrics.histogram("service_batch_occupancy")
        assert occ.count() == 1 and occ.sum() == 4

    def test_setup_cache_metrics(self, rng):
        a = laplacian_1d(200)
        svc = SolveService(options=Options(krylov_method="gmres", tol=1e-8),
                           preconditioner="lu")
        tr = Tracer()
        with install(tr), ledger.install():
            svc.submit(a, rng.standard_normal(200))
            svc.flush()
            svc.submit(a, rng.standard_normal(200))
            svc.flush()
        cache = tr.metrics.counter("service_setup_cache_total")
        assert cache.value(outcome="miss") == 1
        assert cache.value(outcome="hit") == 1


# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2, method="gmres")
        reg.gauge("depth").set(7)
        assert reg.counter("hits").value() == 1
        assert reg.counter("hits").value(method="gmres") == 2
        assert reg.gauge("depth").value() == 7
        with pytest.raises(ValueError):
            reg.counter("hits").inc(-1)

    def test_type_conflict(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_histogram_buckets_and_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("iters", buckets=(1, 10, 100))
        for v in (0, 1, 5, 50, 500):
            h.observe(v)
        assert h.count() == 5 and h.sum() == 556
        snap = reg.snapshot()
        assert 'iters_bucket{le="1"} 2' in snap
        assert 'iters_bucket{le="10"} 3' in snap
        assert 'iters_bucket{le="100"} 4' in snap
        assert 'iters_bucket{le="+Inf"} 5' in snap
        assert "iters_count 5" in snap
        assert reg.snapshot() == reg.snapshot()  # deterministic
        assert reg.as_dict()["iters_count"] == 5

    def test_null_registry_absorbs(self):
        null = NullTracer().metrics
        null.counter("x").inc()
        null.histogram("y").observe(3)
        null.gauge("z").set(1)
        assert null.snapshot() == ""


# ---------------------------------------------------------------------------
class TestExports:
    def _traced(self, rng):
        a = laplacian_1d(240)
        b = rng.standard_normal(240)
        tr = Tracer()
        with install(tr), ledger.install():
            api.solve(a, b, options=Options(krylov_method="gmres",
                                            trace="summary"))
        return tr

    def test_chrome_trace_shape(self, rng):
        tr = self._traced(rng)
        doc = json.loads(chrome_trace_json(tr))
        events = doc["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        solve = next(e for e in events if e["name"] == "solve")
        for e in events:
            assert e["ts"] >= solve["ts"]
            assert e["ts"] + e["dur"] <= solve["ts"] + solve["dur"] + 1e-6
        assert "reductions" in solve["args"]

    def test_chrome_trace_deterministic(self, rng):
        tr = self._traced(rng)
        assert chrome_trace_json(tr) == chrome_trace_json(tr)

    def test_modeled_time_children_fit(self, rng):
        tr = self._traced(rng)
        root = tr.roots[-1]
        total = modeled_span_seconds(root)
        assert total > 0
        assert sum(modeled_span_seconds(c) for c in root.children) <= total

    def test_counts_signature_drops_zeros(self):
        led = CostLedger()
        led.flop("spmv", 5.0)
        other = led.snapshot()
        diff = led.diff(CostLedger())
        diff.flops["blas3"] = 0.0  # what Counter.subtract leaves behind
        assert counts_signature(diff) == counts_signature(other)


# ---------------------------------------------------------------------------
class TestTraceGate:
    def test_gate_shapes_single_mode(self, rng):
        """The whole gate, on real solves (~1 s)."""
        report = run_gate()
        assert report["reductions_per_cycle"] == {"gmres": 10, "gcrodr": 12}
        assert report["gmres"]["reductions_per_full_cycle"] == 10
        assert report["gcrodr"]["reductions_per_full_cycle"] == 12
        assert report["gmres"]["full_cycles"] >= 1
        assert report["gcrodr"]["full_cycles"] >= 1
        assert report["cgs2_1r_bound"]["max_reductions_per_step"] <= 2
        # different-system GCRO-DR + sketched: one reduction per step
        assert report["sketched_gcrodr"] == {
            "m=10": {"iterations": 48, "reductions": 257},
            "m=20": {"iterations": 38, "reductions": 129}}

    def _fake_cycle(self, tr, led, nsteps, reds_per_step, name="cycle",
                    **attrs):
        with tr.span(name, **attrs):
            for j in range(nsteps):
                with tr.span("arnoldi_step", j=j):
                    led.reduction(count=reds_per_step)

    def test_gmres_shape_rejects_extra_reduction(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                self._fake_cycle(tr, led, nsteps=4, reds_per_step=2)
        with pytest.raises(GateError, match="expected one per step"):
            check_gmres_shape(root, m=4)

    def test_gmres_shape_requires_full_cycle(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                self._fake_cycle(tr, led, nsteps=3, reds_per_step=1)
        with pytest.raises(GateError, match="no full m=4 cycle"):
            check_gmres_shape(root, m=4)

    def test_gcrodr_shape_rejects_recycle_update(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                self._fake_cycle(tr, led, nsteps=6, reds_per_step=2,
                                 kind="gcrodr")
                with tr.span("recycle_update"):
                    led.reduction()
        with pytest.raises(GateError, match="recycle_update"):
            check_gcrodr_shape(root, m=10, k=4)

    def test_gcrodr_shape_rejects_variable_count(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                self._fake_cycle(tr, led, nsteps=6, reds_per_step=2,
                                 kind="gcrodr")
                self._fake_cycle(tr, led, nsteps=6, reds_per_step=3,
                                 kind="gcrodr")
        with pytest.raises(GateError, match="2 per step"):
            check_gcrodr_shape(root, m=10, k=4)

    def test_step_bound(self):
        tr = Tracer()
        led = CostLedger()
        with ledger.install(led), install(tr):
            with tr.span("solve") as root:
                self._fake_cycle(tr, led, nsteps=2, reds_per_step=3)
        with pytest.raises(GateError, match="low-synchronization bound"):
            check_step_reduction_bound(root)
        assert check_step_reduction_bound(root, bound=3)[
            "max_reductions_per_step"] == 3


# ---------------------------------------------------------------------------
class TestOptionsTrace:
    def test_validation(self):
        assert Options().trace == "off"
        assert Options(trace="full").trace == "full"
        with pytest.raises(OptionError, match="trace"):
            Options(trace="loud")

    def test_hpddm_args_roundtrip(self):
        from repro.util.options import parse_hpddm_args
        args = Options(trace="summary").hpddm_args()
        assert "-hpddm_trace" in args
        assert parse_hpddm_args(args).trace == "summary"
        assert "-hpddm_trace" not in Options().hpddm_args()
