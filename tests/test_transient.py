"""Transient sequences: problems, driver, adoption carry-over, trace shape.

Covers the transient workload engine end to end at unit scale: the
:class:`HeatSequence` / :class:`MaxwellRampSequence` algebra, the
:class:`SequenceDriver` through both service front ends, the
``SetupCache.adopt_from`` carry-over contract (adopted pairs keep their
foreign fingerprint stamp and are *repaired* at the adoption boundary,
never trusted), the golden seeded-sequence replay (two runs must be
byte-identical), and the ``sequence.*`` trace-shape gate including its
failure modes on hand-built span trees.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.api import Solver
from repro.problems.transient import HeatSequence, MaxwellRampSequence
from repro.service.cache import SetupCache
from repro.service.fingerprint import operator_fingerprint
from repro.service.scheduler import AsyncSolveService
from repro.service.sequence import SequenceDriver
from repro.service.service import SolveService
from repro.service.shard import ShardedSetupCache
from repro.trace.export import counts_signature
from repro.trace.tracer import Tracer, install
from repro.util import ledger
from repro.util.ledger import CostLedger
from repro.util.options import Options, parse_hpddm_args
from trace_gate import GateError, check_sequence_shape


def seq_options(**over) -> Options:
    base = dict(krylov_method="gcrodr", gmres_restart=30, recycle=10,
                orthogonalization="cgs2_1r", tol=1e-10, max_it=2000,
                recycle_same_system=False, service_flush="explicit")
    base.update(over)
    return Options(**base)


def drive(seq, *, service_cls=SolveService, tenants=1, **opt_over):
    opts = seq_options(**opt_over)
    svc = service_cls(options=opts)
    driver = SequenceDriver(svc)
    handles = [driver.add(seq if i == 0 else seq.__class__(
        nx=seq.problem.nx, n_steps=seq.n_steps, dt0=seq.dt0,
        epoch_length=seq.epoch_length, growth=seq.growth),
        options=opts, tenant=f"t{i}") for i in range(tenants)]
    records = driver.run()
    return driver, handles, records


# -- problem algebra ---------------------------------------------------
def test_heat_sequence_matches_implicit_heat():
    """growth=1.0 degenerates to fixed-operator implicit heat stepping:
    one operator value for every step, and a Solver stepping it
    iteratively lands on the direct solution."""
    nx, dt, n_steps = 7, 1e-3, 5
    seq = HeatSequence(nx=nx, n_steps=n_steps, dt0=dt, epoch_length=2,
                       growth=1.0)
    steps = seq.steps()
    assert all(s.dt == dt for s in steps)
    assert len({operator_fingerprint(seq.operator(s)) for s in steps}) == 1
    solver = Solver(options=Options(
        krylov_method="gcrodr", gmres_restart=30, recycle=10, tol=1e-8,
        max_it=20000, recycle_same_system=True))
    u = v = seq.u0()
    for step in steps:
        u = spla.spsolve(seq.operator(step).tocsc(), seq.rhs(step, u))
        v = solver.solve(seq.operator(step), seq.rhs(step, v)).x
    # the solver steps iteratively at tol 1e-8; the reference is direct
    assert np.linalg.norm(u - v) <= 1e-8


def test_heat_sequence_epoch_schedule():
    seq = HeatSequence(nx=5, n_steps=9, dt0=1e-3, epoch_length=3,
                       growth=2.0)
    steps = seq.steps()
    assert seq.n_epochs == 3
    assert [s.epoch for s in steps] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    for s in steps:
        assert s.dt == pytest.approx(1e-3 * 2.0 ** s.epoch)
        assert s.sigma == pytest.approx(1.0 / s.dt)
    # same object (stable tag + fp) within an epoch, new operator across
    assert seq.operator(steps[0]) is seq.operator(steps[2])
    assert seq.operator(steps[2]) is not seq.operator(steps[3])
    fp0 = operator_fingerprint(seq.operator(steps[0]))
    fp1 = operator_fingerprint(seq.operator(steps[3]))
    assert fp0 == operator_fingerprint(seq.operator(steps[1]))
    assert fp0 != fp1


def test_heat_operator_is_base_plus_sigma_identity():
    seq = HeatSequence(nx=5, n_steps=4, dt0=2e-3, epoch_length=2,
                       growth=1.5, theta=0.5)
    for step in seq.steps():
        lhs = seq.operator(step)
        want = seq.base + step.sigma * np.eye(seq.problem.n)
        assert np.abs(lhs.toarray() - want).max() < 1e-12


def test_maxwell_ramp_operator_algebra():
    seq = MaxwellRampSequence(n=3, n_steps=4, omega0=6.0, epoch_length=2,
                              omega_growth=1.2, n_antennas=4)
    steps = seq.steps()
    assert steps[0].sigma == pytest.approx(-36.0)
    assert steps[2].epoch == 1
    for step in steps:
        lhs = seq.operator(step)
        want = (seq.base + step.sigma * seq.mass).toarray()
        assert np.abs(lhs.toarray() - want).max() < 1e-10
    # rhs columns walk the ring and scale with omega/omega0
    r0 = seq.rhs(steps[0], None)
    r2 = seq.rhs(steps[2], None)
    ratio = seq.omega_of_epoch(1) / seq.omega0
    assert np.allclose(r2, ratio * r0 * 0 + r2)  # well-formed
    assert np.linalg.norm(r2 - ratio * seq._ring[:, 2]) < 1e-12


# -- driver ------------------------------------------------------------
def test_sequence_driver_final_field_and_fast_path():
    seq = HeatSequence(nx=7, n_steps=6, dt0=1e-3, epoch_length=3,
                       growth=1.5)
    _, (handle,), records = drive(seq)
    assert handle.all_converged
    u = seq.u0()
    for step in seq.steps():
        u = spla.spsolve(seq.operator(step).tocsc(), seq.rhs(step, u))
    assert np.linalg.norm(handle.u - u) < 1e-7 * np.linalg.norm(u)
    # epoch structure shows up in the records
    assert [r["fp_changed"] for r in records] \
        == [True, False, False, True, False, False]
    assert all(r["recycle_cache_hit"] for r in records[1:3])
    boundary = records[3]
    assert boundary["recycle_adopted"] and boundary["adopted_kinds"]


def test_sequence_driver_sync_async_parity():
    its = {}
    for cls in (SolveService, AsyncSolveService):
        seq = HeatSequence(nx=7, n_steps=6, dt0=1e-3, epoch_length=3,
                           growth=1.5)
        _, handles, records = drive(seq, service_cls=cls, tenants=2)
        assert all(h.all_converged for h in handles)
        its[cls.__name__] = [r["iterations"] for r in records]
        assert {r["batch_width"] for r in records} == {2}  # coalesced
    assert its["SolveService"] == its["AsyncSolveService"]


def test_sequence_driver_warm_start_converges_to_same_field():
    fields = {}
    for warm in (False, True):
        seq = HeatSequence(nx=7, n_steps=6, dt0=1e-3, epoch_length=3,
                           growth=1.5)
        _, (handle,), _ = drive(seq, sequence_warm_start=warm)
        assert handle.all_converged
        fields[warm] = handle.u
    assert np.linalg.norm(fields[True] - fields[False]) \
        < 1e-6 * max(np.linalg.norm(fields[False]), 1.0)


def test_recycle_same_system_with_adopt_repairs_the_adopted_pair():
    """The flag does not trust an adopted pair: its foreign fingerprint
    stamp re-derives it, so the flagged run is the unflagged one."""
    def run(flag):
        opts = seq_options(recycle_same_system=flag, sequence_adopt=True,
                           trace="summary")
        driver = SequenceDriver(SolveService(options=opts))
        driver.add(HeatSequence(nx=7, n_steps=6, dt0=1e-3, epoch_length=3,
                                growth=1.5), options=opts, tenant="t0")
        tr = Tracer(level="summary")
        with install(tr):
            records = driver.run()
        return records, check_sequence_shape(tr.roots[-1])

    records, shape = run(True)
    assert shape["adoptions"] == 1 and shape["fast_path_steps"] == 4
    changed = [r for r in records if r["fp_changed"]]
    assert len(changed) == 2 and changed[1]["recycle_adopted"]
    assert not any(r["recycle_cache_hit"] for r in changed)
    assert [r["iterations"] for r in records] \
        == [r["iterations"] for r in run(False)[0]]


def test_driver_rejects_duplicate_tenant():
    opts = seq_options()
    driver = SequenceDriver(SolveService(options=opts))
    driver.add(HeatSequence(nx=5, n_steps=2), options=opts, tenant="t")
    with pytest.raises(ValueError, match="duplicate tenant"):
        driver.add(HeatSequence(nx=5, n_steps=2), options=opts, tenant="t")


# -- adopt_from: carry-over across the epoch boundary ------------------
class _FakeSpace:
    def __init__(self, fp, tag="prev"):
        self.fingerprint = fp
        self.tag = tag
        self.copies = 0

    def copy(self):
        dup = _FakeSpace(self.fingerprint, self.tag)
        dup.copies = self.copies + 1
        return dup


def _fps(*mats):
    return tuple(operator_fingerprint(m) for m in mats)


def _two_fps():
    import scipy.sparse as sp
    a = sp.eye(4, format="csr")
    b = sp.eye(4, format="csr") * 2.0
    return _fps(a, b)


def test_adopt_from_copies_recycle_kinds_and_keeps_foreign_stamp():
    fp_prev, fp_new = _two_fps()
    cache = SetupCache()
    space = _FakeSpace(fp_prev)
    cache.put(fp_prev, "recycle:abc", space)
    cache.put(fp_prev, "precond:lu", object())  # not a recycle kind
    adopted = cache.adopt_from(fp_new, fp_prev)
    assert adopted == ["recycle:abc"]
    got = cache.get(fp_new, "recycle:abc")
    # a *copy* travelled; the stamp still names the previous operator, so
    # the solver must treat it as a stale pair and repair it
    assert got is not space and got.copies == 1
    assert got.fingerprint == fp_prev and got.fingerprint != fp_new
    assert cache.get(fp_new, "precond:lu") is None


def test_adopt_from_never_overwrites_and_respects_kind_filter():
    fp_prev, fp_new = _two_fps()
    cache = SetupCache()
    cache.put(fp_prev, "recycle:abc", _FakeSpace(fp_prev))
    cache.put(fp_prev, "family_recycle:xyz", _FakeSpace(fp_prev))
    mine = _FakeSpace(fp_new, tag="mine")
    cache.put(fp_new, "recycle:abc", mine)
    assert cache.adopt_from(fp_new, fp_prev) == ["family_recycle:xyz"]
    assert cache.get(fp_new, "recycle:abc") is mine  # not clobbered
    # explicit kinds filter wins over the default recycle:* selection
    fp_prev2, fp_new2 = _two_fps()[::-1]
    assert cache.adopt_from(fp_new2, fp_prev2, kinds=["recycle:nope"]) == []


def test_adopt_from_noop_on_self_or_missing_prev():
    fp_prev, fp_new = _two_fps()
    cache = SetupCache()
    assert cache.adopt_from(fp_new, fp_new) == []
    assert cache.adopt_from(fp_new, fp_prev) == []  # nothing cached yet


def test_sharded_adopt_from_crosses_shards():
    fp_prev, fp_new = _two_fps()
    cache = ShardedSetupCache(4)
    cache.put(fp_prev, "recycle:abc", _FakeSpace(fp_prev))
    adopted = cache.adopt_from(fp_new, fp_prev)
    assert adopted == ["recycle:abc"]
    got = cache.get(fp_new, "recycle:abc")
    assert got is not None and got.fingerprint == fp_prev


def test_stale_adopted_pair_is_repaired_not_trusted():
    """Service-level adoption boundary: solve must notice the foreign
    stamp, run with ``same_system`` falsy, flag ``recycle_adopted`` and
    still produce the right answer."""
    seq = HeatSequence(nx=7, n_steps=4, dt0=1e-3, epoch_length=2,
                       growth=2.0)
    opts = seq_options()
    svc = SolveService(options=opts)
    driver = SequenceDriver(svc)
    handle = driver.add(seq, options=opts, tenant="t0")
    records = driver.run()
    boundary = records[2]  # first step of epoch 1
    assert boundary["fp_changed"] and boundary["adopted_kinds"]
    assert boundary["recycle_adopted"] is True
    assert boundary["converged"]
    # the adopted artifact in the cache still carries the old stamp or a
    # repaired replacement stamped with the new fp — never a stale pair
    # silently stamped as fresh without repair (covered by the trace
    # shape: test_sequence_trace_shape_end_to_end)
    u = seq.u0()
    for step in seq.steps():
        u = spla.spsolve(seq.operator(step).tocsc(), seq.rhs(step, u))
    assert np.linalg.norm(handle.u - u) < 1e-7 * np.linalg.norm(u)


# -- one hash per sequence step ------------------------------------------
def _count_fingerprints(monkeypatch) -> list:
    """Count ``operator_fingerprint`` calls from the driver and the service."""
    import repro.service.sequence as sequence_mod
    import repro.service.service as service_mod
    calls = []

    def counting(a):
        calls.append(a)
        return operator_fingerprint(a)

    monkeypatch.setattr(sequence_mod, "operator_fingerprint", counting)
    monkeypatch.setattr(service_mod, "operator_fingerprint", counting)
    return calls


@pytest.mark.parametrize("service_cls", [SolveService, AsyncSolveService])
@pytest.mark.parametrize("flush", ["explicit", "batch_full"])
def test_driver_hashes_each_operator_once_per_step(monkeypatch, service_cls,
                                                   flush):
    """The driver's fingerprint rides on the request it creates; with
    ``batch_full`` the dispatch happens *inside* submit, after adoption."""
    calls = _count_fingerprints(monkeypatch)
    seq = HeatSequence(nx=7, n_steps=6, dt0=1e-3, epoch_length=3, growth=1.5)
    _, (h0, h1), records = drive(seq, service_cls=service_cls, tenants=2,
                                 service_flush=flush, service_pmax=2)
    assert h0.all_converged and h1.all_converged
    assert len(calls) == len(records) == 12
    assert [r["fp_changed"] for r in records[::2]] \
        == [True, False, False, True, False, False]
    boundary = records[6]
    assert boundary["adopted_kinds"] and boundary["recycle_adopted"]


def test_operator_mutated_in_place_between_steps_still_misses():
    """No identity-keyed memo: the same matrix object with new values is a
    new operator — new fingerprint, fresh set-up, and the recycle pair it
    adopts is repaired although the object (and its identity tag, which the
    solver's own same-system guess goes by) is the one the pair was built
    with."""
    class MutatingHeat(HeatSequence):
        def operator(self, step):
            lhs = super().operator(self._steps[0])
            if step.index == 2:
                lhs.data *= 1.5           # same object, same tag, new values
            return lhs

    seq = MutatingHeat(nx=7, n_steps=4, dt0=1e-3, epoch_length=4)
    opts = seq_options()
    svc = SolveService(options=opts, preconditioner="lu")
    driver = SequenceDriver(svc)
    handle = driver.add(seq, options=opts)
    records = driver.run()
    assert handle.all_converged
    assert [r["fp_changed"] for r in records] == [True, False, True, False]
    assert [r["setup_cache_hit"] for r in records] \
        == [False, True, False, True]
    assert records[1]["fingerprint"] != records[2]["fingerprint"]
    assert records[2]["adopted_kinds"] and records[2]["recycle_adopted"]
    u = seq.u0()
    lhs = HeatSequence(nx=7, n_steps=4, dt0=1e-3, epoch_length=4)
    for step in lhs.steps():
        mat = lhs.operator(step) * (1.5 if step.index >= 2 else 1.0)
        u = spla.spsolve(mat.tocsc(), seq.rhs(step, u))
    assert np.linalg.norm(handle.u - u) < 1e-7 * np.linalg.norm(u)


def test_submit_takes_the_callers_fingerprint(monkeypatch):
    calls = _count_fingerprints(monkeypatch)
    seq = HeatSequence(nx=7, n_steps=1, dt0=1e-3)
    a = seq.operator(seq.steps()[0])
    fp = operator_fingerprint(a)
    for cls in (SolveService, AsyncSolveService):
        svc = cls(options=seq_options())
        given = svc.submit(a, np.ones(a.shape[0]), fingerprint=fp)
        hashed = svc.submit(a, np.ones(a.shape[0]))
        assert given.fingerprint is fp and hashed.fingerprint == fp
    assert len(calls) == 2


def test_digest_reads_the_buffer_it_used_to_copy():
    import hashlib
    from repro.service.fingerprint import _digest
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(17), np.arange(12, dtype=np.int32),
              rng.standard_normal((6, 4))[:, ::2],     # not contiguous
              np.zeros((0, 3)), rng.standard_normal(5) + 1j]
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    assert _digest(*arrays) == h.hexdigest()


# -- golden replay: byte-determinism -----------------------------------
def _replay_payload() -> bytes:
    seq = HeatSequence(nx=7, n_steps=6, dt0=1e-3, epoch_length=3,
                       growth=1.5)
    driver, handles, records = drive(seq, tenants=2)
    rows = []
    for rec in records:
        row = {k: v for k, v in rec.items() if k != "cost"}
        row["cost_signature"] = repr(counts_signature(rec["cost"]))
        rows.append(row)
    payload = {"records": rows, "summary": driver.summary(),
               "final_fields": [h.u.tolist() for h in handles]}
    return json.dumps(payload, sort_keys=True).encode()


def test_golden_sequence_replay_byte_identical():
    assert _replay_payload() == _replay_payload()


# -- trace shape: end-to-end and hand-built failure modes --------------
def test_sequence_trace_shape_end_to_end():
    seq = HeatSequence(nx=7, n_steps=6, dt0=1e-3, epoch_length=3,
                       growth=1.5)
    opts = seq_options(trace="summary")
    svc = SolveService(options=opts)
    driver = SequenceDriver(svc)
    driver.add(seq, options=opts, tenant="t0")
    tr = Tracer(level="summary")
    with install(tr):
        driver.run()
    shape = check_sequence_shape(tr.roots[-1])
    assert shape["steps"] == 6
    assert shape["fast_path_steps"] == 4  # steps 1,2 and 4,5
    assert shape["adoptions"] == 1        # epoch boundary at step 3


def _span_tree(build):
    """Hand-build a sequence span tree; returns the sequence.run span."""
    tr = Tracer(level="summary")
    led = CostLedger()
    with ledger.install(led), install(tr):
        with tr.span("sequence.run", tenants=1, waves=1):
            with tr.span("sequence.wave", wave=0):
                build(tr)
    return tr.roots[-1]


def _step_leaf(tr, *, fp_changed, adopted=False, batch=0, step=0):
    with tr.span("sequence.step", tenant="t0", step=step, epoch=0,
                 fp_changed=fp_changed, adopted=adopted, batch=batch):
        pass


def test_shape_rejects_missing_run_span():
    tr = Tracer(level="summary")
    with install(tr):
        with tr.span("service.batch", batch=0):
            pass
    with pytest.raises(GateError, match="no sequence.run"):
        check_sequence_shape(tr.roots[-1])


def test_shape_rejects_run_without_steps():
    root = _span_tree(lambda tr: None)
    with pytest.raises(GateError, match="no sequence.step"):
        check_sequence_shape(root)


def test_shape_rejects_dangling_batch_reference():
    def build(tr):
        _step_leaf(tr, fp_changed=False, batch=99)
    with pytest.raises(GateError, match="no service.batch span"):
        check_sequence_shape(_span_tree(build))


def test_shape_rejects_setup_span_on_unchanged_fp():
    def build(tr):
        with tr.span("service.batch", batch=0):
            with tr.span("setup.lu"):
                pass
        _step_leaf(tr, fp_changed=False)
    with pytest.raises(GateError, match="setup span"):
        check_sequence_shape(_span_tree(build))


def test_shape_rejects_harvest_on_unchanged_fp():
    def build(tr):
        with tr.span("service.batch", batch=0):
            with tr.span("recycle_update", strategy="A"):
                pass
        _step_leaf(tr, fp_changed=False)
    with pytest.raises(GateError, match="recycle_update"):
        check_sequence_shape(_span_tree(build))


def test_shape_rejects_slow_path_cycle_on_unchanged_fp():
    def build(tr):
        with tr.span("service.batch", batch=0):
            with tr.span("cycle", kind="gcrodr", same_system=False):
                pass
        _step_leaf(tr, fp_changed=False)
    with pytest.raises(GateError, match="same_system"):
        check_sequence_shape(_span_tree(build))


def test_shape_rejects_unrepaired_adoption():
    def build(tr):
        with tr.span("service.batch", batch=0):
            with tr.span("cycle", kind="gcrodr", same_system=False):
                pass
        _step_leaf(tr, fp_changed=True, adopted=True)
    with pytest.raises(GateError, match="repaired, never trusted"):
        check_sequence_shape(_span_tree(build))


def test_shape_rejects_trusted_adoption():
    def build(tr):
        with tr.span("service.batch", batch=0):
            with tr.span("recycle_update"):
                pass
            with tr.span("cycle", kind="gcrodr", same_system=True):
                pass
        _step_leaf(tr, fp_changed=True, adopted=True)
    with pytest.raises(GateError, match="same_system=True"):
        check_sequence_shape(_span_tree(build))


def test_shape_accepts_well_formed_tree():
    def build(tr):
        with tr.span("service.batch", batch=0):
            with tr.span("setup.lu"):
                pass
            with tr.span("recycle_update"):
                pass
        with tr.span("service.batch", batch=1):
            with tr.span("cycle", kind="gcrodr", same_system=True):
                pass
        _step_leaf(tr, fp_changed=True, adopted=True, batch=0, step=0)
        _step_leaf(tr, fp_changed=False, batch=1, step=1)
    shape = check_sequence_shape(_span_tree(build))
    assert shape == {"steps": 2, "fast_path_steps": 1, "adoptions": 1,
                     "batches": 2}


# -- options plumbing --------------------------------------------------
def test_sequence_options_validate_and_roundtrip():
    opts = seq_options(sequence_adopt=False, sequence_warm_start=True)
    args = opts.hpddm_args()
    joined = " ".join(args)
    assert "-hpddm_sequence_adopt false" in joined
    assert "-hpddm_sequence_warm_start" in joined
    parsed = parse_hpddm_args(args)
    assert parsed.sequence_adopt is False
    assert parsed.sequence_warm_start is True
    # the mode switch is gone: its flag is one the parser does not know
    assert parse_hpddm_args(["-hpddm_sequence_mode", "shifted"]).extra \
        == {"sequence_mode": "shifted"}
