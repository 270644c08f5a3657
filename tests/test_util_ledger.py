"""Tests for the cost ledger (the accounting backbone)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures.reference_split import reference_split
from repro.util import ledger
from repro.util.ledger import CostLedger, Kernel


class TestLedgerBasics:
    def test_null_ledger_swallows_events(self):
        # no ledger installed: events must not raise and must not accumulate
        ledger.current().reduction()
        ledger.current().flop(Kernel.SPMV, 100)
        assert ledger.current().reductions == 0

    def test_install_and_count(self):
        with ledger.install() as led:
            ledger.current().reduction()
            ledger.current().reduction(nbytes=64, count=3)
        assert led.reductions == 4
        assert led.reduction_bytes == 8 + 64 * 3

    def test_nesting_inner_shadows_outer(self):
        with ledger.install() as outer:
            ledger.current().reduction()
            with ledger.install() as inner:
                ledger.current().reduction()
            ledger.current().reduction()
        assert outer.reductions == 2
        assert inner.reductions == 1

    def test_p2p_and_flops(self):
        with ledger.install() as led:
            ledger.current().p2p(messages=4, nbytes=1024)
            ledger.current().flop(Kernel.SPMM, 1e6)
            ledger.current().flop(Kernel.SPMM, 2e6)
            ledger.current().flop(Kernel.BLAS3, 5e5)
        assert led.p2p_messages == 4
        assert led.p2p_bytes == 1024
        assert led.flops[Kernel.SPMM] == 3e6
        assert led.total_flops() == 3.5e6

    def test_events(self):
        with ledger.install() as led:
            ledger.current().event("operator_apply", 3)
            ledger.current().event("operator_apply")
        assert led.calls["operator_apply"] == 4

    def test_timer_accumulates(self):
        led = CostLedger()
        with led.timer("setup"):
            pass
        with led.timer("setup"):
            pass
        assert "setup" in led.timers
        assert led.timers["setup"] >= 0.0


class TestSnapshotDiff:
    def test_diff_isolates_a_phase(self):
        with ledger.install() as led:
            ledger.current().reduction()
            ledger.current().flop(Kernel.SPMV, 10)
            before = led.snapshot()
            ledger.current().reduction(count=5)
            ledger.current().flop(Kernel.SPMV, 30)
            delta = led.diff(before)
        assert delta.reductions == 5
        assert delta.flops[Kernel.SPMV] == 30
        # original unchanged by diffing
        assert led.reductions == 6

    def test_snapshot_is_independent(self):
        with ledger.install() as led:
            snap = led.snapshot()
            ledger.current().reduction()
        assert snap.reductions == 0

    def test_summary_is_text(self):
        with ledger.install() as led:
            ledger.current().reduction()
            ledger.current().flop(Kernel.BLAS3, 1e3)
        text = led.summary()
        assert "reductions" in text
        assert "blas3" in text


_KEYS = st.text("abcdefghij_", min_size=1, max_size=6)
_INTS = st.integers(0, 10**12)
#: integer-valued and fractional flop charges, zeros included
_FLOPS = st.one_of(st.integers(0, 2**52).map(float),
                   st.floats(0.0, 1e15, allow_nan=False, allow_infinity=False),
                   st.just(0.0))


@st.composite
def _ledgers(draw) -> CostLedger:
    led = CostLedger(reductions=draw(_INTS), reduction_bytes=draw(_INTS),
                     p2p_messages=draw(_INTS), p2p_bytes=draw(_INTS))
    for k, v in draw(st.dictionaries(_KEYS, _FLOPS, max_size=12)).items():
        led.flops[k] = v
    for k, v in draw(st.dictionaries(_KEYS, _INTS, max_size=12)).items():
        led.calls[k] = v
    return led


class TestSplitAgainstReference:
    """The one-pass split is the per-share split of
    ``tests/fixtures/reference_split.py``, bit for bit."""

    @given(led=_ledgers(), parts=st.integers(1, 40))
    def test_split_matches_reference_bitwise(self, led, parts):
        got, want = led.split(parts), reference_split(led, parts)
        assert len(got) == len(want) == parts
        for g, w in zip(got, want):
            assert g.counts() == w.counts()
            # key order is part of the serialized share
            assert list(g.flops) == list(w.flops)
            assert list(g.calls) == list(w.calls)
            assert [v.hex() for v in g.flops.values()] == \
                [v.hex() for v in w.flops.values()]
            assert g.timers == {}

    def test_split_rejects_zero_parts(self):
        with pytest.raises(ValueError, match="parts"):
            CostLedger().split(0)


class TestInstrumentedKernels:
    def test_solver_reductions_counted(self):
        import scipy.sparse as sp
        from repro import Options, solve
        n = 64
        a = sp.diags([-np.ones(n - 1), 3.0 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1]).tocsr()
        b = np.ones(n)
        with ledger.install() as led:
            res = solve(a, b, options=Options(tol=1e-10))
        assert res.converged.all()
        # every Arnoldi iteration costs at least a projection + a norm
        assert led.reductions >= 2 * res.iterations
        assert led.calls["operator_apply"] >= res.iterations

    def test_spmm_vs_spmv_classification(self):
        import scipy.sparse as sp
        from repro.krylov.base import as_operator
        a = as_operator(sp.eye(10).tocsr())
        with ledger.install() as led:
            a.matmat(np.ones((10, 1)))
            a.matmat(np.ones((10, 4)))
        assert led.flops[Kernel.SPMV] > 0
        assert led.flops[Kernel.SPMM] > 0
