"""Tests for the performance model: the machine model that prices a
ledger's counts, the modeled-time estimate, and the direct-solve model of
Fig. 6b."""

import pytest

from repro.perfmodel.directmodel import (PAPER_FIG6B, DirectSolveModel,
                                         efficiency_table)
from repro.perfmodel.estimate import modeled_time, strong_scaling_projection
from repro.perfmodel.machine import MachineModel
from repro.util.ledger import CostLedger, Kernel


class TestMachineModel:
    def test_rates_ordering(self):
        m = MachineModel()
        assert m.rate(Kernel.BLAS3) > m.rate(Kernel.SPMV)
        assert m.rate(Kernel.SPMM, block_width=32) > m.rate(Kernel.SPMM,
                                                            block_width=1)
        assert m.rate(Kernel.SPMM, block_width=10_000) <= m.rate(Kernel.BLAS3)

    def test_reduction_time_log_scaling(self):
        m = MachineModel()
        t2 = m.reduction_time(2)
        t1024 = m.reduction_time(1024)
        assert t1024 == pytest.approx(10 * t2)
        assert m.reduction_time(1) == 0.0

    def test_memory_bandwidth_saturates(self):
        m = MachineModel()
        assert m.memory_bandwidth(16) <= m.stream_bw_node
        assert m.memory_bandwidth(2) == pytest.approx(2 * m.stream_bw_core)


class TestEstimate:
    def _sample_events(self):
        led = CostLedger()
        led.reduction(count=100)
        led.p2p(messages=400, nbytes=4_000_000)
        led.flop(Kernel.SPMV, 1e9)
        led.flop(Kernel.BLAS3, 1e9)
        return led

    def test_components_positive(self):
        t = modeled_time(self._sample_events(), 64)
        assert t.reduction > 0 and t.p2p > 0 and t.compute > 0
        assert t.total == pytest.approx(t.reduction + t.p2p + t.compute)

    def test_compute_scales_inversely(self):
        ev = self._sample_events()
        t64 = modeled_time(ev, 64)
        t128 = modeled_time(ev, 128)
        assert t128.compute == pytest.approx(t64.compute / 2)
        # reductions get MORE expensive with more ranks
        assert t128.reduction > t64.reduction

    def test_strong_scaling_has_sweet_spot(self):
        ev = self._sample_events()
        proj = strong_scaling_projection(ev, [1, 64, 4096, 1 << 20])
        totals = [proj[p].total for p in (1, 64, 4096, 1 << 20)]
        assert totals[1] < totals[0]          # parallelism helps ...
        assert totals[3] > min(totals)        # ... until latency dominates

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            modeled_time(CostLedger(), 0)


class TestDirectModel:
    def test_matches_paper_within_tolerance(self):
        model = DirectSolveModel()
        tab = efficiency_table(model)
        ratio = tab["times"] / PAPER_FIG6B["times"]
        assert ratio.max() < 1.5 and ratio.min() > 0.6

    def test_headline_numbers(self):
        m = DirectSolveModel()
        assert m.solve_time(1, 1) == pytest.approx(1.58, rel=0.05)
        # "abysmal efficiency of 10%" at P=16, p=2
        assert m.efficiency(16, 2) == pytest.approx(0.10, abs=0.03)
        # superlinear by p=64 on 16 threads (the tipping point)
        assert m.efficiency(16, 64) > 1.0
        assert m.efficiency(16, 32) < 1.0
        # single-thread superlinear efficiency, saturating ~2.4
        assert 2.2 < m.efficiency(1, 128) < 2.6

    def test_efficiency_monotone_in_p_single_thread(self):
        m = DirectSolveModel()
        effs = [m.efficiency(1, p) for p in (1, 4, 16, 64, 128)]
        assert all(b >= a - 1e-9 for a, b in zip(effs, effs[1:]))

    def test_from_factor_constructor(self):
        m = DirectSolveModel.from_factor(3e7, 300_000)
        assert m.solve_time(1, 1) > 0
        assert m.efficiency(1, 64) > 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            DirectSolveModel().solve_time(0, 1)
