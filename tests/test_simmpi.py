"""Tests for the simulated-MPI substrate and the performance model."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.distla.distcsr import DistributedCSR
from repro.perfmodel.directmodel import (PAPER_FIG6B, DirectSolveModel,
                                         efficiency_table)
from repro.perfmodel.estimate import modeled_time, strong_scaling_projection
from repro.perfmodel.machine import CURIE, MachineModel
from repro.simmpi.collectives import (allgather_rows, allreduce_sum,
                                      dot_columns, norm_columns)
from repro.simmpi.grid import VirtualGrid
from repro.simmpi.halo import build_halo_plans
from repro.util import ledger
from repro.util.ledger import CostLedger, Kernel

from conftest import laplacian_1d, laplacian_2d


class TestVirtualGrid:
    def test_balanced_partition(self):
        g = VirtualGrid(100, 4)
        assert np.array_equal(g.offsets, [0, 25, 50, 75, 100])
        assert g.local_size(2) == 25
        assert g.rows(1) == slice(25, 50)

    def test_uneven_partition(self):
        g = VirtualGrid(10, 3)
        assert g.offsets[0] == 0 and g.offsets[-1] == 10
        assert sum(g.local_sizes()) == 10

    def test_owner(self):
        g = VirtualGrid(100, 4)
        assert g.owner(0) == 0
        assert g.owner(99) == 3
        assert np.array_equal(g.owner(np.array([10, 30, 80])), [0, 1, 3])

    def test_explicit_offsets(self):
        g = VirtualGrid(10, 2, offsets=np.array([0, 3, 10]))
        assert g.local_size(0) == 3
        assert g.owner(5) == 1

    def test_invalid_offsets(self):
        with pytest.raises(ValueError):
            VirtualGrid(10, 2, offsets=np.array([0, 0, 10]))
        with pytest.raises(ValueError):
            VirtualGrid(10, 2, offsets=np.array([1, 5, 10]))

    def test_too_many_ranks(self):
        with pytest.raises(ValueError):
            VirtualGrid(3, 5)

    def test_reduction_hops(self):
        assert VirtualGrid(10, 1).reduction_hops() == 0
        assert VirtualGrid(10, 2).reduction_hops() == 2
        assert VirtualGrid(64, 8).reduction_hops() == 6

    def test_rank_bounds(self):
        g = VirtualGrid(10, 2)
        with pytest.raises(ValueError):
            g.rows(2)

    def test_invalid_rank_count_and_offset_length(self):
        with pytest.raises(ValueError, match="nranks"):
            VirtualGrid(10, 0)
        with pytest.raises(ValueError, match="length 3"):
            VirtualGrid(10, 2, offsets=np.array([0, 10]))

    def test_value_semantics(self):
        g = VirtualGrid(10, 3)
        assert g.max_local_size == 4
        assert repr(g) == "VirtualGrid(n=10, nranks=3)"
        assert g == VirtualGrid(10, 3) and hash(g) == hash(VirtualGrid(10, 3))
        assert g != VirtualGrid(10, 3, offsets=np.array([0, 2, 5, 10]))
        assert len({g, VirtualGrid(10, 3)}) == 1


class TestCollectives:
    def test_allreduce_matches_serial(self, rng):
        g = VirtualGrid(40, 4)
        x = rng.standard_normal((40, 3))
        parts = [x[g.rows(r)].sum(axis=0) for r in range(4)]
        with ledger.install() as led:
            total = allreduce_sum(g, parts)
        assert np.allclose(total, x.sum(axis=0))
        assert led.reductions == 1

    def test_dot_columns(self, rng):
        g = VirtualGrid(50, 5)
        x = rng.standard_normal((50, 2))
        y = rng.standard_normal((50, 2))
        with ledger.install() as led:
            d = dot_columns(g, x, y)
        assert np.allclose(d, np.einsum("ij,ij->j", x, y))
        assert led.reductions == 1

    def test_norm_columns(self, rng):
        g = VirtualGrid(30, 3)
        x = rng.standard_normal((30, 4))
        assert np.allclose(norm_columns(g, x), np.linalg.norm(x, axis=0))

    def test_allgather_counts_traffic(self, rng):
        g = VirtualGrid(40, 4)
        x = rng.standard_normal((40, 1))
        blocks = [x[g.rows(r)] for r in range(4)]
        with ledger.install() as led:
            out = allgather_rows(g, blocks)
        assert np.allclose(out, x)
        assert led.p2p_messages == 4 * 3

    def test_wrong_contribution_count(self):
        g = VirtualGrid(10, 2)
        with pytest.raises(ValueError):
            allreduce_sum(g, [np.zeros(2)])
        with pytest.raises(ValueError, match="2 blocks"):
            allgather_rows(g, [np.zeros((10, 1))])


class TestHaloAndDistributedCSR:
    def test_matmat_matches_serial(self, rng):
        a = laplacian_2d(12)
        dist = DistributedCSR(a, nranks=4)
        x = rng.standard_normal((a.shape[0], 3))
        assert np.allclose(dist.matmat(x), a @ x, atol=1e-12)

    def test_single_rank_no_traffic(self, rng):
        a = laplacian_1d(50)
        dist = DistributedCSR(a, nranks=1)
        with ledger.install() as led:
            dist.matmat(rng.standard_normal((50, 1)))
        assert led.p2p_messages == 0

    def test_halo_pattern_1d(self):
        # 1-D Laplacian split into contiguous chunks: each interior rank
        # needs exactly one ghost value from each side
        a = laplacian_1d(40)
        plans = build_halo_plans(a, VirtualGrid(40, 4))
        assert plans[0].n_neighbours == 1 and plans[0].n_ghost == 1
        assert plans[1].n_neighbours == 2 and plans[1].n_ghost == 2
        assert plans[3].n_neighbours == 1

    def test_spmm_bytes_scale_with_block_width(self, rng):
        a = laplacian_2d(10)
        dist = DistributedCSR(a, nranks=4)
        traffic = {}
        for p in (1, 4):
            with ledger.install() as led:
                dist.matmat(rng.standard_normal((a.shape[0], p)))
            traffic[p] = (led.p2p_messages, led.p2p_bytes)
        # message COUNT identical, byte volume p times larger (paper V-B2)
        assert traffic[1][0] == traffic[4][0]
        assert traffic[4][1] == 4 * traffic[1][1]

    def test_communication_volume_helper(self):
        a = laplacian_1d(30)
        dist = DistributedCSR(a, nranks=3)
        msgs, vol = dist.communication_volume(p=2)
        assert msgs == 4          # 2 boundaries, both directions
        assert vol == 4 * 8 * 2   # 4 ghost values, float64, p=2

    def test_usable_as_solver_operator(self, rng):
        from repro import Options, solve
        a = laplacian_1d(80, shift=0.5)
        dist = DistributedCSR(a, nranks=4)
        b = rng.standard_normal(80)
        res = solve(dist, b, options=Options(tol=1e-9))
        assert res.converged.all()
        assert np.allclose(a @ res.x, b, atol=1e-7)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            DistributedCSR(sp.random(4, 6, density=0.5))

    def test_shapes_validated(self, rng):
        a = laplacian_1d(20)
        with pytest.raises(ValueError, match="grid size"):
            DistributedCSR(a, VirtualGrid(21, 2))
        with pytest.raises(ValueError, match="does not match grid"):
            build_halo_plans(a, VirtualGrid(21, 2))
        dist = DistributedCSR(a, nranks=2)
        with pytest.raises(ValueError, match="19 rows"):
            dist.matmat(np.ones(19))
        x = rng.standard_normal((20, 2))
        np.testing.assert_array_equal(dist @ x, dist.matmat(x))
        assert repr(dist) == "DistributedCSR(n=20, nnz=58, nranks=2)"


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
