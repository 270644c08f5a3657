"""Fused vs per-rank equivalence of the simulated-MPI substrate.

The fused engine of ``distla`` / ``simmpi`` is required to be a *pure*
optimization: for every primitive, and for a full solve over a
``DistributedCSR``, the CostLedger counts (reductions, reduction bytes, p2p
messages, p2p bytes, flops by kernel and named call counts) must be
bit-identical between the ``"fused"`` and ``"per_rank"`` modes of
``repro.util.execmode``, and the numerics must agree to rounding.  The
Schwarz preconditioner has no such switch: its fused batch is held to the
per-subdomain loop of ``tests/fixtures/schwarz_loop.py`` the same way.
"""

import gc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import laplacian_1d, laplacian_2d

from fixtures.schwarz_loop import looped

from repro import Options, parse_hpddm_args, solve
from repro.distla.distcsr import DistributedCSR
from repro.distla.distqr import (distributed_cgs_qr, distributed_cholqr,
                                 distributed_tsqr)
from repro.distla.distvec import DistributedBlockVector
from repro.krylov.base import as_operator
from repro.precond.amg import SmoothedAggregationAMG
from repro.precond.schwarz import SchwarzPreconditioner
from repro.precond.simple import JacobiPreconditioner
from repro.simmpi.grid import VirtualGrid
from repro.util import ledger
from repro.util.execmode import exec_mode, set_exec_mode, use_exec_mode
from repro.util.ledger import CostTable, Kernel
from repro.util.misc import identity_tag, next_tag

MODES = ("per_rank", "fused")


def ledger_state(led):
    """Every accounted quantity, as an exactly-comparable tuple."""
    return (led.reductions, led.reduction_bytes, led.p2p_messages,
            led.p2p_bytes, dict(led.flops), dict(led.calls))


def counted(fn):
    """Run fn() with a fresh ledger; return (result, counts)."""
    with ledger.install() as led:
        out = fn()
    return out, ledger_state(led)


def run_in_mode(mode, fn):
    """``counted(fn)`` under the substrate's execution mode `mode`."""
    with use_exec_mode(mode):
        return counted(fn)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

class TestPrimitiveEquivalence:
    def test_matmat(self, rng):
        a = laplacian_2d(12)
        x = rng.standard_normal((a.shape[0], 3))
        dcsr = DistributedCSR(a, nranks=8)
        y_pr, c_pr = run_in_mode("per_rank", lambda: dcsr.matmat(x))
        y_fu, c_fu = run_in_mode("fused", lambda: dcsr.matmat(x))
        assert c_fu == c_pr
        np.testing.assert_allclose(y_fu, y_pr, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(y_fu, a @ x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("op", ["dot", "col_dots", "norms", "axpy",
                                    "scale", "combine", "copy"])
    def test_vector_ops(self, rng, op):
        grid = VirtualGrid(96, 6)
        x = rng.standard_normal((96, 4))
        y = rng.standard_normal((96, 4))
        coeffs = rng.standard_normal((4, 2))

        def build_and_run():
            dx = DistributedBlockVector.from_global(grid, x)
            dy = DistributedBlockVector.from_global(grid, y)
            if op == "dot":
                return dx.dot(dy)
            if op == "col_dots":
                return dx.col_dots(dy)
            if op == "norms":
                return dx.norms()
            if op == "axpy":
                return dx.axpy(0.7, dy).to_global()
            if op == "scale":
                return dx.scale(-1.3).to_global()
            if op == "combine":
                return dx.combine(coeffs).to_global()
            return dx.copy().to_global()

        r_pr, c_pr = run_in_mode("per_rank", build_and_run)
        r_fu, c_fu = run_in_mode("fused", build_and_run)
        assert c_fu == c_pr
        np.testing.assert_allclose(r_fu, r_pr, rtol=1e-13, atol=1e-13)

    def test_inplace_ops_match_out_of_place(self, rng):
        grid = VirtualGrid(60, 4)
        x = rng.standard_normal((60, 3))
        y = rng.standard_normal((60, 3))
        for mode in MODES:
            with use_exec_mode(mode):
                dx = DistributedBlockVector.from_global(grid, x)
                dy = DistributedBlockVector.from_global(grid, y)
                out = dx.axpy_(0.5, dy)
                assert out is dx  # mutates in place, returns self
                np.testing.assert_allclose(dx.to_global(), x + 0.5 * y,
                                           rtol=1e-14, atol=1e-14)
                assert dx.scale_(2.0) is dx
                np.testing.assert_allclose(dx.to_global(), 2.0 * (x + 0.5 * y),
                                           rtol=1e-14, atol=1e-14)

    def test_fused_vector_has_contiguous_backing(self, rng):
        grid = VirtualGrid(40, 4)
        x = rng.standard_normal((40, 2))
        with use_exec_mode("fused"):
            dx = DistributedBlockVector.from_global(grid, x)
        assert dx.is_fused and dx.global_data is not None
        # per-rank views alias the backing store: mixed dispatch stays valid
        dx.locals[1][:] = 0.0
        assert np.all(dx.global_data[grid.rows(1)] == 0.0)
        with use_exec_mode("per_rank"):
            dpr = DistributedBlockVector.from_global(grid, x)
        assert not dpr.is_fused and dpr.global_data is None

    @pytest.mark.parametrize("qr", [distributed_cholqr, distributed_cgs_qr,
                                    distributed_tsqr])
    def test_distributed_qr(self, rng, qr):
        grid = VirtualGrid(80, 5)
        x = rng.standard_normal((80, 4))

        def run():
            dx = DistributedBlockVector.from_global(grid, x)
            q, r = qr(dx)
            return q.to_global(), r

        (q_pr, r_pr), c_pr = run_in_mode("per_rank", run)
        (q_fu, r_fu), c_fu = run_in_mode("fused", run)
        assert c_fu == c_pr
        np.testing.assert_allclose(r_fu, r_pr, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(q_fu, q_pr, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(q_fu.T @ q_fu, np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("variant", ["asm", "ras", "oras"])
    def test_schwarz_apply(self, rng, variant):
        a = laplacian_2d(14)
        x = rng.standard_normal((a.shape[0], 3))
        m = SchwarzPreconditioner(a, nparts=6, overlap=1, variant=variant)
        y_pr, c_pr = counted(lambda: looped(m).apply(x))
        y_fu, c_fu = counted(lambda: m.apply(x))
        assert c_fu == c_pr
        np.testing.assert_allclose(y_fu, y_pr, rtol=1e-11, atol=1e-12)

    def test_schwarz_batch_is_built_with_the_preconditioner(self, rng):
        # set-up work belongs to the set-up: the fused batch exists before
        # the first apply (and is charged nothing) whatever the substrate's
        # ambient mode says, unless there is nothing to batch
        a = laplacian_2d(12)
        x = rng.standard_normal((a.shape[0], 2))
        m = SchwarzPreconditioner(a, nparts=4, overlap=1)
        assert m._fused_batch is not None
        assert m._fused_batch.l_factor.n_levels == max(
            s._ltri.n_levels for s in m.solvers)
        one = SchwarzPreconditioner(a, nparts=1, overlap=1)
        assert one._fused_batch is None
        y_one, c_one = counted(lambda: one.apply(x))
        y_loop, c_loop = counted(lambda: looped(one).apply(x))
        assert c_one == c_loop and np.array_equal(y_one, y_loop)
        with use_exec_mode("per_rank"):
            same = SchwarzPreconditioner(a, nparts=4, overlap=1)
            assert same._fused_batch is not None
            assert same.setup_cost.counts() == m.setup_cost.counts()
            y, c = counted(lambda: same.apply(x))
        y_m, c_m = counted(lambda: m.apply(x))
        assert c == c_m and np.array_equal(y, y_m)

    def test_schwarz_batch_holds_the_only_materialized_sweeps(self, rng):
        # the per-subdomain factors are analysed once and sliced into sweep
        # steps only if somebody solves with them; the fused apply does not
        a = laplacian_2d(12)
        m = SchwarzPreconditioner(a, nparts=4, overlap=1)
        m.apply(rng.standard_normal((a.shape[0], 2)))
        batch = m._fused_batch
        assert batch.l_factor._steps and batch.u_factor._steps
        assert all(s._ltri._steps is None and s._utri._steps is None
                   for s in m.solvers)
        assert (batch.l_factor.stored_nnz + batch.u_factor.stored_nnz
                >= sum(s._ltri.stored_nnz + s._utri.stored_nnz
                       for s in m.solvers))
        dofs, lu = m.subdomains[0], m.solvers[0]
        b = rng.standard_normal(len(dofs))
        local = a[dofs][:, dofs]
        assert np.abs(local @ lu.solve(b) - b).max() <= 1e-12 * np.abs(b).max()
        assert lu._ltri._steps and lu._utri._steps

    @pytest.mark.parametrize("kind", ["spd", "complex_symmetric",
                                      "unsymmetric_values", "unsymmetric_pattern"])
    def test_schwarz_on_every_kind_of_symmetry(self, rng, kind):
        # SparseLU picks SuperLU's ordering from the pattern: each kind
        # of input solves to 1e-12 per subdomain and through the batch, and
        # batch and loop charge the same ledger
        a = laplacian_2d(14).astype(
            complex if kind == "complex_symmetric" else float)
        if kind == "complex_symmetric":
            a = a + 0.4j * sp.eye(a.shape[0])
        elif kind != "spd":                  # A != A^T on the same pattern
            a.data *= 1.0 + 0.2 * rng.random(a.nnz)
        if kind == "unsymmetric_pattern":
            a = sp.csr_matrix(a + sp.diags(np.full(a.shape[0] - 3, 0.1), 3))
        x = rng.standard_normal((a.shape[0], 3))
        m = SchwarzPreconditioner(a, nparts=4, overlap=1, variant="ras")
        assert all(s.symmetric == (kind != "unsymmetric_pattern")
                   for s in m.solvers)
        y_pr, c_pr = counted(lambda: looped(m).apply(x))
        y_fu, c_fu = counted(lambda: m.apply(x))
        assert c_fu == c_pr
        expect = np.zeros_like(y_fu)
        for dofs, d, lu in zip(m.subdomains, m.pou, m.solvers):
            local = a[dofs][:, dofs]
            z = lu.solve(x[dofs])
            assert np.abs(local @ z - x[dofs]).max() <= 1e-12 * np.abs(x).max()
            expect[dofs] += d[:, None] * np.linalg.solve(local.toarray(), x[dofs])
        for y in (y_pr, y_fu):
            assert np.abs(y - expect).max() <= 1e-12 * np.abs(expect).max()


# ---------------------------------------------------------------------------
# full solves over a DistributedCSR: identical ledgers, matching solutions
# ---------------------------------------------------------------------------

def make_preconditioner(kind, a):
    if kind == "jacobi":
        return JacobiPreconditioner(a)
    if kind == "amg":
        return SmoothedAggregationAMG(a, coarse_size=40, max_levels=3)
    return SchwarzPreconditioner(a, nparts=4, overlap=1, variant="oras")


@pytest.mark.parametrize("precond", ["jacobi", "amg", "oras"])
@pytest.mark.parametrize("method,p,extra", [
    ("gmres", 1, {}),
    ("bgmres", 2, {}),
    ("gcrodr", 1, {"recycle": 5}),
    ("gcrodr", 3, {"recycle": 5}),   # pseudo-block GCRO-DR
])
class TestSolveEquivalence:
    def test_identical_ledgers_and_solutions(self, rng, method, p, extra, precond):
        a = laplacian_2d(16)
        b = rng.standard_normal((a.shape[0], p))
        m = make_preconditioner(precond, a)
        results = {}
        opts = Options(krylov_method=method, gmres_restart=20, tol=1e-8,
                       **extra)
        for mode in MODES:
            dcsr = DistributedCSR(a, nranks=4)
            with use_exec_mode(mode), ledger.install() as led:
                res = solve(dcsr, b, m, options=opts)
            assert res.converged.all()
            results[mode] = (res, ledger_state(led))
        res_pr, counts_pr = results["per_rank"]
        res_fu, counts_fu = results["fused"]
        # bit-identical accounting: reductions, bytes, messages, flops, calls
        assert counts_fu == counts_pr
        assert res_fu.iterations == res_pr.iterations
        np.testing.assert_allclose(res_fu.x, res_pr.x, rtol=1e-6, atol=1e-9)
        r = b - a @ res_fu.x
        assert np.all(np.linalg.norm(r, axis=0)
                      <= 1e-7 * np.linalg.norm(b, axis=0))


# ---------------------------------------------------------------------------
# mode plumbing
# ---------------------------------------------------------------------------

class TestModePlumbing:
    def test_default_is_fused(self):
        assert exec_mode() == "fused"

    def test_context_manager_nests_and_restores(self):
        assert exec_mode() == "fused"
        with use_exec_mode("per_rank"):
            assert exec_mode() == "per_rank"
            with use_exec_mode("fused"):
                assert exec_mode() == "fused"
            assert exec_mode() == "per_rank"
        assert exec_mode() == "fused"

    def test_set_returns_previous(self):
        prev = set_exec_mode("per_rank")
        try:
            assert prev == "fused"
            assert exec_mode() == "per_rank"
        finally:
            set_exec_mode(prev)
        assert exec_mode() == "fused"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            set_exec_mode("simd")
        with pytest.raises(ValueError):
            with use_exec_mode("simd"):
                pass  # pragma: no cover

    def test_options_validation_and_cli_roundtrip(self):
        # private to distla/ + simmpi/: no Options field, and the old flag
        # is a flag the parser does not know
        with pytest.raises(TypeError):
            Options(exec_mode="per_rank")
        opts = parse_hpddm_args(["-hpddm_exec_mode", "per_rank"])
        assert opts.extra == {"exec_mode": "per_rank"}
        assert "-hpddm_exec_mode" not in opts.hpddm_args()


# ---------------------------------------------------------------------------
# satellite fixes: identity tags, nranks=1 short-circuit, CostTable
# ---------------------------------------------------------------------------

class TestIdentityTags:
    def test_monotonic_and_stable(self):
        a = sp.eye(5).tocsr()
        b = sp.eye(5).tocsr()
        assert identity_tag(a) == identity_tag(a)  # stable per object
        assert identity_tag(a) != identity_tag(b)  # distinct objects differ

    def test_tags_never_reused_after_gc(self):
        seen = set()
        for _ in range(50):
            m = sp.eye(3).tocsr()
            tag = identity_tag(m)
            assert tag not in seen  # id() would eventually collide here
            seen.add(tag)
            del m
            gc.collect()

    def test_next_tag_monotonic(self):
        t1, t2 = next_tag(), next_tag()
        assert t2 > t1

    def test_non_weakrefable_gets_fresh_tags(self):
        key = (1, 2, 3)  # tuples cannot be weak-referenced
        assert identity_tag(key) != identity_tag(key)

    def test_distcsr_and_operator_share_tag(self):
        a = laplacian_1d(20)
        dcsr = DistributedCSR(a, nranks=2)
        assert as_operator(dcsr).tag == dcsr.tag
        other = DistributedCSR(a, nranks=2)
        assert other.tag != dcsr.tag

    def test_sparse_same_object_same_tag(self):
        a = laplacian_1d(10)
        assert as_operator(a).tag == as_operator(a).tag


class TestSingleRankShortCircuit:
    def test_no_split_no_halo(self, rng):
        a = laplacian_2d(10)
        dcsr = DistributedCSR(a, nranks=1)
        assert dcsr._diag_blocks[0] is dcsr.global_matrix  # no copy
        assert dcsr._off_blocks == [None]
        assert len(dcsr.plans) == 1 and dcsr.plans[0].n_ghost == 0
        assert dcsr.cost.p2p_messages == 0
        x = rng.standard_normal((a.shape[0], 2))
        for mode in MODES:
            with use_exec_mode(mode), ledger.install() as led:
                y = dcsr.matmat(x)
            np.testing.assert_allclose(y, a @ x, rtol=1e-13)
            assert led.p2p_messages == 0 and led.p2p_bytes == 0


class TestCostTable:
    def test_charge_arithmetic(self):
        table = CostTable(p2p_messages=3, p2p_items=10, reductions=2,
                          reduction_items=5, flops_per_col=100.0,
                          events_per_col=(("foo", 2),))
        with ledger.install() as led:
            table.charge(ledger.current(), itemsize=8, p=4,
                         kernel=Kernel.SPMM)
        assert led.p2p_messages == 3
        assert led.p2p_bytes == 10 * 8 * 4   # items x itemsize x p
        assert led.reductions == 2
        # per-reduction payload, counted per event; does not scale with p
        assert led.reduction_bytes == 5 * 8 * 2
        assert led.flops[Kernel.SPMM] == 100.0 * 4
        assert led.calls["foo"] == 2 * 4

    def test_empty_table_charges_nothing(self):
        with ledger.install() as led:
            CostTable().charge(ledger.current(), p=7, kernel=Kernel.SPMV)
        assert ledger_state(led) == (0, 0, 0, 0, {}, {})

    def test_matches_per_rank_message_structure(self):
        # the precomputed table must reproduce the per-rank halo exchange
        a = laplacian_1d(64)
        dcsr = DistributedCSR(a, nranks=8)
        # 1-D chain: interior ranks have 2 neighbours, end ranks 1
        assert dcsr.cost.p2p_messages == 2 * 8 - 2
        assert dcsr.cost.p2p_items == sum(p.n_ghost for p in dcsr.plans)


class TestNullLedgerTimer:
    def test_timer_is_a_noop_without_ledger(self):
        null = ledger.current()
        with null.timer("phase"):
            pass
        # the singleton must not accumulate timer state across calls
        assert not null.timers
