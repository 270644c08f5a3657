"""Fused kernels against their rank-by-rank (or subdomain-by-subdomain)
oracles.

A row-partitioned operator (``as_operator(a, nranks=P)``) runs its SpMM as
one global product plus the halo charge a rank-partitioned run would make.
For the product, and for full solves over such an operator, the CostLedger
counts (reductions, reduction bytes, p2p messages, p2p bytes, flops by
kernel and named call counts) must be bit-identical to the rank-by-rank
execution of ``tests/fixtures/per_rank_substrate.py``, and the numerics
must agree to rounding.  The ``la`` tall-skinny QRs must charge the
reductions of the fixture's per-rank QRs, and the Schwarz preconditioner's
fused batch is held to the per-subdomain loop of
``tests/fixtures/schwarz_loop.py`` the same way.
"""

import gc
import importlib

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import laplacian_1d, laplacian_2d

from fixtures import per_rank_substrate as oracle
from fixtures.schwarz_loop import looped

from repro import Options, parse_hpddm_args, solve
from repro.krylov.base import as_operator
from repro.la import orthogonalization as la
from repro.precond.amg import SmoothedAggregationAMG
from repro.precond.schwarz import SchwarzPreconditioner
from repro.precond.simple import JacobiPreconditioner
from repro.util import ledger
from repro.util.ledger import CostTable, Kernel
from repro.util.misc import identity_tag, next_tag

#: the product is held to its oracle at each rank count and block width,
#: real and complex
SWEEP = [(nranks, p, dtype) for nranks in (1, 3, 16, 64) for p in (1, 3)
         for dtype in (np.float64, np.complex128)]

#: the ``la`` tall-skinny QRs, by the name of their per-rank twin
LA_QR = {"cholqr": la.cholqr, "cholqr2": la.cholqr2, "tsqr": la.tsqr,
         "cgs": la.classical_gram_schmidt_qr}


def ledger_state(led):
    """Every accounted quantity, as an exactly-comparable tuple."""
    return (led.reductions, led.reduction_bytes, led.p2p_messages,
            led.p2p_bytes, dict(led.flops), dict(led.calls))


def counted(fn):
    """Run fn() with a fresh ledger; return (result, counts)."""
    with ledger.install() as led:
        out = fn()
    return out, ledger_state(led)


def block(rng, n, p, dtype):
    x = rng.standard_normal((n, p))
    if dtype == np.complex128:
        x = x + 1j * rng.standard_normal((n, p))
    return x


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

class TestPrimitiveEquivalence:
    def test_matmat(self, rng):
        a = laplacian_2d(12)
        for nranks, p, dtype in SWEEP:
            x = block(rng, a.shape[0], p, dtype)
            op = as_operator(a, nranks=nranks)
            y_or, c_or = counted(lambda: oracle.matmat(a, nranks, x))
            y, c = counted(lambda: op.matmat(x))
            assert c == c_or, (nranks, dtype, p)
            np.testing.assert_allclose(y, y_or, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(y, a @ x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(LA_QR))
    def test_la_qr_charges_the_per_rank_reductions(self, rng, name):
        # reductions and their bytes are the communication a partitioned
        # run pays; the flop charges are each kernel's own
        n, p = 320, 4
        for nranks, dtype in [(8, np.float64), (8, np.complex128),
                              (64, np.float64)]:
            x = block(rng, n, p, dtype)
            with ledger.install() as led:
                q, r = LA_QR[name](x)
            with ledger.install() as led_or:
                q_or, r_or = getattr(oracle, name)(x, nranks)
            assert ((led.reductions, led.reduction_bytes)
                    == (led_or.reductions, led_or.reduction_bytes)), nranks
            for qq, rr in ((q, r), (q_or, r_or)):
                np.testing.assert_allclose(qq @ rr, x, atol=1e-12)
                np.testing.assert_allclose(qq.conj().T @ qq, np.eye(p),
                                           atol=1e-10)

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
        # the first apply (and is charged nothing), unless there is nothing
        # to batch
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
        same = SchwarzPreconditioner(a, nparts=4, overlap=1)
        assert same._fused_batch is not None
        assert same.setup_cost.counts() == m.setup_cost.counts()
        y, c = counted(lambda: same.apply(x))
        y_m, c_m = counted(lambda: m.apply(x))
        assert c == c_m and np.array_equal(y, y_m)

    def test_schwarz_batch_holds_the_only_materialized_sweeps(self, rng):
        # every factor holds its entries once, in level order: the batch
        # stitched a copy of its own (no array shared with a subdomain
        # factor), and a subdomain factor still solves on its own
        a = laplacian_2d(12)
        m = SchwarzPreconditioner(a, nparts=4, overlap=1)
        m.apply(rng.standard_normal((a.shape[0], 2)))
        batch = m._fused_batch
        for cat, parts in ((batch.l_factor, [s._ltri for s in m.solvers]),
                           (batch.u_factor, [s._utri for s in m.solvers])):
            assert cat.n_levels == max(f.n_levels for f in parts)
            mine = cat._loff + cat._dinv
            assert not any(np.shares_memory(x, y) for f in parts
                           for x in mine for y in f._loff + f._dinv)
            for f in [cat] + parts:
                (lptr, lidx, lval), (dptr, didx, dval) = f._loff, f._dinv
                assert lidx.size == lval.size == lptr[-1]
                assert didx.size == dval.size == dptr[-1]
        assert (batch.l_factor.stored_nnz + batch.u_factor.stored_nnz
                >= sum(s._ltri.stored_nnz + s._utri.stored_nnz
                       for s in m.solvers))
        dofs, lu = m.subdomains[0], m.solvers[0]
        b = rng.standard_normal(len(dofs))
        local = a[dofs][:, dofs]
        assert np.abs(local @ lu.solve(b) - b).max() <= 1e-12 * np.abs(b).max()

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
# full solves over a partitioned operator: identical ledgers, matching
# solutions
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
        results = []
        opts = Options(krylov_method=method, gmres_restart=20, tol=1e-8,
                       **extra)
        for op in (oracle.per_rank(a, 4), as_operator(a, nranks=4)):
            with ledger.install() as led:
                res = solve(op, b, m, options=opts)
            assert res.converged.all()
            results.append((res, ledger_state(led)))
        (res_or, counts_or), (res, counts) = results
        # bit-identical accounting: reductions, bytes, messages, flops, calls
        assert counts == counts_or
        assert res.iterations == res_or.iterations
        np.testing.assert_allclose(res.x, res_or.x, rtol=1e-6, atol=1e-9)
        r = b - a @ res.x
        assert np.all(np.linalg.norm(r, axis=0)
                      <= 1e-7 * np.linalg.norm(b, axis=0))


# ---------------------------------------------------------------------------
# one substrate: the switch that selected the oracle is gone
# ---------------------------------------------------------------------------

def test_execmode_is_gone():
    """No switch module, no field, no mode argument: the old flag is an
    unknown one like any other."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.util.execmode")
    with pytest.raises(TypeError, match="exec_mode"):
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

    def test_partitioned_operator_shares_the_matrix_tag(self):
        a = laplacian_1d(20)
        op = as_operator(a, nranks=2)
        assert op.tag == as_operator(a).tag
        assert as_operator(laplacian_1d(20), nranks=2).tag != op.tag

    def test_sparse_same_object_same_tag(self):
        a = laplacian_1d(10)
        assert as_operator(a).tag == as_operator(a).tag


class TestSingleRankShortCircuit:
    def test_no_split_no_halo(self, rng):
        a = laplacian_2d(10)
        # no per-rank matrix is stored at any rank count: the halo's cost
        # table is the whole distribution
        for nranks in (1, 8):
            op = as_operator(a, nranks=nranks)
            assert not [name for name, value in vars(op).items()
                        if sp.issparse(value)]
        op = as_operator(a, nranks=1)
        assert op.halo is None
        x = rng.standard_normal((a.shape[0], 2))
        for matmat in (op.matmat, oracle.per_rank(a, 1).matmat):
            with ledger.install() as led:
                y = matmat(x)
            np.testing.assert_allclose(y, a @ x, rtol=1e-13)
            assert led.p2p_messages == 0 and led.p2p_bytes == 0


class TestPartitionedOperator:
    def test_counts_are_the_plain_operator_plus_p2p(self, rng):
        # one flop charge and one operator_apply per product, as for the
        # plain CSR: only the halo is added
        a = laplacian_1d(800)
        x = rng.standard_normal((800, 2))
        plain = counted(lambda: as_operator(a).matmat(x))[1]
        for nranks in (1, 8):
            c = counted(lambda: as_operator(a, nranks=nranks).matmat(x))[1]
            assert c[:2] + c[4:] == plain[:2] + plain[4:], nranks
            assert (c[2] > 0) == (nranks > 1) and plain[2:4] == (0, 0)

    def test_halo_pattern_1d(self):
        # 1-D Laplacian split into contiguous chunks: each interior rank
        # needs exactly one ghost value from each side
        halo = as_operator(laplacian_1d(40), nranks=4).halo
        assert (halo.p2p_messages, halo.p2p_items) == (6, 6)
        with ledger.install() as led:
            as_operator(laplacian_1d(30), nranks=3).matmat(np.ones((30, 2)))
        assert (led.p2p_messages, led.p2p_bytes) == (4, 4 * 8 * 2)

    def test_spmm_bytes_scale_with_block_width(self, rng):
        a = laplacian_2d(10)
        op = as_operator(a, nranks=4)
        traffic = {}
        for p in (1, 4):
            with ledger.install() as led:
                op.matmat(rng.standard_normal((a.shape[0], p)))
            traffic[p] = (led.p2p_messages, led.p2p_bytes)
        # message COUNT identical, byte volume p times larger (paper V-B2)
        assert traffic[1][0] == traffic[4][0]
        assert traffic[4][1] == 4 * traffic[1][1]

    def test_dense_matrix(self, rng):
        # a dense row is a full pattern: every rank receives every row it
        # does not own, one message from each peer
        a = rng.standard_normal((40, 40))
        x = rng.standard_normal((40, 3))
        for nranks in (1, 3, 40):
            y, c = counted(lambda: as_operator(a, nranks=nranks).matmat(x))
            y_or, c_or = counted(lambda: oracle.matmat(a, nranks, x))
            assert c == c_or, nranks
            np.testing.assert_allclose(y, y_or, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("nranks", [0, -2])
    def test_rejects_fewer_than_one_rank(self, nranks):
        for a in (laplacian_1d(10), np.eye(10)):
            with pytest.raises(ValueError, match="nranks"):
                as_operator(a, nranks=nranks)

    def test_rejects_more_ranks_than_rows(self):
        for a in (laplacian_1d(10), np.eye(10)):
            assert as_operator(a, nranks=10).halo.p2p_messages > 0
            with pytest.raises(ValueError, match="nranks"):
                as_operator(a, nranks=11)

    def test_rejects_what_it_cannot_partition(self):
        with pytest.raises(ValueError, match="square"):
            as_operator(sp.random(4, 6, density=0.5, random_state=0),
                        nranks=2)
        with pytest.raises(ValueError, match="square"):
            as_operator(as_operator(laplacian_1d(10)), nranks=2)
        op = as_operator(laplacian_1d(10))
        assert as_operator(op) is op


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
        halo = as_operator(a, nranks=8).halo
        # 1-D chain: interior ranks have 2 neighbours, end ranks 1
        assert halo.p2p_messages == 2 * 8 - 2
        assert halo.p2p_items == sum(
            ghost.size for _, ghost, *_ in oracle.split_blocks(a, 8))


class TestNullLedgerTimer:
    def test_timer_is_a_noop_without_ledger(self):
        null = ledger.current()
        with null.timer("phase"):
            pass
        # the singleton must not accumulate timer state across calls
        assert not null.timers
