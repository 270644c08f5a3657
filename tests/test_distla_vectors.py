"""Tests for distributed block vectors and distributed QR kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distla.distqr import (distributed_cgs_qr, distributed_cholqr,
                                 distributed_tsqr)
from repro.distla.distvec import DistributedBlockVector
from repro.simmpi.grid import VirtualGrid
from repro.util import ledger
from conftest import make_rng
from fixtures import per_rank_substrate as oracle


def _dist(rng, n=60, p=3, nranks=4, complex_=False):
    x = rng.standard_normal((n, p))
    if complex_:
        x = x + 1j * rng.standard_normal((n, p))
    grid = VirtualGrid(n, nranks)
    return x, DistributedBlockVector.from_global(grid, x)


class TestDistributedBlockVector:
    def test_scatter_gather_roundtrip(self, rng):
        x, dv = _dist(rng)
        assert np.allclose(dv.to_global(), x)
        assert dv.shape == x.shape

    def test_dot_matches_serial(self, rng):
        x, dx = _dist(rng)
        y, dy = _dist(rng)
        with ledger.install() as led:
            d = dx.dot(dy)
        assert np.allclose(d, x.conj().T @ y)
        assert led.reductions == 1

    def test_col_dots_and_norms(self, rng):
        x, dx = _dist(rng, complex_=True)
        y, dy = _dist(rng, complex_=True)
        assert np.allclose(dx.col_dots(dy),
                           np.einsum("ij,ij->j", x.conj(), y))
        assert np.allclose(dx.norms(), np.linalg.norm(x, axis=0))

    def test_axpy_scale_combine_local(self, rng):
        x, dx = _dist(rng)
        y, dy = _dist(rng)
        c = rng.standard_normal((3, 2))
        with ledger.install() as led:
            z = dx.axpy(2.5, dy)
            w = dx.scale(-1.0)
            v = dx.combine(c)
        assert led.reductions == 0          # all communication-free
        assert np.allclose(z.to_global(), x + 2.5 * y)
        assert np.allclose(w.to_global(), -x)
        assert np.allclose(v.to_global(), x @ c)

    def test_copy_independent(self, rng):
        _, dx = _dist(rng)
        c = dx.copy()
        c.locals[0][:] = 0
        assert not np.allclose(dx.locals[0], 0)

    def test_mismatched_grids_rejected(self, rng):
        _, dx = _dist(rng, nranks=2)
        _, dy = _dist(rng, nranks=3)
        with pytest.raises(ValueError, match="grids"):
            dx.dot(dy)

    def test_local_shape_validated(self, rng):
        grid = VirtualGrid(10, 2)
        with pytest.raises(ValueError):
            DistributedBlockVector(grid, [np.ones((5, 1)), np.ones((4, 1))])

    def test_global_size_validated(self, rng):
        grid = VirtualGrid(10, 2)
        with pytest.raises(ValueError):
            DistributedBlockVector.from_global(grid, np.ones(11))

    def test_rank_count_widths_and_repr_validated(self, rng):
        grid = VirtualGrid(10, 2)
        with pytest.raises(ValueError, match="2 local blocks"):
            DistributedBlockVector(grid, [np.ones((10, 1))])
        _, dx = _dist(rng, n=10, p=2, nranks=2)
        _, wide = _dist(rng, n=10, p=3, nranks=2)
        _, other = _dist(rng, n=10, p=2, nranks=5)
        with pytest.raises(ValueError, match="widths"):
            dx.dot(wide)
        with pytest.raises(ValueError, match="grids"):
            dx.gram_against([other])
        assert repr(dx) == "DistributedBlockVector(n=10, p=2, nranks=2)"

    def test_gram_against_nothing_is_free(self, rng):
        _, dx = _dist(rng, complex_=True)
        with ledger.install() as led:
            out = dx.gram_against([])
        assert out.shape == (0, 3) and out.dtype == np.complex128
        assert led.reductions == 0


class TestDistributedQR:
    @pytest.mark.parametrize("fn,n_reds", [
        (distributed_cholqr, 1),
        (distributed_tsqr, 1),
        (distributed_cgs_qr, 2 * 3 - 1),
    ])
    def test_factorization_and_reduction_count(self, rng, fn, n_reds):
        x, dx = _dist(rng, n=80, p=3)
        with ledger.install() as led:
            q, r = fn(dx)
        qg = q.to_global()
        assert np.allclose(qg @ r, x, atol=1e-9)
        assert np.allclose(qg.conj().T @ qg, np.eye(3), atol=1e-9)
        assert led.reductions == n_reds
        with ledger.install() as led_or:      # the rank-by-rank oracle
            getattr(oracle, fn.__name__)(
                oracle.PerRankBlockVector.from_global(dx.grid, x))
        assert led.counts() == led_or.counts()

    @pytest.mark.parametrize("fn", [distributed_cholqr, distributed_tsqr])
    def test_complex(self, rng, fn):
        x, dx = _dist(rng, complex_=True)
        q, r = fn(dx)
        assert np.allclose(q.to_global() @ r, x, atol=1e-9)

    def test_matches_serial_cholqr(self, rng):
        from repro.la.orthogonalization import cholqr
        x, dx = _dist(rng, n=100, p=4)
        qd, rd = distributed_cholqr(dx)
        qs, rs = cholqr(x)
        assert np.allclose(np.abs(rd), np.abs(rs), atol=1e-10)
        assert np.allclose(np.abs(qd.to_global()), np.abs(qs), atol=1e-9)

    def test_tsqr_stable_on_ill_conditioned(self, rng):
        x = rng.standard_normal((120, 4))
        u, _, vt = np.linalg.svd(x, full_matrices=False)
        x = (u * np.logspace(0, -7, 4)) @ vt
        dx = DistributedBlockVector.from_global(VirtualGrid(120, 4), x)
        q, r = distributed_tsqr(dx)
        qg = q.to_global()
        assert np.linalg.norm(qg @ r - x) < 1e-9 * np.linalg.norm(x)

    def test_tsqr_rank_deficient_falls_back_to_least_squares(self, rng):
        # a zero column makes the combined R exactly singular: the
        # back-substitution refuses it and the least-squares Q still
        # reconstructs the block
        x, _ = _dist(rng, n=80, p=3)
        x[:, 1] = 0.0
        dx = DistributedBlockVector.from_global(VirtualGrid(80, 4), x)
        with ledger.install() as led:
            q, r = distributed_tsqr(dx)
        assert r[1, 1] == 0.0 and led.reductions == 1
        assert np.allclose(q.to_global() @ r, x, atol=1e-10)

    def test_single_rank_degenerates(self, rng):
        x, _ = _dist(rng)
        dx = DistributedBlockVector.from_global(VirtualGrid(60, 1), x)
        q, r = distributed_tsqr(dx)
        assert np.allclose(q.to_global() @ r, x, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(12, 80), p=st.integers(1, 4),
       nranks=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
def test_property_distributed_cholqr(n, p, nranks, seed):
    rng = make_rng(seed)
    nranks = min(nranks, n // max(p, 1), n)
    nranks = max(nranks, 1)
    x = rng.standard_normal((n, p))
    grid = VirtualGrid(n, nranks)
    with ledger.install() as led:
        q, r = distributed_cholqr(DistributedBlockVector.from_global(grid, x))
    assert np.allclose(q.to_global() @ r, x,
                       atol=1e-8 * max(np.linalg.norm(x), 1.0))
    with ledger.install() as led_or:          # the rank-by-rank oracle
        q_or, r_or = oracle.distributed_cholqr(
            oracle.PerRankBlockVector.from_global(grid, x))
    assert led.counts() == led_or.counts()
    assert np.allclose(r, r_or, atol=1e-10 * max(np.linalg.norm(x), 1.0))
