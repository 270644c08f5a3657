"""The row-panel slab kernels against the one-GEMM formulation.

``conj_gram`` / ``slab_matmul`` sum one BLAS product per 256-row panel of a
real slab at least two panels tall; below that, for complex operands and
for self-Grams they are the one GEMM of ``tests/fixtures/
reference_slab_products.py`` bit for bit.  Above the threshold they agree
with it to rounding, on fresh arrays and on strided ``BasisArena`` views
alike, and are deterministic.  Which kernel runs never changes what is
charged: one step of every block scheme, with and without ``C_k``, charges
the fixture's ``CostLedger.counts()`` exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov.basis import BasisArena
from repro.krylov.cycle import block_arnoldi_cycle
from repro.la.orthogonalization import (SLAB_PANEL, _panels, conj_gram,
                                        householder_qr, slab_matmul)
from repro.util import ledger

from conftest import laplacian_2d, make_rng
from fixtures import reference_slab_products as ref

PANELLED_N = [512, 513, 767, 2304, 9216]


def _slab(rng, n, cols, complex_=False):
    x = rng.standard_normal((n, cols))
    return x + 1j * rng.standard_normal((n, cols)) if complex_ else x


def _arena_views(rng, n, cols, p):
    """``(basis, candidate)`` views of a filled ``BasisArena`` slab: row
    stride the slab's width, not the view's."""
    arena = BasisArena(n, p, 0, cols // p + 2, np.float64)
    arena.slab[:] = rng.standard_normal(arena.slab.shape)
    arena.cols = cols
    return arena.basis(), arena.slot()


def _close(got, want):
    return np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [1, 7, 255, 256, 257, 511])
@pytest.mark.parametrize("cols,p", [(1, 1), (3, 1), (8, 4), (40, 8)])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_below_two_panels_is_the_one_gemm(n, cols, p, complex_):
    rng = make_rng(n, cols, p)
    x, y = _slab(rng, n, cols, complex_), _slab(rng, n, p, complex_)
    c = _slab(rng, cols, p, complex_)
    assert np.array_equal(conj_gram(x, y), ref.conj_gram(x, y))
    assert np.array_equal(slab_matmul(x, c), ref.slab_matmul(x, c))


@pytest.mark.parametrize("n", PANELLED_N)
def test_complex_and_self_grams_stay_one_gemm(n):
    rng = make_rng(n, 1)
    x, y = _slab(rng, n, 24, True), _slab(rng, n, 4, True)
    c = _slab(rng, 24, 4, True)
    assert np.array_equal(conj_gram(x, y), ref.conj_gram(x, y))
    assert np.array_equal(slab_matmul(x, c), ref.slab_matmul(x, c))
    w = _slab(rng, n, 8)
    assert np.array_equal(conj_gram(w, w), ref.conj_gram(w, w))
    # a real slab against a complex block: the one GEMM too
    assert np.array_equal(conj_gram(w, y), ref.conj_gram(w, y))


@pytest.mark.parametrize("n", PANELLED_N)
@pytest.mark.parametrize("cols,p", [(1, 1), (3, 1), (16, 8), (40, 4),
                                    (328, 8)])
def test_panels_match_the_one_gemm_on_arrays_and_arena_views(n, cols, p):
    rng = make_rng(n, cols, p, 2)
    c = rng.standard_normal((cols, p))
    x, y = _arena_views(rng, n, cols, p)
    assert not x.flags.c_contiguous
    for xs, ys in ((x, y), (np.ascontiguousarray(x), np.ascontiguousarray(y))):
        assert _close(conj_gram(xs, ys), ref.conj_gram(xs, ys))
        assert _close(slab_matmul(xs, c), ref.slab_matmul(xs, c))
    if cols * p >= 4:
        # wide products pack their operands: the view and a fresh copy
        # give the same bits, as the one GEMM does
        assert np.array_equal(conj_gram(x, y), conj_gram(
            np.ascontiguousarray(x), np.ascontiguousarray(y)))
        assert np.array_equal(slab_matmul(x, c),
                              slab_matmul(np.ascontiguousarray(x), c))


@pytest.mark.parametrize("n", PANELLED_N)
def test_two_calls_are_bit_identical(n):
    rng = make_rng(n, 3)
    x, y = _arena_views(rng, n, 64, 8)
    c = rng.standard_normal((64, 8))
    assert np.array_equal(conj_gram(x, y), conj_gram(x, y))
    assert np.array_equal(slab_matmul(x, c), slab_matmul(x, c))


def test_panel_view_of_a_strided_slab_copies_nothing():
    x, _ = _arena_views(make_rng(4), 4 * SLAB_PANEL, 24, 8)
    panels = _panels(x)
    assert panels.shape == (4, SLAB_PANEL, 24)
    assert panels.base is x.base and np.shares_memory(panels, x)


@pytest.mark.parametrize("with_ck", [False, True], ids=["nock", "ck"])
@pytest.mark.parametrize("scheme", ["cgs", "imgs", "cgs2_1r", "cholqr2",
                                    "sketched"])
def test_block_step_charges_the_fixture_counts(scheme, with_ck, monkeypatch):
    """48 x 48 Laplacian (n = 2 304, nine panels), p = 4: the first steps of
    a cycle charge identically under both kernels and agree to rounding."""
    a = laplacian_2d(48).tocsr()
    rng = make_rng(5, int(with_ck))
    ck = householder_qr(rng.standard_normal((a.shape[0], 6)))[0] \
        if with_ck else None
    v1, s1 = householder_qr(rng.standard_normal((a.shape[0], 4)))

    def run():
        with ledger.install() as led:
            st = block_arnoldi_cycle(lambda z: a @ z, None, v1.copy(),
                                     s1.copy(), max_steps=3, ck=ck,
                                     ortho=scheme, identity_m=True)
        return led.counts(), st.v_stack().copy(), st.hqr.hessenberg()

    counts, v, h = run()
    ref.install(monkeypatch)
    ref_counts, ref_v, ref_h = run()
    assert counts == ref_counts
    assert np.linalg.norm(v - ref_v) <= 1e-12 * np.linalg.norm(ref_v)
    assert np.linalg.norm(h - ref_h) <= 1e-12 * np.linalg.norm(ref_h)
