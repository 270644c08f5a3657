"""The slab products over the column-major basis, and its layout contract.

``BasisArena`` stores the Krylov basis column-major, so every view the
cycle hands out is one contiguous block, and ``conj_gram`` /
``slab_matmul`` are one BLAS call at every height.  (The file and its
test ids are named for the 256-row panel kernels that served the
row-major slab; the panels are gone.)  Held here:

* the kernels are the textbook products: ``conj_gram`` is ``x^H y`` bit
  for bit, ``slab_matmul`` agrees with ``x @ c`` to rounding, on arrays of
  either layout, real and complex, and two calls give the same bits;
* every ``BasisArena`` view is F-contiguous and shares the slab's memory,
  and a product over a view gives the bits of the same product over a
  fresh column-major copy;
* in ``bgcrodr`` (recycle space adopted too) and ``bgmres`` solves on a
  real Laplacian (n = 2 304) and on the complex Maxwell chamber, every tall
  operand that reaches the two kernels — self-Grams aside — is
  F-contiguous;
* one step of every block scheme charges the list-of-blocks oracle's
  ``CostLedger.counts()`` (``tests/fixtures/legacy_cycle.py``) and gives
  its bits, on the 48 x 48 Laplacian.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro import Options, solve
from repro.krylov.basis import BasisArena
from repro.krylov.cycle import block_arnoldi_cycle
from repro.krylov.gcrodr import gcrodr
from repro.la import orthogonalization as orth
from repro.la.orthogonalization import (conj_gram, householder_qr,
                                        slab_matmul)
from repro.problems.maxwell import maxwell_chamber
from repro.util import ledger

from conftest import laplacian_2d, make_rng
from fixtures.legacy_cycle import legacy_block_arnoldi_cycle

TALL_N = [512, 513, 767, 2304, 9216]

#: every module that binds a slab kernel by name, and the names it binds
BOUND = {
    "repro.la.orthogonalization": ("conj_gram", "slab_matmul"),
    "repro.krylov.restart": ("slab_matmul",),
    "repro.krylov.gcrodr": ("slab_matmul",),
    "repro.krylov.shifted": ("slab_matmul",),
}


def _slab(rng, n, cols, complex_=False, order="C"):
    x = rng.standard_normal((n, cols))
    x = x + 1j * rng.standard_normal((n, cols)) if complex_ else x
    return np.asarray(x, order=order)


def _arena_views(rng, n, cols, p):
    """``(basis, candidate)`` views of a filled ``BasisArena`` slab."""
    arena = BasisArena(n, p, 0, cols // p + 2, np.float64)
    arena.slab[:] = rng.standard_normal(arena.slab.shape)
    arena.cols = cols
    return arena.basis(), arena.slot()


def _close(got, want):
    return np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _assert_textbook(x, y, c):
    assert np.array_equal(conj_gram(x, y), x.conj().T @ y)
    assert _close(slab_matmul(x, c), x @ c)


@pytest.mark.parametrize("n", [1, 7, 255, 256, 257, 511])
@pytest.mark.parametrize("cols,p", [(1, 1), (3, 1), (8, 4), (40, 8)])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_below_two_panels_is_the_one_gemm(n, cols, p, complex_):
    rng = make_rng(n, cols, p)
    for order in "CF":
        x, y = _slab(rng, n, cols, complex_, order), \
            _slab(rng, n, p, complex_, order)
        _assert_textbook(x, y, _slab(rng, cols, p, complex_))


@pytest.mark.parametrize("n", TALL_N)
def test_complex_and_self_grams_stay_one_gemm(n):
    rng = make_rng(n, 1)
    x, y = _slab(rng, n, 24, True, "F"), _slab(rng, n, 4, True)
    _assert_textbook(x, y, _slab(rng, 24, 4, True))
    w = _slab(rng, n, 8, order="F")
    assert np.array_equal(conj_gram(w, w), w.T @ w)
    # a real slab against a complex block
    assert np.array_equal(conj_gram(w, y), w.T @ y)


@pytest.mark.parametrize("n", TALL_N)
@pytest.mark.parametrize("cols,p", [(1, 1), (3, 1), (16, 8), (40, 4),
                                    (328, 8)])
def test_panels_match_the_one_gemm_on_arrays_and_arena_views(n, cols, p):
    """A product over an arena view is the same product over a fresh
    column-major copy, bit for bit, and the row-major one to rounding."""
    rng = make_rng(n, cols, p, 2)
    c = rng.standard_normal((cols, p))
    x, y = _arena_views(rng, n, cols, p)
    assert x.flags.f_contiguous and y.flags.f_contiguous
    xf, yf = np.array(x, order="F"), np.array(y, order="F")
    assert np.array_equal(conj_gram(x, y), conj_gram(xf, yf))
    assert np.array_equal(slab_matmul(x, c), slab_matmul(xf, c))
    xc, yc = np.ascontiguousarray(x), np.ascontiguousarray(y)
    assert _close(conj_gram(x, y), conj_gram(xc, yc))
    assert _close(slab_matmul(x, c), slab_matmul(xc, c))


@pytest.mark.parametrize("n", TALL_N)
def test_two_calls_are_bit_identical(n):
    rng = make_rng(n, 3)
    x, y = _arena_views(rng, n, 64, 8)
    c = rng.standard_normal((64, 8))
    assert np.array_equal(conj_gram(x, y), conj_gram(x, y))
    assert np.array_equal(slab_matmul(x, c), slab_matmul(x, c))


@pytest.mark.parametrize("identity_m", [True, False], ids=["aliased", "z"])
def test_arena_views_are_column_major_and_copy_nothing(identity_m):
    n, p, k, steps = 300, 3, 4, 5
    arena = BasisArena(n, p, k, steps, np.float64, identity_m=identity_m)
    rng = make_rng(8)
    arena.bind(rng.standard_normal((n, p)), rng.standard_normal((n, k)),
               max_steps=steps)
    arena.advance()
    arena.advance()
    views = [arena.basis(), arena.stacked(), arena.slot(), arena.block(1),
             arena.v(), arena.v(2), arena.z(2)]
    for view in views:
        assert view.flags.f_contiguous
        slab = arena.zslab if view is views[-1] and not identity_m \
            else arena.slab
        assert view.base is slab and np.shares_memory(view, slab)
    assert arena.basis().shape == (n, k + 3 * p)


class _LayoutSpy:
    """Records the layout of every tall operand that reaches a slab kernel
    (self-Grams aside) while installed."""

    def __init__(self, monkeypatch, n):
        self.n, self.layouts = n, []
        for module, names in BOUND.items():
            mod = importlib.import_module(module)
            for name in names:
                monkeypatch.setattr(mod, name,
                                    self._wrap(name, getattr(orth, name)))

    def _wrap(self, name, kernel):
        def spy(x, y):
            if x.shape[0] == self.n and not (name == "conj_gram" and y is x):
                self.layouts.append((name, x.shape, x.flags.f_contiguous))
            return kernel(x, y)
        return spy


def _laplace_48():
    return laplacian_2d(48).tocsr()                      # n = 2 304, real


def _maxwell():
    return maxwell_chamber(4, omega=8.0, inclusion_radius=0.15).a.tocsr()


@pytest.mark.parametrize("method", ["bgcrodr", "bgmres"])
@pytest.mark.parametrize("problem", [_laplace_48, _maxwell],
                         ids=["laplace", "maxwell"])
def test_solve_operands_are_column_major(problem, method, monkeypatch):
    a = problem()
    n = a.shape[0]
    b = _slab(make_rng(9), n, 4, np.iscomplexobj(a.data))
    spy = _LayoutSpy(monkeypatch, n)
    opts = Options(krylov_method=method, gmres_restart=20, tol=1e-8,
                   **({"recycle": 6} if method == "bgcrodr" else {}))
    res = solve(a, b, options=opts)
    assert np.all(res.converged)
    if method == "bgcrodr":
        # the adopted space: same operator, then a changed one
        space = res.info["recycle"]
        assert np.all(gcrodr(a, b, options=opts, recycle=space).converged)
        shifted = (a + 0.1 * sp.eye(n)).tocsr()
        assert np.all(gcrodr(shifted, b, options=opts,
                             recycle=space).converged)
    kernels = {name for name, _, _ in spy.layouts}
    assert kernels == {"conj_gram", "slab_matmul"}
    strided = [(name, shape) for name, shape, f in spy.layouts if not f]
    assert not strided, f"{len(strided)} operands not column-major: " \
                        f"{strided[:5]}"


@pytest.mark.parametrize("with_ck", [False, True], ids=["nock", "ck"])
@pytest.mark.parametrize("scheme", ["cgs", "cgs2_1r", "cholqr2"])
def test_block_step_charges_the_fixture_counts(scheme, with_ck):
    """48 x 48 Laplacian (n = 2 304), p = 4: the first steps of the arena
    cycle charge what the list-of-blocks oracle charges, with its bits."""
    a = _laplace_48()
    rng = make_rng(5, int(with_ck))
    ck = householder_qr(rng.standard_normal((a.shape[0], 6)))[0] \
        if with_ck else None
    v1, s1 = householder_qr(rng.standard_normal((a.shape[0], 4)))
    outs = []
    for cycle in (legacy_block_arnoldi_cycle, block_arnoldi_cycle):
        with ledger.install() as led:
            st = cycle(lambda z: a @ z, None, v1.copy(), s1.copy(),
                       max_steps=3, ck=ck, ortho=scheme, identity_m=True)
        outs.append((led.counts(), st.v_stack(), st.hqr.hessenberg()))
    (ref_counts, ref_v, ref_h), (counts, v, h) = outs
    assert counts == ref_counts
    assert np.array_equal(v, ref_v)
    assert np.array_equal(h, ref_h)
