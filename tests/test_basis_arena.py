"""The slab-backed Krylov basis: oracle parity, zero-copy views, allocation.

Three guarantees for the one basis store under every Arnoldi cycle:

1. the arena cycle is a *bitwise* twin of the list-of-blocks cycle it
   replaced (``tests/fixtures/legacy_cycle.py``): ``V``, ``Z``, ``E_k``,
   the Hessenberg-QR state and ``CostLedger.counts()``;
2. the stacked accessors are views of one slab — nothing is copied;
3. a step allocates O(n·p) scratch, independent of the basis depth ``j``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import Options, solve
from repro.krylov.base import Operator
from repro.krylov.basis import BasisArena
from repro.krylov.cycle import block_arnoldi_cycle
from repro.la.orthogonalization import ORTHO_SCHEME_NAMES, householder_qr
from repro.problems.maxwell import maxwell_chamber
from repro.util import ledger

from conftest import laplacian_2d, make_rng
from fixtures.legacy_cycle import legacy_block_arnoldi_cycle


def _laplace():
    return laplacian_2d(12).tocsr()                       # n = 144, real


def _maxwell():
    return maxwell_chamber(3, omega=8.0, inclusion_radius=0.15).a.tocsr()


class _Flexible:
    """A *variable* preconditioner: the Jacobi scaling changes per call."""

    def __init__(self, a):
        self.dinv = 1.0 / a.diagonal()
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return (self.dinv * (1.0 + 0.1 / self.calls))[:, None] * v


def _inner(kind, a):
    if kind == "identity":
        return (lambda v: v), True
    if kind == "right":
        dinv = 1.0 / a.diagonal()
        return (lambda v: dinv[:, None] * v), False
    return _Flexible(a), False


def _start(a, p, k, seed):
    rng = make_rng(seed, p, k)
    n = a.shape[0]
    cplx = np.iscomplexobj(a.data)

    def block(cols):
        x = rng.standard_normal((n, cols))
        return x + 1j * rng.standard_normal((n, cols)) if cplx else x

    ck = householder_qr(block(k))[0] if k else None
    v1, s1 = householder_qr(block(p))
    return v1, s1, ck


@pytest.mark.parametrize("with_ck", [False, True], ids=["nock", "ck"])
@pytest.mark.parametrize("precond", ["identity", "right", "flexible"])
@pytest.mark.parametrize("problem", [_laplace, _maxwell],
                         ids=["laplace", "maxwell"])
@pytest.mark.parametrize("scheme", sorted(ORTHO_SCHEME_NAMES))
def test_arena_cycle_matches_legacy_oracle(scheme, problem, precond, with_ck):
    a = problem()
    p, steps = 3, 7
    v1, s1, ck = _start(a, p, 4 if with_ck else 0, seed=3)
    outs = []
    for cycle in (legacy_block_arnoldi_cycle, block_arnoldi_cycle):
        inner_m, identity_m = _inner(precond, a)
        with ledger.install() as led:
            st = cycle(lambda z: a @ z, inner_m, v1.copy(), s1.copy(),
                       max_steps=steps, ck=ck, ortho=scheme,
                       identity_m=identity_m)
        outs.append((st, led.counts()))
    (ref, ref_counts), (new, new_counts) = outs
    assert new_counts == ref_counts
    assert new.steps == ref.steps == steps and not new.breakdown
    assert np.array_equal(new.v_stack(), ref.v_stack())
    assert np.array_equal(new.z_stack(), ref.z_stack())
    assert np.array_equal(new.ek_matrix(), ref.ek_matrix())
    assert np.array_equal(new.hqr.g, ref.hqr.g)
    assert np.array_equal(new.hqr.hessenberg(), ref.hqr.hessenberg())
    if with_ck:
        assert np.array_equal(new.cv_stack()[:, :ck.shape[1]], ck)


@pytest.mark.parametrize("scheme", sorted(ORTHO_SCHEME_NAMES))
def test_single_column_cycle_matches_legacy_oracle(scheme):
    """p == 1 is the GEMV dispatch regime, whose bits depend on layout."""
    a = _laplace()
    v1, s1, ck = _start(a, 1, 3, seed=5)
    outs = []
    for cycle in (legacy_block_arnoldi_cycle, block_arnoldi_cycle):
        with ledger.install() as led:
            st = cycle(lambda z: a @ z, None, v1.copy(), s1.copy(),
                       max_steps=9, ck=ck, ortho=scheme, identity_m=True)
        outs.append((led.counts(), st.v_stack(), st.ek_matrix(), st.hqr.g))
    (ref_counts, *ref), (new_counts, *new) = outs
    assert new_counts == ref_counts
    for r, x in zip(ref, new):
        assert np.array_equal(r, x)


# ---------------------------------------------------------------------------
# zero-copy views
# ---------------------------------------------------------------------------

def _one_cycle(identity_m, ortho="cgs", k=4):
    a = _laplace()
    v1, s1, ck = _start(a, 3, k, seed=1)
    inner_m, _ = _inner("identity" if identity_m else "right", a)
    return block_arnoldi_cycle(lambda z: a @ z, inner_m, v1, s1,
                               max_steps=5, ck=ck, ortho=ortho,
                               identity_m=identity_m)


@pytest.mark.parametrize("ortho", ["cgs", "cgs2_1r", "cholqr2"])
def test_stacked_accessors_are_views_of_one_slab(ortho):
    state = _one_cycle(True, ortho)
    slab = state.arena.slab
    for view in (state.v_stack(), state.v_stack(3), state.cv_stack()):
        assert view.base is slab
    assert np.shares_memory(state.v_stack(), state.cv_stack())
    assert state.cv_stack().shape[1] == 4 + state.v_stack().shape[1]
    assert state.v_stack().shape[1] == (state.steps + 1) * 3


def test_z_stack_aliases_v_stack_under_identity_preconditioner():
    state = _one_cycle(True)
    z, v = state.z_stack(), state.v_stack(state.steps)
    assert np.shares_memory(z, v) and np.array_equal(z, v)
    assert z.base is state.arena.slab


def test_z_stack_is_its_own_slab_when_preconditioned():
    state = _one_cycle(False)
    z = state.z_stack()
    assert z.base is state.arena.zslab
    assert not np.shares_memory(z, state.v_stack())


def test_arena_rebinds_across_cycles_of_one_solve():
    """One allocation per solve: narrower/shorter cycles reuse the slab."""
    a = _laplace()
    n = a.shape[0]
    arena = BasisArena(n, 3, 4, 8, np.float64)
    slab = arena.slab
    v1, s1, ck = _start(a, 3, 4, seed=2)
    st = block_arnoldi_cycle(lambda z: a @ z, None, v1, s1, max_steps=8,
                             identity_m=True, arena=arena)
    full = st.v_stack().copy()
    st = block_arnoldi_cycle(lambda z: a @ z, None, v1, s1, max_steps=5,
                             ck=ck, identity_m=True, arena=arena)
    assert st.arena is arena and arena.slab is slab
    assert st.cv_stack().shape[1] == 4 + 6 * 3
    # block-size reduction narrows the cycle below the solve's width
    st = block_arnoldi_cycle(lambda z: a @ z, None, v1[:, :2].copy(),
                             s1[:2], max_steps=8, identity_m=True,
                             arena=arena)
    assert st.v_stack().shape[1] == 9 * 2 and full.shape[1] == 9 * 3
    with pytest.raises(ValueError, match="basis arena"):
        block_arnoldi_cycle(lambda z: a @ z, None, v1, s1, max_steps=9,
                            ck=ck, identity_m=True, arena=arena)


# ---------------------------------------------------------------------------
# allocation: O(n·p) per step, independent of the basis depth j
# ---------------------------------------------------------------------------

class _PeakPerCall:
    """Operator wrapper sampling the tracemalloc peak between applies."""

    def __init__(self, a):
        self.a = a
        self.peaks: list[int] = []

    def __call__(self, z):
        now, peak = tracemalloc.get_traced_memory()
        self.peaks.append(peak - now)
        out = self.a @ z
        tracemalloc.reset_peak()
        return out


def _assert_flat(peaks, block_bytes, what):
    early, late = max(peaks[2:8]), max(peaks[-6:])
    assert late <= 8 * block_bytes, \
        f"{what}: a late step allocates {late} B (> 8 blocks of {block_bytes})"
    assert late - early <= block_bytes, \
        f"{what}: per-step allocation grows with depth ({early} -> {late} B)"


@pytest.mark.parametrize("ortho", ["cgs", "cgs2_1r"])
def test_block_cycle_step_allocation_independent_of_depth(ortho):
    n, p, steps = 4096, 8, 40
    a = laplacian_2d(64).tocsr()
    v1, s1, _ = _start(a, p, 0, seed=4)
    op = _PeakPerCall(a)
    tracemalloc.start()
    try:
        block_arnoldi_cycle(op, None, v1, s1, max_steps=steps, ortho=ortho,
                            identity_m=True)
    finally:
        tracemalloc.stop()
    assert len(op.peaks) == steps
    _assert_flat(op.peaks, n * p * 8, f"block cycle [{ortho}]")


def test_pgcrodr_folded_projector_allocation_independent_of_depth():
    """pgcrodr folds C_l into the basis tensor: a prefix view, no per-step
    ``np.concatenate([ck_blocks, v[:j+1]])``."""
    n, p, m, k = 4096, 4, 40, 10
    a = laplacian_2d(64).tocsr()
    b = make_rng(6).standard_normal((n, p))
    op = _PeakPerCall(a)
    # exactly two cycles: the 40-step harvest, then 30 folded [C_l | V_l] steps
    opts = Options(krylov_method="gcrodr", gmres_restart=m, recycle=k,
                   orthogonalization="cgs2_1r", tol=1e-12, max_it=2 * m - k)
    tracemalloc.start()
    try:
        res = solve(Operator(a.shape, a.dtype, op), b, options=opts)
    finally:
        tracemalloc.stop()
    assert res.iterations == 2 * m - k and res.restarts == 2
    # applies: m harvest steps, the restart residual, m-k folded steps, the
    # final residual; sample i covers the work between applies i-1 and i
    assert len(op.peaks) == 2 * m - k + 2
    folded = op.peaks[m + 2: 2 * m - k + 1]
    _assert_flat(folded, n * p * 8, "pgcrodr folded C_l")
