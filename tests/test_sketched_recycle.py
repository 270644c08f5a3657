"""Sketched recycling (``-hpddm_recycle_space sketched``) contracts.

Four layers, from unit to end-to-end:

1. the headline complexity claim — reductions per GCRO-DR cycle in
   sketched mode are bounded by an *m-independent* constant (asserted at
   m = 10, 20, 40);
2. ``SketchedRecycler`` unit properties (hypothesis): whitening preserves
   ``A U = C``, orthonormalizes exactly in the distortion-free regime,
   the local-algebra path is communication-free, and rank deficiency is
   flagged — including complex128, p = 1 and degenerate candidate sets;
3. mutation tests: disabling the lazy-repair drift detector (the
   ``needs_repair`` seam) or corrupting the whitened pair must trip the
   runtime invariant verifier;
4. quality oracle: full-vs-sketched carrying costs a bounded number of
   extra iterations with identical convergence flags, and the service
   setup cache keys the two spaces apart.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Options, solve
from repro.krylov.sketch_recycle import (SketchedRecycler, sketch_drift,
                                         sketch_drift_probe)
from repro.la.orthogonalization import apply_sketch
from repro.service import options_key
from repro.trace import Tracer, install
from repro.util import ledger
from repro.util.ledger import CostLedger
from repro.verify import InvariantChecker, InvariantViolation

from conftest import make_rng
from matrix import Config, assert_sketched_quality, make_problem


def _sequence_problem(n: int = 400) -> tuple[sp.csr_matrix, np.ndarray]:
    """Deterministic well-conditioned sparse system (two RHS columns)."""
    rs = np.random.RandomState(1234)
    a = sp.random(n, n, density=0.02, random_state=rs, format="csr")
    a = sp.csr_matrix(a + sp.eye(n, format="csr") * 4.0)
    b = np.random.default_rng(1234).standard_normal((n, 2))
    return a, b


# ---------------------------------------------------------------------------
# 1. O(1) reductions per cycle, asserted across m
# ---------------------------------------------------------------------------

#: per-cycle reduction overhead ceiling (reductions beyond one-per-step,
#: amortized over cycles).  The in-cycle structure is exactly steps + 1
#: (trace-gate enforced); everything else is a fixed per-solve prologue /
#: packaging cost, so the amortized overhead must stay below a small
#: m-independent constant.
_OVERHEAD_CEILING = 8.0


@pytest.mark.parametrize("m", [10, 20, 40])
def test_sketched_recycle_reduction_overhead_o1_in_m(m):
    a, b = _sequence_problem()
    opts = Options(krylov_method="gcrodr", gmres_restart=m, recycle=4,
                   orthogonalization="sketched", recycle_space="sketched",
                   tol=1e-10, max_it=150, trace="summary")
    tr = Tracer(level="summary")
    led = CostLedger()
    with install(tr), ledger.install(led):
        r1 = solve(a, b[:, 0], options=opts)
        r2 = solve(a, b[:, 1], options=opts, recycle=r1.info["recycle"],
                   same_system=False)
    assert np.asarray(r1.converged).all() and np.asarray(r2.converged).all()
    steps = led.calls.get("arnoldi_step", 0)
    cycles = sum(len(root.find("cycle")) for root in tr.roots)
    assert steps and cycles
    overhead = (led.reductions - steps) / cycles
    assert overhead <= _OVERHEAD_CEILING, (
        f"m={m}: {overhead:.2f} extra reductions/cycle beyond one-per-step "
        f"(ceiling {_OVERHEAD_CEILING}); sketched recycling lost its O(1) "
        f"reduction structure")


def test_exact_scheme_repair_path_unchanged():
    """cgs2_1r (exact basis) never routes through the drift-gated repair."""
    cfg = Config("gcrodr", p=3, ortho="cgs2_1r")
    a, b, m = make_problem(cfg)
    o = cfg.options(verify="full", tol=1e-8).replace(trace="summary")
    tr = Tracer(level="summary")
    with install(tr), ledger.install() as led:
        r1 = solve(a, b, m, options=o)
        r2 = solve(a, np.negative(b), m, options=o,
                   recycle=r1.info["recycle"], same_system=False)
    assert np.asarray(r2.converged).all()
    assert led.calls.get("recycle_repair", 0) == 0
    assert sum(len(root.find("recycle_repair")) for root in tr.roots) == 0


def test_sketched_scheme_defers_repair_to_adoption_boundary():
    """The sketched scheme's lazy gate never fires mid-solve; the one
    exact re-derivation happens at the packaging boundary."""
    cfg = Config("gcrodr", p=1, ortho="sketched", recycle_space="sketched")
    a, b, m = make_problem(cfg)
    o = cfg.options(verify="cheap", tol=1e-8).replace(trace="summary")
    tr = Tracer(level="summary")
    with install(tr), ledger.install():
        r1 = solve(a, b, m, options=o)
    repairs = [s for root in tr.roots for s in root.find("recycle_repair")]
    kinds = [s.attrs.get("kind") for s in repairs]
    assert "drift" not in kinds, "drift-gated repair fired on a healthy run"
    assert kinds.count("adoption_boundary") == 1
    assert np.asarray(r1.converged).all()


# ---------------------------------------------------------------------------
# 2. SketchedRecycler unit properties
# ---------------------------------------------------------------------------

def _model_operator(rng, n: int, dtype) -> np.ndarray:
    a = (np.diag(4.0 + 0.1 * rng.standard_normal(n))
         + 0.5 * np.eye(n, k=1) + 0.4 * np.eye(n, k=-1)).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        a = a + 0.3j * np.eye(n)
    return a


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(16, 32),
       k=st.integers(1, 5), cplx=st.booleans())
@settings(max_examples=25, deadline=None)
def test_whiten_exact_regime_properties(seed, n, k, cplx):
    """With s = n the SRHT is an exact isometry: whitening must
    orthonormalize to rounding, preserve ``A U = C``, and leave the
    maintained ``S C_k`` orthonormal."""
    rng = make_rng(seed, n, k, int(cplx))
    dtype = np.complex128 if cplx else np.float64
    a = _model_operator(rng, n, dtype)
    u = rng.standard_normal((n, k)).astype(dtype)
    if cplx:
        u = u + 1j * rng.standard_normal((n, k))
    c = a @ u
    rec = SketchedRecycler(n=n, max_cols=2 * k)
    assert rec.s == n  # distortion-free regime by construction
    with ledger.install():
        u2, c2, ok = rec.whiten(u, c)
    assert ok
    assert sketch_drift(c2) < 1e-8  # true orthonormality, not just sketched
    assert np.linalg.norm(a @ u2 - c2) <= 1e-8 * np.linalg.norm(c2)
    assert rec.sc is not None and sketch_drift(rec.sc) < 1e-12


@given(seed=st.integers(0, 2**31 - 1), k=st.integers(2, 6), cplx=st.booleans())
@settings(max_examples=25, deadline=None)
def test_whiten_rank_deficiency_detected(seed, k, cplx):
    """A rank-deficient candidate set must be refused (ok=False) with the
    inputs and the maintained sketches left untouched."""
    n = 128
    rng = make_rng(seed, k, 17)
    dtype = np.complex128 if cplx else np.float64
    u = rng.standard_normal((n, k)).astype(dtype)
    c = rng.standard_normal((n, k)).astype(dtype)
    c[:, -1] = c[:, 0]  # exact duplicate -> rank loss survives any sketch
    rec = SketchedRecycler(n=n, max_cols=2 * k)
    with ledger.install():
        u2, c2, ok = rec.whiten(u, c)
    assert not ok
    assert u2 is u and c2 is c
    assert rec.sc is None


def test_whiten_local_matches_resketch_and_is_free():
    """``whiten_local`` on a locally derived candidate sketch charges ZERO
    reductions and produces the same pair as the one-reduction re-sketching
    ``whiten`` (same deterministic SRHT, same seed)."""
    rng = make_rng(11)
    n, k = 96, 4
    a = _model_operator(rng, n, np.float64)
    u = rng.standard_normal((n, k)) * np.logspace(0, 2, k)
    c = a @ u
    rec_local = SketchedRecycler(n=n, max_cols=2 * k)
    with ledger.install() as led:
        # stand-in for the in-solver local algebra [S C_k | S V] @ coeffs:
        # the same deterministic sketch of the candidates, derived without
        # charging a reduction
        sc_raw = apply_sketch(c, rec_local.s, seed=rec_local.seed)
        u_loc, c_loc, ok = rec_local.whiten_local(u, c, sc_raw)
    assert ok
    assert led.reductions == 0, "whiten_local must be communication-free"

    rec_rs = SketchedRecycler(n=n, max_cols=2 * k)
    with ledger.install() as led2:
        u_rs, c_rs, ok2 = rec_rs.whiten(u, c)
    assert ok2
    assert led2.reductions == 1  # the single s x k assembly reduction
    np.testing.assert_allclose(c_loc, c_rs, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(u_loc, u_rs, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(rec_local.sc, rec_rs.sc,
                               rtol=1e-12, atol=1e-12)


def test_drift_probe_exact_when_sketch_is_square():
    """For n <= 32 the probe's sketch is an isometry, so the estimate
    equals the true drift to rounding — the gate decision is exact."""
    rng = make_rng(23)
    n, k = 24, 4
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    bad = q.copy()
    bad[:, -1] = 0.7 * bad[:, 0] + 0.3 * bad[:, -1]
    with ledger.install():
        clean = sketch_drift_probe(q)
        dirty = sketch_drift_probe(bad)
    assert clean < 1e-12
    assert abs(dirty - sketch_drift(bad)) < 1e-12
    assert dirty > 0.1


# ---------------------------------------------------------------------------
# 3. mutation tests: the verifier must catch a disabled/corrupted repair
# ---------------------------------------------------------------------------

def test_mutation_disabled_drift_detector_trips_checker(monkeypatch):
    """Disabling ``needs_repair`` lets a near-singular whitening through.

    The sketch-whitened pair stays *sketch*-orthonormal even then (the
    subspace embedding bounds the drift), but the triangular solves
    amplify rounding by cond(t_c) ~ 1e14, destroying ``A U = C`` — so the
    checker's map invariant must reject the pair even at the widened
    sketched-space tolerances."""
    rng = make_rng(7)
    n, k = 96, 4
    u = rng.standard_normal((n, k))
    u[:, -1] = u[:, 0] + 1e-14 * u[:, 1]  # numerically dependent columns
    a = _model_operator(rng, n, np.float64)
    c = a @ u
    rec = SketchedRecycler(n=n, max_cols=2 * k)
    with ledger.install():
        _, _, ok = rec.whiten(u, c)
    assert not ok, "healthy detector must demand the exact repair"

    monkeypatch.setattr(SketchedRecycler, "needs_repair",
                        lambda self, t_c: False)
    rec2 = SketchedRecycler(n=n, max_cols=2 * k)
    with ledger.install():
        u2, c2, ok = rec2.whiten(u, c)
    assert ok, "mutated detector waves the degenerate pair through"
    chk = InvariantChecker(level="full", context="mutation")
    chk.recycle_orth_tol = 64.0   # the sketched-scheme runtime ceilings
    chk.recycle_map_tol = 1e-4
    with pytest.raises(InvariantViolation):
        with ledger.install():
            chk.check_recycle(u2, c2, op_apply=lambda x: a @ x,
                              what="mutated whiten output")


def test_mutation_corrupted_whiten_trips_runtime_verifier(monkeypatch):
    """End-to-end: a whiten that silently mis-scales C must be caught by
    the in-solve ``check_recycle`` even under the sketched tolerances."""
    cfg = Config("gcrodr", p=1, ortho="sketched", recycle_space="sketched")
    a, b, m = make_problem(cfg)
    o = cfg.options(verify="cheap", tol=1e-10)
    orig = SketchedRecycler._whiten_against

    def corrupt(self, u_new, c_new, sc_raw):
        u2, c2, ok = orig(self, u_new, c_new, sc_raw)
        return u2, 20.0 * c2, ok

    # _whiten_against is the shared core under both whiten_local (the
    # in-engine zero-reduction path) and whiten (the re-sketching path)
    monkeypatch.setattr(SketchedRecycler, "_whiten_against", corrupt)
    with pytest.raises(InvariantViolation):
        solve(a, b, m, options=o)


# ---------------------------------------------------------------------------
# 4. quality oracle + cache keying
# ---------------------------------------------------------------------------

QUALITY_CONFIGS = [
    Config(method, p=p, ortho="sketched", recycle_space="sketched")
    for method, p in (("gcrodr", 1), ("gcrodr", 3), ("bgcrodr", 3))
]


@pytest.mark.parametrize("cfg", QUALITY_CONFIGS, ids=lambda c: c.id())
def test_full_vs_sketched_quality(cfg):
    assert_sketched_quality(cfg)


def test_options_key_distinguishes_recycle_space():
    base = dict(krylov_method="gcrodr", gmres_restart=20, recycle=4,
                orthogonalization="sketched")
    o_full = Options(recycle_space="full", **base)
    o_sk = Options(recycle_space="sketched", **base)
    assert options_key(o_full) != options_key(o_sk)
