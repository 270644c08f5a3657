"""Ledger-verified reduction counts and LOO properties of the
low-synchronization orthogonalization engine.

The tentpole claim of the engine is *communication*, not flops: CGS2-1r and
CholQR2 charge at most TWO global reductions per block Arnoldi step at every
basis depth (the sketched engine of ``tests/fixtures/sketched_engine.py``:
one), while the count of the MGS oracle
(``tests/fixtures/mgs_projection.py``) grows linearly with the depth.
These tests read the claim straight off the cost ledger — the same ledger
the paper-figure benchmarks integrate — and pin the loss-of-orthogonality
each scheme must deliver in exchange.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.krylov.cycle as cycle_mod
from repro import Options, solve
from repro.krylov.basis import BasisArena
from repro.krylov.cycle import block_arnoldi_cycle
from repro.la.orthogonalization import (LOW_SYNC_SCHEMES, ORTHO_SCHEME_NAMES,
                                        SCHEMES, PseudoBlockOrthogonalizer,
                                        arnoldi_orthogonalize, householder_qr,
                                        make_arnoldi_engine, project_out)
from repro.util import ledger
from repro.util.ledger import CostLedger
from repro.verify import InvariantChecker, InvariantViolation, activate
from repro.verify.checker import checker_for

from conftest import make_rng
from fixtures.mgs_projection import mgs_project_out
from fixtures.sketched_engine import SketchedEngine
from matrix import Config, make_problem


def _complex(rng, *shape):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)).astype(np.complex128)


def _run_engine(scheme, *, n, p, steps, k=0, seed=0, ill=False):
    """Drive an engine through ``steps`` Arnoldi-like steps.

    Returns ``(Q, per_step_reductions)`` where ``Q`` stacks the recycled
    block (if any), the initial block and every committed step block.
    """
    rng = make_rng(seed, p, k)
    ck = None
    v1 = _complex(rng, n, p)
    if k:
        ck, _ = householder_qr(_complex(rng, n, k))
        for _ in range(2):                  # two CGS passes
            v1, _ = project_out(ck, v1)
    v1, _ = householder_qr(v1)

    led = CostLedger()
    counts = []
    arena = BasisArena(n, p, k, steps, v1.dtype)
    with ledger.install(led):
        eng = SketchedEngine(max_cols=(steps + 1) * p + k, seed=seed) \
            if scheme == "sketched" else make_arnoldi_engine(scheme)
        arena.bind(eng.begin(v1, ck), ck, max_steps=steps)
        for j in range(steps):
            w = _complex(rng, n, p)
            if ill:
                # graded column scales: kappa(w) ~ 1e8, well inside the
                # two-pass stability region but far past single-pass CGS
                w = w * np.logspace(0, -8, p)
            arena.slot()[:] = w
            before = led.counts()[0]
            q, h, r, rank, e_col = eng.step(arena.stacked(), p, k=k)
            counts.append(led.counts()[0] - before)
            assert rank == p, f"unexpected deflation at step {j}"
            arena.slot()[:] = q
            arena.advance()
    return arena.basis().copy(), counts


class TestEngineReductionCounts:
    """<= 2 reductions per step at EVERY depth — the headline invariant."""

    @pytest.mark.parametrize("scheme", LOW_SYNC_SCHEMES + ("sketched",))
    @pytest.mark.parametrize("k", [0, 5])
    def test_step_reductions_bounded(self, scheme, k):
        budget = 1 if scheme == "sketched" else 2
        _, counts = _run_engine(scheme, n=400, p=8, steps=40, k=k)
        assert len(counts) == 40
        assert max(counts) <= budget, (
            f"{scheme}: per-step reductions {counts} exceed {budget}")
        # folding C_k into the stacked projector must not add messages
        assert counts[0] == counts[-1]

    def test_mgs_oracle_grows_with_depth(self):
        """The baseline the engine beats: MGS charges O(j) per step —
        one reduction per basis column, then the normalizing QR's one."""
        n, p = 400, 8
        rng = make_rng(7, p)
        basis, _ = householder_qr(_complex(rng, n, p))
        led = CostLedger()
        per_step = []
        with ledger.install(led):
            for _ in range(30):
                before = led.counts()[0]
                w2, _ = mgs_project_out(basis, _complex(rng, n, p))
                q, _ = householder_qr(w2)
                per_step.append(led.counts()[0] - before)
                basis = np.concatenate([basis, q], axis=1)
        assert per_step[0] == p + 1
        assert per_step[29] == 30 * p + 1  # (j + 1) p + 1: linear in depth
        assert per_step[29] > 10 * 2  # vs. the low-sync budget

    @pytest.mark.parametrize("scheme,expected", [
        ("cgs", 2), ("cgs2_1r", 2), ("cholqr2", 2),
    ])
    def test_pseudo_block_step_counts(self, scheme, expected):
        """Per-column bundle path (gmres/pgcrodr): fixed counts."""
        n, p = 300, 3
        rng = make_rng(11, p)
        orth = PseudoBlockOrthogonalizer(scheme, n=n, p=p,
                                         dtype=np.complex128)
        v = np.zeros((25, n, p), dtype=np.complex128)
        v0 = _complex(rng, n, p)
        v[0] = v0 / np.linalg.norm(v0, axis=0)
        led = CostLedger()
        with ledger.install(led):
            for j in range(20):
                w = _complex(rng, n, p)
                before = led.counts()[0]
                w2, dots, nrm = orth.step(v[: j + 1], w, j)
                got = led.counts()[0] - before
                assert got == expected, f"{scheme} step {j}: {got}"
                v[j + 1] = w2 / nrm


class TestLossOfOrthogonality:
    """Each scheme must deliver the LOO its registry row promises."""

    @pytest.mark.parametrize("scheme", LOW_SYNC_SCHEMES)
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), p=st.sampled_from([1, 8]),
           ill=st.booleans())
    def test_basis_loo_within_registry_bound(self, scheme, seed, p, ill):
        q, _ = _run_engine(scheme, n=256, p=p, steps=6, k=3,
                           seed=seed, ill=ill)
        g = q.conj().T @ q
        loo = np.linalg.norm(g - np.eye(g.shape[0]))
        tol = SCHEMES[scheme].orth_tol
        assert loo <= tol, f"{scheme}: LOO {loo:.2e} > {tol:.2e}"

    def test_cgs2_1r_matches_mgs_quality(self):
        """Equal final orthogonality at a fraction of the messages."""
        q2, counts2 = _run_engine("cgs2_1r", n=400, p=8, steps=20, seed=3)
        loo2 = np.linalg.norm(q2.conj().T @ q2 - np.eye(q2.shape[1]))
        assert loo2 < 1e-12
        assert max(counts2) <= 2


class TestCheckerSchemeScaling:
    """verify tolerances come from the scheme registry, both checker paths."""

    @pytest.mark.parametrize("scheme", sorted(ORTHO_SCHEME_NAMES))
    def test_checker_for_applies_registry_tol(self, scheme):
        o = Options(krylov_method="gmres", verify="full",
                    orthogonalization=scheme)
        chk = checker_for(o, context="t")
        assert chk.orth_tol == SCHEMES[scheme].orth_tol

    def test_ambient_checker_is_scaled_too(self):
        """The api-level ambient checker must pick up scheme ceilings."""
        o = Options(krylov_method="gmres", verify="full",
                    orthogonalization="cholqr2")
        amb = InvariantChecker("full", context="api")
        with activate(amb):
            chk = checker_for(o)
        assert chk is amb
        assert amb.orth_tol == SCHEMES["cholqr2"].orth_tol


class TestRegistryIsSingleSource:
    """Options validation and the engine agree on the scheme names."""

    def test_registry_names_cover_options(self):
        assert ORTHO_SCHEME_NAMES == ("cgs", "cgs2_1r", "cholqr2")
        assert LOW_SYNC_SCHEMES == ("cgs2_1r", "cholqr2")
        assert set(LOW_SYNC_SCHEMES) <= set(ORTHO_SCHEME_NAMES)
        assert tuple(SCHEMES) == ORTHO_SCHEME_NAMES
        for name, info in SCHEMES.items():
            assert info.name == name
            assert info.orth_tol > 0
            make_arnoldi_engine(name)          # every scheme has an engine

    def test_options_reject_unknown_scheme(self):
        with pytest.raises(Exception):
            Options(krylov_method="gmres", orthogonalization="nope")

    @pytest.mark.parametrize("scheme", ["mgs", "imgs", "sketched"])
    def test_engines_refuse_removed_schemes(self, scheme):
        """Neither the block engine nor the pseudo-block orthogonalizer
        is built for a scheme that left the registry."""
        with pytest.raises(ValueError, match="expected one of"):
            make_arnoldi_engine(scheme)
        with pytest.raises(ValueError, match="expected one of"):
            PseudoBlockOrthogonalizer(scheme, n=8, p=2, dtype=np.float64)

    @pytest.mark.parametrize("scheme", sorted(ORTHO_SCHEME_NAMES))
    def test_options_accept_every_registry_scheme(self, scheme):
        o = Options(krylov_method="gmres", orthogonalization=scheme)
        assert o.orthogonalization == scheme


class TestMutationSmokePerScheme:
    """A corrupted engine must still trip the (scheme-scaled) checker."""

    @pytest.mark.parametrize("scheme", sorted(ORTHO_SCHEME_NAMES))
    def test_leaky_engine_detected(self, scheme, monkeypatch):
        real_make = cycle_mod.make_arnoldi_engine

        def bad_make(*args, **kw):
            eng = real_make(*args, **kw)
            orig = eng.step

            def leaky(stacked, p, *, k=0):
                v0 = stacked[:, k:k + p].copy()
                q, h, r, rank, e_col = orig(stacked, p, k=k)
                if stacked.shape[1] - k >= 3 * p:     # two committed blocks
                    q = q + 1e-2 * v0
                return q, h, r, rank, e_col

            eng.step = leaky
            return eng

        monkeypatch.setattr(cycle_mod, "make_arnoldi_engine", bad_make)
        cfg = Config("bgmres", p=3, ortho=scheme)
        a, b, m = make_problem(cfg)
        with pytest.raises(InvariantViolation):
            solve(a, b, m, options=cfg.options(verify="full"))


class TestOneArnoldiStep:
    """``arnoldi_orthogonalize`` is the cycle's step, bit for bit."""

    @pytest.mark.parametrize("with_ck", [False, True], ids=["nock", "ck"])
    @pytest.mark.parametrize("scheme", sorted(ORTHO_SCHEME_NAMES))
    def test_standalone_step_is_the_cycles_first_step(self, scheme, with_ck,
                                                       monkeypatch):
        n, p, k = 200, 3, 4 if with_ck else 0
        rng = make_rng(13, p, k)
        a = np.diag(np.linspace(1.0, 10.0, n)) + np.diag(np.ones(n - 1), 1)
        ck = householder_qr(rng.standard_normal((n, k)))[0] if k else None
        v1, s1 = householder_qr(rng.standard_normal((n, p)))
        steps, candidates = [], []
        real_make = cycle_mod.make_arnoldi_engine

        def spy_make(*args, **kw):
            eng = real_make(*args, **kw)
            real_step = eng.step

            def step(stacked, p, *, k=0):
                steps.append(real_step(stacked, p, k=k))
                return steps[-1]

            eng.step = step
            return eng

        def op(z):
            candidates.append(a @ z)
            return candidates[-1]

        monkeypatch.setattr(cycle_mod, "make_arnoldi_engine", spy_make)
        block_arnoldi_cycle(op, None, v1.copy(), s1.copy(), max_steps=1,
                            ck=ck, ortho=scheme, identity_m=True)
        q, h, s, rank, e_col = steps[0]
        q2, h2, s2, rank2 = arnoldi_orthogonalize(
            v1.copy(), candidates[0], scheme=scheme, ck=ck)
        assert rank2 == rank == p
        assert np.array_equal(q2, q)
        assert np.array_equal(h2, h if e_col is None
                              else np.concatenate([e_col, h]))
        assert np.array_equal(s2, s)


class TestRecycleSequencesAllSchemes:
    """Fresh solve -> adoption -> same-system skip, per scheme.

    The recycled pair is re-orthonormalized exactly whenever the scheme's
    basis is inexact, so even at ``verify=cheap`` (which checks ``C^H C``
    drift on adoption) every scheme must sail through the full sequence.
    """

    @pytest.mark.parametrize("scheme", sorted(ORTHO_SCHEME_NAMES))
    @pytest.mark.parametrize("p", [1, 3])
    def test_sequence(self, scheme, p):
        cfg = Config("gcrodr", p=p, ortho=scheme)
        a, b, m = make_problem(cfg)
        o = cfg.options(verify="cheap")
        r1 = solve(a, b, m, options=o)
        assert np.all(r1.converged)
        space = r1.info["recycle"]
        assert space is not None
        r2 = solve(a, b + 0.5, m, options=o, recycle=space)
        assert np.all(r2.converged)
        r3 = solve(a, b + 1.0, m, options=o,
                   recycle=r2.info["recycle"], same_system=True)
        assert np.all(r3.converged)
        for res in (r2, r3):
            rep = res.info.get("verify")
            assert rep is not None and not rep["violations"]
