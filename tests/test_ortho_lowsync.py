"""Ledger-verified reduction counts and LOO properties of the
low-synchronization orthogonalization engine.

The tentpole claim of the engine is *communication*, not flops: CGS2-1r and
CholQR2 charge at most TWO global reductions per block Arnoldi step at every
basis depth (sketched: one), while the MGS oracle's count grows linearly
with the depth.  These tests read the claim straight off the cost ledger —
the same ledger the paper-figure benchmarks integrate — and pin the
loss-of-orthogonality each scheme must deliver in exchange.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.krylov.cycle as cycle_mod
from repro import Options, solve
from repro.distla.distqr import distributed_cholqr2
from repro.distla.distvec import DistributedBlockVector
from repro.krylov.basis import BasisArena
from repro.la.orthogonalization import (LOW_SYNC_SCHEMES, ORTHO_SCHEME_NAMES,
                                        QR_SCHEME_NAMES, SCHEMES,
                                        PseudoBlockOrthogonalizer,
                                        householder_qr, make_arnoldi_engine,
                                        project_out)
from repro.simmpi.grid import VirtualGrid
from repro.util import ledger
from repro.util.ledger import CostLedger
from repro.verify import InvariantChecker, InvariantViolation, activate
from repro.verify.checker import checker_for

from conftest import make_rng
from fixtures import per_rank_substrate as oracle
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
        v1, _ = project_out(ck, v1, scheme="imgs")
    v1, _ = householder_qr(v1)

    led = CostLedger()
    counts = []
    arena = BasisArena(n, p, k, steps, v1.dtype)
    arena.bind(v1, ck, max_steps=steps)
    with ledger.install(led):
        eng = make_arnoldi_engine(scheme, tol=1e-12,
                                  max_cols=(steps + 1) * p + k, seed=seed)
        eng.begin(v1, ck)
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

    @pytest.mark.parametrize("scheme", LOW_SYNC_SCHEMES)
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
        """The baseline the engine beats: MGS charges O(j) per step."""
        n, p = 400, 8
        rng = make_rng(7, p)
        orth = PseudoBlockOrthogonalizer("mgs", n=n, p=p,
                                         dtype=np.complex128, max_cols=41)
        v = np.zeros((41, n, p), dtype=np.complex128)
        v[0], _ = householder_qr(_complex(rng, n, p))
        led = CostLedger()
        per_step = {}
        with ledger.install(led):
            orth.begin(v[:1])
            for j in range(30):
                w = _complex(rng, n, p)
                before = led.counts()[0]
                w2, dots, nrm = orth.step(v[: j + 1], w, j)
                per_step[j] = led.counts()[0] - before
                v[j + 1] = w2 / nrm
                orth.commit(np.ones(p, dtype=bool))
        assert per_step[0] == 2
        assert per_step[29] == 31  # j + 2: linear in depth
        assert per_step[29] > 10 * 2  # vs. the low-sync budget

    @pytest.mark.parametrize("scheme,expected", [
        ("cgs", 2), ("imgs", 3), ("cgs2_1r", 2), ("cholqr2", 2),
        ("sketched", 1),
    ])
    def test_pseudo_block_step_counts(self, scheme, expected):
        """Per-column bundle path (gmres/pgcrodr): fixed counts."""
        n, p = 300, 3
        rng = make_rng(11, p)
        orth = PseudoBlockOrthogonalizer(scheme, n=n, p=p,
                                         dtype=np.complex128, max_cols=25)
        v = np.zeros((25, n, p), dtype=np.complex128)
        v0 = _complex(rng, n, p)
        v[0] = v0 / np.linalg.norm(v0, axis=0)
        led = CostLedger()
        with ledger.install(led):
            orth.begin(v[:1])
            for j in range(20):
                w = _complex(rng, n, p)
                before = led.counts()[0]
                w2, dots, nrm = orth.step(v[: j + 1], w, j)
                got = led.counts()[0] - before
                assert got == expected, f"{scheme} step {j}: {got}"
                v[j + 1] = w2 / nrm
                orth.commit(np.ones(p, dtype=bool))


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


class TestDistributedPrimitives:
    """The substrate and its rank-by-rank oracle
    (``tests/fixtures/per_rank_substrate.py``): same values, bit-identical
    ledgers."""

    def test_gram_against_one_reduction_and_conserved(self):
        n, nranks, p = 120, 4, 2
        rng = make_rng(5, p)
        xs = _complex(rng, n, p)
        bs = [_complex(rng, n, p) for _ in range(3)]
        grid = VirtualGrid(n, nranks)
        results, ledgers = [], []
        for cls in (oracle.PerRankBlockVector, DistributedBlockVector):
            led = CostLedger()
            with ledger.install(led):
                x = cls.from_global(grid, xs)
                basis = [cls.from_global(grid, b) for b in bs]
                results.append(x.gram_against(basis))
            ledgers.append(led.counts())
        np.testing.assert_allclose(results[1], results[0], rtol=1e-13)
        assert ledgers[1] == ledgers[0]
        assert ledgers[1][0] == 1  # ONE reduction for the whole stack
        expect = np.concatenate([b.conj().T @ xs for b in bs], axis=0)
        np.testing.assert_allclose(results[1], expect, rtol=1e-13)

    def test_distributed_cholqr2_two_reductions(self):
        n, nranks, p = 96, 4, 6
        rng = make_rng(9, p)
        xs = _complex(rng, n, p)
        grid = VirtualGrid(n, nranks)
        ledgers = []
        for cls, qr in ((oracle.PerRankBlockVector, oracle.distributed_cholqr2),
                        (DistributedBlockVector, distributed_cholqr2)):
            led = CostLedger()
            with ledger.install(led):
                q, r = qr(cls.from_global(grid, xs))
            ledgers.append(led.counts())
            qg = q.to_global()
            assert np.linalg.norm(qg.conj().T @ qg - np.eye(p)) < 1e-13
            assert np.linalg.norm(qg @ r - xs) / np.linalg.norm(xs) < 1e-13
            assert led.counts()[0] == 2
        assert ledgers[1] == ledgers[0]


class TestCheckerSchemeScaling:
    """verify tolerances come from the scheme registry, both checker paths."""

    @pytest.mark.parametrize("scheme", sorted(ORTHO_SCHEME_NAMES))
    def test_checker_for_applies_registry_tol(self, scheme):
        o = Options(krylov_method="gmres", verify="full",
                    orthogonalization=scheme)
        chk = checker_for(o, context="t")
        assert chk.orth_tol == SCHEMES[scheme].orth_tol

    def test_sketched_widens_residual_gap(self):
        o = Options(krylov_method="gmres", verify="full",
                    orthogonalization="sketched")
        chk = checker_for(o)
        assert chk.residual_gap_rtol == SCHEMES["sketched"].residual_gap_rtol
        assert chk.residual_gap_rtol > InvariantChecker("full").residual_gap_rtol

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
        assert set(LOW_SYNC_SCHEMES) <= set(ORTHO_SCHEME_NAMES)
        assert {"cgs", "mgs", "imgs"} <= set(ORTHO_SCHEME_NAMES)
        assert {"cholqr", "cholqr2", "tsqr",
                "householder"} <= set(QR_SCHEME_NAMES)
        for name, info in SCHEMES.items():
            assert info.name == name
            assert info.orth_tol > 0
            assert info.is_ortho or info.is_qr

    def test_options_reject_unknown_scheme(self):
        with pytest.raises(Exception):
            Options(krylov_method="gmres", orthogonalization="nope")

    @pytest.mark.parametrize("scheme", sorted(ORTHO_SCHEME_NAMES))
    def test_options_accept_every_registry_scheme(self, scheme):
        o = Options(krylov_method="gmres", orthogonalization=scheme)
        assert o.orthogonalization == scheme


class TestMutationSmokePerScheme:
    """A corrupted engine must still trip the (scheme-scaled) checker."""

    @pytest.mark.parametrize("scheme", LOW_SYNC_SCHEMES)
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
