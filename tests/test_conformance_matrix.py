"""Property-based solver conformance matrix.

Sweeps solver x {left,right} x dtype x block size x recycle
strategy through the shared oracles in :mod:`tests.matrix`, with
the runtime invariant checker at ``full`` level so every configuration also
re-verifies its own Arnoldi/recycle/residual algebra.  The quick subset
runs in tier 1; the full cross product is behind the ``slow`` marker.

The mutation smoke tests are the checker's own conformance check: inject a
known-bad perturbation (loss of orthogonality, corrupt recycled space) and
assert the checker fires — guarding against a checker that silently passes
everything.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.la.orthogonalization as ortho_mod
from repro import Options, solve
from repro.la.orthogonalization import slab_matmul
from repro.verify import InvariantChecker, InvariantViolation, activate

from matrix import (COUNTS_FILE, SHA1_FILE, SOLVERS, Config, assert_conforms,
                    conformance_matrix, counts_of, make_problem,
                    pinned_configs, pseudo_block_configs)

QUICK = conformance_matrix(full=False)
FULL = conformance_matrix(full=True)


def test_matrix_is_large_enough():
    # the acceptance floor for the swept cross product
    assert len(FULL) >= 48
    assert {c.method for c in FULL} == set(SOLVERS)
    assert {c.variant for c in FULL} == {"left", "right"}
    assert {c.dtype for c in FULL} == {np.float64, np.complex128}
    assert {c.strategy for c in FULL} >= {"A", "B"}


@pytest.mark.parametrize("cfg", QUICK, ids=Config.id)
def test_conformance_quick(cfg):
    out = assert_conforms(cfg)
    assert out.ok, f"{cfg.id()}: {out.failures}"


@pytest.mark.parametrize("cfg", pinned_configs(), ids=Config.id)
def test_counts_are_the_pinned_ones(cfg):
    """Iterations, restarts, flags, the whole ledger and the span multiset
    of every pinned config equal ``tests/data/solver_counts.json`` (see
    docs/TESTING.md for what the file is and how to regenerate it)."""
    pinned = json.loads(COUNTS_FILE.read_text())
    # no orphaned entry: every pinned count is one a live config reads
    assert set(pinned) == {c.id() for c in pinned_configs()}
    assert json.loads(json.dumps(counts_of(cfg))) == pinned[cfg.id()]


def test_pseudo_block_iterates_are_the_pinned_bits():
    """sha1 of ``x`` and of the history of every ``gmres`` / ``gcrodr`` cell
    equal ``tests/data/pseudo_block_sha1.json``.  The ``gmres`` cells and
    the ``gcrodr`` cells with ``p > 1`` run the pseudo-block cycle, whose
    least-squares state moved into one bundle without moving a bit; the
    14 ``gcrodr-*-p1-*`` cells run the block cycle (one system is a block
    of width one), and were re-pinned when its basis slab went
    column-major.  The ``cholqr2`` cell's history was re-pinned when its
    recycled pair's repair became one QR of ``C_k``.  The digests hold for one BLAS build; regenerate them
    (``python tests/matrix.py --sha1``) from an unchanged solver on a new
    one."""
    pinned = json.loads(SHA1_FILE.read_text())
    configs = pseudo_block_configs()
    assert set(pinned) == {c.id() for c in configs}
    got = {c.id(): counts_of(c, digests=True)["sha1"] for c in configs}
    assert got == pinned


@pytest.mark.slow
@pytest.mark.parametrize("cfg", FULL, ids=Config.id)
def test_conformance_full(cfg):
    out = assert_conforms(cfg)
    assert out.ok, f"{cfg.id()}: {out.failures}"


@settings(max_examples=10, deadline=None)
@given(method=st.sampled_from(sorted(SOLVERS)),
       variant=st.sampled_from(["left", "right"]),
       p=st.integers(1, 4), complex_=st.booleans(),
       strategy=st.sampled_from(["A", "B"]),
       seed=st.integers(0, 2**31 - 1))
def test_property_random_config_conforms(method, variant, p, complex_,
                                         strategy, seed):
    """Any valid cell of the (extended) matrix satisfies the oracles."""
    if not SOLVERS[method]["block"]:
        p = 1
    cfg = Config(method, variant=variant,
                 dtype=np.complex128 if complex_ else np.float64,
                 p=p, strategy=strategy, seed=seed)
    out = assert_conforms(cfg)
    assert out.ok, f"{cfg.id()} (seed {seed}): {out.failures}"


def _leaky_slab_matmul(basis, c):
    """``basis @ c`` minus ``1e-3 basis[:, :1]``: the step's update
    ``w - basis @ c`` leaks a component of the basis back into the block
    once the basis is nontrivial."""
    out = slab_matmul(basis, c)
    if basis.shape[1] >= 2:
        out = out - 1e-3 * basis[:, :1]
    return out


class TestMutationSmoke:
    """Injected defects must trip the checker (checker-of-the-checker)."""

    def _solve(self, method, p, verify):
        cfg = Config(method, p=p)
        a, b, m = make_problem(cfg)
        return solve(a, b, m, options=cfg.options(verify=verify))

    def test_orthogonality_mutation_detected(self, monkeypatch):
        """Leak a component of the basis back into the orthogonalized block.

        Emulates a buggy block orthogonalization (the classic CGS failure
        mode) in the update ``w - [C_k | V] c`` of the default ``cgs``
        engine's step: ``verify=full`` must catch it via the
        basis-orthonormality / Arnoldi-relation checks inside the block
        Arnoldi cycle.
        """
        monkeypatch.setattr(ortho_mod, "slab_matmul", _leaky_slab_matmul)
        with pytest.raises(InvariantViolation):
            self._solve("bgmres", p=3, verify="full")
        with pytest.raises(InvariantViolation):
            self._solve("bgcrodr", p=3, verify="full")

    def test_mutation_unnoticed_without_verify(self, monkeypatch):
        """The same defect sails through silently at verify=off — which is
        exactly why the checker exists."""
        monkeypatch.setattr(ortho_mod, "slab_matmul", _leaky_slab_matmul)
        res = self._solve("bgmres", p=3, verify="off")
        assert "verify" not in res.info  # no checker, no report

    def test_corrupt_recycled_space_detected_on_same_system_skip(self):
        """A stale/corrupt recycled pair adopted under the same-system skip
        (Fig. 1 lines 3-7 skipped) must be caught by the adoption check."""
        from repro.krylov.recycling import RecycledSubspace

        cfg = Config("gcrodr", p=1)
        a, b, m = make_problem(cfg)
        o = cfg.options(verify="full")
        res = solve(a, b, m, options=o)
        space = res.info["recycle"]
        assert space is not None and space.k > 0
        bad = RecycledSubspace(space.u + 0.01, space.c, op_tag=space.op_tag)
        with pytest.raises(InvariantViolation):
            solve(a, b + 1.0, m, options=o, recycle=bad, same_system=True)
        # cheap level checks C^H C only; corrupting C fires there too
        bad_c = RecycledSubspace(space.u, space.c * 1.01, op_tag=space.op_tag)
        o_cheap = cfg.options(verify="cheap")
        with pytest.raises(InvariantViolation):
            solve(a, b + 1.0, m, options=o_cheap, recycle=bad_c,
                  same_system=True)

    def test_same_system_decision_mutation_detected(self, monkeypatch):
        """A same-system decision that always answers "same" trusts the
        pair across an operator change; the adoption check must catch it.
        Unpatched, the second operator's fingerprint re-derives the pair."""
        import scipy.sparse as sp

        from repro import Solver
        from repro.krylov import recycling

        cfg = Config("gcrodr", p=1)
        a, b, m = make_problem(cfg)
        a2 = (a + sp.diags(np.linspace(0.0, 2.0, a.shape[0]))).tocsr()
        o = cfg.options(verify="full")
        s = Solver(m, options=o)
        s.solve(a, b)
        assert not s.solve(a2, b).info["same_system"]
        monkeypatch.setattr(recycling, "same_system",
                            lambda *args, **kwargs: True)
        s = Solver(m, options=o)
        s.solve(a, b)
        with pytest.raises(InvariantViolation):
            s.solve(a2, b)

    def test_false_convergence_mutation_detected(self):
        """A solver lying about its final residual must be caught by the
        api-level reported-vs-true check."""
        cfg = Config("gmres", p=2)
        a, b, m = make_problem(cfg)
        chk = InvariantChecker("cheap", raise_on_violation=False)
        with activate(chk):
            res = solve(a, b, m, options=cfg.options(verify="off"))
        # replay the api-level check against a corrupted solution
        chk2 = InvariantChecker("cheap")
        x_bad = np.asarray(res.x) + 1.0
        with pytest.raises(InvariantViolation):
            chk2.check_final_residual(a, x_bad, b,
                                      res.history.records[-1], 1e-8,
                                      converged=res.converged)
