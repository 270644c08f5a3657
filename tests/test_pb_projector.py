"""The BLAS pseudo-block projector cores against the einsum oracle.

The ``_pb_step_*`` cores of ``repro.la.orthogonalization`` contract column
l's basis with one GEMV per column (batched ``np.matmul`` on the
``(p, i, n)`` view of the ``(cols, p, n)``-stored tensor); the einsum cores
they replaced live on in ``tests/fixtures/reference_pb_projector.py``.
Results agree to rounding, the orthogonalizer's ledger counts are identical,
and — because ``np.matmul`` falls back to a scalar loop *silently* on a
stride BLAS cannot take — the storage layout is asserted here, for all
three pseudo-block solvers, not assumed.  (The ``einsum-3d`` lint rule that
keeps the slow contraction out of ``src/`` is tested with the other lint
rules in ``tests/test_plan.py``.)
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.la.orthogonalization as ortho
from repro import Options, solve
from repro.la.orthogonalization import (ORTHO_SCHEME_NAMES,
                                        PseudoBlockOrthogonalizer,
                                        pseudo_block_tensor)
from repro.util import ledger
from repro.util.ledger import CostLedger

from conftest import make_rng
from fixtures.reference_pb_projector import CORES


def _block(rng, n, p, complex_):
    x = rng.standard_normal((n, p))
    return x + 1j * rng.standard_normal((n, p)) if complex_ else x


def _run(scheme, n, p, depth, complex_, frozen, seed, *, reference):
    """Drive ``depth`` orthogonalizer steps; columns in ``frozen`` start at
    zero and stay zero, as a converged pseudo-block column does."""
    dtype = np.complex128 if complex_ else np.float64
    rng = make_rng(seed, n, p)
    orth = PseudoBlockOrthogonalizer(scheme, n=n, p=p, dtype=dtype,
                                     max_cols=depth + 1)
    v = pseudo_block_tensor(depth + 1, n, p, dtype)
    v0 = _block(rng, n, p, complex_)
    v0[:, frozen] = 0.0
    live = ~np.isin(np.arange(p), frozen)
    v[0][:, live] = v0[:, live] / np.linalg.norm(v0[:, live], axis=0)
    saved = {name: getattr(ortho, name) for name in CORES}
    if reference:
        for name, core in CORES.items():
            setattr(ortho, name, core)
    out = []
    led = CostLedger()
    try:
        with ledger.install(led):
            orth.begin(v[:1])
            for j in range(depth):
                w = _block(rng, n, p, complex_)
                w[:, frozen] = 0.0
                w2, dots, nrm = orth.step(v[: j + 1], w, j)
                out.append((np.array(w2), np.array(dots), np.array(nrm)))
                ok = live & (nrm > 0)
                v[j + 1][:, ok] = w2[:, ok] / nrm[ok]
                orth.commit(ok)
    finally:
        for name, core in saved.items():
            setattr(ortho, name, core)
    return out, led.counts()


@pytest.mark.parametrize("scheme", ORTHO_SCHEME_NAMES)
@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([1, 3, 4, 16, 40]), p=st.sampled_from([1, 3, 4, 16]),
       depth=st.integers(1, 6), complex_=st.booleans(),
       nfrozen=st.integers(0, 2), seed=st.integers(0, 2**31 - 1))
def test_blas_cores_match_einsum_oracle(scheme, n, p, depth, complex_,
                                        nfrozen, seed):
    depth = min(depth, n)                 # a basis deeper than n is degenerate
    frozen = np.arange(min(nfrozen, p - 1))
    got, counts = _run(scheme, n, p, depth, complex_, frozen, seed,
                       reference=False)
    want, ref_counts = _run(scheme, n, p, depth, complex_, frozen, seed,
                            reference=True)
    # same charges, to the byte — except that a complete basis (depth = n)
    # leaves a remainder of pure rounding noise, on which cgs2_1r's
    # cancellation guard (the one data-dependent charge) is a coin toss
    if depth < n or scheme != "cgs2_1r":
        assert counts == ref_counts
    for j, ((w2, dots, nrm), (rw2, rdots, rnrm)) in enumerate(zip(got, want)):
        assert w2.shape == rw2.shape and dots.shape == rdots.shape
        scale = max(np.linalg.norm(rw2), np.linalg.norm(rdots), 1.0)
        # the step against a complete basis (j + 1 = n) projects a vector
        # onto its own span: both cores return rounding noise, which agrees
        # only to a few hundred ulps (cholqr2: 1.3e-13 seen at n = p = 4)
        tol = 1e-12 if j + 1 == n else 1e-13
        assert np.linalg.norm(w2 - rw2) <= tol * scale
        assert np.linalg.norm(dots - rdots) <= tol * scale
        # a cancelled remainder's norm is only as good as the remainder
        assert np.linalg.norm(nrm - rnrm) <= tol * scale
        assert not np.any(w2[:, frozen]) and not np.any(dots[:, frozen])


def test_tensor_layout_is_what_blas_needs():
    t = pseudo_block_tensor(5, 7, 3, np.float64)
    assert t.shape == (5, 7, 3) and not t.any()
    assert t.transpose(0, 2, 1).flags["C_CONTIGUOUS"]      # stored (cols, p, n)
    for l in range(3):
        col = t[:4, :, l]                                  # i x n, unit stride
        assert col.strides == (3 * 7 * 8, 8)
    bt = t[:4].transpose(2, 0, 1)                          # what matmul reads
    assert bt.strides[2] == t.itemsize and bt.strides[1] % t.itemsize == 0


@pytest.mark.parametrize("method,p", [("gmres", 3), ("gcrodr", 3)])
@pytest.mark.parametrize("scheme", ["cgs", "cgs2_1r", "sketched"])
def test_every_pseudo_block_solver_hands_the_cores_a_blas_layout(
        monkeypatch, method, p, scheme):
    """gmres and pgcrodr (folded ``[C | V]`` prefix included): the basis
    every step sees has unit stride along n in each column."""
    seen = []
    real_step = PseudoBlockOrthogonalizer.step

    def step(self, basis, w, j):
        seen.append((basis.shape, basis.strides, basis.itemsize))
        if self.scheme == "sketched":
            qs = self._qs[: j + 1]
            seen.append((qs.shape, qs.strides, qs.itemsize))
        return real_step(self, basis, w, j)

    monkeypatch.setattr(PseudoBlockOrthogonalizer, "step", step)
    n = 60
    a = sp.diags([-np.ones(n - 1), 2.05 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1]).tocsr()
    b = make_rng(3, p).standard_normal((n, p))
    res = solve(a, b, options=Options(
        krylov_method=method, gmres_restart=12, recycle=4,
        orthogonalization=scheme, tol=1e-8, max_it=600))
    # (sketched pgcrodr stalls on this system, at the parent commit too)
    assert np.all(res.converged) or scheme == "sketched"
    assert len(seen) > 12                     # restarted at least once
    for shape, strides, itemsize in seen:
        assert shape[2] == p
        assert strides[1] == itemsize             # unit stride along n
        assert strides[0] % itemsize == 0 and strides[0] >= shape[1] * itemsize

