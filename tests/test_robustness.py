"""Robustness and stress tests: scaling extremes, dtypes, nasty inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Options, Solver, solve
from repro.krylov.base import Operator
from repro.service import AsyncSolveService, SolveService
from repro.trace import Tracer
from repro.trace import install as trace_install

from conftest import (make_rng, laplacian_1d, laplacian_2d,
                      relative_residuals)


class TestScalingExtremes:
    """Solvers must be invariant to uniform rescaling of A and b."""

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    @pytest.mark.parametrize("method,extra", [
        ("gmres", {}), ("gcrodr", {"recycle": 5}), ("bgmres", {}),
    ])
    def test_matrix_scaling(self, rng, scale, method, extra):
        a = laplacian_1d(150, shift=0.5)
        b = rng.standard_normal((150, 2))
        ref = solve(a, b, options=Options(krylov_method=method,
                                          gmres_restart=20, tol=1e-8,
                                          max_it=3000, **extra))
        scaled = solve(sp.csr_matrix(a * scale), b * scale,
                       options=Options(krylov_method=method,
                                       gmres_restart=20, tol=1e-8,
                                       max_it=3000, **extra))
        assert scaled.converged.all()
        assert abs(scaled.iterations - ref.iterations) <= 2
        assert np.allclose(scaled.x, ref.x, rtol=1e-5)

    def test_rhs_scaling_only(self, rng):
        a = laplacian_1d(100, shift=0.5)
        b = rng.standard_normal(100)
        r1 = solve(a, b, options=Options(tol=1e-9))
        r2 = solve(a, 1e9 * b, options=Options(tol=1e-9))
        assert r2.converged.all()
        assert np.allclose(r2.x, 1e9 * r1.x, rtol=1e-6)

    def test_float32_input_promoted(self, rng):
        a = laplacian_1d(80, shift=0.5).astype(np.float32)
        b = rng.standard_normal(80).astype(np.float32)
        res = solve(a, b, options=Options(tol=1e-8))
        assert res.converged.all()
        assert res.x.dtype == np.float64

    def test_mixed_real_complex(self, rng):
        a = laplacian_1d(90, shift=0.5)          # real operator
        b = rng.standard_normal(90) + 1j * rng.standard_normal(90)
        res = solve(a, b, options=Options(tol=1e-9))
        assert res.converged.all()
        assert np.iscomplexobj(res.x)
        assert relative_residuals(a, res.x, b)[0] < 1e-8


class TestDegenerateInputs:
    def test_all_zero_rhs_block(self):
        a = laplacian_1d(40, shift=0.5)
        for method, extra in [("gmres", {}), ("bgmres", {}),
                              ("gcrodr", {"recycle": 5}),
                              ("bgcrodr", {"recycle": 5})]:
            res = solve(a, np.zeros((40, 3)),
                        options=Options(krylov_method=method,
                                        gmres_restart=20, tol=1e-8, **extra))
            assert res.converged.all()
            assert np.allclose(res.x, 0)

    def test_one_by_one_system(self):
        a = sp.csr_matrix(np.array([[4.0]]))
        res = solve(a, np.array([8.0]), options=Options(tol=1e-12))
        assert res.converged.all()
        assert np.isclose(res.x[0], 2.0)

    def test_tiny_system_all_methods(self, rng):
        a = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]) + 0.1)
        b = rng.standard_normal(3)
        for method, extra in [("gmres", {}), ("lgmres", {"recycle": 1}),
                              ("gcrodr", {"gmres_restart": 3, "recycle": 1}),
                              ("gmresdr", {"gmres_restart": 3, "recycle": 1})]:
            o = dict(krylov_method=method, tol=1e-10, max_it=100)
            o.update(extra)
            res = solve(a, b, options=Options(**o))
            assert res.converged.all(), method

    def test_exact_initial_guess_every_method(self, rng):
        a = laplacian_1d(50, shift=0.5)
        x_true = rng.standard_normal(50)
        b = a @ x_true
        for method, extra in [("gmres", {}), ("bgmres", {}),
                              ("gcrodr", {"recycle": 5})]:
            res = solve(a, b, options=Options(krylov_method=method,
                                              gmres_restart=20, tol=1e-8,
                                              **extra), x0=x_true)
            assert res.converged.all(), method
            assert res.iterations == 0, method

    def test_identity_operator(self, rng):
        n = 30
        op = Operator((n, n), np.float64, lambda x: x, nnz=n)
        b = rng.standard_normal(n)
        res = solve(op, b, options=Options(tol=1e-12))
        assert res.iterations <= 1
        assert np.allclose(res.x, b)

    def test_highly_nonnormal_matrix(self, rng):
        """Strongly nonsymmetric Jordan-ish block: GMRES must still work."""
        n = 60
        a = sp.diags([np.full(n, 2.0), np.full(n - 1, 1.9)], [0, 1]).tocsr()
        b = rng.standard_normal(n)
        res = solve(a, b, options=Options(gmres_restart=60, tol=1e-10,
                                          max_it=600))
        assert res.converged.all()
        assert relative_residuals(a, res.x, b)[0] < 1e-9


class TestSequenceRobustness:
    def test_alternating_operators(self, rng):
        """Solver must re-detect same-system correctly when A alternates."""
        n = 150
        a1 = laplacian_1d(n, shift=0.2)
        a2 = laplacian_1d(n, shift=0.7)
        s = Solver(options=Options(krylov_method="gcrodr", gmres_restart=20,
                                   recycle=5, tol=1e-8, max_it=4000))
        for a in (a1, a2, a1, a1, a2):
            res = s.solve(a, rng.standard_normal(n))
            assert res.converged.all()
        flags = [r.info["same_system"] for r in s.results]
        assert flags == [False, False, False, True, False]

    def test_width_change_resets_pseudo_block_recycle(self, rng):
        """Changing the RHS width mid-sequence must not crash."""
        a = laplacian_1d(120, shift=0.3)
        s = Solver(options=Options(krylov_method="gcrodr", gmres_restart=20,
                                   recycle=5, tol=1e-8, max_it=4000))
        r1 = s.solve(a, rng.standard_normal((120, 2)))
        r2 = s.solve(a, rng.standard_normal(120))        # p changes 2 -> 1
        r3 = s.solve(a, rng.standard_normal((120, 3)))   # 1 -> 3
        assert all(r.converged.all() for r in (r1, r2, r3))

    def test_long_sequence_stays_stable(self, rng):
        """20 recycled solves: iterations must not blow up over time."""
        a = laplacian_1d(300)
        s = Solver(options=Options(krylov_method="gcrodr", gmres_restart=30,
                                   recycle=10, tol=1e-8, max_it=8000,
                                   recycle_same_system=True))
        its = [s.solve(a, rng.standard_normal(300)).iterations
               for _ in range(20)]
        assert all(r.converged.all() for r in s.results)
        late = np.mean(its[10:])
        early = np.mean(its[1:4])
        assert late <= 1.5 * early
        # recycled solves stay well below the cold first solve
        assert late < 0.9 * its[0]


class TestDoorValidation:
    """A malformed right-hand side or initial guess is refused before it is
    solved or queued: inside a solver a NaN column can only be frozen
    unconverged (pseudo-block, see :class:`TestNonFiniteColumn`), and it
    poisons every column of a block method's Gram matrices."""

    METHODS = [("gmres", {}), ("gcrodr", {"gmres_restart": 30, "recycle": 10}),
               ("bgmres", {}),
               ("bgcrodr", {"gmres_restart": 30, "recycle": 10})]

    @staticmethod
    def _bad_inputs(n, rng):
        good = rng.standard_normal((n, 3))
        nan_b, inf_b = good.copy(), good.copy()
        nan_b[5, 1] = np.nan
        inf_b[0, 2] = -np.inf
        nan_x0 = np.zeros((n, 3))
        nan_x0[n - 1, 0] = np.nan
        return good, [
            (nan_b, None, "b column 1 holds a non-finite"),
            (inf_b, None, "b column 2 holds a non-finite"),
            (good, nan_x0, "x0 column 0 holds a non-finite"),
            (good[:-1], None, f"operator's {n} rows"),
            (good.astype(object), None, "non-numeric dtype"),
        ]

    def test_solve_and_solver_raise_naming_the_column(self, rng):
        a = laplacian_1d(40, shift=0.3)
        _, bad = self._bad_inputs(40, rng)
        s = Solver(options=Options(krylov_method="gcrodr", recycle=4))
        for b, x0, match in bad:
            with pytest.raises(ValueError, match=match):
                solve(a, b, x0=x0)
            with pytest.raises(ValueError, match=match):
                s.solve(a, b, x0=x0)
        with pytest.raises(ValueError, match="b column 0"):
            solve(a, np.full(40, np.nan), shifts=[0.1, 0.2])
        assert s.results == []

    def test_sync_service_refuses_before_queueing(self, rng):
        a = laplacian_1d(40, shift=0.3)
        good, bad = self._bad_inputs(40, rng)
        svc = SolveService(options=Options(service_flush="explicit"))
        for b, x0, match in bad:
            with pytest.raises(ValueError, match=match):
                svc.submit(a, b, x0=x0)
        with pytest.raises(ValueError, match="b column 0"):
            svc.submit(a, np.full(40, np.inf), shifts=[0.1, 0.2])
        assert svc.pending == 0
        req = svc.submit(a, good)
        assert req.index == 0       # a refused submit takes no request index
        svc.flush()
        assert req.result.converged.all()

    def test_async_service_rejects_and_keeps_going(self, rng):
        a = laplacian_1d(40, shift=0.3)
        good, bad = self._bad_inputs(40, rng)
        tr = Tracer()
        with trace_install(tr):
            svc = AsyncSolveService(options=Options(service_mode="async"))
            refused = [svc.submit(a, b, x0=x0) for b, x0, _ in bad]
            refused.append(svc.submit(a, np.full(40, np.nan),
                                      shifts=[0.1]))
            ok = svc.submit(a, good)
            svc.drain()
        assert [r.rejected for r in refused] == ["invalid_input"] * 6
        assert svc.rejections == refused and not any(r.done for r in refused)
        assert ok.rejected is None and ok.result.converged.all()
        with pytest.raises(RuntimeError, match="invalid_input"):
            svc.result(refused[0])
        assert tr.metrics.counter("service_rejected_total").value(
            reason="invalid_input") == 6

    @pytest.mark.parametrize("method,extra", METHODS,
                             ids=[m for m, _ in METHODS])
    def test_one_nan_tenant_cannot_hurt_its_batch(self, method, extra):
        """ROADMAP 3a's reproduction: four tenants on the 24 x 24 Laplacian,
        one right-hand side holding a single NaN.  It used to hang ``gmres``
        / ``gcrodr`` and raise ``LinAlgError`` out of ``flush()`` for the
        block methods, losing all four answers."""
        a = laplacian_2d(24)
        n = a.shape[0]
        rng = make_rng(24)
        bs = [rng.standard_normal(n) for _ in range(4)]
        bs[1][7] = np.nan
        o = Options(krylov_method=method, max_it=300,
                    service_flush="explicit", **extra)
        clean = SolveService(options=o)
        expected = [clean.submit(a, b) for b in bs if np.isfinite(b).all()]
        clean.flush()
        svc = SolveService(options=o)
        healthy = []
        for b in bs:
            if np.isfinite(b).all():
                healthy.append(svc.submit(a, b))
            else:
                with pytest.raises(ValueError, match="non-finite"):
                    svc.submit(a, b)
        svc.flush()
        assert len(healthy) == 3
        for req, ref in zip(healthy, expected):
            assert req.result.converged.all()
            assert np.array_equal(req.result.x, ref.result.x)


#: the child of TestNonFiniteColumn: each case's faulty solve runs under a
#: 5 s faulthandler watchdog (exit code 1 and a traceback on a hang), then
#: the same solve with a preconditioner that never writes NaN
_NAN_CHILD = r"""
import faulthandler, json, sys
import numpy as np, scipy.sparse as sp
from repro import Options, solve

n, p = 50, 3
a = sp.diags([-1.4 * np.ones(n - 1), 4.0 * np.ones(n), -0.6 * np.ones(n - 1)],
             [-1, 0, 1]).tocsr()
b = np.random.default_rng(7).standard_normal((n, p))

def run(method, variant, call, every, faulty):
    calls = [0]
    def m(x):
        calls[0] += 1
        y = np.array(x, copy=True) / 4.0
        if faulty and (calls[0] >= call if every else calls[0] == call):
            y[:, 1] = np.nan
        return y
    extra = {"recycle": 3} if method == "gcrodr" else {}
    return solve(a, b, m, options=Options(
        krylov_method=method, variant=variant, tol=1e-10, max_it=200,
        gmres_restart=8, **extra))

out = []
for case in json.loads(sys.argv[1]):
    faulthandler.dump_traceback_later(5, exit=True)
    bad = run(*case, True)
    faulthandler.cancel_dump_traceback_later()
    good = run(*case, False)
    out.append({"converged": bad.converged.tolist(),
                "healthy_equal": bool(np.array_equal(bad.x[:, [0, 2]],
                                                     good.x[:, [0, 2]])),
                "finite": np.isfinite(bad.x).all(axis=0).tolist()})
print(json.dumps(out))
"""


class TestNonFiniteColumn:
    """A preconditioner that writes NaN into one column *inside* a
    pseudo-block solve (the door cannot see it): that column is frozen at
    its last finite step and returns ``converged=False``, the loop ends when
    no column can advance, and the healthy columns are bit-identical to the
    fault-free solve.  It used to raise out of ``solve_triangular``'s
    finiteness check (NaN in the Hessenberg) or spin forever (NaN in every
    restart residual: the column is never active, ``total_it`` never
    advances).  The solves run in a child under a watchdog, so a
    regression fails in seconds rather than at the suite's timeout."""

    #: (method, variant, preconditioner call, every call from then on)
    CASES = [(method, variant, call, every)
             for method in ("gmres", "gcrodr")
             for variant, call, every in (("right", 3, False),
                                          ("left", 10, True))]

    def test_nan_column_is_frozen_and_contained(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", _NAN_CHILD, json.dumps(self.CASES)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        for case, got in zip(self.CASES, json.loads(proc.stdout)):
            assert got["converged"] == [True, False, True], case
            assert got["healthy_equal"], case
            assert got["finite"][0] and got["finite"][2], case


@settings(max_examples=15, deadline=None)
@given(n=st.integers(10, 100), shift=st.floats(0.05, 2.0),
       scale=st.floats(1e-6, 1e6), seed=st.integers(0, 2**31 - 1))
def test_property_solution_correctness_under_scaling(n, shift, scale, seed):
    rng = make_rng(seed)
    a = sp.csr_matrix(laplacian_1d(n, shift=shift) * scale)
    b = rng.standard_normal(n)
    res = solve(a, b, options=Options(gmres_restart=min(30, n), tol=1e-9,
                                      max_it=80 * n))
    assert res.converged.all()
    assert relative_residuals(a, res.x, b)[0] < 1e-8
