"""Tests for the runtime invariant checker (:mod:`repro.verify`)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import Options, solve
from repro.util import ledger
from repro.util.options import parse_hpddm_args
from repro.verify import (NULL_CHECKER, InvariantChecker, InvariantViolation,
                          activate, checker_for, current)

from conftest import laplacian_1d, make_rng


def _arnoldi(a, v0, steps):
    """Reference MGS Arnoldi: returns (V_{m+1}, Hbar_m)."""
    n = v0.shape[0]
    v = np.zeros((n, steps + 1))
    hbar = np.zeros((steps + 1, steps))
    v[:, 0] = v0 / np.linalg.norm(v0)
    for j in range(steps):
        w = a @ v[:, j]
        for i in range(j + 1):
            hbar[i, j] = v[:, i] @ w
            w = w - hbar[i, j] * v[:, i]
        hbar[j + 1, j] = np.linalg.norm(w)
        v[:, j + 1] = w / hbar[j + 1, j]
    return v, hbar


class TestCheckerCore:

    def test_rejects_off_level(self):
        with pytest.raises(ValueError):
            InvariantChecker("off")
        with pytest.raises(ValueError):
            InvariantChecker("sometimes")

    def test_violation_is_floating_point_error(self):
        err = InvariantViolation("orthonormality", 1.0, 1e-6, "basis")
        assert isinstance(err, FloatingPointError)
        assert "orthonormality" in str(err) and "basis" in str(err)

    def test_orthonormality_pass_and_fire(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((40, 6)))
        chk = InvariantChecker("full")
        chk.check_orthonormality(q)
        assert chk.drifts["orthonormality"] < 1e-12
        q[:, 2] += 1e-3 * q[:, 0]
        with pytest.raises(InvariantViolation):
            chk.check_orthonormality(q)

    def test_orthonormality_trims_breakdown_columns(self, rng):
        # pseudo-block solvers leave v_{j+1} zero after a lucky breakdown
        q, _ = np.linalg.qr(rng.standard_normal((40, 6)))
        padded = np.concatenate([q, np.zeros((40, 2))], axis=1)
        InvariantChecker("full").check_orthonormality(padded)

    def test_cheap_level_skips_full_checks(self, rng):
        chk = InvariantChecker("cheap")
        assert not chk.wants_full
        chk.check_orthonormality(rng.standard_normal((10, 3)))  # no-op
        assert chk.n_checks == 0

    def test_arnoldi_relation_pass_and_fire(self, rng):
        a = laplacian_1d(60).toarray()
        v, hbar = _arnoldi(a, rng.standard_normal(60), 8)
        chk = InvariantChecker("full")
        chk.check_arnoldi(lambda z: a @ z, v[:, :8], v, hbar)
        assert chk.drifts["arnoldi_residual"] < 1e-12
        bad = hbar.copy()
        bad[0, 0] += 1e-2
        with pytest.raises(InvariantViolation):
            chk.check_arnoldi(lambda z: a @ z, v[:, :8], v, bad)

    def test_projected_arnoldi_with_ck(self, rng):
        # A Z = C E + V Hbar: run Arnoldi on the projected operator
        a = laplacian_1d(60).toarray()
        c, _ = np.linalg.qr(rng.standard_normal((60, 3)))
        steps = 6
        v = np.zeros((60, steps + 1))
        hbar = np.zeros((steps + 1, steps))
        e = np.zeros((3, steps))
        r0 = rng.standard_normal(60)
        r0 -= c @ (c.T @ r0)
        v[:, 0] = r0 / np.linalg.norm(r0)
        for j in range(steps):
            az = a @ v[:, j]
            e[:, j] = c.T @ az
            w = az - c @ e[:, j]
            for i in range(j + 1):
                hbar[i, j] = v[:, i] @ w
                w = w - hbar[i, j] * v[:, i]
            hbar[j + 1, j] = np.linalg.norm(w)
            v[:, j + 1] = w / hbar[j + 1, j]
        chk = InvariantChecker("full")
        chk.check_arnoldi(lambda z: a @ z, v[:, :steps], v, hbar, ck=c, ek=e)
        assert chk.drifts["arnoldi_residual"] < 1e-12

    def test_recycle_pass_and_fire(self, rng):
        a = laplacian_1d(50).toarray()
        c, _ = np.linalg.qr(a @ rng.standard_normal((50, 4)))
        u = np.linalg.solve(a, c)  # exact A U = C
        chk = InvariantChecker("full")
        chk.check_recycle(u, c, op_apply=lambda z: a @ z)
        assert chk.drifts["recycle_map"] < 1e-10
        with pytest.raises(InvariantViolation):
            chk.check_recycle(rng.standard_normal((50, 4)), c + 0.01,
                              op_apply=lambda z: a @ z)

    def test_recycle_empty_is_noop(self):
        chk = InvariantChecker("full")
        chk.check_recycle(None, None)
        chk.check_recycle(np.zeros((10, 0)), np.zeros((10, 0)))
        assert chk.n_checks == 0

    def test_cheap_recycle_checks_orthonormality_only(self, rng):
        c, _ = np.linalg.qr(rng.standard_normal((30, 3)))
        chk = InvariantChecker("cheap")
        calls = []
        chk.check_recycle(rng.standard_normal((30, 3)), c,
                          op_apply=lambda z: calls.append(1) or z)
        assert "recycle_orthonormality" in chk.drifts
        assert "recycle_map" not in chk.drifts and not calls

    def test_residual_gap_and_false_convergence(self):
        rhs = np.array([2.0, 2.0])
        chk = InvariantChecker("cheap")
        chk.check_residual_gap(np.array([1e-9, 1e-8]),
                               np.array([1.00001e-9, 1e-8]), rhs)
        with pytest.raises(InvariantViolation):
            chk.check_residual_gap(np.array([1e-9, 1.0]),
                                   np.array([1e-9, 1.5]), rhs)
        # false convergence: reported below target, true far above
        chk2 = InvariantChecker("cheap")
        with pytest.raises(InvariantViolation) as exc:
            chk2.check_residual_gap(np.array([1e-12]), np.array([1e-4]),
                                    np.array([1.0]),
                                    targets=np.array([1e-10]))
        assert exc.value.name in ("residual_gap", "false_convergence")

    def test_record_without_raise(self, rng):
        chk = InvariantChecker("full", raise_on_violation=False)
        chk.check_orthonormality(rng.standard_normal((20, 4)))
        rep = chk.report()
        assert rep["violations"] and rep["level"] == "full"
        assert rep["max_drift"]["orthonormality"] > 1e-6

    def test_checks_do_not_pollute_ledger(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((40, 6)))
        with ledger.install() as led:
            InvariantChecker("full").check_orthonormality(q)
        assert led.reductions == 0 and led.total_flops() == 0


class TestCheckerResolution:

    def test_checker_for_off_returns_null(self):
        chk = checker_for(Options())
        assert chk is NULL_CHECKER and chk.is_off
        # every hook is a silent no-op
        chk.check_orthonormality(np.ones((3, 3)))
        chk.check_recycle(np.ones((3, 3)), np.ones((3, 3)))
        assert chk.report()["checks"] == 0

    def test_checker_for_builds_from_options(self):
        chk = checker_for(Options(verify="cheap"), context="t")
        assert chk.level == "cheap" and chk.context == "t"

    def test_ambient_checker_takes_precedence(self):
        amb = InvariantChecker("full", context="ambient")
        with activate(amb):
            assert current() is amb
            assert checker_for(Options(verify="cheap")) is amb
            assert checker_for(Options()) is amb
        assert current() is NULL_CHECKER
        assert checker_for(Options(verify="full")) is not amb


class TestOptionsIntegration:

    def test_verify_option_validation(self):
        from repro.util.options import OptionError
        assert Options(verify="cheap").verify == "cheap"
        with pytest.raises(OptionError):
            Options(verify="loud")

    def test_hpddm_args_roundtrip(self):
        o = parse_hpddm_args(["-hpddm_verify", "full"])
        assert o.verify == "full"
        assert "-hpddm_verify" in o.hpddm_args()
        assert "-hpddm_verify" not in Options().hpddm_args()


class TestSolveIntegration:

    def _problem(self, p=2):
        a = laplacian_1d(100, shift=0.2)
        b = make_rng(7).standard_normal((100, p))
        return a, b

    @pytest.mark.parametrize("level", ["cheap", "full"])
    def test_solve_attaches_report(self, level):
        a, b = self._problem()
        res = solve(a, b, options=Options(krylov_method="gmres", tol=1e-8,
                                          verify=level))
        rep = res.info["verify"]
        assert rep["level"] == level and rep["checks"] > 0
        assert rep["violations"] == []
        assert "residual_gap" in rep["max_drift"]

    def test_solve_off_has_no_report(self):
        a, b = self._problem()
        res = solve(a, b, options=Options(krylov_method="gmres", tol=1e-8))
        assert "verify" not in res.info

    def test_verify_does_not_change_ledger(self):
        a, b = self._problem()
        counts = []
        for level in ("off", "full"):
            with ledger.install() as led:
                solve(a, b, options=Options(krylov_method="gmres", tol=1e-8,
                                            verify=level))
            counts.append(led.counts())
        assert counts[0] == counts[1]

    def test_check_final_residual_detects_wrong_solution(self, rng):
        a, b = self._problem(p=1)
        chk = InvariantChecker("cheap")
        with pytest.raises(InvariantViolation):
            chk.check_final_residual(a, rng.standard_normal((100, 1)), b,
                                     np.array([1e-10]), 1e-8,
                                     converged=np.array([True]))
