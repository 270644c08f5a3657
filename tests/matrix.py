"""Shared generator for the solver conformance matrix.

One place defines the axes (solver x preconditioning variant x dtype x
block size x recycle strategy), how a configuration maps to
``Options``, and the derived-property oracles every configuration must
satisfy.  ``test_conformance_matrix.py`` sweeps the matrix; other tests can
import :func:`make_problem` / :func:`assert_conforms` for single configs.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro import Options, solve
from repro.krylov.base import true_residual_norms
from repro.trace.tracer import Tracer, install
from repro.util import ledger
from repro.util.ledger import CostLedger

from conftest import make_rng

#: solvers under test and whether they recycle / accept blocks
SOLVERS = {
    "gmres":   {"recycles": False, "block": True},
    "bgmres":  {"recycles": False, "block": True},
    "gcrodr":  {"recycles": True, "block": True},   # dispatches pgcrodr for p>1
    "bgcrodr": {"recycles": True, "block": True},
    "gmresdr": {"recycles": True, "block": False},
}

VARIANTS = ("left", "right")
DTYPES = (np.float64, np.complex128)
BLOCK_SIZES = (1, 3)
STRATEGIES = ("A", "B")


@dataclass(frozen=True)
class Config:
    """One cell of the conformance matrix."""

    method: str
    variant: str = "right"
    dtype: type = np.float64
    p: int = 1
    strategy: str = "A"
    precond: bool = True
    seed: int = 0
    ortho: str = "cgs"
    #: route the solve through the service front end: None = direct
    #: ``repro.solve``, "sync"/"async" = the matching ``make_service``
    service_mode: str | None = None
    #: number of shifts for a shifted-family solve (0 = scalar solve);
    #: family configs are unpreconditioned (the engine rejects ``m``)
    shifts: int = 0
    #: steps of an adaptive-dt heat sequence driven through the service
    #: (0 = not a sequence config)
    sequence: int = 0

    def id(self) -> str:
        dt = "c128" if self.dtype is np.complex128 else "f64"
        pc = self.variant if self.precond else "none"
        # "fused" is a constant: the segment outlived the exec-mode axis so
        # that the pinned keys and test ids of the surviving cells stay put
        base = f"{self.method}-{pc}-fused-{dt}-p{self.p}-{self.strategy}"
        if self.ortho != "cgs":
            base += f"-{self.ortho}"
        if self.service_mode is not None:
            base += f"-svc_{self.service_mode}"
        if self.shifts:
            base += f"-sh{self.shifts}"
        if self.sequence:
            base += f"-seq{self.sequence}"
        return base

    def options(self, *, verify: str = "full", tol: float = 1e-8,
                restart: int = 20) -> Options:
        kw = {}
        if self.method == "lgmres":     # pinned baseline only: LGMRES(m, k)
            kw["recycle"] = restart // 4
        elif SOLVERS[self.method]["recycles"]:
            kw = {"recycle": restart // 4, "recycle_strategy": self.strategy}
        if self.service_mode is not None:
            kw["service_mode"] = self.service_mode
            if self.service_mode == "async":
                kw["service_shards"] = 2  # exercise the sharded cache
        return Options(krylov_method=self.method, gmres_restart=restart,
                       tol=tol, max_it=2000, variant=self.variant
                       if self.precond else "right",
                       verify=verify, orthogonalization=self.ortho, **kw)


def conformance_matrix(full: bool = False) -> list[Config]:
    """Enumerate the matrix; ``full=False`` yields the fast tier-1 subset.

    The full matrix is the cross product restricted to valid combinations
    (GMRES-DR rejects p > 1; strategy only matters for recyclers),
    deduplicated by config id.
    """
    configs: list[Config] = []
    seen: set[str] = set()

    def add(cfg: Config) -> None:
        if cfg.id() not in seen:
            seen.add(cfg.id())
            configs.append(cfg)

    if not full:
        # tier-1 subset: every solver, one nontrivial variant and dtype
        # apiece
        for method in SOLVERS:
            p = 3 if SOLVERS[method]["block"] else 1
            add(Config(method, variant="right", p=p))
            add(Config(method, variant="left", p=1))
        add(Config("gcrodr", p=3, strategy="B"))
        add(Config("bgmres", p=3, dtype=np.complex128))
        # low-synchronization orthogonalization engine: the block engine
        # (bgmres/bgcrodr), the pseudo-block per-column path (gcrodr p = 3)
        # and the p = 1 block GCRO-DR path that GMRES-DR runs — cover all
        # three
        for scheme in ("cgs2_1r", "cholqr2"):
            add(Config("bgmres", p=3, ortho=scheme))
            add(Config("gcrodr", p=3, ortho=scheme))
            add(Config("gmresdr", p=1, ortho=scheme))
        # service_mode axis (verify=cheap on this subset — see
        # assert_conforms): both front ends over a plain and a recycling
        # solver, block width 3
        for mode in ("sync", "async"):
            add(Config("gmres", p=3, service_mode=mode))
            add(Config("gcrodr", p=3, service_mode=mode))
        # shifted-family axis: shared-basis and unprojected-recycled
        # engines (families reject m)
        add(Config("bgmres", p=1, ortho="cgs2_1r", shifts=4, precond=False))
        add(Config("bgcrodr", p=1, ortho="cgs2_1r", shifts=4, precond=False))
        # sequence axis: an adaptive-dt heat sequence through both
        # service front ends (unchanged-fp steps must show zero setup
        # spans — see _assert_sequence_conforms)
        add(Config("gcrodr", p=1, service_mode="sync", sequence=6))
        add(Config("gcrodr", p=1, service_mode="async", sequence=6))
        return configs

    for method, caps in SOLVERS.items():
        for variant in VARIANTS:
            for dtype in DTYPES:
                for p in BLOCK_SIZES:
                    if p > 1 and not caps["block"]:
                        continue
                    strategies = STRATEGIES if caps["recycles"] else ("A",)
                    for strat in strategies:
                        add(Config(method, variant=variant, dtype=dtype,
                                   p=p, strategy=strat))
    # unpreconditioned spot checks (variant is then irrelevant)
    for method in SOLVERS:
        p = 3 if SOLVERS[method]["block"] else 1
        add(Config(method, p=p, precond=False))
    # service_mode axis: every solver through both front ends
    for method in SOLVERS:
        p = 3 if SOLVERS[method]["block"] else 1
        for mode in ("sync", "async"):
            add(Config(method, p=p, service_mode=mode))
    # orthogonalization-scheme sweep: every solver x every non-default
    # scheme, default axes elsewhere
    for method in SOLVERS:
        p = 3 if SOLVERS[method]["block"] else 1
        for scheme in ("cgs2_1r", "cholqr2"):
            add(Config(method, p=p, ortho=scheme))
    # shifted-family axis: both engines, plus a complex-shift spot check
    for method in ("bgmres", "bgcrodr"):
        add(Config(method, p=1, ortho="cgs2_1r", shifts=4, precond=False))
    add(Config("bgmres", p=1, ortho="cgs2_1r", shifts=4, precond=False,
               dtype=np.complex128))
    add(Config("bgcrodr", p=1, ortho="cholqr2", shifts=8, precond=False))
    # sequence axis: a recycler and a non-recycler through both front ends
    for method in ("gmres", "gcrodr"):
        for svc in ("sync", "async"):
            add(Config(method, p=1, service_mode=svc, sequence=6))
    return configs


def make_problem(cfg: Config, n: int = 120):
    """Well-conditioned model system + preconditioner for a config.

    Nonsymmetric real (convection-diffusion) or complex (shifted Laplacian)
    tridiagonal operator; the preconditioner is a Jacobi-like scaled inverse
    diagonal — constant, hence valid for every variant, and made *variable*
    (iteration-dependent) by the caller for variable-preconditioner tests.
    """
    rng = make_rng(cfg.seed, cfg.p, 0 if cfg.dtype is np.float64 else 1)
    if cfg.dtype is np.complex128:
        a = (sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                      [-1, 0, 1]).astype(np.complex128)
             + 0.3j * sp.eye(n, dtype=np.complex128))
        b = (rng.standard_normal((n, cfg.p))
             + 1j * rng.standard_normal((n, cfg.p))).astype(np.complex128)
    else:
        lo = -1.4 * np.ones(n - 1)
        hi = -0.6 * np.ones(n - 1)
        a = sp.diags([lo, 4.0 * np.ones(n), hi], [-1, 0, 1])
        b = rng.standard_normal((n, cfg.p))
    a = a.tocsr()
    m = None
    if cfg.precond:
        dinv = 1.0 / a.diagonal()
        m = sp.diags(dinv).astype(a.dtype).tocsr()
    return a, b, m


def _service_solve(cfg: Config, a, b, m, o: Options):
    """Drive one config's block solve through ``make_service``."""
    from repro import as_preconditioner
    from repro.service import make_service

    svc = make_service(
        options=o,
        preconditioner=as_preconditioner(m) if m is not None else None)
    req = svc.submit(a, b)
    assert getattr(req, "rejected", None) is None
    svc.flush()
    res = svc.result(req)
    assert res.info["service"]["batch_width"] == cfg.p
    if cfg.service_mode == "async":
        assert res.info["service"]["mode"] == "async"
    return res


def _solve_config(cfg: Config, *, verify: str, tol: float,
                  restart: int = 20):
    """The solve a scalar or family config stands for (no oracles).

    The service path runs verify at "cheap": the full Arnoldi
    re-verification belongs to the direct-solve axis, the service axis
    checks the front ends preserve the solve contract.
    """
    a, b, m = make_problem(cfg)
    if cfg.service_mode is not None and verify != "off":
        verify = "cheap"
    o = cfg.options(verify=verify, tol=tol, restart=restart)
    if cfg.shifts:
        return solve(a, b, options=o,
                     shifts=[0.05 * (i + 1) for i in range(cfg.shifts)])
    if cfg.service_mode is None:
        return solve(a, b, m, options=o)
    return _service_solve(cfg, a, b, m, o)


@dataclass
class Outcome:
    """Result of driving one config through its oracles."""

    cfg: Config
    result: object
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def assert_conforms(cfg: Config, *, verify: str = "full",
                    tol: float = 1e-8) -> Outcome:
    """Solve the config's problem and check every derived-property oracle.

    Oracles (beyond the runtime invariant checker, which raises on its own):

    1. every column converges within the iteration budget;
    2. the *true* relative residual meets the tolerance (honest reporting);
    3. the recorded convergence history is finite and its final entry agrees
       with the returned ``converged`` flags;
    4. recyclers return a recycled space whose basis is orthonormal;
    5. the verify report is attached and clean.
    """
    if cfg.sequence:
        return _assert_sequence_conforms(cfg, tol=tol)
    if cfg.shifts:
        return _assert_family_conforms(cfg, verify=verify, tol=tol)
    a, b, _ = make_problem(cfg)
    res = _solve_config(cfg, verify=verify, tol=tol)
    out = Outcome(cfg, res)

    if not np.all(res.converged):
        out.failures.append(f"not converged after {res.iterations} its")
    rel = true_residual_norms(a, np.atleast_2d(np.asarray(res.x).T).T, b)
    rhs = np.linalg.norm(b, axis=0)
    rel = rel / np.where(rhs > 0, rhs, 1.0)
    # left preconditioning converges in the preconditioned norm; allow the
    # unpreconditioned residual the conditioning slack of M (small here)
    slack = 100.0 if (cfg.precond and cfg.variant == "left") else 10.0
    if np.any(rel > slack * tol):
        out.failures.append(f"true residual {rel.max():.2e} > {slack}*tol")
    hist = res.history.matrix()
    if not np.all(np.isfinite(hist)):
        out.failures.append("non-finite history entries")
    if verify != "off":
        rep = res.info.get("verify")
        if rep is None:
            out.failures.append("missing verify report")
        elif rep["violations"]:
            out.failures.append(f"verify violations: {rep['violations']}")
        elif rep["checks"] == 0:
            out.failures.append("verify report recorded zero checks")
    space = res.info.get("recycle")
    if space is not None:
        spaces = getattr(space, "spaces", [space])
        for s in spaces:
            if s is None or s.c is None or s.c.shape[1] == 0:
                continue
            g = s.c.conj().T @ s.c
            drift = np.linalg.norm(g - np.eye(g.shape[0], dtype=g.dtype))
            if drift > 1e-6 * np.sqrt(g.shape[0]):
                out.failures.append(f"recycled basis drift {drift:.2e}")
    return out


def _assert_family_conforms(cfg: Config, *, verify: str,
                            tol: float) -> Outcome:
    """Family-config oracles: the shifted analogue of the scalar list.

    1. every shift converges; 2. each shift's *true* residual against the
    explicitly shifted operator meets tolerance; 3. per-shift histories
    are finite and end consistently; 4. the verify report is attached and
    clean; 5. a recycled family returns an orthonormal ``C_k``.
    """
    from repro.krylov.shifted import shifted_matrix

    a, b, _ = make_problem(cfg)
    fam = _solve_config(cfg, verify=verify, tol=tol)
    out = Outcome(cfg, fam)

    if not np.all(fam.converged):
        out.failures.append(f"not converged after {fam.iterations} its")
    rhs = np.linalg.norm(b, axis=0)
    rhs = np.where(rhs > 0, rhs, 1.0)
    for sigma, res in zip(fam.shifts, fam.results):
        x = np.atleast_2d(np.asarray(res.x).T).T
        rel = true_residual_norms(shifted_matrix(a, sigma), x, b) / rhs
        if np.any(rel > 10.0 * tol):
            out.failures.append(
                f"shift {sigma}: true residual {rel.max():.2e} > 10*tol")
        hist = res.history.matrix()
        if not np.all(np.isfinite(hist)):
            out.failures.append(f"shift {sigma}: non-finite history")
    if verify != "off":
        rep = fam.info.get("verify")
        if rep is None:
            out.failures.append("missing verify report")
        elif rep["violations"]:
            out.failures.append(f"verify violations: {rep['violations']}")
        elif rep["checks"] == 0:
            out.failures.append("verify report recorded zero checks")
    space = fam.info.get("recycle")
    if space is not None and space.c is not None and space.c.shape[1]:
        g = space.c.conj().T @ space.c
        drift = np.linalg.norm(g - np.eye(g.shape[0], dtype=g.dtype))
        if drift > 1e-6 * np.sqrt(g.shape[0]):
            out.failures.append(f"recycled basis drift {drift:.2e}")
    return out


def _run_sequence(cfg: Config, *, tol: float, restart: int = 20):
    """Drive a sequence config through its service; returns
    ``(seq, handle, records, tracer)``."""
    from repro.problems.transient import HeatSequence
    from repro.service.scheduler import AsyncSolveService
    from repro.service.sequence import SequenceDriver
    from repro.service.service import SolveService

    o = cfg.options(verify="cheap", tol=tol, restart=restart).replace(
        service_flush="explicit", trace="summary")
    seq = HeatSequence(nx=8, n_steps=cfg.sequence, dt0=1e-3,
                       epoch_length=max(1, cfg.sequence // 2), growth=1.5)
    kwargs = {}
    if cfg.precond:
        kwargs = {"preconditioner": "schwarz", "precond_opts": {"nparts": 2}}
    cls = AsyncSolveService if cfg.service_mode == "async" else SolveService
    svc = cls(options=o, **kwargs)
    driver = SequenceDriver(svc)
    handle = driver.add(seq, options=o, tenant="t0")
    tr = Tracer(level="summary")
    with install(tr):
        records = driver.run(strict=False)
    return seq, handle, records, tr


def _assert_sequence_conforms(cfg: Config, *, tol: float) -> Outcome:
    """Sequence-config oracles: the transient analogue of the scalar list.

    1. every step converges; 2. the final field matches per-step direct
    sparse solves; 3. the ``sequence.*`` trace shape holds — in
    particular the *unchanged-fp oracle*: step solves after the first of
    an epoch (fingerprint unchanged) must show **zero setup spans** and
    no recycle-space rebuild in their batch; 4. the driver actually took
    the fast path on those steps.
    """
    import scipy.sparse.linalg as spla

    from trace_gate import GateError, check_sequence_shape

    seq, handle, records, tr = _run_sequence(cfg, tol=tol)
    out = Outcome(cfg, records)

    if not handle.all_converged:
        out.failures.append("not every sequence step converged")
    try:
        shape = check_sequence_shape(tr.roots[-1])
    except GateError as exc:
        out.failures.append(f"sequence trace shape: {exc}")
    else:
        if shape["steps"] != cfg.sequence:
            out.failures.append(f"trace saw {shape['steps']} steps, "
                                f"expected {cfg.sequence}")
        # unchanged-fp steps exist (epoch_length > 1) and took the fast
        # path with zero setup spans (checked inside the shape gate)
        unchanged = sum(1 for r in records if not r["fp_changed"])
        if shape["fast_path_steps"] != unchanged:
            out.failures.append(
                f"{unchanged} unchanged-fp steps but "
                f"{shape['fast_path_steps']} passed the zero-setup oracle")
        if unchanged == 0:
            out.failures.append("sequence produced no unchanged-fp steps")
    # final-field oracle: per-step direct sparse solves
    u = seq.u0()
    for step in seq.steps():
        u = spla.spsolve(seq.operator(step).tocsc(), seq.rhs(step, u))
    err = np.linalg.norm(handle.u - u) / max(np.linalg.norm(u), 1.0)
    if err > 1e-6:
        out.failures.append(f"final field off by {err:.2e} vs direct solves")
    return out


# ---------------------------------------------------------------------------
# pinned counts: tests/data/solver_counts.json
# ---------------------------------------------------------------------------

#: recorded at the parent of the PR that put every restarted solver on
#: ``krylov/restart.py``; regenerate with ``python tests/matrix.py --pin``
COUNTS_FILE = Path(__file__).parent / "data" / "solver_counts.json"


#: sha1 of ``x`` and of the history of every ``gmres`` / ``gcrodr`` cell,
#: recorded while each column of a pseudo-block cycle still owned its own
#: ``BlockHessenbergQR`` (the single-column ``gcrodr`` cells, which run the
#: block cycle, since its basis slab went column-major; the history of
#: ``gcrodr-right-fused-f64-p3-A-cholqr2``, since its recycled pair is
#: repaired by a QR of ``C_k`` instead of a gated ``qr(A U_k)``; every
#: ``gcrodr`` cell, since each column's ``C_l`` is folded into the step's
#: projection and its pair repaired under every scheme); regenerate with
#: ``python tests/matrix.py --sha1``
SHA1_FILE = Path(__file__).parent / "data" / "pseudo_block_sha1.json"


def pinned_configs() -> list[Config]:
    """The quick matrix (shifted families included) plus the LGMRES baseline."""
    return conformance_matrix(full=False) + [Config("lgmres", p=1)]


def pseudo_block_configs() -> list[Config]:
    """Every ``gmres`` / ``gcrodr`` cell of the pinned and the full matrix."""
    cells: dict[str, Config] = {}
    for cfg in pinned_configs() + conformance_matrix(full=True):
        if cfg.method in ("gmres", "gcrodr"):
            cells.setdefault(cfg.id(), cfg)
    return list(cells.values())


def _sha1(arr) -> str:
    return hashlib.sha1(np.ascontiguousarray(arr).tobytes()).hexdigest()


def counts_of(cfg: Config, *, digests: bool = False) -> dict:
    """Environment-stable counts of the solve ``cfg`` stands for.

    Iterations, restarts, flags, history length, the whole ledger
    (reductions, bytes, per-kernel flops, events) and the multiset of span
    names with their ``kind`` / ``same_system`` attributes — what a
    refactor of the solver layer must reproduce exactly.  ``digests=True``
    adds sha1 of the iterate and of the history, which are comparable only
    within one environment (BLAS build, thread count).
    """
    led, tr = CostLedger(), Tracer()
    with ledger.install(led), install(tr):
        if cfg.sequence:
            _, handle, records, tr = _run_sequence(cfg, tol=1e-10, restart=8)
            x, hist = handle.u, np.array([r["iterations"] for r in records])
            out = {"iterations": int(hist.sum()),
                   "converged": [bool(handle.all_converged)]}
        else:
            # several restarts per solve (restart 8, k = 2, tol 1e-10)
            res = _solve_config(cfg, tol=1e-10, restart=8, verify="full")
            parts = list(res.results) if cfg.shifts else [res]
            x = np.asarray(res.x)
            hist = np.concatenate([r.history.matrix() for r in parts], axis=1)
            out = {"iterations": int(res.iterations),
                   "restarts": int(res.restarts),
                   "converged": np.asarray(res.converged).tolist(),
                   "breakdown": bool(res.breakdown),
                   "len_history": [len(r.history) for r in parts],
                   "verify_checks": int(res.info["verify"]["checks"])}
    spans = Counter(
        " ".join([s.name] + [f"{k}={s.attrs[k]}" for k in
                             ("kind", "same_system") if k in s.attrs])
        for root in tr.roots for s in root.walk())
    rows = {name: [int(row["reductions"]), row["flops"]]
            for name, row in tr.summary()["by_name"].items()}
    out.update(reductions=led.reductions, reduction_bytes=led.reduction_bytes,
               flops={str(k): v for k, v in sorted(led.flops.items())},
               events=dict(sorted(led.calls.items())),
               spans=dict(sorted(spans.items())), exclusive_rows=rows)
    if digests:
        out["sha1"] = {"x": _sha1(x), "history": _sha1(hist)}
    return out


if __name__ == "__main__":
    # python tests/matrix.py --pin          rewrite COUNTS_FILE
    # python tests/matrix.py --sha1         rewrite SHA1_FILE
    # python tests/matrix.py --digests OUT  counts + sha1 of x / history
    import sys
    mode, *rest = sys.argv[1:] or [""]
    if mode not in ("--pin", "--sha1", "--digests") \
            or len(rest) != (mode == "--digests"):
        raise SystemExit(__doc__)
    if mode == "--sha1":
        target = SHA1_FILE
        table = {c.id(): counts_of(c, digests=True)["sha1"]
                 for c in pseudo_block_configs()}
    else:
        target = Path(rest[0]) if rest else COUNTS_FILE
        table = {c.id(): counts_of(c, digests=bool(rest))
                 for c in pinned_configs()}
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
