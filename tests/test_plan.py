"""Tests for the execution-plan compiler (``repro.plan``).

Three layers of guarantees, from unit to end-to-end:

1. the optimizer passes (hoist / fuse / batch / pre-bind) conserve the
   replayed charge totals of a lowered plan exactly;
2. the compiled cycle and pseudo-block orthogonalizer are bit-identical
   twins of the interpreter — same :meth:`CostLedger.counts` tuple AND
   bitwise-equal iterates — across the conformance subset (5 solvers x
   both exec modes x low-sync schemes);
3. a mis-charged plan node is *caught*: tampering with a bound cost trips
   the ledger-conservation invariant checker (mutation test).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Options, solve
from repro.krylov.basis import (AugmentedTensorArena, BasisArena,
                                TransposedBasisArena)
from repro.krylov.cycle import block_arnoldi_cycle, complete_block
from repro.la.orthogonalization import SketchArena
from repro.plan import (lower_cycle, make_pseudo_block_orthogonalizer,
                        optimize)
from repro.plan.ir import ZERO_COST, flop_cost, reduction_cost, run_nodes
from repro.util import ledger
from repro.util.ledger import Kernel
from repro.util.options import parse_hpddm_args
from repro.verify import (InvariantChecker, InvariantViolation,
                          cross_check_plan_modes)

from matrix import Config, make_problem


# ---------------------------------------------------------------------------
# end-to-end: counts() and iterates bit-identical across the matrix subset
# ---------------------------------------------------------------------------

PARITY_CONFIGS = [
    Config(method, p=(3 if method != "gmresdr" else 1), ortho=scheme)
    for method in ("gmres", "bgmres", "gcrodr", "bgcrodr", "gmresdr")
    for scheme in ("cgs2_1r", "sketched")
]


@pytest.mark.parametrize("cfg", PARITY_CONFIGS, ids=lambda c: c.id())
def test_plan_modes_bit_identical(cfg):
    a, b, m = make_problem(cfg)
    base = cfg.options(verify="off")

    def run(plan):
        return solve(a, b, m, options=base.replace(plan=plan))

    # the default checker raises InvariantViolation on any counts() or
    # bitwise iterate mismatch, so reaching the asserts means parity held
    ri, rc = cross_check_plan_modes(run, extract=lambda r: np.asarray(r.x),
                                    what=cfg.id())
    assert ri.iterations == rc.iterations
    assert np.array_equal(np.asarray(ri.converged), np.asarray(rc.converged))
    assert np.array_equal(ri.history.matrix(), rc.history.matrix())


def test_cycle_level_parity_with_recycle_block():
    """Direct cycle parity with a C_k projector (the GCRO-DR hot path)."""
    rng = np.random.default_rng(11)
    n, p, k = 90, 3, 4
    a = np.diag(4.0 + 0.1 * rng.standard_normal(n)) \
        + 0.5 * np.eye(n, k=1) + 0.4 * np.eye(n, k=-1)
    ck, _ = np.linalg.qr(rng.standard_normal((n, k)))
    v1, s1 = np.linalg.qr(rng.standard_normal((n, p)))
    for ortho in ("cgs2_1r", "cholqr2", "sketched"):
        outs = {}
        for plan in ("interpret", "compiled"):
            with ledger.install() as led:
                st = block_arnoldi_cycle(
                    lambda z: a @ z, lambda v: v, v1.copy(), s1.copy(),
                    max_steps=8, ck=ck, ortho=ortho, identity_m=True,
                    plan=plan)
            outs[plan] = (led.counts(), st)
        ci, cc = outs["interpret"], outs["compiled"]
        assert ci[0] == cc[0], f"{ortho}: counts diverge"
        assert ci[1].steps == cc[1].steps
        assert np.array_equal(ci[1].v_stack(), cc[1].v_stack()), ortho
        assert np.array_equal(ci[1].hqr.g, cc[1].hqr.g), ortho
        assert np.array_equal(ci[1].ek_matrix(), cc[1].ek_matrix()), ortho
        assert cc[1].plan_stats and cc[1].plan_stats["fused"] > 0


def test_single_column_parity():
    """p == 1 exercises the GEMV dispatch regime (trans vs notrans)."""
    rng = np.random.default_rng(5)
    n = 70
    a = np.diag(3.0 + rng.random(n)) + 0.3 * np.eye(n, k=1)
    v1, s1 = np.linalg.qr(rng.standard_normal((n, 1)))
    for ortho in ("cgs2_1r", "cholqr2", "sketched"):
        outs = {}
        for plan in ("interpret", "compiled"):
            with ledger.install() as led:
                st = block_arnoldi_cycle(
                    lambda z: a @ z, lambda v: v, v1.copy(), s1.copy(),
                    max_steps=6, ortho=ortho, identity_m=True, plan=plan)
            outs[plan] = (led.counts(), st.v_stack())
        assert outs["interpret"][0] == outs["compiled"][0], ortho
        assert np.array_equal(outs["interpret"][1],
                              outs["compiled"][1]), ortho


# ---------------------------------------------------------------------------
# optimizer passes: charge conservation + effectiveness
# ---------------------------------------------------------------------------

LOWERINGS = [("cgs2_1r", 0), ("cgs2_1r", 4), ("cholqr2", 0),
             ("sketched", 0), ("sketched", 4)]


@pytest.mark.parametrize("ortho,k", LOWERINGS,
                         ids=[f"{o}-k{k}" for o, k in LOWERINGS])
def test_optimize_conserves_total_cost(ortho, k):
    raw = lower_cycle(ortho=ortho, n=200, p=3, k=k, steps=6, max_steps=6,
                      dtype=np.float64)
    before = raw.total_cost().counts()
    opt = optimize(raw)
    assert opt.total_cost().counts() == before
    assert opt.stats["prebound"] >= 0
    assert all(n.cost_thunk is None for n in opt.all_nodes())


def test_optimize_hoists_and_fuses():
    plan = optimize(lower_cycle(ortho="cgs2_1r", n=100, p=2, k=0, steps=5,
                                max_steps=5, dtype=np.float64))
    # one scaffold per step hoisted (the prologue copy satisfies the key)
    assert plan.stats["hoisted"] == 5
    assert plan.stats["fused"] > 0
    # hoisting is idempotent-safe: exactly one scaffold node survives
    scaffolds = [n for n in plan.prologue if "scaffold" in n.label]
    assert len(scaffolds) == 1
    for step in plan.steps:
        assert not any("scaffold" in n.label for n in step)


def test_optimize_batches_sketch_setup():
    plan = optimize(lower_cycle(ortho="sketched", n=100, p=2, k=3, steps=4,
                                max_steps=4, dtype=np.float64))
    assert plan.stats["batched"] >= 1
    assert any(n.kind == "batched" for n in plan.prologue)


def test_fusion_preserves_execution_order():
    """A fused node runs its constituent bodies in original order."""
    from repro.plan.ir import Plan, PlanNode

    calls = []
    mk = lambda i: PlanNode(kind="t", label=f"n{i}", phase="ortho",
                            run=lambda ctx, i=i: calls.append(i),
                            cost=flop_cost(Kernel.BLAS3, float(i + 1)),
                            fusable=True)
    plan = Plan(steps=[[mk(0), mk(1), mk(2)]])
    before = plan.total_cost().counts()
    opt = optimize(plan)
    assert len(opt.steps[0]) == 1
    assert opt.total_cost().counts() == before
    led = ledger.CostLedger()
    run_nodes(opt.steps[0], None, led)
    assert calls == [0, 1, 2]
    assert led.counts() == before


def test_branch_nodes_never_fuse():
    plan = lower_cycle(ortho="cgs2_1r", n=50, p=2, k=0, steps=3,
                       max_steps=3, dtype=np.float64)
    opt = optimize(plan)
    for node in opt.all_nodes():
        if node.branches:
            assert "+" not in node.label, \
                f"branch node {node.label} was fused"


# ---------------------------------------------------------------------------
# mutation: a mis-charged plan node must trip the conservation checker
# ---------------------------------------------------------------------------

def test_mischarged_node_trips_checker(monkeypatch):
    from repro.plan import block_cycle

    real_lower = block_cycle.lower_cycle

    def tampered_lower(**kw):
        plan = real_lower(**kw)
        for node in plan.steps[0]:
            if node.cost_thunk is not None or not node.cost.is_zero:
                node.cost_thunk = None
                node.cost = ZERO_COST       # drop one node's charge
                return plan
        raise AssertionError("no charged node found to tamper")

    monkeypatch.setattr(block_cycle, "lower_cycle", tampered_lower)
    cfg = Config("bgmres", p=3, ortho="cgs2_1r")
    a, b, m = make_problem(cfg)
    base = cfg.options(verify="off")
    with pytest.raises(InvariantViolation, match="ledger_conservation"):
        cross_check_plan_modes(
            lambda plan: solve(a, b, m, options=base.replace(plan=plan)),
            extract=lambda r: np.asarray(r.x))


def test_checker_collects_when_not_raising():
    chk = InvariantChecker("full", context="t", raise_on_violation=False)
    led_a, led_b = ledger.CostLedger(), ledger.CostLedger()
    led_a.flop(Kernel.BLAS3, 100.0)
    chk.check_ledger_conservation(led_a, led_b, what="tampered")
    assert chk.violations and \
        chk.violations[0]["name"] == "ledger_conservation"


# ---------------------------------------------------------------------------
# pseudo-block factory + arenas
# ---------------------------------------------------------------------------

def test_pseudo_block_factory_dispatch():
    from repro.la.orthogonalization import PseudoBlockOrthogonalizer
    from repro.plan.pseudoblock import CompiledPseudoBlockOrthogonalizer

    interp = make_pseudo_block_orthogonalizer(
        "cgs2_1r", plan="interpret", n=50, p=2, dtype=np.float64,
        max_cols=10)
    comp = make_pseudo_block_orthogonalizer(
        "cgs2_1r", plan="compiled", n=50, p=2, dtype=np.float64,
        max_cols=10)
    assert type(interp) is PseudoBlockOrthogonalizer
    assert isinstance(comp, CompiledPseudoBlockOrthogonalizer)


@pytest.mark.parametrize("scheme", ["mgs", "cgs", "imgs", "cgs2_1r",
                                    "cholqr2", "sketched"])
def test_pseudo_block_step_parity(scheme):
    """Compiled pre-bound step charges == interpreter's, bitwise results."""
    rng = np.random.default_rng(9)
    n, p, steps = 80, 2, 5
    a = np.diag(3.0 + rng.random(n)) + 0.2 * np.eye(n, k=1)
    q0, _ = np.linalg.qr(rng.standard_normal((n, p)))
    outs = {}
    for plan in ("interpret", "compiled"):
        orth = make_pseudo_block_orthogonalizer(
            scheme, plan=plan, n=n, p=p, dtype=np.float64,
            max_cols=steps + 1)
        v = np.zeros((steps + 1, n, p))
        v[0] = q0
        with ledger.install() as led:
            orth.begin(v[:1])
            for j in range(steps):
                w = a @ v[j]
                w2, dots, nrms = orth.step(v[: j + 1], w, j)
                v[j + 1] = w2 / np.where(nrms > 0, nrms, 1.0)
                orth.commit(np.ones(p, dtype=bool))
        outs[plan] = (led.counts(), v.copy())
    assert outs["interpret"][0] == outs["compiled"][0]
    assert np.array_equal(outs["interpret"][1], outs["compiled"][1])


def test_basis_arena_layout():
    arena = BasisArena(10, 2, 3, 4, np.float64)
    rng = np.random.default_rng(0)
    ck = rng.standard_normal((10, 3))
    v1 = rng.standard_normal((10, 2))
    arena.bind(v1, ck, max_steps=4)
    assert arena.cols == 5
    assert np.array_equal(arena.basis()[:, :3], ck)
    assert np.array_equal(arena.block(0), v1)
    slot = arena.slot()
    slot[:] = 7.0
    assert arena.stacked().shape == (10, 7)
    arena.advance()
    assert np.all(arena.block(1) == 7.0)
    # views alias the slab: no copies
    assert arena.basis().base is arena.slab


def test_augmented_tensor_arena_is_contiguous_prefix():
    arena = AugmentedTensorArena(2, 3, 8, 2, np.float64)
    arena.ck[:] = 1.0
    arena.v[0] = 2.0
    st = arena.stacked(0)
    assert st.shape == (3, 8, 2)
    # stored (cols, p, n): a prefix of the slab, every column's basis an
    # i x n matrix with unit stride along n (what the BLAS cores need)
    assert st.transpose(0, 2, 1).flags["C_CONTIGUOUS"]
    assert st[:, :, 1].strides[1] == st.itemsize
    assert np.all(st[:2] == 1.0) and np.all(st[2] == 2.0)


def test_transposed_basis_arena_matches_retranspose():
    rng = np.random.default_rng(1)
    v = rng.standard_normal((12, 5))
    arena = TransposedBasisArena(5, 12, np.float64)
    arena.seed(v, 2)
    arena.append(v[:, 2])
    ref = np.ascontiguousarray(v[:, :3].T)[:, :, np.newaxis]
    assert np.array_equal(arena.prefix(2), ref)


def test_sketch_arena_append():
    arena = SketchArena(6, 4, np.float64)
    arena.seed(np.ones((6, 2)))
    arena.append(2.0 * np.ones((6, 1)))
    assert arena.view().shape == (6, 3)
    assert np.all(arena.view()[:, 2] == 2.0)


# ---------------------------------------------------------------------------
# options plumbing + complete_block fix
# ---------------------------------------------------------------------------

def test_plan_option_round_trip():
    o = Options(plan="compiled")
    assert "-hpddm_plan" in o.hpddm_args()
    o2 = parse_hpddm_args(o.hpddm_args())
    assert o2.plan == "compiled"
    assert parse_hpddm_args([]).plan == "interpret"


def test_plan_option_rejects_unknown():
    from repro.util.options import OptionError
    with pytest.raises(OptionError, match="plan"):
        Options(plan="jit")


def test_complete_block_skips_requr_when_no_against():
    """With no extra blocks the leading columns are used directly — the
    fill must still be orthonormal and orthogonal to them."""
    rng = np.random.default_rng(3)
    q = np.zeros((20, 4))
    q[:, :2], _ = np.linalg.qr(rng.standard_normal((20, 2)))
    out = complete_block(q, 2)
    g = out.conj().T @ out
    assert np.allclose(g, np.eye(4), atol=1e-10)
    assert np.array_equal(out[:, :2], q[:, :2])


def test_complete_block_rank_full_short_circuit():
    """rank == p returns the input unchanged without touching the RNG."""
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((15, 3)))
    out = complete_block(q, 3)
    assert out is q


def test_complete_block_with_against_blocks():
    rng = np.random.default_rng(6)
    q = np.zeros((25, 3))
    q[:, :1], _ = np.linalg.qr(rng.standard_normal((25, 1)))
    extra, _ = np.linalg.qr(rng.standard_normal((25, 2)))
    out = complete_block(q, 1, against=[extra])
    assert np.allclose(out.conj().T @ out, np.eye(3), atol=1e-10)
    assert np.max(np.abs(extra.conj().T @ out[:, 1:])) < 1e-10


def test_complete_block_empty_against_entries():
    """Zero-width against blocks must not force the re-QR path."""
    rng = np.random.default_rng(8)
    q = np.zeros((18, 3))
    q[:, :2], _ = np.linalg.qr(rng.standard_normal((18, 2)))
    ref = complete_block(q, 2)
    out = complete_block(q, 2, against=[np.zeros((18, 0))])
    assert np.array_equal(out, ref)


# ---------------------------------------------------------------------------
# trace spans close at the interpreter's boundaries
# ---------------------------------------------------------------------------

def test_compiled_trace_spans_match_interpreter():
    from repro.trace import Tracer
    from repro.trace import install as trace_install

    rng = np.random.default_rng(12)
    n, p = 60, 2
    a = np.diag(4.0 + rng.random(n)) + 0.3 * np.eye(n, k=1)
    v1, s1 = np.linalg.qr(rng.standard_normal((n, p)))
    shapes = {}
    for plan in ("interpret", "compiled"):
        with trace_install(Tracer("summary")) as tr, ledger.install():
            block_arnoldi_cycle(lambda z: a @ z, lambda v: v,
                                v1.copy(), s1.copy(), max_steps=4,
                                ortho="cgs2_1r", identity_m=True, plan=plan)
        shapes[plan] = [(s.name, s.attrs.get("j", s.attrs.get("scheme")))
                        for root in tr.roots for s in root.walk()]
    assert shapes["interpret"] == shapes["compiled"]
    assert ("ortho", "cgs2_1r") in shapes["compiled"]


# ---------------------------------------------------------------------------
# lint rule: plan-node bodies charge only through pre-bound NodeCost specs
# ---------------------------------------------------------------------------

def _lint_plan_source(src: str, rel_parts=("src", "repro", "plan", "fake.py")):
    import ast as _ast
    import importlib.util
    import os as _os

    spec = importlib.util.spec_from_file_location(
        "lint_repro", _os.path.join(_os.path.dirname(__file__), _os.pardir,
                                    "scripts", "lint_repro.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    visitor = mod._Visitor(_os.path.join(*rel_parts), src.splitlines())
    visitor.visit(_ast.parse(src))
    return [rule for rule, _, _ in visitor.findings]


def test_lint_flags_direct_ledger_call_in_plan_body():
    src = 'def body(ctx):\n    ctx.led.flop("gemm", 12)\n'
    assert "plan-ledger" in _lint_plan_source(src)


def test_lint_accepts_prebound_charge_and_waiver():
    prebound = "def body(ctx, cost):\n    cost.charge(ctx.led, 3)\n"
    assert "plan-ledger" not in _lint_plan_source(prebound)
    waived = ('def body(ctx):\n'
              '    ctx.led.event("x")  # lint: allow(plan-ledger)\n')
    assert "plan-ledger" not in _lint_plan_source(waived)
    # ir.py hosts ChargeSpec.charge itself and stays exempt
    direct = 'def charge(self, led):\n    led.flop("gemm", 1)\n'
    assert "plan-ledger" not in _lint_plan_source(
        direct, rel_parts=("src", "repro", "plan", "ir.py"))


def test_lint_plan_tree_is_clean():
    import importlib.util
    import os as _os

    root = _os.path.join(_os.path.dirname(__file__), _os.pardir)
    spec = importlib.util.spec_from_file_location(
        "lint_repro", _os.path.join(root, "scripts", "lint_repro.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    plan_dir = _os.path.join(root, "src", "repro", "plan")
    findings = []
    for name in sorted(_os.listdir(plan_dir)):
        if name.endswith(".py"):
            findings += [(name, f) for f in
                         mod.lint_file(_os.path.join(plan_dir, name))]
    assert findings == []


def test_lint_rejects_einsum_over_a_3d_operand():
    """The ``einsum-3d`` rule: the slow contraction of the pseudo-block basis
    cannot come back to ``la/`` or ``krylov/`` (2-D einsums stay legal)."""
    slow = 'd = np.einsum("inp,np->ip", basis.conj(), w)\n'
    for pkg in ("la", "krylov"):
        assert _lint_plan_source(
            slow, ("src", "repro", pkg, "x.py")) == ["einsum-3d"]
    assert _lint_plan_source("d = np.einsum(spec, a, b)\n",
                             ("src", "repro", "la", "x.py")) == ["einsum-3d"]
    assert _lint_plan_source('s = np.einsum("pn,pn->p", x.conj(), x)\n',
                             ("src", "repro", "la", "x.py")) == []
    assert _lint_plan_source(slow, ("src", "repro", "problems", "x.py")) == []
    assert _lint_plan_source(
        slow, ("tests", "fixtures", "reference_pb_projector.py")) == []
    assert _lint_plan_source(slow.rstrip() + "  # lint: allow(einsum-3d)\n",
                             ("src", "repro", "la", "x.py")) == []


def test_lint_keeps_the_restart_loop_in_one_module():
    """The ``restart-loop`` rule: the budget test and the restart-residual
    overwrite of the last history record live in ``krylov/restart.py``."""
    loop = "while not done and total_it < options.max_it:\n    pass\n"
    attr = "ok = st.total_it < self.options.max_it\n"
    record = "history.records[-1] = rn / safe\n"
    own = "st.history.records[-1] = rn\n"
    for src in (loop, attr, record, own):
        assert _lint_plan_source(
            src, ("src", "repro", "krylov", "x.py")) == ["restart-loop"]
        assert _lint_plan_source(
            src, ("src", "repro", "krylov", "restart.py")) == []
        assert _lint_plan_source(src, ("src", "repro", "la", "x.py")) == []
    # the shifted family's per-shift histories, a read, another bound
    for src in ("histories[i].records[-1] = rn[i:i + 1]\n",
                "prev = history.records[-1] * safe\n",
                "while j < steps and st.budget > 0:\n    pass\n"):
        assert _lint_plan_source(
            src, ("src", "repro", "krylov", "x.py")) == []


def test_lint_keeps_superlu_behind_sparse_lu():
    """The ``bare-splu`` rule: the library calls SuperLU from one module."""
    for src in ("lu = spla.splu(a)\n", "lu = splu(a.tocsc())\n",
                "m = scipy.sparse.linalg.spilu(a, drop_tol=1e-4)\n"):
        for parts in (("src", "repro", "precond", "x.py"),
                      ("src", "repro", "direct", "numeric.py")):
            assert _lint_plan_source(src, parts) == ["bare-splu"]
        assert _lint_plan_source(
            src, ("src", "repro", "direct", "solver.py")) == []
        # benchmarks and tests factor bare on purpose: that is the baseline
        assert _lint_plan_source(src, ("benchmarks", "x.py")) == []
        assert _lint_plan_source(src, ("tests", "test_direct.py")) == []
