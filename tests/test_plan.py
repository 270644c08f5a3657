"""Tests for the basis arenas, ``complete_block``, the lint rules — and for
what is left of the deleted plan compiler.

``src/repro/plan/`` is a residue of two names the frozen benchmark tracer
resolves (ROADMAP item 2a removes it); the tests here hold it to that and
check that the option which selected the compiler is gone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Options
from repro.krylov.basis import AugmentedTensorArena, BasisArena
from repro.krylov.cycle import complete_block
from repro.util.options import parse_hpddm_args


# ---------------------------------------------------------------------------
# arenas
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# the option is gone + complete_block fix
# ---------------------------------------------------------------------------

def test_plan_option_is_gone():
    """No field, no validation: the flag is an unknown one like any other."""
    with pytest.raises(TypeError, match="plan"):
        Options(plan="compiled")
    o = parse_hpddm_args(["-hpddm_plan", "compiled"])
    assert o.extra == {"plan": "compiled"}
    assert "-hpddm_plan" not in Options().hpddm_args()


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
# lint rules
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
    # the fragments import names they never use: that rule has its own test
    # (tests/test_ci_pipeline.py)
    return [rule for rule, _, _ in visitor.findings
            if rule != "unused-import"]


def test_lint_holds_the_plan_package_to_its_residue():
    """The ``plan-residue`` rule: ``src/repro/plan/`` binds the benchmark's
    two names and nothing else, and nothing in ``src/repro/`` imports it."""
    alias = ("from ..la.orthogonalization import "
             "make_pseudo_block_orthogonalizer\n"
             '__all__ = ["make_pseudo_block_orthogonalizer"]\n')
    stub = ('"""doc"""\n'
            "def compiled_block_arnoldi_cycle(*args, **kwargs):\n"
            "    raise NotImplementedError\n")
    for ok in (alias, stub):
        assert _lint_plan_source(ok) == []
    for grown in ("def lower_cycle(**kw):\n    pass\n",
                  "class Plan:\n    pass\n",
                  "from .ir import PlanNode\n",
                  "import numpy as np\n",
                  "ZERO_COST = None\n"):
        assert _lint_plan_source(grown) == ["plan-residue"], grown
    for imp in ("from ..plan.pseudoblock import "
                "make_pseudo_block_orthogonalizer\n",
                "from .. import plan\n",
                "import repro.plan.block_cycle\n"):
        assert _lint_plan_source(
            imp, ("src", "repro", "krylov", "x.py")) == ["plan-residue"], imp
    # tests and benchmarks may resolve the residue; other names are free
    assert _lint_plan_source("import repro.plan\n",
                             ("benchmarks", "e2e", "x.py")) == []
    assert _lint_plan_source("from .base import Operator, as_operator\n",
                             ("src", "repro", "krylov", "x.py")) == []


def test_lint_plan_tree_is_clean():
    import importlib.util
    import os as _os

    root = _os.path.join(_os.path.dirname(__file__), _os.pardir)
    spec = importlib.util.spec_from_file_location(
        "lint_repro", _os.path.join(root, "scripts", "lint_repro.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    plan_dir = _os.path.join(root, "src", "repro", "plan")
    names = sorted(n for n in _os.listdir(plan_dir) if n.endswith(".py"))
    assert names == ["__init__.py", "block_cycle.py", "pseudoblock.py"]
    findings = []
    for name in names:
        findings += [(name, f) for f in
                     mod.lint_file(_os.path.join(plan_dir, name))]
    assert findings == []
    # the alias is the factory itself, so a tracer that resolves it there
    # rebinds the solvers' own globals
    from repro.la import orthogonalization
    from repro.plan import pseudoblock
    assert pseudoblock.make_pseudo_block_orthogonalizer \
        is orthogonalization.make_pseudo_block_orthogonalizer


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
                      ("src", "repro", "direct", "ordering.py")):
            assert _lint_plan_source(src, parts) == ["bare-splu"]
        assert _lint_plan_source(
            src, ("src", "repro", "direct", "solver.py")) == []
        # benchmarks and tests factor bare on purpose: that is the baseline
        assert _lint_plan_source(src, ("benchmarks", "x.py")) == []
        assert _lint_plan_source(src, ("tests", "test_direct.py")) == []
