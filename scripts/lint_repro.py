#!/usr/bin/env python
"""Repo-specific determinism lint — stdlib ``ast`` only, no new deps.

Eight rule families, each guarding an invariant the test suite and the
trace/bench gates rely on:

``unseeded-random``
    ``np.random.<legacy>`` global-state draws, or ``default_rng()`` /
    ``RandomState()`` called without a seed.  Everything stochastic must
    flow from an explicit seed (tests get theirs from ``conftest``'s
    ``make_rng``/``rng`` fixture) or runs stop being reproducible.

``wall-clock``
    ``time.time`` / ``perf_counter`` / ``monotonic`` / ``datetime.now``
    and friends outside ``src/repro/util/ledger.py`` (the single
    sanctioned clock reader — see the "Determinism invariant" note on
    :class:`CostLedger`), ``benchmarks/`` and ``scripts/``.  Wall clock
    in library code breaks determinism and makes trace replay
    meaningless, since every exported span time is *modeled*.

``distla-ledger``
    functions in ``src/repro/distla/`` that perform array math
    (``@``, ``np.dot``, ``np.einsum``, ``scipy`` spmv, ...) without any
    ledger charge in the same function.  Distributed-array ops are the
    costs the paper counts; silent ones undermine every gate downstream.

``plan-residue``
    a module under ``src/repro/plan/`` that binds anything but the two
    names ``benchmarks/e2e/tracing.py`` resolves there
    (``make_pseudo_block_orthogonalizer``, ``compiled_block_arnoldi_cycle``),
    or an import of ``repro.plan`` anywhere else in ``src/repro/``.  The
    package is what is left of the deleted plan compiler; it may not grow
    back, and nothing may come to depend on it before ROADMAP item 2a
    deletes the directory.  No allow-list entry.

``einsum-3d``
    ``np.einsum`` with an operand of three or more indices in
    ``src/repro/la/`` or ``src/repro/krylov/``.  A contraction over the
    3-D pseudo-block basis tensor never reaches BLAS (~2 GF/s); the
    projector cores use batched ``np.matmul`` on the ``(p, i, n)`` view of
    the ``(cols, p, n)``-stored tensor instead, and the einsum formulation
    lives on only as ``tests/fixtures/reference_pb_projector.py``.

``restart-loop``
    the iteration-budget test ``total_it < options.max_it`` or the
    overwrite ``history.records[-1] = ...`` of the last history record in
    ``src/repro/krylov/`` outside ``restart.py``.  How a restarted solve
    starts, restarts, stops and is packed has one home
    (``RestartLoop.running`` / ``budget``, ``RestartedSolve
    .restart_residual``); a solver that spells either again has grown its
    own copy of the loop, and seven copies is where this package came
    from.  No allow-list entry.

``bare-splu``
    ``splu(`` / ``spilu(`` anywhere in ``src/repro/`` outside
    ``direct/solver.py``.  Which ordering and pivoting SuperLU is asked
    for is decided there, from the symmetry of the input's pattern, and
    every factor is probed before it is accepted; a second call site is a
    second ordering policy with no probe.  No allow-list entry.

``option-census``
    a field of ``Options`` that no module under ``src/repro/`` (outside
    ``util/options.py`` itself) reads as an attribute.  An option nobody
    reads still doubles the lattice its tests and docs describe.  Checked
    over the whole tree, so only on a run without explicit paths.

False positives go in ``scripts/lint_allowlist.txt`` as
``<relpath>:<rule>`` (one per line, ``#`` comments allowed); a
``# lint: allow(<rule>)`` comment on the offending line also works.

    PYTHONPATH=src python scripts/lint_repro.py [paths...]
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "scripts", "lint_allowlist.txt")

#: legacy numpy global-RNG entry points (always unseeded by construction)
LEGACY_RANDOM = {
    "rand", "randn", "random", "randint", "random_sample", "standard_normal",
    "uniform", "normal", "choice", "permutation", "shuffle", "seed",
}
#: wall-clock callables as (module, attr)
CLOCK_CALLS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "time_ns"),
    ("time", "perf_counter_ns"), ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
}
#: ledger-charging attribute names that mark a distla op as accounted
CHARGE_ATTRS = {"flop", "reduction", "p2p", "event", "charge", "merge"}
#: simmpi collectives that charge the ledger internally
CHARGING_COLLECTIVES = {"allreduce_sum", "allgather_rows", "dot_columns",
                        "norm_columns"}
#: array-math markers in distla code
MATH_CALLS = {"dot", "einsum", "matmul", "vdot", "tensordot"}

SCANNED_DIRS = ("src", "tests", "benchmarks")
CLOCK_EXEMPT = (os.path.join("src", "repro", "util", "ledger.py"),)
CLOCK_EXEMPT_DIRS = ("benchmarks" + os.sep, "scripts" + os.sep)

#: what is left of the plan compiler, and the only names it may bind
PLAN_DIR = os.path.join("src", "repro", "plan") + os.sep
PLAN_RESIDUE = {"make_pseudo_block_orthogonalizer",
                "compiled_block_arnoldi_cycle", "__all__"}
#: where an einsum over a 3-D (basis tensor) operand may not come back
EINSUM_DIRS = (os.path.join("src", "repro", "la") + os.sep,
               os.path.join("src", "repro", "krylov") + os.sep)
#: the one module that may spell the restart loop's budget test and the
#: restart-residual overwrite of the last history record
KRYLOV_DIR = os.path.join("src", "repro", "krylov") + os.sep
RESTART_HOME = os.path.join("src", "repro", "krylov", "restart.py")
#: the one module of the library that may call SuperLU
SRC_DIR = os.path.join("src", "repro") + os.sep
SUPERLU_HOME = os.path.join("src", "repro", "direct", "solver.py")
OPTIONS_HOME = os.path.join("src", "repro", "util", "options.py")


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute/name chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class _Visitor(ast.NodeVisitor):
    def __init__(self, rel: str, source_lines: list[str]):
        self.rel = rel
        self.lines = source_lines
        self.findings: list[tuple[str, int, str]] = []
        self.in_distla = os.path.join("src", "repro", "distla") in rel
        self.in_plan = rel.startswith(PLAN_DIR)
        self.in_einsum_dirs = rel.startswith(EINSUM_DIRS)
        self.in_restart_scope = rel.startswith(KRYLOV_DIR) \
            and rel != RESTART_HOME
        self.in_superlu_scope = rel.startswith(SRC_DIR) \
            and rel != SUPERLU_HOME

    # -- helpers -------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, msg: str) -> None:
        line = self.lines[node.lineno - 1] if node.lineno <= len(self.lines) else ""
        if f"lint: allow({rule})" in line:
            return
        self.findings.append((rule, node.lineno, msg))

    # -- unseeded-random ----------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        tail = name.rsplit(".", 1)[-1]
        if name.endswith(".random." + tail) and tail in LEGACY_RANDOM \
                and (".random." in name or name.startswith("random.")):
            mod = name.split(".")[0]
            if mod in ("np", "numpy"):
                self._flag("unseeded-random", node,
                           f"legacy global-RNG call {name}() — pass an "
                           f"explicit Generator (conftest make_rng) instead")
        if tail in ("default_rng", "RandomState") and not node.args \
                and not node.keywords:
            self._flag("unseeded-random", node,
                       f"{name}() without a seed — every RNG must be "
                       f"explicitly seeded")
        if (name.split(".")[0] in ("time", "datetime", "dt")
                and (name.split(".")[0], tail) in CLOCK_CALLS) \
                or name in ("datetime.datetime.now", "datetime.datetime.utcnow"):
            if not self._clock_allowed():
                self._flag("wall-clock", node,
                           f"{name}() outside util/ledger.py — wall clock "
                           f"breaks determinism and trace replay")
        if self.in_superlu_scope and tail in ("splu", "spilu"):
            self._flag("bare-splu", node,
                       f"{name}() outside direct/solver.py — factor through "
                       f"SparseLU, which picks the ordering "
                       f"from the pattern and probes the factor")
        if self.in_einsum_dirs and tail == "einsum":
            spec = node.args[0] if node.args else None
            literal = isinstance(spec, ast.Constant) and isinstance(
                spec.value, str)
            if not literal or any(
                    len(operand.strip()) >= 3
                    for operand in spec.value.split("->")[0].split(",")):
                self._flag("einsum-3d", node,
                           f"{name}() over a 3-D operand (or unreadable "
                           f"subscripts) — contract the basis tensor with "
                           f"batched np.matmul, einsum cannot reach BLAS")
        self.generic_visit(node)

    # -- restart-loop ---------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if self.in_restart_scope and len(node.ops) == 1 \
                and isinstance(node.ops[0], ast.Lt) \
                and _dotted(node.left).rsplit(".", 1)[-1] == "total_it" \
                and _dotted(node.comparators[0]).endswith("options.max_it"):
            self._flag("restart-loop", node,
                       "iteration-budget test outside krylov/restart.py — "
                       "use RestartLoop.running / .budget")
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for tgt in node.targets:
            if self.in_restart_scope and isinstance(tgt, ast.Subscript) \
                    and _dotted(tgt.value).endswith("history.records") \
                    and isinstance(tgt.slice, ast.UnaryOp) \
                    and isinstance(tgt.slice.op, ast.USub):
                self._flag("restart-loop", node,
                           "last history record overwritten outside "
                           "krylov/restart.py — use "
                           "RestartedSolve.restart_residual")
        self.generic_visit(node)

    # -- plan-residue -----------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body if self.in_plan else ():
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound = [a.asname or a.name.split(".")[0] for a in stmt.names]
            elif isinstance(stmt, ast.Assign):
                bound = [_dotted(tgt) for tgt in stmt.targets]
            elif isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, ast.Constant):
                continue                                    # the docstring
            else:
                bound = [getattr(stmt, "name", type(stmt).__name__)]
            for name in bound:
                if name not in PLAN_RESIDUE:
                    self._flag("plan-residue", stmt,
                               f"src/repro/plan/ binds {name!r} — the package "
                               f"is the benchmark's two names and goes with "
                               f"ROADMAP item 2a; new code belongs elsewhere")
        self.generic_visit(node)

    # -- plan-residue (the import side) -----------------------------------
    def _visit_import(self, node: ast.Import | ast.ImportFrom) -> None:
        names = [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{name}" for name in names]
        if self.rel.startswith(SRC_DIR) and not self.in_plan and any(
                "plan" in name.split(".") for name in names):
            self._flag("plan-residue", node,
                       "repro.plan imported from src/repro/ — the package is "
                       "a benchmark-only residue; import "
                       "la.orthogonalization / krylov.cycle directly")

    visit_Import = _visit_import
    visit_ImportFrom = _visit_import

    def _clock_allowed(self) -> bool:
        if self.rel in CLOCK_EXEMPT:
            return True
        return any(self.rel.startswith(d) for d in CLOCK_EXEMPT_DIRS)

    # -- distla-ledger -------------------------------------------------
    def _function_math_nodes(self, fn: ast.AST) -> list[ast.AST]:
        out = []
        for sub in ast.walk(fn):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult):
                out.append(sub)
            elif isinstance(sub, ast.Call):
                tail = _dotted(sub.func).rsplit(".", 1)[-1]
                if tail in MATH_CALLS:
                    out.append(sub)
        return out

    def _function_charges(self, fn: ast.AST) -> bool:
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call):
                name = _dotted(sub.func)
                tail = name.rsplit(".", 1)[-1]
                if tail in CHARGE_ATTRS or tail in CHARGING_COLLECTIVES \
                        or name.endswith("ledger.current"):
                    return True
        return False

    def _visit_function(self, node) -> None:
        if self.in_distla:
            math_nodes = self._function_math_nodes(node)
            if math_nodes and not self._function_charges(node):
                self._flag("distla-ledger", math_nodes[0],
                           f"function {node.name!r} does array math but "
                           f"never charges the cost ledger")
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


def _load_allowlist() -> set[tuple[str, str]]:
    entries: set[tuple[str, str]] = set()
    if not os.path.exists(ALLOWLIST):
        return entries
    with open(ALLOWLIST, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            path, _, rule = line.rpartition(":")
            entries.add((path.strip(), rule.strip()))
    return entries


def lint_file(path: str) -> list[tuple[str, int, str]]:
    rel = os.path.relpath(path, ROOT)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:  # pragma: no cover - repo code always parses
        return [("syntax", exc.lineno or 0, str(exc))]
    visitor = _Visitor(rel, source.splitlines())
    visitor.visit(tree)
    return visitor.findings


def option_census(root: str = ROOT) -> list[tuple[str, int, str]]:
    """``Options`` fields nothing under ``src/repro/`` reads as an attribute."""
    home = os.path.join(root, OPTIONS_HOME)
    read: set[str] = set()
    fields: dict[str, int] = {}
    for dirpath, _, names in os.walk(os.path.join(root, SRC_DIR)):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            tree = ast.parse(source, filename=path)
            if path != home:
                read.update(node.attr for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute))
                continue
            lines = source.splitlines()
            fields = {stmt.target.id: stmt.lineno
                      for cls in tree.body
                      if isinstance(cls, ast.ClassDef)
                      and cls.name == "Options"
                      for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign)
                      and "lint: allow(option-census)"
                      not in lines[stmt.lineno - 1]}
    return [("option-census", lineno,
             f"Options.{name} is read nowhere under src/repro/ — delete "
             f"the option or the code that should have read it")
            for name, lineno in fields.items() if name not in read]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help=f"files/dirs to lint (default: {SCANNED_DIRS})")
    ns = ap.parse_args(argv)

    targets = ns.paths or [os.path.join(ROOT, d) for d in SCANNED_DIRS]
    files: list[str] = []
    for target in targets:
        if os.path.isfile(target):
            files.append(target)
            continue
        for dirpath, _, names in os.walk(target):
            files.extend(os.path.join(dirpath, n)
                         for n in sorted(names) if n.endswith(".py"))

    allow = _load_allowlist()
    total = 0
    for path in sorted(files):
        rel = os.path.relpath(path, ROOT)
        for rule, lineno, msg in lint_file(path):
            if (rel, rule) in allow:
                continue
            print(f"{rel}:{lineno}: [{rule}] {msg}")
            total += 1
    if not ns.paths:
        for rule, lineno, msg in option_census():
            print(f"{OPTIONS_HOME}:{lineno}: [{rule}] {msg}")
            total += 1
    if total:
        print(f"\nlint_repro: {total} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_repro: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
