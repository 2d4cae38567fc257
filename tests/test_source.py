"""Checks on the package source itself."""

import ast
from collections import Counter

from conftest import REPO_ROOT

SRC_DIR = REPO_ROOT / "src" / "paracone"


def _private_definitions(tree: ast.Module):
    """(name, node) per module-level private function, class or assigned name, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node


def _reads(node) -> Counter:
    """How often each name is read under node, as a bare name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def test_every_private_module_name_is_read():
    """A private helper that nothing in the package reads outside its own
    definition is dead code, the kind a deletion leaves behind."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC_DIR.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if reads[name] - _reads(node)[name] <= 0
    ]
    assert trees
    assert not unread, unread


def _functions_reading(module: str, name: str) -> list:
    """The functions of module that read name, as a bare name or an attribute."""
    tree = ast.parse((SRC_DIR / module).read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [node.name for node in functions if _reads(node)[name]]


def test_one_function_of_derivative_evaluates_the_mapping():
    """Every derivative-side op evaluates through one quotient kernel: a
    second function of derivative.py that calls eval_batch is a second
    evaluation path."""
    callers = _functions_reading("derivative.py", "eval_batch")
    assert len(callers) == 1, callers


def test_one_function_of_derivative_runs_the_stop_rule():
    """Every estimate stops through one function, the one that evaluates only
    the grid levels a stop can read: a second function of derivative.py that
    calls _stop_levels is a second estimator path, which could evaluate every
    level again."""
    callers = _functions_reading("derivative.py", "_stop_levels")
    assert len(callers) == 1, callers


def test_one_function_of_geometry_audits_the_dual():
    """Every claim that rows are nonnegative on a cone meets one exact audit:
    a second function of geometry.py that reads _AUDIT_TOL is a second rule."""
    readers = _functions_reading("geometry.py", "_AUDIT_TOL")
    assert readers == ["_audit_dual"], readers
