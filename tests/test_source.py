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


def test_one_function_of_derivative_evaluates_the_mapping():
    """Every derivative-side op evaluates through one quotient kernel: a
    second function of derivative.py that calls eval_batch is a second
    evaluation path."""
    tree = ast.parse((SRC_DIR / "derivative.py").read_text())
    callers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(n, ast.Attribute) and n.attr == "eval_batch" for n in ast.walk(node))
    ]
    assert len(callers) == 1, callers
