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


def test_one_direction_rule_in_derivative():
    """Every stack of directions becomes units and lengths through _units,
    and _prep_direction checks the one unit direction of a single-direction
    op: a third function of derivative.py that reads domain_norm is a third
    direction rule."""
    readers = _functions_reading("derivative.py", "domain_norm")
    assert sorted(readers) == ["_prep_direction", "_units"], readers


def _adds_one(node) -> bool:
    """Whether node holds an addition with a float 1.0 operand."""
    def is_one(side) -> bool:
        return isinstance(side, ast.Constant) and type(side.value) is float and side.value == 1.0

    return any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add) and (is_one(n.left) or is_one(n.right))
        for n in ast.walk(node)
    )


def test_one_scoring_rule():
    """Every margin kernel reads its rounding allowance and its magnitude
    scale from checks._magnitude_scale: a second function of the package that
    reads _FP_SAFETY or _EPS is a second rounding allowance, and a second
    function of checks.py or derivative.py that adds 1.0 is a second
    1 + ||.|| scale."""
    modules = sorted(path.name for path in SRC_DIR.glob("*.py"))
    for name in ("_FP_SAFETY", "_EPS"):
        readers = [(module, function) for module in modules for function in _functions_reading(module, name)]
        assert readers == [("checks.py", "_magnitude_scale")], (name, readers)
    adders = []
    for module in ("checks.py", "derivative.py"):
        tree = ast.parse((SRC_DIR / module).read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        adders += [(module, node.name) for node in functions if _adds_one(node)]
    assert adders == [("checks.py", "_magnitude_scale")], adders


def _reads_linalg_norm(node) -> bool:
    """Whether node is numpy's norm: linalg.norm read as an attribute, or
    imported from numpy.linalg."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy.linalg"
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "norm"
        and getattr(node.value, "attr", getattr(node.value, "id", None)) == "linalg"
    )


def test_one_length_rule():
    """Every row length of the package comes from geometry.row_norms, or
    norm, its one-vector form, which neither overflows nor underflows: a
    line of src/paracone that reads np.linalg.norm measures rows a second
    way.  _audit_dual compares unit generators with unit rows against
    _AUDIT_TOL alone: a number of its own, or a max or abs of its operands,
    is a second scale."""
    readers = [
        (path.name, node.lineno)
        for path in sorted(SRC_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _reads_linalg_norm(node)
    ]
    assert not readers, readers
    tree = ast.parse((SRC_DIR / "geometry.py").read_text())
    (audit,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_audit_dual"]
    reads = _reads(audit)
    assert reads["_AUDIT_TOL"] == 1 and reads["unit_rows"], reads
    assert not {"abs", "max", "maximum"} & set(reads), reads
    # the docstring and the message default aside, the audit reads no constant
    numbers = [
        n.value
        for stmt in audit.body[1:]
        for n in ast.walk(stmt)
        if isinstance(n, ast.Constant) and not isinstance(n.value, str)
    ]
    assert not numbers, numbers


def _function(module: str, name: str):
    """The function of module named name."""
    tree = ast.parse((SRC_DIR / module).read_text())
    (node,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def _reductions_along_an_axis(node) -> list:
    """The lines under node that reduce along an axis by hand: a min, max,
    amin or amax with an axis (a keyword, or a positional one after the
    array, np.min(a, 1) or a.min(1)), a reduce or accumulate of np.minimum
    or np.maximum, or np.minimum or np.maximum folding into an out array."""
    lines = []
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr in ("reduce", "accumulate") and getattr(n.value, "attr", None) in ("minimum", "maximum"):
            lines.append(n.lineno)
        if not isinstance(n, ast.Call):
            continue
        func = n.func
        called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {k.arg for k in n.keywords}
        if called in ("min", "max", "amin", "amax"):
            # np.min(a, axis) takes the array first; a.min(axis) and the builtin max(a, b) do not
            on_numpy = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("np", "numpy")
            positional_axis = len(n.args) >= 2 if on_numpy else isinstance(func, ast.Attribute) and len(n.args) >= 1
            if "axis" in keywords or positional_axis:
                lines.append(n.lineno)
        if called in ("minimum", "maximum") and "out" in keywords:
            lines.append(n.lineno)
    return lines


def test_one_row_reduction_rule():
    """Every min or sup across cone rows goes through geometry.row_reduce,
    the one rule that chooses between numpy's reduce and a left-to-right
    fold: a margin kernel, the row measure or a sup norm that reduces rows
    itself is a second rule, whose bits could differ from the first on a
    +-0.0 tie or a NaN's sign."""
    readers = [
        ("checks.py", "_margins"),
        ("checks.py", "check_vector_lipschitz"),
        ("geometry.py", "cone_margins"),
        ("geometry.py", "row_norms"),
        ("geometry.py", "_rescaled_two_norms"),
        ("derivative.py", "_row_measure"),
    ]
    for module, name in readers:
        node = _function(module, name)
        assert _reads(node)["row_reduce"], (module, name)
        assert not _reductions_along_an_axis(node), (module, name, _reductions_along_an_axis(node))
    # the fold itself lives in row_reduce alone, where the search finds it
    assert _reductions_along_an_axis(_function("geometry.py", "row_reduce"))
    folders = [name for name in _functions_reading("geometry.py", "_FOLD_WIDTH")]
    assert folders == ["row_reduce"], folders


# the reductions and the finiteness test that, run once per point, turn a block's array pass into a point loop
_POINT_REDUCTIONS = {"max", "min", "all", "any", "mean", "isfinite"}


def _reductions_in_loops(node) -> list:
    """The lines under node where a loop body or a comprehension calls a
    reduction as a method or a numpy function (.max, .min, .all, .any, np.min,
    np.max, np.mean) or np.isfinite, skipping a loop whose body raises: such a
    loop runs only to name a bad input.  A comprehension's first iterable is
    evaluated once and is not searched."""
    lines = []
    for loop in ast.walk(node):
        if isinstance(loop, (ast.For, ast.While)):
            if any(isinstance(n, ast.Raise) for stmt in loop.body for n in ast.walk(stmt)):
                continue
            searched = loop.body
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            first, *rest = loop.generators
            heads = [loop.key, loop.value] if isinstance(loop, ast.DictComp) else [loop.elt]
            searched = heads + first.ifs + rest
        else:
            continue
        lines += [
            n.lineno
            for part in searched
            for n in ast.walk(part)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in _POINT_REDUCTIONS
        ]
    return sorted(set(lines))


def test_no_per_point_reduction_in_the_scan():
    """The scan and its battery kernel finish each block of points as
    arrays: a max, min, all, any, mean or isfinite called in a loop or a
    comprehension of gateaux_scan, _gateaux_reports or _gateaux_margins runs
    once per point, unless the loop raises, to name a bad point."""
    tree = ast.parse((SRC_DIR / "derivative.py").read_text())
    names = ("gateaux_scan", "_gateaux_reports", "_gateaux_margins")
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in names]
    assert {"gateaux_scan", "_gateaux_reports"} <= {n.name for n in functions}
    found = {n.name: _reductions_in_loops(n) for n in functions}
    assert not any(found.values()), found
    # the search finds a per-point max, a finiteness test in a comprehension,
    # and passes a loop that raises
    assert _reductions_in_loops(ast.parse("for p in ps:\n    out.append(p.max())")) == [2]
    assert _reductions_in_loops(ast.parse("ok = [np.isfinite(p).all() for p in ps]")) == [1]
    assert not _reductions_in_loops(ast.parse("for p in ps:\n    if not p.all():\n        raise ValueError(p)"))
