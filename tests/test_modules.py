"""Module boundaries of the package."""

import ast
from pathlib import Path

import bosonet

PACKAGE = Path(bosonet.__file__).parent


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders.extend(
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert offenders == []


def nodes_by_function(tree):
    """(function, node) for every node of the tree, with the innermost
    function that holds it (None at module level)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        found.append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def handlers_of(tree, name):
    """(function, line) of every except clause that names the exception
    ``name``, with the innermost function that holds it."""
    found = []
    for function, node in nodes_by_function(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(t, ast.Name) and t.id == name for t in types):
                found.append((function, node.lineno))
    return found


def test_one_replay_rule_catches_package_errors():
    # a batch that raises is replayed item by item by linalg.batch_or_each;
    # the CLI turns the errors into exit codes and skipped sweep points
    allowed = {("linalg.py", "batch_or_each"), ("cli.py", "main"), ("cli.py", "_sweep_row")}
    catches = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        catches.update((path.name, f) for f, _ in handlers_of(tree, "BosonetError"))
    assert catches == allowed


def calls(node, name):
    """Whether the node calls a function named ``name``, by name or as an
    attribute."""
    return any(
        isinstance(n, ast.Call)
        and (getattr(n.func, "id", None) == name or getattr(n.func, "attr", None) == name)
        for n in ast.walk(node)
    )


def test_one_quadrature_refinement_loop():
    # linalg.integrate_spectra alone evaluates panels and refines them;
    # integrate_spectrum is its one-member call, not a second loop
    evaluates, loops, refusals = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function, node in nodes_by_function(tree):
            where = (path.name, function)
            if isinstance(node, ast.Call) and calls(node, "_gk_panels"):
                evaluates.add(where)
            if isinstance(node, (ast.For, ast.While)) and calls(node, "_gk_panels"):
                loops.add(where)
            if isinstance(node, ast.Constant) and "did not converge below" in str(node.value):
                refusals.add(where)
    one = {("linalg.py", "integrate_spectra")}
    assert evaluates == one
    assert loops == one
    assert refusals == one
