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


def handlers_of(tree, name):
    """(function, line) of every except clause that names the exception
    ``name``, with the innermost function that holds it."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(t, ast.Name) and t.id == name for t in types):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
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
