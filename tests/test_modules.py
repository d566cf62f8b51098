"""Module boundaries of the package."""

import ast
from pathlib import Path

import pytest

import bosonet
from bosonet import scenarios

PACKAGE = Path(bosonet.__file__).parent

# the names bosonet re-exports from the scenario layer, loaded on first use
SCENARIO_NAMES = (
    "FIG1_HEADER", "FIG2_HEADER", "FIG3_HEADER", "BoundaryLine", "DuanResult",
    "OptimalCoupling", "PairedVarianceReport", "ParametricOptimum",
    "ParametricParams", "QuadratureBlock", "SqueezingPowerResult",
    "ThreeModeBudget", "ThreeModeParams", "TwoModeParams", "boundary_line",
    "duan_quantities", "duan_quantity", "fig1_point", "fig1_rows", "fig2_point",
    "fig2_rows", "fig3_rows", "optimal_coupling", "optimal_couplings",
    "parametric_blocks", "parametric_bound", "parametric_network",
    "parametric_optimum", "parametric_variance_check",
    "parametric_variance_checks", "separability_boundary", "squeezing_powers",
    "three_mode_budget", "three_mode_budgets", "three_mode_physical_network",
    "three_mode_transform", "two_mode_network", "two_mode_squeezing_power",
)
CORE_LAYERS = ("errors", "linalg", "network", "budget", "steady")


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


def test_only_linalg_computes_spectra():
    # stability is decided in one place: every np.linalg.eig or eigvals
    # call sits in linalg, which certifies drifts or takes their spectra
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function, node in nodes_by_function(tree):
            if isinstance(node, ast.Call) and (calls(node, "eig") or calls(node, "eigvals")):
                callers.add((path.name, function))
    assert callers == {("linalg.py", "_spectra"), ("linalg.py", "_factor")}


def calls_by_method(tree):
    """(class, function, call) of every call of the tree, with the
    innermost class and function that hold it (None outside any)."""
    found = []

    def visit(node, cls, function):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            found.append((cls, function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, function)

    visit(tree, None, None)
    return found


def test_only_the_lyapunov_operator_factors_drifts():
    # np.linalg.eig and the Kronecker solves run in LyapunovOperator's
    # methods alone, and eigvals in _spectra, which serves the operator's
    # spectra, the one-shot spectrum calls and the stability test
    sites = {
        "eig": set(), "eigvals": set(), "_kronecker_solves": set(), "_spectra": set(),
        "LyapunovOperator": set(),
    }
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls, function, node in calls_by_method(tree):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in sites:
                sites[name].add((path.name, cls, function))
    assert sites["eig"] == {("linalg.py", "LyapunovOperator", "_factor")}
    assert sites["_kronecker_solves"] == {("linalg.py", "LyapunovOperator", "_route")}
    assert sites["eigvals"] == {("linalg.py", None, "_spectra")}
    assert sites["_spectra"] == {
        ("linalg.py", "LyapunovOperator", "spectra"),
        ("linalg.py", None, "eigenvalues"),
        ("linalg.py", None, "_stable_spectra"),
    }
    # an operator is made by solve_lyapunov, by slicing one, and by the
    # state space that holds the operator of its drift
    assert sites["LyapunovOperator"] == {
        ("linalg.py", None, "solve_lyapunov"),
        ("linalg.py", "LyapunovOperator", "__getitem__"),
        ("network.py", "StateSpace", "_lyapunov"),
    }


def test_one_per_mode_read_of_the_covariance():
    # CovarianceState._moments alone indexes V per mode; every other read
    # of a state's V takes the whole matrix (quadrature_matrix)
    reads, indexes = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function, node in nodes_by_function(tree):
            if isinstance(node, ast.Attribute) and node.attr == "v":
                reads.add((path.name, function))
            if isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "v":
                indexes.add((path.name, function))
    assert indexes == {("steady.py", "_moments")}
    assert reads == {("steady.py", "_moments"), ("steady.py", "quadrature_matrix")}


def test_scenario_names_resolve_through_the_package(monkeypatch):
    assert len(set(SCENARIO_NAMES)) == 38
    listed = dir(bosonet)
    for name in SCENARIO_NAMES:
        assert getattr(bosonet, name) is getattr(scenarios, name)
        assert name in listed
    # looked up on every access, so a replacement in scenarios shows
    monkeypatch.setattr(scenarios, "fig1_rows", lambda: None)
    assert bosonet.fig1_rows is scenarios.fig1_rows
    with pytest.raises(AttributeError, match="no_such_name"):
        bosonet.no_such_name
    star = {}
    exec("from bosonet import *", star)
    assert set(SCENARIO_NAMES) <= set(star)
    assert {"compute_budget", "solve_lyapunov", "NetworkSpec"} <= set(star)


def imported_modules(node):
    """The package modules an import statement names (``bosonet`` itself
    is not one)."""
    if isinstance(node, ast.Import):
        return {
            alias.name.split(".")[1]
            for alias in node.names
            if alias.name.startswith("bosonet.")
        }
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 1:
        path = node.module.split(".") if node.module else []
    elif node.level == 0 and node.module and node.module.split(".")[0] == "bosonet":
        path = node.module.split(".")[1:]
    else:
        return set()
    return {path[0]} if path else {alias.name for alias in node.names}


def module_imports(name):
    """(function, line, modules) of every import statement of package
    module ``name`` that names a package module, with the innermost
    function that holds it (None at module level)."""
    path = PACKAGE / f"{name}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (function, node.lineno, imported_modules(node))
        for function, node in nodes_by_function(tree)
        if imported_modules(node)
    ]


def test_imported_modules_reads_every_import_form():
    forms = {
        "from .scenarios import fig1_rows": {"scenarios"},
        "from . import suites, network": {"suites", "network"},
        "from bosonet.cli import main": {"cli"},
        "from bosonet import scenarios": {"scenarios"},
        "import bosonet.suites": {"suites"},
        "import bosonet": set(),
        "from math import pi": set(),
    }
    for source, modules in forms.items():
        assert imported_modules(ast.parse(source).body[0]) == modules, source


def test_core_layers_import_no_scenario_suite_or_cli_module():
    # every command needs the core layers; they must not pull in the rest
    offenders = [
        (name, line, modules)
        for name in CORE_LAYERS
        for _, line, modules in module_imports(name)
        if modules & {"scenarios", "suites", "cli"}
    ]
    assert offenders == []


def test_package_and_cli_load_scenarios_and_suites_in_functions_only():
    # a top-level import would make every fresh start, analyze included,
    # compile both layers
    offenders = [
        (name, line, modules)
        for name in ("__init__", "cli")
        for function, line, modules in module_imports(name)
        if function is None and modules & {"scenarios", "suites"}
    ]
    assert offenders == []
