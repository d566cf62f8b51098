"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the library's default test collection:
it runs the workloads (about a minute on two cores) and captures
references from the seed commit, so it needs the git history.
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import statistics
import subprocess
import sys
from types import FunctionType

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import capture  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def _seed_commit_available() -> bool:
    probe = subprocess.run(["git", "-C", run.ROOT, "cat-file", "-e", capture.SEED_COMMIT],
                           capture_output=True)
    return probe.returncode == 0


needs_git = pytest.mark.skipif(not _seed_commit_available(),
                               reason="the seed commit is not in a git repository here")


def _capture(workload: str, seed: int, scale: str, out: str) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "capture.py"), "--workload", workload,
         "--seed", str(seed), "--scale", scale, "--out", out],
        check=True, capture_output=True, timeout=300,
    )
    return capture.load(out)


@pytest.fixture(scope="module")
def tiny_refs(tmp_path_factory):
    if not _seed_commit_available():
        pytest.skip("the seed commit is not in a git repository here")
    folder = tmp_path_factory.mktemp("refs")
    return {w: _capture(w, SEED, "tiny", str(folder / f"{w}.json.gz")) for w in WORKLOADS}


def _config() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs_at_tiny_size(tiny_refs, workload, trace):
    result = run.run_workload(workload, SEED, 0.0, trace, scale="tiny", refs=tiny_refs[workload])
    assert result["passes"] == 1
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["digest_mismatches"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _config()[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if trace:
        assert result["counts_repeat"]


def test_times_are_scaled_by_the_pass_calibrations(tiny_refs):
    refs = tiny_refs["grids"]
    result = run.run_workload("grids", SEED, 0.0, False, scale="tiny", refs=refs)
    calibrations = result["pass_calibration_s"][0]
    assert len(calibrations) == len(refs["commands"]) + 1
    factor = REFERENCE_S / statistics.fmean(calibrations)
    assert result["pass_factor"] == [pytest.approx(factor)]
    metrics = result["metrics"]
    assert metrics["run_s"]["value"] == pytest.approx(factor * result["pass_wall_s"][0])
    fig1 = result["pass_command_wall_s"][0]["fig1"]
    assert metrics["step1_s"]["value"] == pytest.approx(factor * fig1)
    setup = [s * k for s, k in zip(result["setup_samples_s"], result["setup_scale"])]
    assert metrics["setup_s"]["value"] == pytest.approx(statistics.median(setup))


def test_perturbed_reference_fails(tiny_refs):
    refs = copy.deepcopy(tiny_refs["grids"])
    fig1 = refs["commands"][0]
    lines = fig1["outputs"]["fig1.csv"].split("\n")
    fields = lines[1].split(",")
    fields[-1] = repr(float(fields[-1]) * (1.0 + 1e-6))
    lines[1] = ",".join(fields)
    fig1["outputs"]["fig1.csv"] = "\n".join(lines)
    result = run.run_workload("grids", SEED, 0.0, False, scale="tiny", refs=refs)
    assert result["failed"] == 1
    assert result["fail_ratio"] > 0
    assert result["digest_mismatches"] == 1
    assert not run.result_line(result)["correct"]


def test_check_rules():
    assert check.same_value(1.0 + 1e-12, 1.0)
    assert not check.same_value(1.0 + 1e-9, 1.0)
    assert check.same_value(1e6 * (1 + 1e-11), 1e6)
    assert not check.same_value(float("nan"), 1.0)
    assert check.same_value(float("nan"), float("nan"))
    assert not check.same_value(1, True)
    assert not check.same_value({"a": [1.0]}, {"a": [1.0, 2.0]})


def _public_functions() -> dict:
    """Every (module, name) -> object a bosonet module holds for a library function."""
    held = {}
    for modname, module in list(sys.modules.items()):
        if modname == "bosonet" or modname.startswith("bosonet."):
            for attr, value in vars(module).items():
                if isinstance(value, (FunctionType, tuple)):
                    held[modname, attr] = value
    return held


def test_traced_run_restores_every_name(tiny_refs):
    run.import_cli()
    for layer in LAYERS:
        importlib.import_module(f"bosonet.{layer}")
    import bosonet
    import bosonet.cli
    import bosonet.linalg
    import bosonet.suites

    before = _public_functions()
    original = bosonet.linalg.solve_lyapunov
    tracer = Tracer()
    tracer.install()
    try:
        # re-exports, imports into other layers and the SUITES tuple are all wrapped
        for holder in (bosonet, bosonet.linalg, sys.modules["bosonet.budget"]):
            assert holder.solve_lyapunov.__wrapped__ is original
        assert bosonet.cli.compute_budget is not before["bosonet.cli", "compute_budget"]
        assert all(hasattr(suite, "__wrapped__") for suite in bosonet.suites.SUITES)
    finally:
        tracer.uninstall()
    run.run_workload("ladder_verify", SEED, 0.0, True, scale="tiny",
                     refs=tiny_refs["ladder_verify"])
    after = _public_functions()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    untraced = run.run_workload("ladder_verify", SEED, 0.0, False, scale="tiny",
                                refs=tiny_refs["ladder_verify"])
    assert untraced["failed"] == 0


def test_tail_percentile():
    assert run.tail([5.0]) == (5.0, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (pytest.approx(2.8), 1)
    assert run.tail([float(v) for v in range(1, 21)]) == (pytest.approx(18.1), 2)
    assert run.tail([float(v) for v in range(1, 11)]) == (pytest.approx(9.1), 1)


def test_every_seed_has_committed_references():
    for seed in (0, 1, run.REFERENCE_SETS - 1, run.REFERENCE_SETS, 12345, 2**31 - 1):
        for workload in WORKLOADS:
            refs = run.load_refs(workload, seed)
            assert refs["seed"] == run.reference_seed(seed)
            assert refs["library"] == f"commit {capture.SEED_COMMIT}"
            assert all(command["exit"] == 0 for command in refs["commands"])


@needs_git
def test_committed_references_reproduce(tmp_path):
    seed = run.reference_seed(run.DEFAULT_SEED)
    for workload in WORKLOADS:
        committed = capture.load(capture.ref_path(workload, seed))
        fresh = _capture(workload, seed, "full", str(tmp_path / f"{workload}.json.gz"))
        assert fresh == committed
