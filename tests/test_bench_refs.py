"""Output drift against the committed benchmark references.

Runs the commands of one reference pass through the benchmark's own
runner and checker, so a refactor that moves any output by more than
the checker's 1e-10 fails here as well as in the benchmark. Only
``bench/`` is read; nothing is written there.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import bosonet.cli
from bosonet import linalg
from bosonet.network import BathSpec, NetworkSpec, beam_splitter, build_state_space, detuning

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


capture = _bench_module("capture")
check = _bench_module("check")
tracer = _bench_module("tracer")
workloads = _bench_module("workloads")


def _cases():
    # every command of seed 0, every grids command of the other nine
    # seeds: the boundary digits (eta_e, slope, intercept) are the outputs
    # most sensitive to how the frame shares are summed, and the fig1 and
    # fig2 sweeps pin the batched grids; and every analyze command of the
    # other nine ladder_verify seeds (their verify runs set 0's seed)
    sets = [("grids-0-full", None), ("ladder_verify-0-full", None)]
    sets += [(f"grids-{seed}-full", ("fig1", "fig2", "boundary")) for seed in range(1, 10)]
    analyze = tuple(f"analyze_{size}" for size in ("n2", "n4", "n8", "n12", "n16", "ep"))
    sets += [(f"ladder_verify-{seed}-full", analyze) for seed in range(1, 10)]
    for ref_name, only in sets:
        refs = capture.load(BENCH / "refs" / f"{ref_name}.json.gz")
        for command in refs["commands"]:
            if only is None or command["name"] in only:
                yield pytest.param(refs["files"], command, id=f"{ref_name}:{command['name']}")


@pytest.mark.parametrize("files, command", list(_cases()))
def test_command_matches_its_reference(tmp_path, files, command):
    workloads.write_inputs({"files": files}, str(tmp_path))
    got = workloads.run_command(bosonet.cli.main, command, str(tmp_path))
    assert got["error"] is None
    scored = check.check_command(got, command)
    assert scored["attempted"] > 0
    assert scored["failed"] == 0, scored


def test_tracer_counts_every_quadrature_node(monkeypatch):
    # the traced benchmark run swaps integrate_spectrum's integrand for a
    # counting one; a change to the quadrature's interface fails here
    # rather than only in that run
    batches = []
    gk_panels = linalg._gk_panels

    def recorded(f, lo, hi):
        batches.append(len(lo))
        return gk_panels(f, lo, hi)

    monkeypatch.setattr(linalg, "_gk_panels", recorded)
    ss = build_state_space(
        NetworkSpec(
            2,
            [BathSpec(0.2), BathSpec(0.2)],
            [beam_splitter(0.4, 0, 1), detuning(30.0, 0), detuning(30.0, 1)],
        )
    )
    eye = np.eye(2 * ss.n_modes)

    def resolvent(omegas):
        # T T^H with T = (-i omega - A)^-1 D: its poles are the drift's
        t = np.linalg.solve(-1j * omegas[:, None, None] * eye - ss.drift, ss.input)
        return t @ t.conj().swapaxes(-2, -1)

    traced = tracer.Tracer()
    traced.install()
    try:
        linalg.integrate_spectrum(resolvent, poles=linalg.eigenvalues(ss.drift))
    finally:
        traced.uninstall()
    table, counters = traced.take()
    assert table["linalg.integrate_spectrum"][0] == 1
    assert len(batches) > 1  # the count spans refinement batches too
    assert counters["linalg.integrate_spectrum.freq_evals"] == 15 * sum(batches)
