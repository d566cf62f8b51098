"""Seeded inputs and command lists for the benchmark workloads.

A workload is one pass of ``bosonet`` CLI commands. ``make_workload``
draws every input from the seed and returns

    {"files": {name: text}, "commands": [{"name", "argv", "outputs"}],
     "steps": [command name for step1_s, step2_s, step3_s]}

``argv`` entries may contain ``{work}``, which the runner replaces with
its scratch directory. The ladder specs are drawn with the library that
is on the import path (the capture script puts the seed commit's
library there), so the inputs never depend on the code under test.

``run_command`` is the one place that calls ``bosonet.cli.main``; the
capture script and the timed loop both use it.
"""

from __future__ import annotations

import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

WORKLOADS = ("grids", "ladder_verify")
SCALES = ("full", "tiny")

_LADDER_SIZES = {"full": (2, 4, 8, 12, 16), "tiny": (2, 4)}
_LADDER_VERIFY_STEPS = {
    "full": ("analyze_n8", "analyze_n16", "verify"),
    "tiny": ("analyze_n2", "analyze_n4", "verify"),
}
# the CLI's default verify seed, the release check as users run it
VERIFY_SEED = 20260815
# Non-passive draws halve their active amplitudes until every drift
# eigenvalue sits at least this far left of the imaginary axis.
_STABILITY_MARGIN = 0.05

# The 2-mode network at its exceptional point: gamma = (2, 1) and a
# beam splitter at |gamma1 - gamma2| / 4, where the drift's eigenvector
# matrix has condition number ~6.7e7.
EXCEPTIONAL_POINT_SPEC = {
    "modes": 2,
    "baths": [
        {"gamma": 2.0, "n": 0.0, "m_re": 0.0, "m_im": 0.0},
        {"gamma": 1.0, "n": 0.0, "m_re": 0.0, "m_im": 0.0},
    ],
    "couplings": [
        {"kind": "beam_splitter", "amp_re": 0.25, "amp_im": 0.0, "modes": [0, 1]}
    ],
}


def _num(x: float) -> str:
    return repr(float(x))


def _grids(rng: np.random.Generator, scale: str) -> dict:
    points = 400 if scale == "full" else 4
    side = 20 if scale == "full" else 2
    xi1, g1a, g1b = rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    g2a, g2b, g_minus = rng.uniform(2.0, 5.0), rng.uniform(0.5, 2.0), rng.uniform(1.0, 4.0)
    kappa, omega = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    gamma_m, g_script, xi3 = rng.uniform(0.005, 0.05), rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)
    # the fig2 drift is stable for |delta_eta| < gamma1 + gamma2
    edge = 0.98 * (g2a + g2b)
    commands = [
        {
            "name": "fig1",
            "argv": ["sweep", "--scenario", "fig1",
                     "--grid", f"g_script:0.5:50:{points}:log",
                     "--xi", _num(xi1), "--gamma1", _num(g1a), "--gamma2", _num(g1b),
                     "--out", "{work}/fig1.csv"],
            "outputs": ["fig1.csv"],
        },
        {
            "name": "fig2",
            "argv": ["sweep", "--scenario", "fig2",
                     "--grid", f"delta_eta:{_num(-edge)}:{_num(edge)}:{points}",
                     "--gamma1", _num(g2a), "--gamma2", _num(g2b), "--g-minus", _num(g_minus),
                     "--out", "{work}/fig2.csv"],
            "outputs": ["fig2.csv"],
        },
        {
            "name": "boundary",
            "argv": ["boundary", "--kappa", _num(kappa), "--omega", _num(omega),
                     "--gamma-m", _num(gamma_m), "--g-script", _num(g_script), "--xi", _num(xi3),
                     "--grid", f"n_o:0:2:{side}", "--grid", f"n_m:0:0.5:{side}",
                     "--out", "{work}/boundary.json"],
            "outputs": ["boundary.json", "boundary.csv"],
        },
    ]
    return {"files": {}, "commands": commands, "steps": ["fig1", "fig2", "boundary"]}


def _random_spec(rng: np.random.Generator, n: int, passive: bool) -> dict:
    from bosonet import build_state_space, is_stable, network_from_json

    baths = [
        {"gamma": float(g), "n": float(o), "m_re": 0.0, "m_im": 0.0}
        for g, o in zip(rng.uniform(0.5, 5.0, size=n), rng.uniform(0.0, 1.0, size=n))
    ]
    couplings = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.5:
                amp = rng.uniform(0.0, 2.0) * np.exp(2j * np.pi * rng.uniform())
                couplings.append({"kind": "beam_splitter", "amp_re": float(amp.real),
                                  "amp_im": float(amp.imag), "modes": [i, j]})
        if rng.uniform() < 0.3:
            couplings.append({"kind": "detuning", "amp_re": float(rng.uniform(-1.0, 1.0)),
                              "amp_im": 0.0, "modes": [i]})
    extras = []
    if not passive:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.uniform() < 0.3:
                    amp = rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
                    extras.append(("two_mode_squeeze", complex(amp), [i, j]))
            if rng.uniform() < 0.3:
                amp = rng.uniform(0.0, 0.5) * np.exp(2j * np.pi * rng.uniform())
                extras.append(("degenerate_parametric", complex(amp), [i]))
    scale = 1.0
    while True:
        doc = {
            "modes": n,
            "baths": baths,
            "couplings": couplings + [
                {"kind": kind, "amp_re": float((amp * scale).real),
                 "amp_im": float((amp * scale).imag), "modes": modes}
                for kind, amp, modes in extras
            ],
        }
        drift = build_state_space(network_from_json(doc)).drift
        if is_stable(drift, margin=_STABILITY_MARGIN):
            return doc
        scale *= 0.5


def _ladder_verify(rng: np.random.Generator, scale: str) -> dict:
    """``analyze`` up the size ladder and at the exceptional point, then ``verify``.

    ``verify`` runs at ``VERIFY_SEED`` whatever the benchmark's seed: its
    work changes with its seed, and its time over that of ``analyze`` at
    N = 16 ranged from 1.51 to 2.14 across seeds 1 to 10, which alone put
    the ten-seed spread of its step time near 0.25.
    """
    files, commands = {}, []
    specs = [
        # sizes alternate non-passive and passive, starting non-passive
        (f"n{n}", _random_spec(rng, n, passive=index % 2 == 1))
        for index, n in enumerate(_LADDER_SIZES[scale])
    ]
    specs.append(("ep", EXCEPTIONAL_POINT_SPEC))
    for tag, doc in specs:
        files[f"{tag}.json"] = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        commands.append({
            "name": f"analyze_{tag}",
            "argv": ["analyze", "--spec", f"{{work}}/{tag}.json",
                     "--out", f"{{work}}/{tag}_report.json"],
            "outputs": [f"{tag}_report.json"],
        })
    commands.append({"name": "verify", "argv": ["verify", "--seed", str(VERIFY_SEED)], "outputs": []})
    return {"files": files, "commands": commands, "steps": list(_LADDER_VERIFY_STEPS[scale])}


def make_workload(name: str, seed: int, scale: str = "full") -> dict:
    """Inputs and commands of one workload pass, drawn from ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
    if name == "grids":
        return _grids(rng, scale)
    return _ladder_verify(rng, scale)


def write_inputs(workload: dict, work: str) -> None:
    for name, text in workload["files"].items():
        with open(os.path.join(work, name), "w", encoding="ascii") as fh:
            fh.write(text)


def run_command(main, command: dict, work: str) -> dict:
    """Run one CLI command in-process and collect what it produced.

    Wall and CPU time cover the ``main`` call only; reading the output
    files happens after the clocks stop. An exception escaping ``main``
    is recorded, not raised: it fails the command's operations.
    """
    argv = [arg.replace("{work}", work) for arg in command["argv"]]
    for name in command["outputs"]:
        path = os.path.join(work, name)
        if os.path.exists(path):
            os.unlink(path)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape fails the command
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    outputs = {}
    for name in command["outputs"]:
        path = os.path.join(work, name)
        if os.path.exists(path):
            with open(path, "r", encoding="ascii") as fh:
                outputs[name] = fh.read()
    return {
        "exit": code,
        "error": error,
        "stdout": out.getvalue(),
        "outputs": outputs,
        "wall_s": wall,
        "cpu_s": cpu,
    }
