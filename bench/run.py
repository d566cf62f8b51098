"""bosonet benchmark: seeded workloads run in-process, checked, timed.

    python3 bench/run.py --workload grids --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

One process, one client, closed loop: each ``bosonet.cli.main(argv)``
call is issued after the previous one returns. Inputs come from the
committed reference set the seed selects, before timing starts, and
every output of every pass is checked against that set's outputs of the
seed commit (see ``capture.py``). Times are scaled to a reference host by
a calibration kernel timed between commands (see ``calibrate.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
library's public functions (``tracer.py``) and prints the per-layer
metrics. ``--workload all`` runs every workload both ways in child
processes and adds the tracing overhead. The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a full result file with run metadata goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import capture  # noqa: E402

capture.pin_blas_threads()  # before workloads imports numpy

from calibrate import REFERENCE_S, calibrate  # noqa: E402
from check import check_command  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import EXCEPTIONAL_POINT_SPEC, WORKLOADS, run_command, write_inputs  # noqa: E402

DEFAULT_SEED = 1
# bench/refs holds references for seeds 0 .. REFERENCE_SETS - 1
REFERENCE_SETS = 10
# setup_s is the median of this many scaled probes; a probe takes about 0.2 s
SETUP_PROBES = 12
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "run_s_tail": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "step1_s": "s",
    "step2_s": "s",
    "step3_s": "s",
}
TRACED_FUNCTIONS = (
    "linalg.solve_lyapunov.dim_le6",
    "linalg.solve_lyapunov.dim_8to14",
    "linalg.solve_lyapunov.dim_ge16",
    "linalg.eigenvalues",
    "linalg.integrate_spectrum",
    "linalg.golden_section_max",
    "network.build_state_space",
    "network.bogoliubov_frame",
    "network.rotate_mode",
    "budget.compute_budget",
    "budget.budget_via_spectrum",
    "budget.verify_sum_rules",
    "steady.steady_covariance",
    "scenarios.two_mode_squeezing_power",
    "scenarios.parametric_variance_check",
    "scenarios.duan_quantity",
    "scenarios.three_mode_budget",
    "scenarios.optimal_coupling",
)
COUNTERS = {
    "linalg.solve_lyapunov.computed_bytes": "bytes",
    "linalg.integrate_spectrum.freq_evals": "count",
    "linalg.golden_section_max.fn_evals": "count",
}
SUITES = (
    "sum_rules", "route_agreement", "reciprocity", "ix_bound", "two_mode_bound",
    "parametric", "duan_routes", "boundary_flip", "g_opt", "steady_physics",
    "determinism",
)


def per_layer_units() -> dict:
    units = {}
    for name in TRACED_FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.self_s": "s"})
    units.update(COUNTERS)
    units.update({f"suites.{name}.busy_s": "s" for name in SUITES})
    units["cli.self_s"] = "s"
    units["trace.run_s"] = "s"
    return units


# ---------------------------------------------------------------- set-up

class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """Import ``bosonet.cli`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bosonet", "cli.py")):
        raise BenchError(f"no library at {SRC}/bosonet; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bosonet.cli

    origin = os.path.dirname(os.path.dirname(os.path.abspath(bosonet.cli.__file__)))
    if origin != SRC:
        raise BenchError(f"imported bosonet from {origin}, expected {SRC}")
    return bosonet.cli.main


def reference_seed(seed: int) -> int:
    """The committed reference set that ``seed`` selects.

    The benchmark must run in checkouts without git history, where no
    new references can be captured, so every seed maps to one of the
    ``REFERENCE_SETS`` committed sets and takes its inputs from it.
    """
    return seed % REFERENCE_SETS


def load_refs(workload: str, seed: int, scale: str = "full") -> dict:
    path = capture.ref_path(workload, reference_seed(seed), scale)
    if not os.path.exists(path):
        raise BenchError(f"no reference file {os.path.relpath(path, ROOT)}; "
                         "make it with bench/capture.py")
    return capture.load(path)


_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import bosonet.cli
code = bosonet.cli.main(["analyze", "--spec", sys.argv[2], "--out", sys.argv[3]])
print(time.monotonic())
sys.exit(code)
"""


def probe_setup(work: str) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its first completed command.

    The probe command is ``analyze`` on the 2-mode exceptional-point
    spec in ``work/probe.json``: it parses arguments and makes the first
    LAPACK calls. The monotonic clock is shared by all processes on the
    host. Returns the seconds and the factor that scales them to the
    reference host, from two calibrations before and two after the probe.
    """
    before = [calibrate(), calibrate()]
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, SRC, os.path.join(work, "probe.json"),
         os.path.join(work, "probe_fresh.out")],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    seconds = float(proc.stdout.split()[-1]) - start
    return seconds, REFERENCE_S / statistics.fmean(before + [calibrate(), calibrate()])


# ------------------------------------------------------------- the loop

def one_pass(main, refs: dict, work: str, tracer: Tracer | None) -> dict:
    """Run the workload's commands once and check their outputs.

    The calibration kernel runs before the first command and after each
    one. ``factor`` is ``REFERENCE_S`` over the mean of those times; it
    scales every time of the pass, span times included, to the reference
    host. A pass takes 1.5 to 6 s, shorter than the 10 to 30 s the host
    stays in one speed state, and the mean over all of the pass's
    calibrations is less noisy than the two next to one short command.
    """
    call = main if tracer is None else (lambda argv: tracer.call("cli", main, argv))
    record = {"wall": {}, "cpu": {}, "calibration": [calibrate()], "attempted": 0, "failed": 0,
              "digest_mismatches": 0, "spans": {}, "counters": {}, "by_command": {}}
    for command in refs["commands"]:
        got = run_command(call, command, work)
        record["calibration"].append(calibrate())
        record["wall"][command["name"]] = got["wall_s"]
        record["cpu"][command["name"]] = got["cpu_s"]
        if tracer is not None:
            spans, counters = tracer.take()
            record["by_command"][command["name"]] = spans
            for name, (calls, busy, own) in spans.items():
                total = record["spans"].setdefault(name, [0, 0.0, 0.0])
                total[0] += calls
                total[1] += busy
                total[2] += own
            for name, amount in counters.items():
                record["counters"][name] = record["counters"].get(name, 0) + amount
        score = check_command(got, command)
        for key in ("attempted", "failed", "digest_mismatches"):
            record[key] += score[key]
        if got["error"] is not None:
            record.setdefault("errors", []).append(f"{command['name']}: {got['error']}")
    record["factor"] = factor = REFERENCE_S / statistics.fmean(record["calibration"])
    for span in [*record["spans"].values(),
                 *(s for spans in record["by_command"].values() for s in spans.values())]:
        span[1] *= factor
        span[2] *= factor
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", refs: dict | None = None) -> dict:
    """Run passes for ``seconds`` and return the result record."""
    main = import_cli()
    if refs is None:
        refs = load_refs(workload, seed, scale)
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(BENCH, ".work"))
    try:
        write_inputs(refs, work)
        with open(os.path.join(work, "probe.json"), "w", encoding="ascii") as fh:
            json.dump(EXCEPTIONAL_POINT_SPEC, fh)
        setup, probes = [], 0 if trace else SETUP_PROBES
        # warm the in-process interpreter the way the probe warmed a fresh one
        run_command(main, {"argv": ["analyze", "--spec", "{work}/probe.json",
                                    "--out", "{work}/probe.out"], "outputs": []}, work)
        tracer = Tracer() if trace else None
        passes = []
        for _ in range(3):  # warm the calibration kernel's code paths
            calibrate()
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                passes.append(one_pass(main, refs, work, tracer))
                # set-up probes are spread over the run, between passes, so
                # they meet the same host speed as the passes do
                due = probes * min(1.0, (time.perf_counter() - start) / seconds) if seconds else 0
                while len(setup) < due:
                    setup.append(probe_setup(work))
            while len(setup) < probes:
                setup.append(probe_setup(work))
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, seconds, trace, scale, refs, setup, passes)


# -------------------------------------------------------------- metrics

def tail(values: list[float]) -> tuple[float, int]:
    """90th percentile, interpolated between ranks, and how many samples lie beyond it.

    The highest percentile with at least ten samples beyond it needs 100
    samples to reach p90, and a 55 s run makes 9 to 40 passes. Nearest
    rank made the value jump between passes as the pass count changed;
    interpolation moves it smoothly. With 9 to 12 passes, as on
    ``ladder_verify``, it lies between the two slowest passes.
    """
    if len(values) == 1:
        return values[0], 0
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return p90, sum(1 for v in values if v > p90)


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def scaled(p: dict, key: str, commands=None) -> float:
    """A pass's wall or CPU seconds over ``commands`` (default all), scaled
    to the reference host."""
    return p["factor"] * sum(p[key][c] for c in (commands or p[key]))


def end_to_end_metrics(refs: dict, setup: list[tuple[float, float]], passes: list[dict]) -> dict:
    walls = [scaled(p, "wall") for p in passes]
    cpus = [scaled(p, "cpu") for p in passes]
    tail_value, beyond = tail(walls)
    n = len(passes)
    metrics = {
        "setup_s": _metric(statistics.median(s * k for s, k in setup), "s", len(setup)),
        "run_s": _metric(statistics.median(walls), "s", n),
        "run_s_tail": {**_metric(tail_value, "s", n), "percentile": 90, "beyond": beyond},
        "cpu_s": _metric(statistics.median(cpus), "s", n),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        ),
    }
    for k, command in enumerate(refs["steps"], start=1):
        metrics[f"step{k}_s"] = {
            **_metric(statistics.median(scaled(p, "wall", [command]) for p in passes), "s", n),
            "command": command,
        }
    assert {k: m["unit"] for k, m in metrics.items()} == END_TO_END
    return metrics


def per_layer_metrics(passes: list[dict]) -> tuple[dict, bool]:
    """Per-pass medians of span times; exact per-pass counts.

    Returns the metrics and whether every pass made exactly the same
    calls and counts, which a deterministic program must.
    """
    n = len(passes)
    units = per_layer_units()
    metrics = {}
    for name in TRACED_FUNCTIONS:
        recs = [p["spans"].get(name, [0, 0.0, 0.0]) for p in passes]
        metrics[f"{name}.calls"] = _metric(recs[0][0], "count", n)
        metrics[f"{name}.busy_s"] = _metric(statistics.median(r[1] for r in recs), "s", n)
        metrics[f"{name}.self_s"] = _metric(statistics.median(r[2] for r in recs), "s", n)
    for name, unit in COUNTERS.items():
        metrics[name] = _metric(passes[0]["counters"].get(name, 0), unit, n)
    for name in SUITES:
        busy = statistics.median(p["spans"].get(f"suites.{name}", [0, 0.0, 0.0])[1] for p in passes)
        metrics[f"suites.{name}.busy_s"] = _metric(busy, "s", n)
    metrics["cli.self_s"] = _metric(
        statistics.median(p["spans"].get("cli", [0, 0.0, 0.0])[2] for p in passes), "s", n
    )
    metrics["trace.run_s"] = _metric(statistics.median(scaled(p, "wall") for p in passes), "s", n)
    assert {k: m["unit"] for k, m in metrics.items()} == units

    def counts(p):
        return ({k: v[0] for k, v in p["spans"].items()}, p["counters"])

    repeat = all(counts(p) == counts(passes[0]) for p in passes)
    return metrics, repeat


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        lib = ctypes.CDLL(paths[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    except (OSError, IndexError):
        pass
    return None


def source_digest() -> str:
    """sha256 over the library sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    lib = os.path.join(SRC, "bosonet")
    for name in sorted(os.listdir(lib)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(lib, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def metadata(workload: str, seed: int, seconds: float, trace: bool, scale: str, refs: dict) -> dict:
    import numpy as np

    try:
        # the ceiling stops git from reporting an enclosing repository's HEAD
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "reference_seed": refs["seed"],
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "git_sha": sha,
        "source_sha256": source_digest(),
        "reference_library": refs["library"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        **{variable: os.environ.get(variable) for variable in capture.BLAS_THREAD_VARIABLES},
        "loop": "closed, one client, in-process",
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def summarize(workload, seed, seconds, trace, scale, refs, setup, passes) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "meta": metadata(workload, seed, seconds, trace, scale, refs),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "digest_mismatches": sum(p["digest_mismatches"] for p in passes),
        "errors": sorted({e for p in passes for e in p.get("errors", [])}),
        "pass_wall_s": [sum(p["wall"].values()) for p in passes],
        "pass_scaled_wall_s": [scaled(p, "wall") for p in passes],
        "pass_factor": [p["factor"] for p in passes],
        "pass_command_wall_s": [p["wall"] for p in passes],
        "pass_calibration_s": [p["calibration"] for p in passes],
    }
    if trace:
        result["metrics"], result["counts_repeat"] = per_layer_metrics(passes)
        result["spans_by_command"] = {
            command: {
                name: [calls,
                       statistics.median(p["by_command"][command][name][1] for p in passes),
                       statistics.median(p["by_command"][command][name][2] for p in passes)]
                for name, (calls, _, _) in spans.items()
            }
            for command, spans in passes[0]["by_command"].items()
        }
    else:
        result["setup_samples_s"] = [s for s, _ in setup]
        result["setup_scale"] = [k for _, k in setup]
        result["metrics"] = end_to_end_metrics(refs, setup, passes)
    return result


def write_result(result: dict) -> str:
    folder = os.path.join(BENCH, "results")
    os.makedirs(folder, exist_ok=True)
    meta = result["meta"]
    stamp = meta["utc"].replace(":", "").replace("+0000", "Z")
    path = os.path.join(
        folder, f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}-{stamp}-{os.getpid()}.json"
    )
    with open(path, "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def result_line(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()},
    }


def report(result: dict) -> None:
    meta = result["meta"]
    print(f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} passes={result['passes']} "
          f"blas_threads={meta['blas_threads']} nproc={meta['nproc']}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"fail_ratio={result['fail_ratio']:.6g} digest_mismatches={result['digest_mismatches']}")
    for error in result["errors"]:
        print(f"# error: {error}")
    if "counts_repeat" in result:
        print(f"# counts_repeat={result['counts_repeat']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']} (n={m['samples']})")


# --------------------------------------------------------- all workloads

def run_all(seed: int, seconds: float) -> dict:
    """Each workload untraced then traced, each in a fresh child process."""
    lines = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 4 * seconds,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                raise BenchError(f"{workload} trace={trace} failed:\n{proc.stderr}")
            lines[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for (workload, trace), line in lines.items():
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, m in line["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print("# tracing overhead: traced run_s minus untraced run_s")
    for workload in WORKLOADS:
        untraced = lines[workload, 0]["metrics"]["run_s"]["value"]
        traced = lines[workload, 1]["metrics"]["trace.run_s"]["value"]
        combined["metrics"][f"{workload}.trace_overhead_s"] = {"value": traced - untraced, "unit": "s"}
        print(f"{workload}.trace_overhead_s {traced - untraced:.6g} s "
              f"({100.0 * (traced / untraced - 1.0):+.1f}% of {untraced:.6g} s)")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            print(json.dumps(run_all(args.seed, args.seconds), sort_keys=True))
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_result(result)
    report(result)
    print(f"# result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result_line(result), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
