"""Run sets of benchmark runs over seeds, and check or compare them.

    python3 bench/sets.py run --dir A --seeds 1-10 [--workloads grids] [--trace 0]
    python3 bench/sets.py spread A
    python3 bench/sets.py compare A B

``run`` stores the result line of each run as ``<workload>-seed<n>-trace<t>.json``.
``spread`` prints, per workload and end-to-end metric, the median and
the quartile spread (q3 - q1) / median next to the metric's bound from
``BENCHMARK.json``. ``compare`` asserts what two sets of runs of the
same code must show: every run correct, every spread within its bound, no median of B worse than A's by more
than the bound, and, for traced runs of the same seed, identical call
counts, frequency evaluations, objective evaluations and computed
bytes. It exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
EXACT_UNITS = ("count", "bytes")


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def run_set(folder: str, workloads: list[str], seeds: list[int], trace: int, seconds: int) -> int:
    os.makedirs(folder, exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            line = proc.stdout.strip().splitlines()[-1]
            with open(os.path.join(folder, f"{workload}-seed{seed}-trace{trace}.json"), "w",
                      encoding="ascii") as fh:
                fh.write(line + "\n")
            result = json.loads(line)
            print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    return 0


def _load(folder: str) -> dict:
    runs = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".json"):
            workload, seed, trace = name[: -len(".json")].split("-")
            with open(os.path.join(folder, name), encoding="ascii") as fh:
                runs[workload, int(seed[len("seed"):]), int(trace[len("trace"):])] = json.load(fh)
    return runs


def _stats(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def _table(runs: dict) -> dict:
    """{(workload, metric): [values over seeds]} for the untraced runs."""
    table = {}
    for (workload, _seed, trace), result in sorted(runs.items()):
        if trace == 0:
            for name, m in result["metrics"].items():
                table.setdefault((workload, name), []).append(m["value"])
    return table


def spread(folder: str) -> int:
    bounds = {m["name"]: m["bound"] for m in _config()["end_to_end"]}
    ok = True
    print(f"{'workload':8} {'metric':12} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}")
    for (workload, name), values in _table(_load(folder)).items():
        if len(values) < 2:
            continue
        median, width = _stats(values)
        flag = "" if width < bounds[name] / 3 else "  above bound/3"
        if width > bounds[name]:
            flag, ok = "  ABOVE BOUND", False
        print(f"{workload:8} {name:12} {len(values):3d} {median:12.6g} {width:8.3f} {bounds[name]:6.2f}{flag}")
    return 0 if ok else 1


def compare(folder_a: str, folder_b: str) -> int:
    config = _config()
    metrics = {m["name"]: m for m in config["end_to_end"]}
    runs_a, runs_b = _load(folder_a), _load(folder_b)
    problems = []
    for label, runs in (("A", runs_a), ("B", runs_b)):
        for key, result in runs.items():
            if not result["correct"]:
                problems.append(f"{label} {key}: {result['failed']} of {result['attempted']} failed")
    table_a, table_b = _table(runs_a), _table(runs_b)
    for key in sorted(table_a.keys() & table_b.keys()):
        workload, name = key
        metric = metrics[name]
        median_a, width_a = _stats(table_a[key])
        median_b, width_b = _stats(table_b[key])
        for label, width in (("A", width_a), ("B", width_b)):
            if width > metric["bound"]:
                problems.append(f"{workload} {name}: spread {width:.3f} of set {label} "
                                f"above bound {metric['bound']}")
        change = median_b / median_a - 1.0
        worse = change if metric["better"] == "lower" else -change
        print(f"{workload:8} {name:12} A {median_a:12.6g} B {median_b:12.6g} {100 * change:+6.1f}%")
        if worse > metric["bound"]:
            problems.append(f"{workload} {name}: B median {100 * worse:.1f}% worse than A "
                            f"(bound {100 * metric['bound']:.0f}%)")
    traced = sorted(k for k in runs_a.keys() & runs_b.keys() if k[2] == 1)
    for key in traced:
        exact_a = {k: m["value"] for k, m in runs_a[key]["metrics"].items() if m["unit"] in EXACT_UNITS}
        exact_b = {k: m["value"] for k, m in runs_b[key]["metrics"].items() if m["unit"] in EXACT_UNITS}
        for name in sorted(exact_a.keys() | exact_b.keys()):
            if exact_a.get(name) != exact_b.get(name):
                problems.append(f"{key}: {name} is {exact_a.get(name)} in A, {exact_b.get(name)} in B")
    print(f"exact counts compared on {len(traced)} traced run pairs")
    for problem in problems:
        print(f"FAIL {problem}")
    print("agree" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("run")
    run.add_argument("--dir", required=True)
    run.add_argument("--workloads", default=",".join(w["name"] for w in _config()["workloads"]))
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--seconds", type=int, default=_config()["run_seconds"])
    sub.add_parser("spread").add_argument("dir")
    both = sub.add_parser("compare")
    both.add_argument("dir_a")
    both.add_argument("dir_b")
    args = parser.parse_args(argv)
    if args.action == "run":
        return run_set(args.dir, args.workloads.split(","), _seeds(args.seeds), args.trace, args.seconds)
    if args.action == "spread":
        return spread(args.dir)
    return compare(args.dir_a, args.dir_b)


if __name__ == "__main__":
    sys.exit(main())
