"""Capture the reference outputs of one workload.

Runs one pass of the workload with a chosen copy of the library and
stores its inputs, exit codes and output bytes as gzipped JSON. The
benchmark compares every timed pass against such a file.

The library is ``src/bosonet`` at a git revision, by default the seed
commit 25e69fc, so capturing needs a git repository. Without ``--out``
the file goes to ``bench/refs/<workload>-<seed>-<scale>.json.gz``, the
committed set the benchmark reads:

    python3 bench/capture.py --workload grids --seed 7
    python3 bench/capture.py --workload ladder_verify --seed 7 --commit HEAD~3 --out l.json.gz
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEED_COMMIT = "25e69fc7019a2fedc5d8096c331cdc4c3a64bda7"
REF_FORMAT = 1
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread unless the environment says otherwise.

    Must run before numpy is imported; child processes inherit it. With
    OpenBLAS's default of one thread per core, one other CPU-bound
    process on a 2-core host slowed a verify pass from 3.5 s to 28-35 s,
    and ten-seed spreads of verify's run_s reached 0.32. Thread count
    also changes last digits of some outputs, so references and timed
    runs use the same setting.
    """
    for variable in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")


def _library_from_commit(rev: str, into: str) -> tuple[str, str]:
    """Extract ``src/bosonet`` at ``rev`` under ``into``; return (sys.path entry, sha)."""
    sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = os.path.join(into, "src.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", ROOT, "archive", sha, "src/bosonet"], check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    return os.path.join(into, "src"), sha


def capture(workload_name: str, seed: int, scale: str, library: str, label: str) -> dict:
    sys.path.insert(0, library)
    import bosonet.cli

    origin = os.path.dirname(os.path.dirname(os.path.abspath(bosonet.cli.__file__)))
    if origin != os.path.abspath(library):
        raise RuntimeError(f"imported bosonet from {origin}, expected {library}")
    from workloads import make_workload, run_command, write_inputs

    workload = make_workload(workload_name, seed, scale)
    work = tempfile.mkdtemp(prefix="capture-", dir=work_dir())
    try:
        write_inputs(workload, work)
        commands = []
        for command in workload["commands"]:
            got = run_command(bosonet.cli.main, command, work)
            if got["error"] is not None:
                raise RuntimeError(f"{command['name']} raised {got['error']}")
            if got["exit"] != 0:
                # the workloads are chosen so that every command succeeds
                raise RuntimeError(f"{command['name']} exited with {got['exit']}")
            commands.append({
                **command,
                "exit": got["exit"],
                "stdout": got["stdout"],
                "outputs": got["outputs"],
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "format": REF_FORMAT,
        "workload": workload_name,
        "seed": seed,
        "scale": scale,
        "library": label,
        "files": workload["files"],
        "steps": workload["steps"],
        "commands": commands,
    }


def ref_path(workload: str, seed: int, scale: str = "full") -> str:
    return os.path.join(BENCH, "refs", f"{workload}-{seed}-{scale}.json.gz")


def work_dir() -> str:
    path = os.path.join(BENCH, ".work")
    os.makedirs(path, exist_ok=True)
    return path


def save(refs: dict, path: str) -> None:
    data = json.dumps(refs, sort_keys=True).encode("ascii")
    tmp = path + ".tmp"
    with open(tmp, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)
    os.replace(tmp, path)


def load(path: str) -> dict:
    with gzip.open(path, "rb") as fh:
        refs = json.loads(fh.read().decode("ascii"))
    if refs.get("format") != REF_FORMAT:
        raise ValueError(f"{path}: reference format {refs.get('format')}, expected {REF_FORMAT}")
    return refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--commit", default=SEED_COMMIT, help="git revision to take the library from")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, BENCH)
    tmp = tempfile.mkdtemp(prefix="commit-", dir=work_dir())
    try:
        library, sha = _library_from_commit(args.commit, tmp)
        refs = capture(args.workload, args.seed, args.scale, library, f"commit {sha}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    save(refs, args.out or ref_path(args.workload, args.seed, args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
