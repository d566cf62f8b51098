"""Command-line front end.

Four commands: ``analyze`` reads a network spec (JSON) and writes a
stability/budget/steady-state report; ``sweep`` evaluates the fig1 or
fig2 scenario over a parameter grid and writes CSV; ``boundary`` writes
the three-mode separability line plus a Duan-value grid; ``verify``
runs the seeded suites and prints their statistics.

Exit codes: 0 success, 2 instability, 3 validation or analysis error,
4 verification-suite failure. All file output is deterministic: same
arguments, same bytes. Numbers in CSV carry 12 significant digits.

Grids run as batches of at most GRID_CHUNK points through the array
forms of the scenarios, with every per-point check kept; a row is the
same whichever batch it falls in.

Importing this module loads only the core layers, which ``analyze``
needs. ``sweep`` and ``boundary`` import the scenario layer when they
run, and ``verify`` the scenario and suites layers, so a fresh
``analyze`` compiles neither.

One process builds the argument parser once, on its first ``main``
call, and every later call reuses it; each call finds its handler,
``cmd_<command>``, by name when it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import BosonetError, StabilityError, ValidationError
from .linalg import batch_or_each
from .network import (
    DOUBLED_ORDERING,
    InputMoments,
    build_state_space,
    check_physical_realizability,
    moments_from_json,
    network_from_json,
    passive_state_space,
)
from .budget import budget_report, compute_budget
from .steady import min_quadrature_variance, quadrature_variance, steady_covariance

FRAME_CONVENTION = (
    "alpha = cosh(xi) a + sinh(xi) a_dagger; "
    "verdicts below the line are entangled, above separable"
)

_FIG1_DEFAULTS = {
    "gamma1": 1.0,
    "gamma2": 1.0,
    "xi": 0.5,
    "g_script": 1.0,
    "n1": 0.0,
    "n2": 0.0,
}
_FIG2_DEFAULTS = {
    "gamma1": 4.0,
    "gamma2": 1.0,
    "g_minus": 3.0,
    "g_plus": 0.0,
    "n1": 0.0,
    "n2": 0.0,
}


def _scenarios() -> dict:
    """scenario: (rows function, CSV header, parameter defaults, grid
    variables)."""
    from .scenarios import FIG1_HEADER, FIG2_HEADER, fig1_rows, fig2_rows

    return {
        "fig1": (fig1_rows, FIG1_HEADER, _FIG1_DEFAULTS, ("g_script", "xi")),
        "fig2": (fig2_rows, FIG2_HEADER, _FIG2_DEFAULTS, ("delta_eta",)),
    }


class _Parser(argparse.ArgumentParser):
    """Argument errors surface as validation errors (exit code 3)."""

    def error(self, message):
        raise ValidationError(message)


_BOOL_WORDS = {False: "false", True: "true"}


def _row_format(kinds: tuple) -> tuple[str, tuple[int, ...]]:
    """The template of a CSV row whose values have the types ``kinds``,
    and the positions of its bool values, which it writes as true/false.
    Every other value is written as a float to 12 significant digits:
    '%.12g' % x has the bytes of format(float(x), '.12g'), nan and +-inf
    included."""
    bools = tuple(i for i, kind in enumerate(kinds) if issubclass(kind, (bool, np.bool_)))
    return ",".join("%s" if i in bools else "%.12g" for i in range(len(kinds))), bools


def _write_csv(path: str, header: tuple, rows) -> None:
    lines = [",".join(header)]
    formats = {}  # one template per pattern of value types
    for row in rows:
        kinds = (*map(type, row),)  # sized exactly, unlike tuple(map(...))
        if kinds not in formats:
            formats[kinds] = _row_format(kinds)
        template, bools = formats[kinds]
        if bools:
            row = list(row)
            for i in bools:
                row[i] = _BOOL_WORDS[row[i]]
        lines.append(template % tuple(row))
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    # one encode and one write: json.dump would stream every token
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: JSON nested too deeply") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc


def finite_float(text: str) -> float:
    """argparse type for numeric flags: NaN and infinities are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _seed(text: str) -> int:
    """argparse type for ``verify --seed``: numpy seeds are nonnegative
    integers."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


# Largest grid COUNT accepted, and largest n_o x n_m product of a boundary
# grid; each is checked before that grid is allocated.
MAX_GRID_COUNT = 1_000_000
# Most grid points evaluated as one batch; it bounds the stacked arrays of
# a batch to a few MB whatever the grid size.
GRID_CHUNK = 256


def _parse_grid(text: str) -> tuple[str, list[float]]:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ValidationError(
            f"bad grid spec {text!r}, expected VAR:START:STOP:COUNT[:log]"
        )
    var = parts[0]
    try:
        start, stop = float(parts[1]), float(parts[2])
        count = int(parts[3])
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {text!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"bad grid spec {text!r}: endpoints must be finite")
    scale = parts[4] if len(parts) == 5 else "linear"
    if scale not in ("linear", "log"):
        raise ValidationError(f"grid scale must be linear or log, got {scale!r}")
    if count < 2:
        raise ValidationError(f"grid count must be at least 2, got {count}")
    if count > MAX_GRID_COUNT:
        raise ValidationError(
            f"grid count must be at most {MAX_GRID_COUNT}, got {count}"
        )
    if scale == "log" and (start <= 0.0 or stop <= 0.0):
        raise ValidationError("log grids require positive endpoints")
    space = np.geomspace if scale == "log" else np.linspace
    return var, [float(v) for v in space(start, stop, count)]


def cmd_analyze(args) -> int:
    spec = network_from_json(_load_json(args.spec))
    ss = build_state_space(spec)
    # the spectrum from the state space's Lyapunov operator, whose
    # factors the budget and the steady covariance then solve with
    spectrum = ss._lyapunov.spectra()[0]
    stable = bool(spectrum[0].real < 0)  # sorted by descending real part
    pr = check_physical_realizability(ss)
    report = {
        "network": {
            "n_modes": spec.n_modes,
            "gammas": [b.gamma for b in spec.baths],
            "passive": passive_state_space(ss),
        },
        "convention": {
            "doubled_ordering": DOUBLED_ORDERING,
            "vacuum_quadrature_variance": 0.5,
        },
        "stability": {
            "stable": stable,
            "max_real_part": float(spectrum.real.max()),
            "spectrum": [{"re": z.real, "im": z.imag} for z in spectrum],
        },
        "pr": {"residual": pr.residual, "tol": pr.tol, "passed": pr.passed},
    }
    if not stable:
        worst = spectrum[0]
        report["stability"]["positive_eigenvalue"] = {
            "re": worst.real,
            "im": worst.imag,
        }
        _write_json(args.out, report)
        print(
            f"unstable drift: eigenvalue {worst.real:.6g}{worst.imag:+.6g}j "
            "has nonnegative real part",
            file=sys.stderr,
        )
        return 2
    report["budget"] = budget_report(compute_budget(ss))
    if args.inputs is not None:
        inputs = moments_from_json(_load_json(args.inputs), spec.n_modes)
        source = "file"
    else:
        inputs = InputMoments.from_baths(spec)
        source = "baths"
    cov = steady_covariance(ss, inputs)
    modes = []
    for mode in range(spec.n_modes):
        best = min_quadrature_variance(cov, mode)
        mu = cov.mu(mode)
        entry = {
            "mode": mode,
            "nu": cov.nu(mode),
            "mu_re": mu.real,
            "mu_im": mu.imag,
            "x_variance": quadrature_variance(cov, mode, 0.0),
            "y_variance": quadrature_variance(cov, mode, math.pi / 2),
            "min_variance": best.value,
            "min_theta": best.theta,
        }
        modes.append(entry)
    report["steady"] = {
        "inputs": {
            "source": source,
            "occupancy": [float(v) for v in inputs.occupancy],
            "anomalous_re": [float(v.real) for v in inputs.anomalous],
            "anomalous_im": [float(v.imag) for v in inputs.anomalous],
        },
        "modes": modes,
    }
    _write_json(args.out, report)
    return 0


def _sweep_row(rows_of, header: tuple, params: dict, var: str) -> tuple:
    """The row of one sweep point, for a batch that raised: a point that
    fails for stability, frame or numerics reasons keeps its parameter
    columns, the rest nan, with one warning line; invalid parameters
    raise (exit code 3)."""
    try:
        return rows_of(**params)[0]
    except ValidationError:
        raise
    except BosonetError as exc:
        print(
            f"warning: sweep point skipped: {var}={params[var]:.12g}: {exc}",
            file=sys.stderr,
        )
        return tuple(params.get(column, math.nan) for column in header)


def cmd_sweep(args) -> int:
    # --workers is validated but has no effect: every grid runs in process
    if args.workers < 1:
        raise ValidationError("--workers must be at least 1")
    var, values = _parse_grid(args.grid)
    rows_of, header, defaults, grid_vars = _scenarios()[args.scenario]
    if var not in grid_vars:
        raise ValidationError(
            f"scenario {args.scenario} can only sweep {sorted(grid_vars)}, got {var!r}"
        )
    for name in ("gamma1", "gamma2", "xi", "g_script", "g_minus", "g_plus", "n1", "n2"):
        given = getattr(args, name)
        if given is None:
            continue
        if name not in defaults:
            raise ValidationError(f"--{name.replace('_', '-')} does not apply to {args.scenario}")
        if name == var:
            raise ValidationError(f"--{name.replace('_', '-')} conflicts with the grid variable")
    fixed = {
        key: (getattr(args, key) if getattr(args, key) is not None else default)
        for key, default in defaults.items()
        if key != var
    }
    rows = []
    for start in range(0, len(values), GRID_CHUNK):
        # a batch that raises is re-run one point at a time, so each
        # failing point reports itself in grid order
        rows.extend(batch_or_each(
            values[start : start + GRID_CHUNK],
            lambda chunk: rows_of(**fixed, **{var: chunk}),
            lambda value: _sweep_row(rows_of, header, {**fixed, var: value}, var),
        ))
    _write_csv(args.out, header, rows)
    return 0


def cmd_boundary(args) -> int:
    from .scenarios import (
        FIG3_HEADER,
        ThreeModeParams,
        fig3_rows,
        optimal_coupling,
        separability_boundary,
        three_mode_budget,
    )

    if args.g_script is not None:
        if args.g_plus is not None or args.g_minus is not None:
            raise ValidationError("give either --g-script or --g-plus/--g-minus, not both")
        params = ThreeModeParams(
            g_script=args.g_script,
            omega=args.omega,
            kappa=args.kappa,
            gamma_m=args.gamma_m,
            xi=args.xi if args.xi is not None else 0.5,
        )
    elif args.g_plus is not None and args.g_minus is not None:
        if args.xi is not None:
            raise ValidationError("--xi is implied by the sideband amplitudes")
        params = ThreeModeParams.from_sidebands(
            g_plus=args.g_plus,
            g_minus=args.g_minus,
            omega=args.omega,
            kappa=args.kappa,
            gamma_m=args.gamma_m,
        )
    else:
        raise ValidationError("boundary needs --g-script or both --g-plus and --g-minus")
    grids = {}
    for text in args.grid:
        var, values = _parse_grid(text)
        if var not in ("n_o", "n_m"):
            raise ValidationError(f"boundary grids are n_o and n_m, got {var!r}")
        if var in grids:
            raise ValidationError(f"duplicate grid for {var!r}")
        grids[var] = values
    if set(grids) != {"n_o", "n_m"}:
        raise ValidationError("boundary needs one n_o grid and one n_m grid")
    count = len(grids["n_o"]) * len(grids["n_m"])
    if count > MAX_GRID_COUNT:
        raise ValidationError(
            f"the n_o x n_m grid must have at most {MAX_GRID_COUNT} points, got {count}"
        )
    if args.out_csv is not None:
        csv_path = args.out_csv
    elif args.out.endswith(".json"):
        csv_path = args.out[: -len(".json")] + ".csv"
    else:
        csv_path = args.out + ".csv"
    if os.path.realpath(csv_path) == os.path.realpath(args.out):
        raise ValidationError(f"--out-csv {csv_path!r} names the report file --out {args.out!r}")
    # one frame budget serves the line and every row; nothing is written
    # until all of them, and the coupling search, have succeeded
    budget = three_mode_budget(params)
    line = separability_boundary(params, budget)
    # the scheme is mirror-symmetric in omega, so the search runs at |omega|
    opt = optimal_coupling(params.kappa, abs(params.omega), params.gamma_m, params.xi)
    # the grid's columns in row order, n_o the outer loop
    n_os, n_ms = (c.ravel() for c in np.meshgrid(grids["n_o"], grids["n_m"], indexing="ij"))
    rows = []
    for start in range(0, n_os.size, GRID_CHUNK):
        chunk = slice(start, start + GRID_CHUNK)
        rows.extend(fig3_rows(params, budget, n_os[chunk], n_ms[chunk]))
    payload = {
        "boundary": {
            "slope": line.slope,
            "n_o_intercept": line.n_o_intercept,
            "n_m_intercept": line.n_m_intercept,
            "eta_e": line.eta_e,
            "xi": line.xi,
            "degenerate": line.degenerate,
        },
        "g_opt": {
            "formula": opt.g_formula,
            "numeric": opt.g_numeric,
            "eta_e_formula": opt.eta_e_formula,
            "eta_e_numeric": opt.eta_e_numeric,
        },
        "frame_convention": FRAME_CONVENTION,
        "parameters": {
            "g_script": params.g_script,
            "omega": params.omega,
            "kappa": params.kappa,
            "gamma_m": params.gamma_m,
            "xi": params.xi,
        },
    }
    _write_json(args.out, payload)
    try:
        _write_csv(csv_path, FIG3_HEADER, rows)
    except OSError:
        os.remove(args.out)  # a report without its grid is not written either
        raise
    return 0


def cmd_verify(args) -> int:
    from .suites import DEFAULT_SEED, run_all

    if args.tol is not None and not args.tol > 0:
        raise ValidationError(f"--tol must be positive, got {args.tol:g}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    results, passed = run_all(seed, args.tol)
    payload = {
        "seed": int(seed),
        "tol": args.tol,
        "passed": passed,
        "suites": [
            {"name": r.name, "passed": r.passed, "stats": r.stats} for r in results
        ],
    }
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if passed else 4


def build_parser() -> _Parser:
    parser = _Parser(prog="bosonet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="report on one network spec")
    analyze.add_argument("--spec", required=True, help="network spec JSON file")
    analyze.add_argument("--inputs", help="input moments JSON file (default: bath moments)")
    analyze.add_argument("--out", required=True, help="report JSON path")

    sweep = sub.add_parser("sweep", help="evaluate a scenario over a grid, write CSV")
    sweep.add_argument("--scenario", required=True, choices=("fig1", "fig2"))
    sweep.add_argument("--grid", required=True, help="VAR:START:STOP:COUNT[:log]")
    sweep.add_argument("--out", required=True, help="CSV path")
    sweep.add_argument("--workers", type=int, default=1, help="accepted; no effect")
    for flag in ("gamma1", "gamma2", "xi", "g-script", "g-minus", "g-plus", "n1", "n2"):
        sweep.add_argument(f"--{flag}", type=finite_float, default=None)

    boundary = sub.add_parser("boundary", help="separability line and Duan grid")
    boundary.add_argument("--kappa", type=finite_float, default=1.0)
    boundary.add_argument("--omega", type=finite_float, default=1.0)
    boundary.add_argument("--gamma-m", type=finite_float, default=0.01)
    boundary.add_argument("--g-script", type=finite_float, default=None)
    boundary.add_argument("--xi", type=finite_float, default=None)
    boundary.add_argument("--g-plus", type=finite_float, default=None)
    boundary.add_argument("--g-minus", type=finite_float, default=None)
    boundary.add_argument(
        "--grid",
        action="append",
        default=[],
        help="one n_o and one n_m grid, VAR:START:STOP:COUNT[:log]",
    )
    boundary.add_argument("--out", required=True, help="report JSON path")
    boundary.add_argument("--out-csv", default=None, help="grid CSV path (default: derived)")

    verify = sub.add_parser("verify", help="run the seeded verification suites")
    verify.add_argument("--seed", type=_seed, default=None)
    verify.add_argument(
        "--tol", type=finite_float, default=None, help="override residual thresholds"
    )
    return parser


_parser = None  # built by the first main call, then shared by every later one


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        # looked up per call, so a replaced cmd_* is the one that runs
        return globals()["cmd_" + args.command](args)
    except StabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BosonetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
