import json
import math
import subprocess
import sys

import pytest

BS_NETWORK = {
    "modes": 2,
    "baths": [
        {"gamma": 1.0, "n": 0.0, "m_re": 0.0, "m_im": 0.0},
        {"gamma": 1.0, "n": 0.0, "m_re": 0.0, "m_im": 0.0},
    ],
    "couplings": [
        {"kind": "beam_splitter", "amp_re": 0.5, "amp_im": 0.0, "modes": [0, 1]}
    ],
}

UNSTABLE_NETWORK = {
    "modes": 1,
    "baths": [{"gamma": 1.0, "n": 0.0, "m_re": 0.0, "m_im": 0.0}],
    "couplings": [
        {"kind": "degenerate_parametric", "amp_re": 2.0, "amp_im": 0.0, "modes": [0]}
    ],
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bosonet", *args],
        capture_output=True,
        text=True,
    )


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def csv_value(value):
    """The CSV text of one value, one call per value: bools as true/false,
    everything else as a float to 12 significant digits."""
    import numpy as np

    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return format(float(value), ".12g")


class TestAnalyze:
    def test_single_mode(self, tmp_path):
        spec = write_json(
            tmp_path / "net.json",
            {
                "modes": 1,
                "baths": [{"gamma": 2.0, "n": 0.0, "m_re": 0.0, "m_im": 0.0}],
                "couplings": [],
            },
        )
        out = tmp_path / "report.json"
        proc = run_cli("analyze", "--spec", spec, "--out", str(out))
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["stability"]["stable"] is True
        assert report["budget"]["I"][0][0] == pytest.approx(1.0, abs=1e-12)
        assert report["pr"]["passed"] is True
        mode = report["steady"]["modes"][0]
        assert mode["x_variance"] == pytest.approx(0.5, abs=1e-12)
        assert mode["min_variance"] == pytest.approx(0.5, abs=1e-12)
        assert report["steady"]["inputs"]["source"] == "baths"

    def test_exchange_pair_transfer(self, tmp_path):
        spec = write_json(tmp_path / "net.json", BS_NETWORK)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--spec", spec, "--out", str(out)).returncode == 0
        report = json.loads(out.read_text())
        transfer = report["budget"]["I"]
        assert transfer[0][0] == pytest.approx(0.75, abs=1e-12)
        assert transfer[0][1] == pytest.approx(0.25, abs=1e-12)
        assert report["budget"]["passive"] is True
        assert report["budget"]["gamma_rule_residuals"] is not None

    def test_zero_amplitude_squeeze_is_passive_in_both_sections(self, tmp_path):
        doc = json.loads(json.dumps(BS_NETWORK))
        doc["couplings"].append(
            {"kind": "two_mode_squeeze", "amp_re": 0.0, "amp_im": 0.0, "modes": [0, 1]}
        )
        spec = write_json(tmp_path / "net.json", doc)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--spec", spec, "--out", str(out)).returncode == 0
        report = json.loads(out.read_text())
        assert report["network"]["passive"] is True
        assert report["budget"]["passive"] is True

    def test_inputs_file_overrides_baths(self, tmp_path):
        spec = write_json(tmp_path / "net.json", BS_NETWORK)
        inputs = write_json(
            tmp_path / "inputs.json",
            {
                "channels": [
                    {"n": 0.0, "m_re": 0.0, "m_im": 0.0},
                    {"n": 2.0, "m_re": 0.0, "m_im": 0.0},
                ]
            },
        )
        out = tmp_path / "report.json"
        proc = run_cli(
            "analyze", "--spec", spec, "--inputs", inputs, "--out", str(out)
        )
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["steady"]["inputs"]["source"] == "file"
        mode = report["steady"]["modes"][0]
        assert mode["x_variance"] == pytest.approx(1.0, abs=1e-12)

    def test_unstable_network_exits_2_with_partial_report(self, tmp_path):
        spec = write_json(tmp_path / "net.json", UNSTABLE_NETWORK)
        out = tmp_path / "report.json"
        proc = run_cli("analyze", "--spec", spec, "--out", str(out))
        assert proc.returncode == 2
        assert "eigenvalue" in proc.stderr
        report = json.loads(out.read_text())
        assert report["stability"]["stable"] is False
        assert report["stability"]["positive_eigenvalue"]["re"] > 0.0
        assert "steady" not in report

    def test_malformed_json_exits_3(self, tmp_path):
        bad = tmp_path / "net.json"
        bad.write_text('{"modes": 1,')
        proc = run_cli("analyze", "--spec", str(bad), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 3
        assert "line" in proc.stderr

    def test_unknown_key_exits_3(self, tmp_path):
        doc = json.loads(json.dumps(BS_NETWORK))
        doc["baths"][0]["temperature"] = 3.0
        spec = write_json(tmp_path / "net.json", doc)
        proc = run_cli("analyze", "--spec", spec, "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 3

    def test_missing_spec_file_exits_3(self, tmp_path):
        proc = run_cli(
            "analyze",
            "--spec",
            str(tmp_path / "absent.json"),
            "--out",
            str(tmp_path / "r.json"),
        )
        assert proc.returncode == 3


class TestSweep:
    def test_fig1_log_grid(self, tmp_path):
        out = tmp_path / "fig1.csv"
        proc = run_cli(
            "sweep",
            "--scenario",
            "fig1",
            "--grid",
            "g_script:0.5:50:25:log",
            "--out",
            str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "g_script,xi,gamma1,gamma2,norm_var1,norm_var2,sum"
        assert len(lines) == 26
        sums = [float(line.split(",")[6]) for line in lines[1:]]
        assert all(a > b for a, b in zip(sums, sums[1:]))
        assert sums[-1] == pytest.approx(1.3679426469067515, abs=1e-10)

    def test_fig2_grid_minimum(self, tmp_path):
        out = tmp_path / "fig2.csv"
        proc = run_cli(
            "sweep",
            "--scenario",
            "fig2",
            "--grid",
            "delta_eta:-4.9:4.9:99",
            "--out",
            str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta_eta,gamma1,gamma2,bound,direct_sum"
        assert len(lines) == 100
        rows = [line.split(",") for line in lines[1:]]
        best = min(rows, key=lambda r: float(r[3]))
        assert float(best[0]) == pytest.approx(1.7, abs=1e-9)
        assert float(best[3]) == pytest.approx(0.900045228403, abs=1e-9)

    def test_unstable_points_become_nan_rows(self, tmp_path):
        out = tmp_path / "fig2.csv"
        proc = run_cli(
            "sweep",
            "--scenario",
            "fig2",
            "--grid",
            "delta_eta:0:12:4",
            "--out",
            str(out),
        )
        assert proc.returncode == 0
        assert proc.stderr.count("sweep point skipped") == 2
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        last = lines[-1].split(",")
        assert last[0] == "12"
        assert last[3] == "nan"
        assert last[4] == "nan"
        # parameter columns stay populated on skipped rows
        assert last[1] == "4"
        assert last[2] == "1"

    def test_fig1_points_without_a_frame_become_nan_rows(self, tmp_path):
        # from xi = 20 on, sinh(xi) and cosh(xi) round to one double, so the
        # sideband amplitudes are equal and no hyperbolic frame exists
        out = tmp_path / "fig1.csv"
        proc = run_cli(
            "sweep",
            "--scenario",
            "fig1",
            "--grid",
            "xi:20:22:3",
            "--g-script",
            "1",
            "--out",
            str(out),
        )
        assert proc.returncode == 0
        assert proc.stderr.count("sweep point skipped") == 3
        assert "xi=21: no hyperbolic frame" in proc.stderr
        lines = out.read_text().splitlines()
        assert lines[1:] == [
            "1,20,1,1,nan,nan,nan",
            "1,21,1,1,nan,nan,nan",
            "1,22,1,1,nan,nan,nan",
        ]

    def test_decoupled_fig1_point_is_the_closed_form(self, tmp_path):
        # at g_script = 0 the modes keep their inputs: each ratio is 1
        out = tmp_path / "fig1.csv"
        proc = run_cli(
            "sweep", "--scenario", "fig1", "--grid", "g_script:0:2:3", "--out", str(out)
        )
        assert proc.returncode == 0
        assert "skipped" not in proc.stderr
        assert out.read_text().splitlines()[1] == "0,0.5,1,1,1,1,2"

    def test_invalid_fixed_flag_exits_3(self, tmp_path):
        out = tmp_path / "x.csv"
        proc = run_cli(
            "sweep",
            "--scenario",
            "fig1",
            "--grid",
            "g_script:0.5:1:3",
            "--gamma1",
            "-1",
            "--out",
            str(out),
        )
        assert proc.returncode == 3
        assert "gamma1 must be positive" in proc.stderr
        assert "sweep point skipped" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["fig1", "--grid", "g_script:1:-1:5"], "g_plus must be nonnegative, got -0.26"),
            (["fig1", "--grid", "xi:0.5:-0.5:5"], "g_plus must be nonnegative, got -0.25"),
            (["fig1", "--grid", "g_script:1:2:5", "--n2", "-0.5"], "n2 must be nonnegative"),
            (["fig2", "--grid", "delta_eta:-1:1:5", "--gamma2", "-1"], "gamma2 must be positive"),
            (["fig2", "--grid", "delta_eta:-1:1:5", "--g-plus", "-0.1"], "g_plus must be nonnegative"),
            (["fig2", "--grid", "delta_eta:-1:1:5", "--n1", "-1"], "n1 must be nonnegative"),
        ],
    )
    def test_invalid_point_exits_3(self, tmp_path, monkeypatch, capsys, args, message):
        from bosonet import cli

        # in batches of two, the first invalid grid value (row 3) is in the second
        monkeypatch.setattr(cli, "GRID_CHUNK", 2)
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--scenario", *args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert message in err
        assert "sweep point skipped" not in err
        assert not out.exists()

    def test_grid_count_too_small_exits_3(self, tmp_path):
        proc = run_cli(
            "sweep",
            "--scenario",
            "fig1",
            "--grid",
            "g_script:1:2:1",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 3

    def test_grid_count_too_large_exits_3_before_allocating(self, tmp_path, monkeypatch):
        from bosonet import cli

        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(cli.np, "linspace", refuse)
        monkeypatch.setattr(cli.np, "geomspace", refuse)
        for grid in ("g_script:1:2:1000000000000", "g_script:1:2:1000000000000:log"):
            argv = ["sweep", "--scenario", "fig1", "--grid", grid, "--out", str(tmp_path / "x.csv")]
            assert cli.main(argv) == 3
        assert not (tmp_path / "x.csv").exists()

    def test_log_grid_needs_positive_endpoints(self, tmp_path):
        proc = run_cli(
            "sweep",
            "--scenario",
            "fig1",
            "--grid",
            "g_script:0:2:5:log",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 3

    def test_flag_foreign_to_scenario_exits_3(self, tmp_path):
        proc = run_cli(
            "sweep",
            "--scenario",
            "fig2",
            "--grid",
            "delta_eta:-1:1:5",
            "--xi",
            "0.3",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 3

    def test_grid_variable_must_belong_to_scenario(self, tmp_path):
        proc = run_cli(
            "sweep",
            "--scenario",
            "fig1",
            "--grid",
            "delta_eta:-1:1:5",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 3

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = (
            "sweep",
            "--scenario",
            "fig1",
            "--grid",
            "g_script:0.5:20:15:log",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_output(self, tmp_path):
        args = (
            "sweep",
            "--scenario",
            "fig2",
            "--grid",
            "delta_eta:-4:4:17",
        )
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run_cli(*args, "--out", str(serial)).returncode == 0
        assert (
            run_cli(*args, "--workers", "3", "--out", str(parallel)).returncode == 0
        )
        assert serial.read_bytes() == parallel.read_bytes()


class TestSweepBatches:
    """Sweeps run as batches of GRID_CHUNK points. A batch that raises is
    re-run point by point, so failing points keep their nan rows and
    warning lines, in grid order, whatever the batch size."""

    # (scenario, grid flags, point function, fixed parameters)
    GRIDS = [
        # route-agreement failures between good points
        ("fig1", ["--grid", "g_script:0.5:50:9:log", "--xi", "4.5"]),
        # good points, numerics failures, then no frame from xi = 20 on
        ("fig1", ["--grid", "xi:0:22:12"]),
        # unstable at both ends, good in between
        ("fig2", ["--grid", "delta_eta:-6:6:13"]),
    ]

    @staticmethod
    def run(capsys, tmp_path, scenario, flags):
        from bosonet import cli

        out = tmp_path / "out.csv"
        code = cli.main(["sweep", "--scenario", scenario, *flags, "--out", str(out)])
        text = out.read_text() if out.exists() else None
        if out.exists():
            out.unlink()
        return code, text, capsys.readouterr().err

    @staticmethod
    def per_point(scenario, flags):
        """The CSV text, stderr and exit code of evaluating each grid point
        alone with the scenario's point function."""
        from bosonet import cli, scenarios
        from bosonet.errors import BosonetError, ValidationError

        point = {"fig1": scenarios.fig1_point, "fig2": scenarios.fig2_point}[scenario]
        _, header, defaults, _ = cli._scenarios()[scenario]
        var, values = cli._parse_grid(flags[1])
        fixed = {k: v for k, v in defaults.items() if k != var}
        for name, value in zip(flags[2::2], flags[3::2]):
            fixed[name[2:].replace("-", "_")] = float(value)
        rows, err = [], ""
        for value in values:
            params = {**fixed, var: value}
            try:
                rows.append(point(**params))
            except ValidationError as exc:
                return None, err + f"error: {exc}\n", 3
            except BosonetError as exc:
                err += f"warning: sweep point skipped: {var}={value:.12g}: {exc}\n"
                rows.append(tuple(params.get(c, math.nan) for c in header))
        lines = [",".join(header)] + [",".join(csv_value(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n", err, 0

    @pytest.mark.parametrize("scenario, flags", GRIDS)
    def test_mixed_grid_keeps_per_point_rows_and_warnings(self, capsys, tmp_path, scenario, flags):
        code, text, err = self.run(capsys, tmp_path, scenario, flags)
        expected_text, expected_err, expected_code = self.per_point(scenario, flags)
        assert code == expected_code == 0
        assert err == expected_err
        assert err.count("sweep point skipped") >= 2
        assert text == expected_text

    def test_invalid_point_after_failing_points_exits_3(self, capsys, tmp_path):
        # descending xi: points 22 and 20 lack a frame, the last xi is negative
        flags = ["--grid", "xi:22:-1:12"]
        code, text, err = self.run(capsys, tmp_path, "fig1", flags)
        _, expected_err, expected_code = self.per_point("fig1", flags)
        assert code == expected_code == 3
        assert text is None
        assert err == expected_err
        assert "sweep point skipped: xi=22" in err

    @pytest.mark.parametrize("scenario, flags", GRIDS + [
        ("fig1", ["--grid", "g_script:0.5:50:20:log", "--xi", "0.7", "--n1", "0.3"]),
        ("fig2", ["--grid", "delta_eta:-4:4:17", "--g-plus", "0.5"]),
    ])
    def test_batch_size_does_not_change_output(self, capsys, tmp_path, monkeypatch, scenario, flags):
        from bosonet import cli

        whole = self.run(capsys, tmp_path, scenario, flags)
        monkeypatch.setattr(cli, "GRID_CHUNK", 3)
        assert self.run(capsys, tmp_path, scenario, flags) == whole

    def test_batch_size_does_not_change_boundary(self, tmp_path, monkeypatch):
        from bosonet import cli

        def boundary_bytes(n_m_grid="n_m:0:0.5:4"):
            argv = [
                "boundary", "--g-script", "0.9", "--xi", "0.4", "--grid", "n_o:0:2:5",
                "--grid", n_m_grid, "--out", str(tmp_path / "b.json"),
            ]
            assert cli.main(argv) == 0
            return (tmp_path / "b.json").read_bytes(), (tmp_path / "b.csv").read_bytes()

        default = cli.GRID_CHUNK
        whole = boundary_bytes()
        # chunks of several n_o rows, and chunks that end inside a row
        for chunk in (9, 3):
            monkeypatch.setattr(cli, "GRID_CHUNK", chunk)
            assert boundary_bytes() == whole
        # an n_m grid longer than the default chunk, against one chunk
        long_grid = f"n_m:0:0.5:{default + 44}"
        monkeypatch.setattr(cli, "GRID_CHUNK", 5 * (default + 44))
        whole = boundary_bytes(long_grid)
        monkeypatch.setattr(cli, "GRID_CHUNK", default)
        assert boundary_bytes(long_grid) == whole


class TestBoundary:
    def common_args(self, tmp_path, *extra):
        return run_cli(
            "boundary",
            "--kappa",
            "1",
            "--omega",
            "1",
            "--gamma-m",
            "0.01",
            "--g-script",
            "0.8",
            "--xi",
            "0.5",
            "--grid",
            "n_o:0:1:3",
            "--grid",
            "n_m:0:0.4:3",
            "--out",
            str(tmp_path / "b.json"),
            *extra,
        )

    def test_two_runs_in_one_process_write_the_same_bytes(self, tmp_path):
        # the second run finds every kept table and transform piece made
        from bosonet import cli

        argv = [
            "boundary", "--kappa", "1.3", "--omega", "0.9", "--gamma-m", "1e-8",
            "--g-script", "0.8", "--xi", "0.4", "--grid", "n_o:0:2:5",
            "--grid", "n_m:0:0.5:4",
        ]
        written = []
        for run in ("first", "second"):
            out = tmp_path / f"{run}.json"
            assert cli.main(argv + ["--out", str(out)]) == 0
            written.append((out.read_bytes(), (tmp_path / f"{run}.csv").read_bytes()))
        assert written[0] == written[1]
        assert written[0][1].count(b"\n") == 21

    def test_report_and_grid(self, tmp_path):
        proc = self.common_args(tmp_path)
        assert proc.returncode == 0
        report = json.loads((tmp_path / "b.json").read_text())
        assert set(report) == {"boundary", "g_opt", "frame_convention", "parameters"}
        from bosonet.scenarios import (
            ThreeModeParams,
            separability_boundary,
            three_mode_budget,
        )

        params = ThreeModeParams(g_script=0.8, omega=1.0, kappa=1.0, gamma_m=0.01, xi=0.5)
        line = separability_boundary(params, three_mode_budget(params))
        assert report["boundary"]["eta_e"] == pytest.approx(line.eta_e, abs=1e-12)
        assert report["boundary"]["n_o_intercept"] == pytest.approx(
            line.n_o_intercept, abs=1e-12
        )
        assert report["g_opt"]["formula"] == pytest.approx(
            1.057371263440564, abs=1e-9
        )
        assert report["g_opt"]["eta_e_numeric"] <= 2.0

        csv_lines = (tmp_path / "b.csv").read_text().splitlines()
        assert csv_lines[0] == "n_o,n_m,duan_direct,duan_budget,entangled"
        assert len(csv_lines) == 10
        # n_o is the outer loop
        outer = [line.split(",")[0] for line in csv_lines[1:]]
        assert outer == sorted(outer, key=float)
        verdicts = {line.split(",")[4] for line in csv_lines[1:]}
        assert verdicts <= {"true", "false"}
        assert len(verdicts) == 2

    def test_negative_omega_is_the_mirror_image(self, tmp_path):
        reports = {}
        for omega in ("1", "-1"):
            out = tmp_path / f"b{omega}.json"
            proc = run_cli(
                "boundary", "--omega", omega, "--g-script", "0.8", "--grid", "n_o:0:1:2",
                "--grid", "n_m:0:0.4:2", "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            reports[omega] = json.loads(out.read_text())
        assert reports["-1"]["g_opt"] == reports["1"]["g_opt"]
        assert reports["-1"]["boundary"] == reports["1"]["boundary"]
        assert reports["-1"]["parameters"]["omega"] == -1.0

    def test_sideband_flags_take_the_same_route(self, tmp_path):
        proc = run_cli(
            "boundary",
            "--g-plus",
            "0.5",
            "--g-minus",
            "1.0",
            "--grid",
            "n_o:0:1:2",
            "--grid",
            "n_m:0:0.4:2",
            "--out",
            str(tmp_path / "s.json"),
        )
        assert proc.returncode == 0
        report = json.loads((tmp_path / "s.json").read_text())
        import math

        assert report["parameters"]["xi"] == pytest.approx(
            math.atanh(0.5), abs=1e-12
        )

    def test_xi_flag_clashes_with_sideband_route(self, tmp_path):
        proc = run_cli(
            "boundary",
            "--g-plus",
            "0.5",
            "--g-minus",
            "1.0",
            "--xi",
            "0.3",
            "--grid",
            "n_o:0:1:2",
            "--grid",
            "n_m:0:0.4:2",
            "--out",
            str(tmp_path / "s.json"),
        )
        assert proc.returncode == 3

    def test_missing_grid_exits_3(self, tmp_path):
        proc = run_cli(
            "boundary",
            "--g-script",
            "0.8",
            "--grid",
            "n_o:0:1:3",
            "--out",
            str(tmp_path / "b.json"),
        )
        assert proc.returncode == 3

    def test_room_temperature_mechanical_bath(self, tmp_path):
        proc = run_cli(
            "boundary",
            "--g-script",
            "1",
            "--xi",
            "0.5",
            "--grid",
            "n_o:0:2:3",
            "--grid",
            "n_m:0:1e6:3",
            "--out",
            str(tmp_path / "b.json"),
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in (tmp_path / "b.csv").read_text().splitlines()[1:]]
        assert len(rows) == 9
        assert all(row[4] == "false" for row in rows if float(row[1]) > 0)

    def test_room_temperature_optical_and_mechanical_baths(self, tmp_path):
        # a 1 MHz mechanical mode at 300 K has n of about 6e6
        proc = run_cli(
            "boundary",
            "--g-script",
            "1",
            "--xi",
            "0.5",
            "--grid",
            "n_o:0:3e6:3",
            "--grid",
            "n_m:0:3e6:3",
            "--out",
            str(tmp_path / "b.json"),
        )
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "b.csv").read_text().splitlines()) == 10

    @pytest.mark.parametrize("gamma_m", ["1e-8", "1e-12"])
    def test_high_q_mechanics(self, tmp_path, gamma_m):
        from bosonet.scenarios import (
            ThreeModeParams,
            separability_boundary,
            three_mode_budget,
        )

        proc = run_cli(
            "boundary", "--g-script", "1", "--xi", "0.5", "--gamma-m", gamma_m,
            "--grid", "n_o:0:1:2", "--grid", "n_m:0:1:2", "--out", str(tmp_path / "b.json"),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "b.json").read_text())
        params = ThreeModeParams(1.0, 1.0, 1.0, float(gamma_m), 0.5)
        line = separability_boundary(params, three_mode_budget(params))
        assert report["boundary"]["n_m_intercept"] == line.n_m_intercept
        if gamma_m == "1e-8":
            # the value of a 50-digit solve of the frame budget
            assert line.n_m_intercept == pytest.approx(1.0535342647e7, rel=1e-10)

    def test_one_frame_budget_per_command(self, tmp_path, monkeypatch):
        from bosonet import cli, scenarios

        real_budgets = scenarios._Schemes.budgets
        real_search = scenarios.optimal_coupling
        calls = []
        searching = []

        # every frame budget, stacked or not, is one call of the budgets
        # of prepared schemes
        def counting(schemes, g_script):
            calls.append(bool(searching))
            return real_budgets(schemes, g_script)

        def search(*args):
            searching.append(True)
            try:
                return real_search(*args)
            finally:
                searching.pop()

        monkeypatch.setattr(scenarios._Schemes, "budgets", counting)
        monkeypatch.setattr(scenarios, "optimal_coupling", search)
        code = cli.main([
            "boundary", "--g-script", "0.8", "--grid", "n_o:0:1:4",
            "--grid", "n_m:0:0.4:4", "--out", str(tmp_path / "b.json"),
        ])
        assert code == 0
        assert calls.count(False) == 1
        assert calls.count(True) > 0

    def test_refused_row_writes_nothing(self, tmp_path):
        # the 1e-8 Duan route check refuses n_o = n_m = 1e8
        proc = run_cli(
            "boundary", "--g-script", "1", "--xi", "0.5", "--grid", "n_o:0:1e8:2",
            "--grid", "n_m:0:1e8:2", "--out", str(tmp_path / "b.json"),
        )
        assert proc.returncode == 3
        assert "disagree on the Duan quantity" in proc.stderr
        assert not (tmp_path / "b.json").exists()
        assert not (tmp_path / "b.csv").exists()

    def test_negative_occupancy_writes_nothing(self, tmp_path):
        proc = run_cli(
            "boundary", "--g-script", "1", "--xi", "0.5", "--grid", "n_o:-1:1:3",
            "--grid", "n_m:0:1:2", "--out", str(tmp_path / "b.json"),
        )
        assert proc.returncode == 3
        assert proc.stderr == "error: n_o must be nonnegative, got -1.0\n"
        assert not (tmp_path / "b.json").exists()
        assert not (tmp_path / "b.csv").exists()

    def test_unwritable_csv_leaves_no_report(self, tmp_path):
        proc = self.common_args(tmp_path, "--out-csv", str(tmp_path / "missing" / "b.csv"))
        assert proc.returncode == 3
        assert not (tmp_path / "b.json").exists()

    def test_explicit_csv_path(self, tmp_path):
        proc = self.common_args(
            tmp_path, "--out-csv", str(tmp_path / "elsewhere.csv")
        )
        assert proc.returncode == 0
        assert (tmp_path / "elsewhere.csv").exists()
        assert not (tmp_path / "b.csv").exists()


class TestOverflowingParameters:
    """Parameters beyond the float range of cosh, sinh or S^2 fail like
    any other numerics check: a nan row with a warning in a sweep, exit 3
    in boundary, and never a traceback or a numpy warning."""

    @staticmethod
    def sweep(tmp_path, *flags):
        out = tmp_path / "out.csv"
        proc = run_cli("sweep", *flags, "--out", str(out))
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        return proc, out.read_text().splitlines()

    def test_xi_grid_past_cosh_range(self, tmp_path):
        proc, lines = self.sweep(tmp_path, "--scenario", "fig1", "--grid", "xi:0:800:3")
        assert proc.returncode == 0
        assert lines[1:] == ["1,0,1,1,1,1,2", "1,400,1,1,nan,nan,nan", "1,800,1,1,nan,nan,nan"]
        warnings = proc.stderr.splitlines()
        assert len(warnings) == 2
        assert warnings[0].startswith("warning: sweep point skipped: xi=400: no hyperbolic frame")
        assert warnings[1] == (
            "warning: sweep point skipped: xi=800: cosh and sinh of the frame "
            "parameter xi = 800 overflow a float"
        )

    @pytest.mark.parametrize("top", ["1e150", "1e200"])
    def test_g_script_past_the_square_of_a_float(self, tmp_path, top):
        # g_minus^2 overflows above about 1.3e154; the frame rate must not
        # square it, so both sweeps skip their unstable points alike
        proc, lines = self.sweep(
            tmp_path, "--scenario", "fig1", "--grid", f"g_script:0.5:{top}:3"
        )
        assert proc.returncode == 0
        assert lines[1] == "0.5,0.5,1,1,0.841969860293,0.841969860293,1.68393972059"
        assert [line.split(",")[4:] for line in lines[2:]] == [["nan"] * 3] * 2
        assert proc.stderr.count("sweep point skipped") == 2
        assert proc.stderr.count("is not strictly stable") == 2

    def test_fixed_xi_past_cosh_range(self, tmp_path):
        proc, lines = self.sweep(
            tmp_path, "--scenario", "fig1", "--grid", "g_script:1:3:3", "--xi", "800"
        )
        assert proc.returncode == 0
        assert lines[1:] == [f"{g},800,1,1,nan,nan,nan" for g in (1, 2, 3)]
        assert proc.stderr.count("overflow a float") == 3

    def test_boundary_past_cosh_range_exits_3(self, tmp_path):
        proc = run_cli(
            "boundary", "--g-script", "1", "--xi", "800", "--grid", "n_o:0:1:2",
            "--grid", "n_m:0:1:2", "--out", str(tmp_path / "b.json"),
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: cosh and sinh of the frame parameter xi = 800 overflow a float\n"
        )
        assert not (tmp_path / "b.json").exists()
        assert not (tmp_path / "b.csv").exists()

    def test_boundary_past_metric_range_exits_3(self, tmp_path):
        # cosh 400 is a float; the frame's metric check overflows instead
        proc = run_cli(
            "boundary", "--g-script", "1", "--xi", "400", "--grid", "n_o:0:1:2",
            "--grid", "n_m:0:1:2", "--out", str(tmp_path / "b.json"),
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: transform entries up to 2.61e+173 overflow the commutator "
            "metric check\n"
        )
        assert not (tmp_path / "b.json").exists()

    def test_fig2_bound_past_float_range(self, tmp_path):
        proc, lines = self.sweep(
            tmp_path, "--scenario", "fig2", "--grid", "delta_eta:-1:1:3", "--gamma1", "1e308"
        )
        assert proc.returncode == 0
        assert lines[1:] == [f"{de},1e+308,1,nan,nan" for de in (-1, 0, 1)]
        assert proc.stderr.count(
            "the pair bound overflows a float at gamma1 + gamma2 = 1e+308"
        ) == 3
        assert len(proc.stderr.splitlines()) == 3


class TestVerify:
    def test_default_run_passes(self):
        from bosonet.suites import DEFAULT_SEED

        proc = run_cli("verify")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["seed"] == DEFAULT_SEED
        assert payload["passed"] is True
        assert len(payload["suites"]) == 11
        assert all(s["passed"] for s in payload["suites"])

    def test_other_seed_passes(self):
        proc = run_cli("verify", "--seed", "7")
        assert proc.returncode == 0

    @pytest.mark.parametrize("seed", ["-1", "1.5", "seven"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        proc = run_cli("verify", "--seed", seed)
        assert proc.returncode == 3
        assert "must be a nonnegative integer" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("tol", ["0", "-1", "-0"])
    def test_tolerance_must_be_positive(self, tol):
        proc = run_cli("verify", "--tol", tol)
        assert proc.returncode == 3
        assert "--tol must be positive" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_unreachable_tolerance_fails_cleanly(self):
        proc = run_cli("verify", "--tol", "1e-15")
        assert proc.returncode == 4
        payload = json.loads(proc.stdout)
        assert payload["passed"] is False

    def test_stdout_is_deterministic(self):
        first = run_cli("verify")
        second = run_cli("verify")
        assert first.stdout == second.stdout


class TestTopLevel:
    def test_no_command_exits_3(self):
        proc = run_cli()
        assert proc.returncode == 3

    def test_unknown_command_exits_3(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 3

    def test_cli_import_starts_no_process_pool(self):
        # every grid runs in process; the pool machinery stays unimported
        script = (
            "import sys, bosonet.cli; "
            "assert 'concurrent.futures' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('concurrent'))"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_analyze_loads_neither_scenarios_nor_suites(self, tmp_path):
        # a fresh analyze imports only the core layers; building the
        # parser, verify's --seed default included, imports nothing more
        spec = write_json(tmp_path / "net.json", BS_NETWORK)
        out = str(tmp_path / "report.json")
        script = (
            "import sys, bosonet.cli; "
            f"code = bosonet.cli.main(['analyze', '--spec', {spec!r}, '--out', {out!r}]); "
            "assert code == 0, code; "
            "loaded = [m for m in ('bosonet.scenarios', 'bosonet.suites') if m in sys.modules]; "
            "assert loaded == [], loaded"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "report.json").read_text())["stability"]["stable"]


class TestCsv:
    EDGES = (
        math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308,
        0.1, -2.5e-7, 123456789012.5, 3, -7, 10**20,
    )

    def test_rows_have_the_bytes_of_one_call_per_value(self, tmp_path):
        import numpy as np

        from bosonet import cli

        header = ("a", "b", "flag", "c")
        rows = [
            (x, np.float64(y), flag, np.int64(k))
            for k, (x, y, flag) in enumerate(zip(
                self.EDGES, self.EDGES[::-1],
                [True, False, np.bool_(True), np.bool_(False)] * 4,
            ))
        ]
        # rows whose types differ from the others', one with no bool
        rows += [(True, 1.0, np.float32(0.1), np.bool_(False)), (1.0, 2.0, 3.0, 4.0)]
        path = tmp_path / "rows.csv"
        cli._write_csv(str(path), header, rows)
        expected = [",".join(header)] + [",".join(csv_value(v) for v in row) for row in rows]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("ascii")
        text = path.read_text()
        assert "\nnan,1e+20,true,0\n" in text and "\n1e+20,nan,false,13\n" in text
        assert "\ninf,-7,false,1\n-inf,3,true,2\n-0," in text
        assert "1e+16" in text and "4.94065645841e-324" in text

    def test_empty_grid_writes_the_header(self, tmp_path):
        from bosonet import cli

        path = tmp_path / "rows.csv"
        cli._write_csv(str(path), ("a", "b"), [])
        assert path.read_bytes() == b"a,b\n"


class TestNonFiniteInputs:
    def test_spec_nan_exits_3(self, tmp_path):
        doc = json.loads(json.dumps(BS_NETWORK))
        doc["baths"][0]["n"] = float("nan")
        spec = write_json(tmp_path / "net.json", doc)
        out = tmp_path / "r.json"
        proc = run_cli("analyze", "--spec", spec, "--out", str(out))
        assert proc.returncode == 3
        assert "must be finite" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "channel",
        [
            {"n": "1.5", "m_re": 0.0, "m_im": 0.0},
            {"n": True, "m_re": 0.0, "m_im": 0.0},
            {"n": 0.0, "m_re": float("inf"), "m_im": 0.0},
            {"n": 0.0, "m_re": 0.0},
        ],
        ids=["string", "boolean", "infinite", "missing_key"],
    )
    def test_inputs_file_is_parsed_strictly(self, tmp_path, channel):
        spec = write_json(tmp_path / "net.json", BS_NETWORK)
        good = {"n": 0.0, "m_re": 0.0, "m_im": 0.0}
        inputs = write_json(tmp_path / "inputs.json", {"channels": [good, channel]})
        out = str(tmp_path / "r.json")
        proc = run_cli("analyze", "--spec", spec, "--inputs", inputs, "--out", out)
        assert proc.returncode == 3
        assert "channels[1]" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--scenario", "fig1", "--grid", "g_script:0:nan:3"],
            ["sweep", "--scenario", "fig1", "--grid", "g_script:1:2:3", "--xi", "nan"],
            [
                "boundary", "--g-script", "1",
                "--grid", "n_o:0:inf:3", "--grid", "n_m:0:1:2",
            ],
        ],
        ids=["grid_endpoint", "numeric_flag", "boundary_grid"],
    )
    def test_command_line_numbers_must_be_finite(self, tmp_path, args):
        out = tmp_path / "out.csv"
        proc = run_cli(*args, "--out", str(out))
        assert proc.returncode == 3
        assert not out.exists()
