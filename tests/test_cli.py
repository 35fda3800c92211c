"""CLI: dispatch, CSV schema and determinism, sweeps, presets, exit codes."""

import csv
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest

from conftest import benchmark_sessions

import cvqkd_fading
from cvqkd_fading import cli, hba, montecarlo, svgplot
from cvqkd_fading.channel import ChannelParams, SkrBreakdown, skr_fixed
from cvqkd_fading.cma import avg_covariance, skr_cma
from cvqkd_fading.errors import DomainError, NumericalError
from cvqkd_fading.fading import FadingUniform
from cvqkd_fading.hba import holevo_asymptotic, skr_hba_asymptotic, skr_hba_exact
from cvqkd_fading.montecarlo import SampleConfig, empirical_moments


T_MIN_ABOVE_ONE = "error: t_min must satisfy 0 < t_min <= 1, got 1.0000000000001\n"


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAttenuation:
    def test_values(self):
        assert cli.attenuation_db(1.0) == 0.0
        assert cli.attenuation_db(0.1) == pytest.approx(10.0, rel=1e-14)
        assert cli.attenuation_db(0.251188643150958) == pytest.approx(6.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            cli.attenuation_db(0.0)
        with pytest.raises(DomainError):
            cli.attenuation_db(1.5)


class TestRunPoint:
    def test_dispatch_matches_library(self):
        f = FadingUniform(0.4, 0.2)
        assert cli.run_point("hba_exact", 10.0, 0.0, f) == skr_hba_exact(10.0, 0.0, f)
        assert cli.run_point("cma", 10.0, 0.0, f) == skr_cma(10.0, 0.0, f)
        fixed = FadingUniform(0.5)
        assert cli.run_point("fixed", 10.0, 0.0, fixed) == skr_fixed(
            ChannelParams(10.0, 0.5, 0.0)
        )

    def test_degenerate_models_collapse(self):
        f = FadingUniform(0.5)
        r_hba = cli.run_point("hba_exact", 10.0, 0.01, f).rate
        r_cma = cli.run_point("cma", 10.0, 0.01, f).rate
        assert abs(r_hba - r_cma) < 1e-9

    def test_fixed_requires_zero_width(self):
        with pytest.raises(DomainError):
            cli.run_point("fixed", 10.0, 0.0, FadingUniform(0.4, 0.2))

    def test_unknown_approach(self):
        with pytest.raises(DomainError):
            cli.run_point("bogus", 10.0, 0.0, FadingUniform(0.5))


class TestPointCommand:
    def test_csv_round_trip(self, capsys):
        code, out, _ = run_main(
            ["point", "--approach", "cma", "--v", "10", "--eps", "0",
             "--t-min", "0.4", "--delta-t", "0.2"],
            capsys,
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == cli.CSV_HEADER
        cells = row.split(",")
        ref = skr_cma(10.0, 0.0, FadingUniform(0.4, 0.2))
        assert cells[0] == "cma"
        assert float(cells[7]) == ref.mutual_info
        assert float(cells[8]) == ref.holevo
        assert float(cells[9]) == ref.rate
        assert cells[11] == ""

    def test_lossless_fixed_point(self, capsys):
        code, out, _ = run_main(
            ["point", "--approach", "fixed", "--v", "10", "--eps", "0", "--t-min", "1"],
            capsys,
        )
        assert code == 0
        rate = float(out.strip().splitlines()[1].split(",")[9])
        assert rate == pytest.approx(1.6609640474436812, rel=1e-12)

    def test_invalid_point_exits_one(self, capsys):
        code, _, err = run_main(
            ["point", "--approach", "fixed", "--v", "0.5", "--eps", "0", "--t-min", "0.5"],
            capsys,
        )
        assert code == 1
        assert "V >= 1" in err

    @pytest.mark.parametrize("eps", ["5e-324", "1e-310", "1e-308", "1e-307"])
    def test_tiny_eps_gives_the_eps_zero_row(self, capsys, eps):
        # the thermal term eps T / (2 (1-T)) underflows to nothing next to the
        # logarithm; the closed form of htilde once exited 1 here ("not
        # finite") or was 5.7e-11 bits off (1e-307)
        def values(eps):
            code, out, err = run_main(
                ["point", "--approach", "hba_asymptotic", "--v", "1e4", "--eps", eps,
                 "--t-min", "0.25", "--delta-t", "0.001"],
                capsys,
            )
            assert (code, err) == (0, "")
            (row,) = csv.DictReader(out.splitlines())
            assert row["error"] == ""
            return [row[k] for k in ("mutual_info_bits", "holevo_bits", "rate_bits")]

        assert values(eps) == values("0")

    def test_bad_flag_exits_one(self, capsys):
        code, _, _ = run_main(["point", "--approach", "nope", "--v", "1", "--eps", "0",
                               "--t-min", "0.5"], capsys)
        assert code == 1

    @staticmethod
    def point_row(capsys, approach, v, eps, t_min, delta_t):
        code, out, err = run_main(
            ["point", "--approach", approach, "--v", v, "--eps", eps, "--t-min", t_min,
             "--delta-t", delta_t],
            capsys,
        )
        assert (code, err) == (0, "")
        (row,) = csv.DictReader(out.splitlines())
        return {k: float(row[k]) for k in ("mutual_info_bits", "holevo_bits", "rate_bits")}

    def test_cma_width_below_the_rounding_of_t_min_is_the_point_value(self, capsys):
        # the ergodic mutual information was a difference of antiderivatives
        # over 2 delta_t, and printed -11102.23 bits here
        tiny = self.point_row(capsys, "cma", "10", "0.01", "0.5", "1e-20")
        point = self.point_row(capsys, "cma", "10", "0.01", "0.5", "0")
        assert abs(tiny["mutual_info_bits"] - point["mutual_info_bits"]) <= 1e-12

    def test_asymptotic_width_below_the_rounding_of_t_min_is_the_point_value(self, capsys):
        # the averaged large-V Holevo bound printed 0 here (rate 6.14 bits)
        row = self.point_row(capsys, "hba_asymptotic", "1e4", "0.01", "0.5", "1e-20")
        assert row["holevo_bits"] == pytest.approx(holevo_asymptotic(0.5, 0.01, 1e4), abs=1e-12)
        assert row["rate_bits"] == pytest.approx(
            skr_hba_asymptotic(1e4, 0.01, FadingUniform(0.5, 0.001)).rate, abs=1e-3
        )

    def test_asymptotic_average_where_eps_t_min_underflows(self, capsys):
        # eps * t_min = 1e-400 made the closed form of htilde exit 1 with
        # "eps too small"; the kernel averages the thermal term itself
        row = self.point_row(capsys, "hba_asymptotic", "1e4", "1e-200", "1e-200", "0.1")
        zero = self.point_row(capsys, "hba_asymptotic", "1e4", "0", "1e-200", "0.1")
        assert row == zero

    @pytest.mark.parametrize("approach", ["fixed", "cma", "hba_exact", "hba_asymptotic"])
    def test_t_min_above_one_has_one_message(self, capsys, approach):
        # the law rejects it itself; each model once did, in its own words
        code, out, err = run_main(
            ["point", "--approach", approach, "--v", "10", "--eps", "0.01",
             "--t-min", "1.0000000000001", "--delta-t", "0"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == T_MIN_ABOVE_ONE


SWEEP_CFG = """
# tiny sweep used by the tests
approach = hba_exact,cma
v = 10
eps = 0,0.03
t-min = 0.3:0.5:0.1
delta-t = 0,0.2
x-axis = t_min
y-column = rate_bits
"""


class TestConfigParsing:
    def test_flat_format(self):
        raw = cli.parse_config_text("a = 1\n# comment\nb=x,y # tail\n\nkey-with-dash = 2\n")
        assert raw == {"a": "1", "b": "x,y", "key_with_dash": "2"}

    def test_bad_line(self):
        with pytest.raises(DomainError):
            cli.parse_config_text("just a line\n")

    def test_ranges_and_lists(self):
        assert cli._parse_t_min("0.1:0.3:0.1") == pytest.approx((0.1, 0.2, 0.3))
        assert cli._parse_t_min("0.4") == (0.4,)
        assert cli._parse_float_list("1,2.5") == (1.0, 2.5)
        vs = cli._parse_float_list("logspace:1:100:3")
        assert vs == pytest.approx((1.0, 10.0, 100.0))
        with pytest.raises(DomainError):
            cli._parse_float_list("logspace:5:1:10")
        with pytest.raises(DomainError):
            cli._parse_t_min("0.5:0.1:0.1")

    def test_overrides_win(self):
        cfg = cli.sweep_config_from_sources(SWEEP_CFG, {"v": "20", "title": "override"})
        assert cfg.v_list == (20.0,)
        assert cfg.title == "override"
        assert cfg.approaches == ("hba_exact", "cma")

    def test_unknown_key(self):
        with pytest.raises(DomainError):
            cli.sweep_config_from_sources("nonsense = 1\n" + SWEEP_CFG, {})

    def test_missing_required(self):
        with pytest.raises(DomainError):
            cli.sweep_config_from_sources("approach = cma\n", {})

    def test_presets_parse(self):
        for name in ("fig2", "fig3", "fig45"):
            cfg = cli.sweep_config_from_sources(cli.load_preset(name), {"csv": "x.csv"})
            assert cfg.csv_path == "x.csv"
        with pytest.raises(DomainError):
            cli.load_preset("fig9")


def fail_at_t_min_04(run_points):
    """``run_points`` with every evaluated row at t_min = 0.4 failing."""

    def flaky(approach, blocks, v):
        *values, failed = run_points(approach, blocks, v)
        for _, _, t_min, _, start, stop in blocks:
            if abs(t_min - 0.4) < 1e-9:
                for i in range(start, stop):
                    if not math.isnan(v[i]):
                        failed[i] = NumericalError("synthetic failure")
        return (*values, failed)

    return flaky


class TestSweep:
    def make_cfg(self, tmp_path, **overrides):
        base = {"csv": str(tmp_path / "out.csv")}
        base.update(overrides)
        return cli.sweep_config_from_sources(SWEEP_CFG, base)

    def test_rows_match_run_point(self, tmp_path):
        cfg = self.make_cfg(tmp_path)
        rows, n_errors = cli.run_sweep(cfg)
        assert n_errors == 0
        assert rows, "grid should not be empty"
        for row in rows[:6]:
            ref = cli.run_point(
                row.approach, row.v, row.eps, FadingUniform(row.t_min, row.delta_t)
            )
            assert row.rate == ref.rate
            assert row.mutual_info == ref.mutual_info
        # declared order: approach, eps, delta_t, t_min
        keys = [(r.approach, r.eps, r.delta_t, r.t_min) for r in rows]
        by_decl = sorted(
            keys,
            key=lambda k: (cfg.approaches.index(k[0]), cfg.eps_list.index(k[1]),
                           cfg.delta_t_list.index(k[2]), k[3]),
        )
        assert keys == by_decl

    def test_csv_bytes_deterministic(self, tmp_path):
        cfg1 = self.make_cfg(tmp_path, csv=str(tmp_path / "a.csv"))
        cfg2 = self.make_cfg(tmp_path, csv=str(tmp_path / "b.csv"))
        cli.run_sweep(cfg1)
        cli.run_sweep(cfg2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_jobs_is_an_unknown_key(self, tmp_path, capsys):
        # sweeps are serial: neither a jobs config key nor a --jobs flag exists
        config = tmp_path / "jobs.cfg"
        config.write_text(SWEEP_CFG + "jobs = 2\n")
        code, out, err = run_main(["sweep", "--config", str(config)], capsys)
        assert (code, out, err) == (1, "", "error: unknown sweep key 'jobs'\n")
        code, out, err = run_main(["preset", "fig45", "--jobs", "2"], capsys)
        assert code == 1 and out == ""
        assert err.endswith("error: unrecognized arguments: --jobs 2\n")

    def test_fixed_channel_skipped_for_nonzero_width(self, tmp_path, capsys):
        cfg = cli.sweep_config_from_sources(
            "approach = fixed\nv = 10\neps = 0\nt-min = 0.5\ndelta-t = 0,0.2\n",
            {"csv": str(tmp_path / "f.csv")},
        )
        rows, _ = cli.run_sweep(cfg)
        assert len(rows) == 1 and rows[0].delta_t == 0.0

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--eps", "nan"),
            ("--eps", "-0.1"),
            ("--v", "inf"),
            ("--v", "0.5"),
            ("--t-min", "nan"),
            ("--delta-t", "-0.1"),
        ],
    )
    def test_invalid_grid_value_exits_one(self, capsys, flag, value):
        argv = ["sweep", "--approach", "cma", "--v", "10", "--eps", "0",
                "--t-min", "0.4", "--delta-t", "0.2"]
        argv[argv.index(flag) + 1] = value
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_error_rows_and_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_points", fail_at_t_min_04(cli.run_points))
        csv_path = tmp_path / "err.csv"
        code, _, err = run_main(
            ["sweep", "--approach", "cma", "--v", "10", "--eps", "0",
             "--t-min", "0.3:0.5:0.1", "--delta-t", "0.2",
             "--csv", str(csv_path)],
            capsys,
        )
        assert code == 3
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 grid points
        bad = [l for l in lines if "synthetic failure" in l]
        assert len(bad) == 1
        cells = bad[0].split(",")
        assert cells[0] == "cma" and cells[1] == "10"
        assert cells[7] == cells[8] == cells[9] == ""  # no values on failure

    def test_error_cell_is_quoted(self, monkeypatch, capsys):
        # real messages carry commas ("must be >= 1, got ..."); quotes and
        # line breaks take the same RFC 4180 path
        message = 'eigenvalue must be >= 1, got "0.9"\nsecond line'

        def failing(approach, blocks, v):
            nan = np.full(len(v), math.nan)
            rows = [i for *_, start, stop in blocks for i in range(start, stop)]
            return nan, nan, nan, {i: DomainError(message) for i in rows}

        monkeypatch.setattr(cli, "run_points", failing)
        code, out, _ = run_main(
            ["sweep", "--approach", "cma", "--v", "10,20", "--eps", "0",
             "--t-min", "0.4", "--delta-t", "0.2"],
            capsys,
        )
        assert code == 3
        rows = list(csv.reader(out.splitlines(keepends=True)))
        assert [len(r) for r in rows] == [12, 12, 12]
        assert [r[11] for r in rows[1:]] == [f"DomainError: {message}"] * 2

    def test_failed_optimize_v_row_has_empty_v_cells(self, monkeypatch):
        monkeypatch.setattr(cli, "run_points", fail_at_t_min_04(cli.run_points))
        cfg = cli.sweep_config_from_sources(
            "approach = cma\nv = 10\neps = 0\nt-min = 0.3,0.4\ndelta-t = 0.2\n"
            "optimize-v = cma\n",
            {},
        )
        rows, n_errors = cli.run_sweep(cfg)
        assert n_errors == 1
        ok, bad = (line.split(",") for line in "".join(cli.csv_blocks(rows)).splitlines()[1:])
        assert ok[1] == ok[10] != ""  # V is the optimum found
        assert bad[1] == bad[10] == "" and bad[11] == "NumericalError: synthetic failure"

    def test_quadrature_budget_row_is_an_error_cell(self, tmp_path, capsys, monkeypatch):
        # node values with noise beyond rel_tol at V = 1e8 (1e-5 bits) and
        # not at V = 10 (1e-12): the first row's tanh-sinh levels disagree
        real = hba.holevo_rows

        def noisy(v, t, eps):
            holevo, ok = real(v, t, eps)
            return holevo + 1e-13 * v * np.sin(1e7 * t), ok

        monkeypatch.setattr(hba, "holevo_rows", noisy)
        csv_path = tmp_path / "budget.csv"
        code, _, err = run_main(
            ["sweep", "--approach", "hba_exact", "--v", "1e8,10", "--eps", "0.01",
             "--t-min", "0.5", "--delta-t", "0.4", "--csv", str(csv_path)],
            capsys,
        )
        assert code == 3
        assert "1 grid points failed" in err
        bad, good = list(csv.reader(csv_path.read_text().splitlines()))[1:]
        assert bad[1] == "100000000"
        assert bad[-1].startswith("QuadratureError: fading average on [0.5, 0.9")
        assert "tanh-sinh levels differ by" in bad[-1]
        assert bad[7:10] == ["", "", ""]
        assert good[-1] == ""

    def test_svg_written_and_clamped(self, tmp_path):
        # rates at tiny t_min are negative; the linear-axis SVG must clamp at 0
        cfg = cli.sweep_config_from_sources(
            "approach = cma\nv = 100\neps = 0.03\nt-min = 0.05:0.3:0.05\ndelta-t = 0.2\n",
            {"csv": str(tmp_path / "c.csv"), "svg": str(tmp_path / "c.svg")},
        )
        rows, n_errors = cli.run_sweep(cfg)
        assert n_errors == 0
        assert min(r.rate for r in rows) < 0.0
        text = (tmp_path / "c.svg").read_text()
        assert text.startswith("<svg") and "polyline" in text
        clamped = [
            ("cma V=100 eps=0.03 dT=0.2", [r.t_min for r in rows], [max(r.rate, 0.0) for r in rows])
        ]
        svgplot.write_line_plot(str(tmp_path / "want.svg"), clamped, "t_min", "rate_bits")
        assert text == (tmp_path / "want.svg").read_text()

    def test_log_plot_without_positive_values_is_skipped(self, tmp_path, capsys):
        # every rate is negative, so the log axis has nothing to draw: the
        # plot is skipped with one stderr line, and the exit code comes from
        # the rows alone
        csv_path, svg_path = tmp_path / "a.csv", tmp_path / "a.svg"
        code, out, err = run_main(
            ["sweep", "--approach", "cma", "--v", "10", "--eps", "0.03", "--t-min", "0.02,0.03",
             "--delta-t", "0.2", "--log-y", "true", "--csv", str(csv_path), "--svg", str(svg_path)],
            capsys,
        )
        assert code == 0 and out == ""
        assert err.splitlines() == [
            f"skip plot {svg_path}: no plottable points (log axis with no positive values?)",
            f"wrote 2 rows to {csv_path}",
        ]
        assert len(csv_path.read_text().splitlines()) == 3 and not svg_path.exists()
        with pytest.raises(DomainError, match="no plottable points"):
            svgplot.write_line_plot(
                str(svg_path), [("c", [0.1, 0.2], [-1.0, 0.0])], "x", "y", log_y=True
            )


class TestThresholdCommand:
    def test_hba_threshold_in_claimed_band(self, capsys):
        code, out, _ = run_main(
            ["threshold", "--approach", "hba_exact", "--v", "10", "--eps", "0",
             "--delta-t", "0.2"],
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        t_star, db = float(row[4]), float(row[5])
        assert 6.0 <= db <= 8.0
        assert cli.attenuation_db(t_star) == pytest.approx(db, rel=1e-12)

    def test_cma_threshold_above_hba_for_wide_fading(self, capsys):
        # wide distributions degrade the averaged-covariance model: its
        # positivity threshold sits above the worst-case-rate model's
        # (checked against an independent high-precision bisection:
        # t*_cma = 0.22737 vs t*_hba = 0.21577 at eps = 0.005, delta_t = 0.6)
        _, out_h, _ = run_main(
            ["threshold", "--approach", "hba_exact", "--v", "10", "--eps", "0.005",
             "--delta-t", "0.6"],
            capsys,
        )
        _, out_c, _ = run_main(
            ["threshold", "--approach", "cma", "--v", "10", "--eps", "0.005",
             "--delta-t", "0.6"],
            capsys,
        )
        t_h = float(out_h.strip().splitlines()[1].split(",")[4])
        t_c = float(out_c.strip().splitlines()[1].split(",")[4])
        assert t_h == pytest.approx(0.21577, abs=2e-5)
        assert t_c == pytest.approx(0.22737, abs=2e-5)
        assert t_c > t_h

    def test_no_sign_change_exits_two(self, capsys):
        code, _, err = run_main(
            ["threshold", "--approach", "fixed", "--v", "10", "--eps", "0",
             "--lo", "1e-4", "--hi", "0.9999"],
            capsys,
        )
        assert code == 2
        assert "no sign change" in err

    def test_bisection_tolerance(self):
        t1, _ = cli.find_positive_threshold("hba_exact", 10.0, 0.0, 0.2, tol=1e-5)
        t2, _ = cli.find_positive_threshold("hba_exact", 10.0, 0.0, 0.2, tol=1e-7)
        assert abs(t1 - t2) < 2e-5

    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    def test_root_on_a_prescan_sample_is_found(self, monkeypatch, k):
        # k = 0: rate(lo) = 0; k = 8: the root is hi, the last sample
        lo, hi, tol = 0.05, 0.75, 1e-5
        root = lo + (hi - lo) * k / 8.0  # the pre-scan's own sample

        def rate_line(approach, v, eps, f):
            return SkrBreakdown.from_parts(f.t_min - root, 0.0)

        monkeypatch.setattr(cli, "run_point", rate_line)
        t_star, _ = cli.find_positive_threshold("cma", 10.0, 0.01, 0.2, lo, hi, tol)
        assert abs(t_star - root) <= tol / 2.0

    def test_queries_thresholds_are_bracket_midpoints_in_few_rate_calls(self, monkeypatch):
        # each threshold of the benchmark's queries sessions is the midpoint
        # of a sign-change bracket of evaluated points no wider than tol,
        # found in at most 16 rate evaluations per call on average (9 of them
        # the pre-scan); bisection of the whole bracket took 25.4
        real, evaluated = cli.run_point, []

        def recorded(approach, v, eps, f):
            out = real(approach, v, eps, f)
            evaluated.append((f.t_min, out.rate))
            return out

        monkeypatch.setattr(cli, "run_point", recorded)
        sessions = benchmark_sessions(1, 20)
        calls = 0
        for s in sessions:
            evaluated.clear()
            t_star, _ = cli.find_positive_threshold("hba_exact", s.v, s.eps, s.delta_t)
            calls += len(evaluated)
            a = max(t for t, r in evaluated if r < 0.0)
            b = min(t for t, r in evaluated if r >= 0.0)
            assert a < b and b - a <= 1e-5 and t_star == 0.5 * (a + b)
        assert calls / len(sessions) <= 16.0

    def test_bad_tol_fails_fast_and_a_tiny_one_terminates(self):
        # bisection stopped only at b - a <= tol, which adjacent floats never
        # reach: tol 0, -1 and 1e-300 hung, and nan returned the bracket's
        # midpoint; a subprocess turns a hang into a timeout
        script = "\n".join([
            "import contextlib, io, json, time",
            "from cvqkd_fading import cli",
            "argv = ['threshold', '--approach', 'cma', '--v', '10', '--eps', '0.01',",
            "        '--delta-t', '0.2', '--tol']",
            "out = {}",
            "for tol in ('0', '-1', 'nan', '1e-300', '1e-12'):",
            "    buf, start = io.StringIO(), time.perf_counter()",
            "    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):",
            "        code = cli.main(argv + [tol])",
            "    out[tol] = (code, time.perf_counter() - start, buf.getvalue())",
            "print(json.dumps(out))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=checkout_env(),
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert all(seconds < 2.0 for _, seconds, _ in out.values())
        for tol in ("0", "-1", "nan"):
            assert (out[tol][0], out[tol][2]) == (1, "")
        tiny, ref = (float(out[t][2].splitlines()[1].split(",")[4]) for t in ("1e-300", "1e-12"))
        assert abs(tiny - ref) <= 1e-12


class TestOptimizeCommand:
    def test_reports_optimum(self, capsys):
        code, out, _ = run_main(
            ["optimize-v", "--eps", "0", "--t-min", "0.1", "--delta-t", "0.2"],
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        v_opt, rate = float(row[3]), float(row[4])
        assert 1.0 < v_opt < 1e4
        assert rate == pytest.approx(skr_cma(v_opt, 0.0, FadingUniform(0.1, 0.2)).rate, rel=1e-12)

    def test_bracket_edge_warns(self, capsys):
        # the optimum (about 1.9 / delta_t) lies beyond v_hi = 1e4
        code, out, err = run_main(
            ["optimize-v", "--eps", "0.01", "--t-min", "0.5", "--delta-t", "1e-4"], capsys
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[3]) == 1e4
        assert err.startswith("warning: v_opt = 10000 is within 0.001 of the bracket edge v_hi")

    def test_interior_optimum_is_silent(self, capsys):
        code, out, err = run_main(
            ["optimize-v", "--eps", "0.01", "--t-min", "0.5", "--delta-t", "2e-3"], capsys
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[3]) == pytest.approx(937.9, abs=0.1)
        assert err == ""


    def test_bracket_wider_than_its_float_spacing_allows_ends(self, capsys):
        # ulp(1e16) = 2 > V_TOL: the golden-section search never ended here
        def stop(signum, frame):
            raise TimeoutError("optimize-v did not end within 20 s")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.alarm(20)
        try:
            code, out, err = run_main(
                ["optimize-v", "--eps", "0", "--t-min", "0.3", "--delta-t", "0", "--v-hi", "1e16"],
                capsys,
            )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[3]) == 1e16
        assert err.startswith(
            "warning: v_opt = 10000000000000000 is within 0.001 of the bracket edge v_hi"
        )

    def test_infinite_v_hi_exits_one_naming_it(self, capsys):
        code, out, err = run_main(
            ["optimize-v", "--eps", "0.01", "--t-min", "0.3", "--delta-t", "0.2", "--v-hi", "inf"],
            capsys,
        )
        assert (code, out, err) == (1, "", "error: v_hi must be finite, got inf\n")

    def test_sweep_with_infinite_v_hi_exits_one_before_evaluating(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "optimal_variance", lambda *args: calls.append(args))
        code, out, err = run_main(
            ["sweep", "--approach", "cma", "--v", "10", "--eps", "0.01", "--t-min", "0.3",
             "--delta-t", "0.2", "--optimize-v", "cma", "--v-hi", "inf"],
            capsys,
        )
        assert (code, out, err) == (1, "", "error: v_hi must be finite, got inf\n")
        assert calls == []


class TestTinyLaws:
    """Laws far below T = 1e-154, where the moments' closed forms once
    underflowed to 0 / 0 (a ZeroDivisionError traceback) or to 0."""

    LAW = ["--t-min", "1e-300", "--delta-t", "1e-300"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["point", "--approach", "cma", "--v", "10", "--eps", "0.01", *LAW],
            ["optimize-v", "--eps", "0.01", *LAW],
            ["sweep", "--approach", "cma", "--v", "10", "--eps", "0.01", *LAW],
        ],
    )
    def test_cma_answers(self, capsys, argv):
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        row = out.strip().splitlines()[1].split(",")
        assert all(math.isfinite(float(cell)) for cell in row[1:-1] if cell)

    @pytest.mark.parametrize("law, var_sqrt_t", [("1e-300", 1.4157444218835646e-302),
                                                 ("1e-160", 1.4157444218835649e-162)])
    def test_mc_validate_within_bands(self, capsys, law, var_sqrt_t):
        # var_sqrt_t and its standard error printed 0 at 1e-160, and the
        # check failed; mpmath gives Var(sqrt T) = 1.4157444218835e-162 there
        code, out, err = run_main(
            ["mc-validate", "--v", "10", "--eps", "0.01", "--t-min", law, "--delta-t", law,
             "--n", "100000"],
            capsys,
        )
        assert (code, err) == (0, "")
        rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
        assert all(row[-1] == "true" for row in rows.values())
        assert float(rows["var_sqrt_t"][2]) == pytest.approx(var_sqrt_t, rel=1e-14)
        assert all(float(rows[name][4]) > 0.0 for name in ("mean_sqrt_t", "var_sqrt_t"))


class TestFloatRange:
    """Valid inputs at the ends of the float range exit 1 with a message that
    names the input: not the text of an internal check ("g_entropy requires
    finite x >= 0", "rate must equal mutual_info - holevo"), a traceback or
    a numpy warning."""

    TOO_SMALL = "transmittance T = 1e-320 is too small: 1/T overflows below 5.6e-309"

    @staticmethod
    def run_quietly(argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_main(argv, capsys)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "Traceback" not in err and "RuntimeWarning" not in err
        return code, out, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--approach", "fixed"],
            ["--approach", "cma", "--delta-t", "0.1"],
            ["--approach", "hba_exact", "--delta-t", "0.1"],
        ],
    )
    def test_large_v_names_v(self, capsys, argv):
        # the exact spectrum squares V (1 - T): it overflows beyond ~1e154
        code, out, err = self.run_quietly(
            ["point", *argv, "--v", "1e200", "--eps", "0.01", "--t-min", "0.5"], capsys
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: exact spectrum overflows at V = 1e+200, T = ")
        assert err.endswith("; hba_asymptotic covers large V\n")

    def test_large_v_asymptotic_answers(self, capsys):
        code, out, err = self.run_quietly(
            ["point", "--approach", "hba_asymptotic", "--v", "1e200", "--eps", "0.01",
             "--t-min", "0.5", "--delta-t", "0.1"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert math.isfinite(float(out.splitlines()[1].split(",")[9]))

    def test_large_v_sweep_row_has_the_point_message(self, capsys):
        code, out, err = self.run_quietly(
            ["sweep", "--approach", "fixed", "--v", "1e200,10", "--eps", "0.01",
             "--t-min", "0.5", "--delta-t", "0"],
            capsys,
        )
        assert code == 3 and err == "1 grid points failed; see the error column\n"
        bad, good = list(csv.reader(out.splitlines()))[1:]
        assert bad[11].startswith("DomainError: exact spectrum overflows at V = 1e+200, T = 0.5")
        assert good[11] == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["point", "--approach", "fixed", "--v", "10"],
            ["point", "--approach", "cma", "--v", "10", "--delta-t", "0"],
            ["point", "--approach", "hba_exact", "--v", "10", "--delta-t", "0.5"],
            ["optimize-v", "--delta-t", "0"],
        ],
    )
    def test_subnormal_t_names_t(self, capsys, argv):
        code, out, err = self.run_quietly([*argv, "--eps", "0.01", "--t-min", "1e-320"], capsys)
        assert (code, out, err) == (1, "", f"error: {self.TOO_SMALL}\n")

    def test_subnormal_t_sweep_row_has_the_point_message(self, capsys):
        code, out, err = self.run_quietly(
            ["sweep", "--approach", "fixed", "--v", "10", "--eps", "0.01",
             "--t-min", "1e-320,0.5", "--delta-t", "0"],
            capsys,
        )
        assert code == 3 and err == "1 grid points failed; see the error column\n"
        bad, good = list(csv.reader(out.splitlines()))[1:]
        assert (bad[11], good[11]) == (f"DomainError: {self.TOO_SMALL}", "")

    def test_cma_law_wholly_below_the_bound_fails_the_same_way(self, capsys):
        # its effective transmittance is subnormal too; the rate printed was
        # of order 1e-320, made of underflow
        argv = ["--approach", "cma", "--v", "10", "--eps", "0.01",
                "--t-min", "1e-320", "--delta-t", "1e-320"]
        code, out, err = self.run_quietly(["point", *argv], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: transmittance T = ")
        assert err.endswith(" is too small: 1/T overflows below 5.6e-309\n")
        code, out, _ = self.run_quietly(["sweep", *argv], capsys)
        assert code == 3
        assert list(csv.reader(out.splitlines()))[1][11] == "DomainError: " + err[7:-1]


class TestMcValidateCommand:
    def test_within_bands_and_deterministic(self, capsys):
        argv = ["mc-validate", "--v", "10", "--eps", "0.03", "--t-min", "0.4",
                "--delta-t", "0.2", "--n", "200000", "--seed", "42"]
        code1, out1, _ = run_main(argv, capsys)
        code2, out2, _ = run_main(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0].startswith("quantity,")
        assert len(lines) == 6
        assert all(line.endswith(",true") for line in lines[1:])

    @pytest.mark.parametrize("flag, value", [("--v", "0.5"), ("--eps", "-1"), ("--v", "inf")])
    def test_invalid_input_prints_no_header(self, capsys, flag, value):
        argv = ["mc-validate", "--v", "10", "--eps", "0.01", "--t-min", "0.4",
                "--delta-t", "0.2", "--n", "10"]
        argv[argv.index(flag) + 1] = value
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    def test_t_min_above_one_has_the_laws_message(self, capsys):
        code, out, err = run_main(
            ["mc-validate", "--v", "10", "--eps", "0.01", "--t-min", "1.0000000000001",
             "--delta-t", "0", "--n", "10"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == T_MIN_ABOVE_ONE

    def test_pure_loss_point_mass(self, capsys):
        # at V = 1327, T = 0.94, eps = 0 the state is pure-loss (lambda2 = 1
        # exactly); rounding must not reject it as unphysical
        code, out, err = run_main(
            ["mc-validate", "--v", "1327", "--eps", "0", "--t-min", "0.94",
             "--delta-t", "0", "--n", "1000"],
            capsys,
        )
        assert code == 0, err
        assert len(out.strip().splitlines()) == 6

    @pytest.mark.parametrize("delta_t", ["1e-7", "3e-6", "1e-12"])
    def test_narrow_law_exits_zero(self, capsys, delta_t):
        # the standard errors must not be formed as raw-moment differences:
        # those cancel as delta_t -> 0 and go negative below about 3.2e-6
        code, out, err = run_main(
            ["mc-validate", "--v", "10", "--eps", "0.01", "--t-min", "0.5",
             "--delta-t", delta_t, "--n", "1000"],
            capsys,
        )
        assert (code, err) == (0, "")
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.endswith(",true") for line in lines[1:])

    @pytest.mark.parametrize(
        "flag, value", [("--v", "0.5"), ("--eps", "-1"), ("--v", "nan"), ("--eps", "nan")]
    )
    def test_invalid_input_fails_before_any_draw(self, capsys, monkeypatch, flag, value):
        draws = []
        monkeypatch.setattr(montecarlo, "sample_transmittance", lambda f, cfg: draws.append(cfg))
        argv = ["mc-validate", "--v", "10", "--eps", "0.01", "--t-min", "0.4",
                "--delta-t", "0.2", "--n", "10000000"]
        argv[argv.index(flag) + 1] = value
        code, out, err = run_main(argv, capsys)
        assert (code, out, draws) == (1, "", [])
        assert err.startswith("error: ")

    def test_golden_small_run(self, capsys):
        # a numpy release that changes the PCG64 stream, the float draw from
        # it or the pairwise sums fails here first
        code, out, err = run_main(
            ["mc-validate", "--v", "10", "--eps", "0.01", "--t-min", "0.3",
             "--delta-t", "0.4", "--n", "1000", "--seed", "7"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "quantity,empirical,closed_form,abs_dev,std_err,n_sigma,within_5_sigma",
            "mean_sqrt_t,0.70056884722860746,0.70224208553717171,0.001673238308564251,"
            "0.0026184066338908398,0.639,true",
            "mean_t,0.49768250040725742,0.5,0.0023174995927425779,"
            "0.0036514837167011078,0.635,true",
            "var_sqrt_t,0.0068857907000374448,0.0068560533004035579,2.9737399633886913e-05,"
            "0.00019809617122087343,0.150,true",
            "cov_c,6.9705720182073128,6.9872205291703828,0.016648510963070073,"
            "0.026052817059580183,0.639,true",
            "cov_b,5.4841193286693892,5.5049999999999999,0.020880671330610667,"
            "0.032899868287476979,0.635,true",
        ]

    def test_starts_no_thread(self, capsys):
        threads = threading.active_count()
        code, _, _ = run_main(
            ["mc-validate", "--v", "10", "--eps", "0.01", "--t-min", "0.3",
             "--delta-t", "0.4", "--n", "100000"],
            capsys,
        )
        assert code == 0
        assert threading.active_count() == threads

    def test_law_past_one_is_clamped(self, capsys, monkeypatch):
        # t_min + delta_t up to 1e-12 above 1 is the law on [t_min, 1]: the
        # closed forms and the draws describe that one law
        draws = []
        real = montecarlo.sample_transmittance

        def keep(f, cfg):
            t = real(f, cfg)
            draws.append(t.max())
            return t

        monkeypatch.setattr(montecarlo, "sample_transmittance", keep)
        code, out, err = run_main(
            ["mc-validate", "--v", "10", "--eps", "0", "--t-min", "0.5",
             "--delta-t", "0.500000000001", "--n", "100000"],
            capsys,
        )
        assert (code, err) == (0, "")
        closed_form = {line.split(",")[0]: line.split(",")[2] for line in out.splitlines()[1:]}
        assert closed_form["mean_t"] == "0.75"
        assert len(draws) == 1 and draws[0] <= 1.0

    def test_samples_once(self, monkeypatch):
        draws = []
        real = montecarlo.sample_transmittance

        def counting(f, cfg):
            draws.append(cfg)
            return real(f, cfg)

        monkeypatch.setattr(montecarlo, "sample_transmittance", counting)
        f, cfg = FadingUniform(0.4, 0.2), SampleConfig(10_000, 7)
        rows = {name: emp for name, emp, _, _ in cli.mc_validate_rows(10.0, 0.03, f, cfg)}
        assert len(draws) == 1
        ref = avg_covariance(empirical_moments(f, cfg), 10.0, 0.03)
        assert rows["cov_b"] == ref.b
        assert rows["cov_c"] == ref.c


class TestSharedParser:
    """``main`` reuses one parser per process; no call may see another's flags."""

    POINT = ["point", "--approach", "fixed", "--v", "10", "--eps", "0", "--t-min", "0.5"]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_after_a_good_call(self, capsys):
        assert run_main(self.POINT, capsys)[0] == 0
        bad = ["point", "--approach", "nope", "--v", "1", "--eps", "0", "--t-min", "0.5"]
        code, out, err = run_main(bad, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage: cvqkd-fading point [-h] --approach")
        assert "\nerror: argument --approach: invalid choice: 'nope'" in err
        code, out, err = run_main(self.POINT, capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == cli.CSV_HEADER

    def test_threshold_bracket_does_not_carry_over(self, capsys):
        argv = ["threshold", "--approach", "cma", "--v", "10", "--eps", "0.01", "--delta-t", "0.2"]
        narrow = run_main(argv + ["--hi", "0.5"], capsys)
        default = run_main(argv, capsys)
        assert narrow[0] == default[0] == 0
        t_star, db = cli.find_positive_threshold("cma", 10.0, 0.01, 0.2)
        assert default[1].splitlines()[1].split(",")[4:] == [cli.fmt(t_star), cli.fmt(db)]

    def test_mc_seed_does_not_carry_over(self, capsys):
        argv = ["mc-validate", "--v", "10", "--eps", "0.03", "--t-min", "0.4",
                "--delta-t", "0.2", "--n", "1000"]
        assert run_main(argv + ["--seed", "5"], capsys)[0] == 0
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        emp = empirical_moments(FadingUniform(0.4, 0.2), SampleConfig(1000, 20240))
        empirical = {line.split(",")[0]: line.split(",")[1] for line in out.splitlines()[1:]}
        assert empirical["mean_t"] == cli.fmt(emp.mean_t)
        assert empirical["mean_sqrt_t"] == cli.fmt(emp.mean_sqrt_t)


class TestSvgLegend:
    @staticmethod
    def legend_texts(tmp_path, n_curves):
        series = [(f"curve {i}", [0.0, 1.0], [float(i), float(i) + 0.5]) for i in range(n_curves)]
        path = tmp_path / "legend.svg"
        svgplot.write_line_plot(str(path), series, "x", "y")
        texts = re.findall(r'<text x="(\d+)" y="([\d.]+)">([^<]*)</text>', path.read_text())
        legend_x = str(svgplot.WIDTH - svgplot.MARGIN_R + 33)
        return [(float(y), label) for x, y, label in texts if x == legend_x]

    def test_many_curves_keep_the_legend_on_the_image(self, tmp_path):
        legend = self.legend_texts(tmp_path, 40)
        assert max(y for y, _ in legend) <= svgplot.HEIGHT - svgplot.MARGIN_B
        assert [label for _, label in legend[:-1]] == [f"curve {i}" for i in range(25)]
        assert legend[-1][1] == "\u2026 and 15 more"

    def test_legend_that_fits_lists_every_curve(self, tmp_path):
        legend = self.legend_texts(tmp_path, 26)
        assert [label for _, label in legend] == [f"curve {i}" for i in range(26)]


class TestSvgEscape:
    def test_matches_xml_escape(self):
        for text in ("", "plain", "a<b & c>d", "&amp;", "<<&&>>", 'q"uote'):
            assert svgplot.escape(text) == sax_escape(text)


def checkout_env():
    """The environment with this package's source directory on PYTHONPATH,
    so a subprocess imports the same package as the tests."""
    src = str(Path(cvqkd_fading.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


class TestEntryPoint:
    def test_cold_start_imports(self):
        # neither the process pool, the network stack that xml.sax.saxutils
        # pulls in, nor numpy.polynomial (first exact average only) loads
        # with the CLI
        unwanted = ("concurrent.futures", "urllib.request", "numpy.polynomial")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, cvqkd_fading.cli; print([m for m in {unwanted!r} if m in sys.modules])"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cvqkd_fading.cli", "point", "--approach", "fixed",
             "--v", "10", "--eps", "0", "--t-min", "1"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == cli.CSV_HEADER
