"""CLI: dispatch, CSV schema and determinism, sweeps, presets, exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import pytest

import cvqkd_fading
from cvqkd_fading import cli, hba, montecarlo, svgplot
from cvqkd_fading.channel import ChannelParams, skr_fixed
from cvqkd_fading.cma import avg_covariance, skr_cma
from cvqkd_fading.errors import DomainError, NumericalError
from cvqkd_fading.fading import FadingUniform
from cvqkd_fading.hba import skr_hba_exact
from cvqkd_fading.montecarlo import SampleConfig, empirical_moments


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

    def test_subnormal_eps_exits_one(self, capsys):
        # htilde's closed form underflows; it was a bare ValueError traceback
        code, out, err = run_main(
            ["point", "--approach", "hba_asymptotic", "--v", "1e4", "--eps", "5e-324",
             "--t-min", "0.25", "--delta-t", "0.001"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == "error: htilde closed form is not finite at eps = 5e-324 (eps too small)\n"

    def test_bad_flag_exits_one(self, capsys):
        code, _, _ = run_main(["point", "--approach", "nope", "--v", "1", "--eps", "0",
                               "--t-min", "0.5"], capsys)
        assert code == 1


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
        cfg = cli.sweep_config_from_sources(SWEEP_CFG, {"v": "20", "jobs": "2"})
        assert cfg.v_list == (20.0,)
        assert cfg.jobs == 2
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
    """``run_points`` with every point at t_min = 0.4 failing."""

    def flaky(approach, v, eps, t_min, delta_t):
        *values, failed = run_points(approach, v, eps, t_min, delta_t)
        for i, t in enumerate(t_min):
            if abs(t - 0.4) < 1e-9:
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

    def test_parallel_output_identical(self, tmp_path):
        serial = self.make_cfg(tmp_path, csv=str(tmp_path / "serial.csv"))
        parallel = self.make_cfg(tmp_path, csv=str(tmp_path / "par.csv"), jobs="2")
        cli.run_sweep(serial)
        cli.run_sweep(parallel)
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()

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
            ("--jobs", "0"),
        ],
    )
    def test_invalid_grid_value_exits_one(self, capsys, flag, value):
        argv = ["sweep", "--approach", "cma", "--v", "10", "--eps", "0",
                "--t-min", "0.4", "--delta-t", "0.2", "--jobs", "1"]
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

        def failing(approach, v, eps, t_min, delta_t):
            nan = [math.nan] * len(v)
            return nan, nan, nan, {i: DomainError(message) for i in range(len(v))}

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
        ok, bad = (line.split(",") for line in cli.csv_lines(rows))
        assert ok[1] == ok[10] != ""  # V is the optimum found
        assert bad[1] == bad[10] == "" and bad[11] == "NumericalError: synthetic failure"

    def test_quadrature_budget_row_is_an_error_cell(self, tmp_path, capsys, monkeypatch):
        # every row takes adaptive Simpson, over an integrand whose noise
        # exceeds rel_tol at V = 1e8 (1e-5 bits) and not at V = 10 (1e-12)
        real = hba.holevo_fixed
        monkeypatch.setattr(hba, "_gauss_legendre", lambda half, nodes: None)
        monkeypatch.setattr(
            hba, "holevo_fixed", lambda p: real(p) + 1e-13 * p.v * math.sin(1e7 * p.t)
        )
        csv_path = tmp_path / "budget.csv"
        code, _, err = run_main(
            ["sweep", "--approach", "hba_exact", "--v", "1e8,10", "--eps", "0.01",
             "--t-min", "0.5", "--delta-t", "0.4", "--csv", str(csv_path)],
            capsys,
        )
        assert code == 3
        assert "1 grid points failed" in err
        bad, good = csv_path.read_text().strip().splitlines()[1:]
        assert bad.split(",")[1] == "100000000"
        assert bad.split(",")[-1].startswith("QuadratureError: evaluation budget exhausted after")
        assert bad.split(",")[7:10] == ["", "", ""]
        assert good.split(",")[-1] == ""

    def test_svg_written_and_clamped(self, tmp_path):
        # rates at tiny t_min are negative; the linear-axis SVG must clamp at 0
        cfg = cli.sweep_config_from_sources(
            "approach = cma\nv = 100\neps = 0.03\nt-min = 0.05:0.3:0.05\ndelta-t = 0.2\n",
            {"csv": str(tmp_path / "c.csv"), "svg": str(tmp_path / "c.svg")},
        )
        rows, n_errors = cli.run_sweep(cfg)
        assert n_errors == 0
        assert min(r.rate for r in rows) < 0.0
        series = cli._series_for(cfg, rows, "t_min", "rate_bits")
        assert series and all(y >= 0.0 for _, pts in series for _, y in pts)
        assert (tmp_path / "c.svg").exists()
        text = (tmp_path / "c.svg").read_text()
        assert text.startswith("<svg") and "polyline" in text


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
        series = [(f"curve {i}", [(0.0, float(i)), (1.0, float(i) + 0.5)]) for i in range(n_curves)]
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
