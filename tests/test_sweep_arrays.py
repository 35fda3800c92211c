"""The sweep's array path gives every row exactly what ``run_point`` gives it.

``cli.run_sweep`` evaluates the rows of a grid as one array per approach
(the fading averages in chunks of tanh-sinh node matrices), keeps them as
columns, writes the CSV in pieces from slices of the columns, and builds
the SVG curves from block slices.  The CSV is a byte contract, so these
tests hold the sweep to the row-by-row reference it replaced: the grid
expanded by nested loops with its skip lines, each row through
``run_point`` (after ``optimal_variance`` for an optimize-v row), compared
with ``==``, error rows with the same text, the CSV written cell by cell
and every SVG drawn from curves regrouped row by row.
"""

import collections
import contextlib
import dataclasses
import io
import itertools
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import fixed_rate_oracle, levels_agree, tanh_sinh_levels
from cvqkd_fading import cli, cma, fading, hba, svgplot
from cvqkd_fading.channel import (
    ChannelParams,
    holevo_fixed,
    holevo_rows,
    mutual_information_fixed,
    skr_fixed,
)
from cvqkd_fading.cma import optimal_variance
from cvqkd_fading.errors import DomainError, NumericalError, QuadratureError
from cvqkd_fading.fading import FadingUniform

# fixed-channel points at eps = 0 where lambda2 once rounded below 1 - 1e-12
# (CHANGES.md, the MENDED line on the lambda >= 1 check)
FOUND_POINTS = ((1e3, 0.988695), (1e4, 0.985585), (1e5, 0.98587))


def reference_grid(cfg):
    """The grid expanded by nested loops in the declared order (approach,
    eps, delta_t, t_min, V), one law per row: (rows, skip lines).  An
    optimize-v row's V is None."""
    rows, skipped = [], []
    for approach in cfg.approaches:
        for eps in cfg.eps_list:
            for delta_t in cfg.delta_t_list:
                for t_min in cfg.t_min_values:
                    for v in (None,) if approach in cfg.optimize_v else cfg.v_list:
                        issue = ""
                        try:
                            f = FadingUniform(t_min, delta_t)
                            if approach == "fixed" and f.delta_t != 0.0:
                                raise DomainError("fixed-channel evaluation requires delta_t = 0")
                            if approach == "hba_asymptotic":
                                floor = hba.holevo_asymptotic_regime_floor(eps, f)
                                if v is not None and v <= floor:
                                    issue = f"V below the large-V validity floor {floor:.6g}"
                        except DomainError as exc:
                            issue = str(exc)
                        if issue:
                            v_cell = "opt" if v is None else cli.fmt(v)
                            skipped.append(
                                f"skip approach={approach} V={v_cell} eps={eps!r} "
                                f"t_min={t_min!r} delta_t={delta_t!r}: {issue}"
                            )
                        else:
                            rows.append(cli.SweepRow(approach, v, eps, t_min, delta_t))
    return rows, skipped


def reference_rows(cfg):
    """The grid evaluated row by row, as the sweep did before arrays:
    (rows, skip lines)."""
    rows, skipped = reference_grid(cfg)
    for row in rows:
        try:
            f = FadingUniform(row.t_min, row.delta_t)
            v = row.v
            if v is None:
                v, _ = optimal_variance(row.eps, f, cfg.v_lo, cfg.v_hi)
            out = cli.run_point(row.approach, v, row.eps, f)
        except (DomainError, NumericalError) as exc:
            row.error = f"{type(exc).__name__}: {exc}"
            continue
        if row.v is None:
            row.v_opt = v
        row.v, row.mutual_info, row.holevo, row.rate = v, out.mutual_info, out.holevo, out.rate
    return rows, skipped


def sweep_and_skips(cfg):
    """``cli.run_sweep(cfg)`` and the grid's skip lines it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rows, n_errors = cli.run_sweep(cfg)
    skipped = [line for line in err.getvalue().splitlines() if not line.startswith("skip plot ")]
    return rows, n_errors, skipped


def reference_csv(rows):
    """The CSV written cell by cell, every cell formatted for every row."""
    lines = [cli.CSV_HEADER]
    for row in rows:
        cells = [row.approach]
        cells += [cli.fmt(x) for x in (row.v, row.eps, row.t_min, row.delta_t, row.t_mean)]
        cells.append(cli.fmt(cli.attenuation_db(row.t_min)))
        cells += [cli.fmt(x) for x in (row.mutual_info, row.holevo, row.rate, row.v_opt)]
        cells.append(cli.csv_text(row.error))
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)


def reference_series(cfg, rows, axis, column):
    """The SVG curves regrouped row by row, as (label, xs, ys)."""
    attr = {"rate_bits": "rate", "mutual_info_bits": "mutual_info", "holevo_bits": "holevo"}
    series = {}
    for row in rows:
        y = getattr(row, attr[column])
        if row.error or y is None:
            continue
        if not cfg.log_y:
            y = max(y, 0.0)
        if axis == "variance":
            key = (row.approach, f"eps={row.eps:g}", f"dT={row.delta_t:g}", f"t_min={row.t_min:g}")
        else:
            v_label = "V=opt" if row.v_opt is not None else f"V={row.v:g}"
            key = (row.approach, v_label, f"eps={row.eps:g}", f"dT={row.delta_t:g}")
        x = {"t_min": row.t_min, "t_mean": row.t_min + 0.5 * row.delta_t, "variance": row.v}
        x = x[axis] if axis in x else cli.attenuation_db(row.t_min)
        series.setdefault(" ".join(key), []).append((x, y))
    return [(name, [x for x, _ in pts], [y for _, y in pts]) for name, pts in series.items()]


def reference_svgs(cfg, rows, out_dir):
    """Every SVG of the sweep drawn from ``reference_series`` into out_dir,
    under the sweep's file names; a plot with no curve or no point to draw
    is not written."""
    multi = len(cfg.x_axes) * len(cfg.y_columns) > 1
    for axis in cfg.x_axes:
        for column in cfg.y_columns:
            series = reference_series(cfg, rows, axis, column)
            name = f"sweep_{axis}_{column}.svg" if multi else "sweep.svg"
            if series:
                try:
                    svgplot.write_line_plot(
                        str(out_dir / name), series, axis, column, cfg.title, cfg.log_y
                    )
                except DomainError:
                    pass


def assert_outputs_equal(got_dir, want_dir):
    got = sorted(p.name for p in got_dir.iterdir())
    assert got == sorted(p.name for p in want_dir.iterdir())
    for name in got:
        assert (got_dir / name).read_bytes() == (want_dir / name).read_bytes(), name


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.approach, g.v, g.eps, g.t_min, g.delta_t, g.v_opt) == (
            w.approach, w.v, w.eps, w.t_min, w.delta_t, w.v_opt
        )
        assert g.error == w.error, (g, w)
        assert g.mutual_info == w.mutual_info, (g, w)
        assert g.holevo == w.holevo, (g, w)
        assert g.rate == w.rate, (g, w)


# 0.8 and 0.999 reach t_max = 1 at delta_t = 0.2 and 1e-3: at eps = 0,
# lambda2 -> 1 there, an x log x end of the exact average; 1/T overflows
# at 1e-320
t_mins = st.floats(0.01, 1.0) | st.sampled_from(
    [t for _, t in FOUND_POINTS] + [0.8, 0.999, 1e-320]
)


@st.composite
def sweep_configs(draw):
    approaches = draw(
        st.lists(st.sampled_from(("fixed", "cma", "hba_asymptotic", "hba_exact")), min_size=1,
                 max_size=4, unique=True)
    )
    t_min_values = draw(st.lists(t_mins, min_size=1, max_size=4))  # unsorted
    return cli.SweepConfig(
        approaches=tuple(approaches),
        # 1.0000001 and 1.0000002 are both "V=1" in a curve label; the exact
        # spectrum overflows at 1e200
        v_list=(1.0, *draw(st.lists(
            st.floats(0.0, 6.0).map(lambda x: 10.0**x)
            | st.sampled_from([1.0000001, 1.0000002, 1e200]),
            max_size=6,
        ))),
        # at 5e-324 the thermal term of the large-V average underflows; the
        # large-V form once rejected eps >= 1
        eps_list=(0.0, *draw(st.lists(st.floats(0.0, 0.1) | st.sampled_from([-0.0, 5e-324, 1.5]),
                                      max_size=2))),
        t_min_values=tuple(t_min_values + draw(st.lists(st.sampled_from(t_min_values),
                                                        max_size=2))),
        # 1e-20 is below the rounding of every t_min: a point mass in the kernel
        delta_t_list=tuple(draw(st.lists(st.sampled_from((0.0, 1e-20, 1e-3, 0.2)), min_size=1,
                                         max_size=3, unique=True))),
        # an optimized V may lie below the large-V floor, where hba_asymptotic
        # rows fail on a negative averaged Holevo bound
        optimize_v=tuple(
            a for a in approaches if a != "fixed" and draw(st.booleans())
        ),
        x_axes=tuple(draw(st.lists(st.sampled_from(cli.X_AXES), min_size=1, max_size=4,
                                   unique=True))),
        y_columns=tuple(draw(st.lists(st.sampled_from(cli.Y_COLUMNS), min_size=1, max_size=3,
                                      unique=True))),
        log_y=draw(st.booleans()),
    )


def outcome(fn, cfg):
    """fn(cfg), or the exception it raised (type and text)."""
    try:
        return fn(cfg), None
    except Exception as exc:  # noqa: BLE001 - an escaping exception is an outcome too
        return None, (type(exc), str(exc))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=sweep_configs())
# the mutual information at t_min is finite below T_FLOOR, but the point
# path rejects that t_min
@example(cfg=cli.SweepConfig(("hba_exact",), (10.0,), (0.0,), (1e-320,), (1e-20,)))
# one plotted V of 1e200: widening its x range by 1.0 left it empty, and the
# tick step's log10(0) escaped as ValueError
@example(cfg=cli.SweepConfig(("hba_asymptotic",), (1.0, 1e200), (0.0,), (0.5,), (1e-20,),
                             x_axes=("variance",)))
# 0.0 and -0.0 are equal but never share a cell, a label or a skip line; a
# memo keyed by the value alone would merge them
@example(cfg=cli.SweepConfig(("fixed", "hba_asymptotic", "cma"), (10.0, 1e4), (0.0, -0.0),
                             (0.5, 0.9), (0.0, 0.2), x_axes=("variance", "t_min")))
@example(cfg=cli.SweepConfig(("fixed", "hba_exact", "cma"), (10.0,), (0.01,), (0.5, 0.3),
                             (0.0, -0.0), x_axes=("t_mean", "variance", "attenuation_db"),
                             optimize_v=("cma",)))
# two t_min entries of one value, distinct objects: two blocks, both kept
@example(cfg=cli.SweepConfig(("hba_exact", "cma"), (10.0, 100.0), (0.0, 0.01),
                             (0.5, float("0.5"), 0.7), (0.2, 0.4), x_axes=("t_min", "t_mean")))
def test_sweep_rows_equal_run_point(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        got_dir, want_dir = Path(tmp, "got"), Path(tmp, "want")
        got_dir.mkdir(), want_dir.mkdir()
        cfg = dataclasses.replace(
            cfg, csv_path=str(got_dir / "sweep.csv"), svg_path=str(got_dir / "sweep.svg")
        )
        got, got_exc = outcome(sweep_and_skips, cfg)
        want, want_exc = outcome(reference_rows, cfg)
        # no exception escapes either: a row that fails is an error row in both;
        # should one escape, the sweep must fail the same way the row-by-row
        # loop does
        assert got_exc == want_exc
        if want_exc is None:
            (rows, n_errors, skipped), (want, want_skipped) = got, want
            assert skipped == want_skipped
            assert_rows_equal(rows, want)
            # iteration walks the block table; an index bisects it
            assert list(rows) == [rows[i] for i in range(len(rows))]
            assert n_errors == sum(1 for row in want if row.error)
            # error text formats values with !r, which numpy 2 writes np.float64(...)
            assert not any("np.float64(" in row.error for row in rows)
            (want_dir / "sweep.csv").write_text(reference_csv(want), encoding="utf-8")
            reference_svgs(cfg, want, want_dir)
            assert_outputs_equal(got_dir, want_dir)


@pytest.mark.parametrize("v, t_min", FOUND_POINTS)
def test_found_points_stay_error_rows(v, t_min):
    # these rows were errors while lambda2 rounded below 1 - 1e-12 (CHANGES.md,
    # the MENDED line on the lambda >= 1 check); the spectrum written without
    # cancellation gives them the scalar path's value, close to the oracle
    pytest.importorskip("mpmath")
    cfg = cli.SweepConfig(("fixed",), (v,), (0.0,), (t_min,), (0.0,))
    rows, n_errors = cli.run_sweep(cfg)
    want = skr_fixed(ChannelParams(v, t_min, 0.0))
    assert n_errors == 0 and rows[0].error == ""
    assert (rows[0].mutual_info, rows[0].holevo, rows[0].rate) == (
        want.mutual_info, want.holevo, want.rate
    )
    assert abs(want.rate - fixed_rate_oracle(v, 0.0, t_min)) <= 1e-12


@pytest.mark.parametrize("preset", ["fig2", "fig3", "fig45"])
def test_preset_outputs_equal_row_by_row_reference(tmp_path, preset):
    got_dir, want_dir = tmp_path / "got", tmp_path / "want"
    got_dir.mkdir(), want_dir.mkdir()
    cfg = cli.sweep_config_from_sources(cli.load_preset(preset), {})
    cfg = dataclasses.replace(
        cfg, csv_path=str(got_dir / "sweep.csv"), svg_path=str(got_dir / "sweep.svg")
    )
    _, _, skipped = sweep_and_skips(cfg)
    want, want_skipped = reference_rows(cfg)
    assert skipped == want_skipped
    (want_dir / "sweep.csv").write_text(reference_csv(want), encoding="utf-8")
    reference_svgs(cfg, want, want_dir)
    assert_outputs_equal(got_dir, want_dir)


def test_asymptotic_average_runs_once_per_block(monkeypatch, capsys):
    # the large-V Holevo bound is (1/2) log2 V plus a V-free mean: one
    # law_mean call over the (blocks, 1) columns of all six (eps, law)
    # blocks, eps = 0 included
    calls = []
    real = hba.law_mean

    def counting(integrand, t_min, t_max, *args):
        calls.append((t_min, t_max, args))
        return real(integrand, t_min, t_max, *args)

    monkeypatch.setattr(hba, "law_mean", counting)
    cfg = cli.SweepConfig(
        ("hba_asymptotic",), (1e3, 1e4, 1e5, 1e6), (0.0, 0.01, 0.02), (0.3, 0.5), (0.2,)
    )
    rows, n_errors = cli.run_sweep(cfg)
    capsys.readouterr()
    assert n_errors == 0 and len(rows) == 24
    assert [t_min.shape for t_min, _, _ in calls] == [(6, 1)]


def test_run_points_averages_over_block_columns_only(monkeypatch, capsys):
    # on a fig3-shaped grid with every approach, each law_mean call that
    # run_points makes takes block columns, never one block's floats (fixed
    # rows too: they run the hba_exact kernel at their point masses); the
    # fallback rows' run_point calls are the only scalar ones
    calls, state = [], {"approach": None}
    real_points, real_point = cli.run_points, cli.run_point

    def points(rows, approach, *args):
        state["approach"] = approach
        try:
            return real_points(rows, approach, *args)
        finally:
            state["approach"] = None

    def point(*args):
        approach, state["approach"] = state["approach"], None
        try:
            return real_point(*args)
        finally:
            state["approach"] = approach

    for module in (hba, cma):
        def counting(integrand, t_min, *args, real=module.law_mean):
            calls.append((state["approach"], isinstance(t_min, np.ndarray)))
            return real(integrand, t_min, *args)

        monkeypatch.setattr(module, "law_mean", counting)
    monkeypatch.setattr(cli, "run_points", points)
    monkeypatch.setattr(cli, "run_point", point)
    cfg = cli.sweep_config_from_sources(cli.load_preset("fig3"), {
        "approach": ",".join(cli.APPROACHES), "eps": "0,0.01", "delta_t": "0,0.2"
    })
    rows, _ = cli.run_sweep(dataclasses.replace(cfg, csv_path=None, svg_path=None))
    capsys.readouterr()
    assert {b[0] for b in rows.blocks} == set(cli.APPROACHES)
    by_rows = {approach for approach, rows_mode in calls if approach and rows_mode}
    assert by_rows == set(cli.APPROACHES)
    assert [c for c in calls if c[0] and not c[1]] == []


def test_unresolved_asymptotic_averages_are_run_point_errors(monkeypatch, capsys):
    # with no error target met, every averaged row of the large-V form is the
    # QuadratureError row of the row-by-row reference, text included
    monkeypatch.setattr(fading, "ABS_TOL", 0.0)
    monkeypatch.setattr(fading, "REL_TOL", 0.0)
    cfg = cli.SweepConfig(("hba_asymptotic",), (1e3, 1e4, 1e5), (0.0, 0.01), (0.3, 0.5), (0.2,))
    rows, n_errors = cli.run_sweep(cfg)
    capsys.readouterr()
    want, _ = reference_rows(cfg)
    assert_rows_equal(rows, want)
    assert n_errors == len(rows) == 12
    assert all(row.error.startswith("QuadratureError: ") for row in rows)


def test_sweep_makes_each_law_its_moments_and_attenuation_once(monkeypatch, tmp_path, capsys):
    # a fig2-shaped grid, two approaches: one law per (t_min, delta_t), shared
    # by every block on it; the cma moments once per law its rows keep; one
    # attenuation per t_min of a kept row
    calls = collections.Counter()

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    counting(cli, "FadingUniform")
    counting(cma, "moments_uniform")
    counting(cli, "attenuation_db")
    # t_max passes 1 from t_min 0.42 (delta_t 0.6) and 0.82 (0.2) on
    t_mins = tuple(0.02 + 0.04 * k for k in range(24))
    cfg = cli.SweepConfig(
        ("hba_exact", "cma"), (10.0, 100.0), (0.0, 0.005, 0.03), t_mins, (0.2, 0.6),
        x_axes=("t_min", "t_mean"), log_y=True,
        csv_path=str(tmp_path / "sweep.csv"), svg_path=str(tmp_path / "sweep.svg"),
    )
    rows, n_errors = cli.run_sweep(cfg)
    capsys.readouterr()
    assert n_errors == 0 and len(rows) == 2 * 2 * 3 * (20 + 10)
    assert calls["FadingUniform"] == len(t_mins) * 2
    assert calls["moments_uniform"] == len({(r.t_min, r.delta_t) for r in rows}) == 30
    assert calls["attenuation_db"] == len({r.t_min for r in rows}) == 20


def test_csv_pieces_cut_anywhere(monkeypatch):
    # pieces of four rows cut blocks, the boundary between the approaches
    # and the error rows (V = 1e200 overflows the fixed-channel spectrum);
    # the text is still the one written cell by cell
    cfg = cli.SweepConfig(("fixed", "cma"), (10.0, 1e200, 100.0), (0.0, 0.01), (0.3, 0.5, 0.7),
                          (0.0,), optimize_v=("cma",))
    rows, n_errors = sweep_and_skips(cfg)[:2]
    monkeypatch.setattr(cli, "CSV_ROWS", 4)
    assert n_errors == 6 and len(rows) == 24
    assert "".join(cli.csv_blocks(rows)) == reference_csv(rows)
    # cells Python formats, not the arrays: V = 1e300 (hba_asymptotic answers
    # there), rates in exponent notation (V = 1 + 1e-6), the Holevo bound 0
    # of a fixed channel at T = 1, eps -0.0, and the blank V of a failed
    # optimum (hba_asymptotic's V_opt below the large-V floor); error rows
    # open and close pieces of every length
    sweeps = [
        cli.SweepConfig(("hba_asymptotic", "fixed", "cma"), (1e300, 1.000001, 10.0),
                        (0.0, -0.0, 0.01), (0.3, 1.0), (0.0, 0.2), optimize_v=("cma",)),
        cli.SweepConfig(("hba_asymptotic", "cma"), (10.0,), (0.0, 0.01), (0.05, 0.3, 0.1),
                        (0.2,), optimize_v=("hba_asymptotic",)),
    ]
    rows = [sweep_and_skips(cfg)[0] for cfg in sweeps]
    text = reference_csv(rows[0]) + reference_csv(rows[1])
    for cell in (",1.0000000000000001e+300,", "e-07,", ",0,", ",-0,", "\nhba_asymptotic,,0,"):
        assert cell in text
    opens = closes = False
    for piece_rows in range(1, 8):
        monkeypatch.setattr(cli, "CSV_ROWS", piece_rows)
        for r in rows:
            assert "".join(cli.csv_blocks(r)) == reference_csv(r)
            for _, group in itertools.groupby(r.blocks, key=lambda b: b[0]):
                group = list(group)
                starts = range(group[0][4], group[-1][5], piece_rows)
                opens |= piece_rows > 1 and any(i in r.errors for i in starts)
                closes |= piece_rows > 1 and any(
                    min(i + piece_rows, group[-1][5]) - 1 in r.errors for i in starts
                )
    assert opens and closes


def test_csv_is_written_in_pieces():
    # a grid shaped like the benchmark's sweep_closed_form (76,665 rows, a
    # 12.5 MB file): write_csv peaks under 8 MB of traced memory (3.9 MB
    # with pieces of 1,024 rows), while a writer that holds the file whole
    # needs about twice its size
    cfg = cli.SweepConfig(("hba_asymptotic", "cma", "fixed"),
                          tuple(np.geomspace(1.3, 1e5, 100).tolist()),
                          tuple(np.linspace(0.0, 0.03, 4).tolist()),
                          tuple(np.linspace(0.02, 0.78, 50).tolist()), (0.0, 0.2))
    with contextlib.redirect_stderr(io.StringIO()):
        rows, _ = cli.build_grid(cfg)
    rng = np.random.default_rng(3)
    rows.mutual_info[:], rows.holevo[:] = rng.uniform(0.0, 5.0, (2, len(rows)))
    rows.rate[:] = rows.mutual_info - rows.holevo
    bound = 8_000_000

    def peak(write):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "sweep.csv")
            tracemalloc.start()
            try:
                write(path)
                return tracemalloc.get_traced_memory()[1], path.stat().st_size
            finally:
                tracemalloc.stop()

    in_pieces, size = peak(lambda path: cli.write_csv(str(path), rows))
    whole, _ = peak(lambda path: path.write_text("".join(cli.csv_blocks(rows))))
    assert len(rows) > 70_000 and size > 12_000_000
    assert in_pieces < bound < whole


def closed_form_shaped_grid():
    """A grid shaped like the benchmark's sweep_closed_form: 76,665 rows in
    800 blocks, and 43,335 skip lines (one per skipped V)."""
    return cli.SweepConfig(("hba_asymptotic", "cma", "fixed"),
                           tuple(np.geomspace(1.3, 1e5, 100).tolist()),
                           tuple(np.linspace(0.0, 0.03, 4).tolist()),
                           tuple(np.linspace(0.02, 0.78, 50).tolist()), (0.0, 0.2))


def traced_peak(fn):
    """The traced allocation peak of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_svg_is_written_in_pieces(monkeypatch, tmp_path):
    # the sweep_closed_form-shaped plots (76,665 points in 1,556 and 800
    # curves, files of 1.1-1.2 MB): write_line_plot peaks under 6 MB of
    # traced memory (3.9 MB with pieces of 8,192 points), while the same
    # writer with the whole point text in one piece, joined into one
    # document, needs about 13 MB
    rows, _ = cli.build_grid(closed_form_shaped_grid())
    rng = np.random.default_rng(3)
    rows.mutual_info[:], rows.holevo[:] = rng.uniform(0.0, 5.0, (2, len(rows)))
    rows.rate[:] = rows.mutual_info - rows.holevo
    bound = 6_000_000
    for axis, n_curves in (("t_mean", 1556), ("variance", 800)):
        series = cli._curves(rows, axis, "rate_bits", False)
        assert len(series) == n_curves and sum(len(xs) for _, xs, _ in series) == len(rows)
        in_pieces = traced_peak(
            lambda: svgplot.write_line_plot(str(tmp_path / "pieces.svg"), series, axis, "rate")
        )
        with monkeypatch.context() as m:
            m.setattr(svgplot, "SVG_POINTS", len(rows))
            whole = traced_peak(
                lambda: svgplot.write_line_plot(str(tmp_path / "whole.svg"), series, axis, "rate")
            )
        assert (tmp_path / "pieces.svg").read_bytes() == (tmp_path / "whole.svg").read_bytes()
        assert (tmp_path / "pieces.svg").stat().st_size > 1_000_000
        assert in_pieces < bound < whole


def test_skip_lines_are_made_when_read():
    # build_grid keeps one record per skipped block (about 0.2 MB on the
    # sweep_closed_form-shaped grid), not the text of its 43,335 lines; the
    # lines are made as they are read
    cfg = closed_form_shaped_grid()
    tracemalloc.start()
    try:
        rows, skips = cli.build_grid(cfg)
        held = tracemalloc.get_traced_memory()[0]
        n_lines = len(skips)
        texts = list(skips.block_texts())
        whole = tracemalloc.get_traced_memory()[0] - held
        del skips
        kept = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    bound = 1_000_000
    assert len(rows) == 76_665 and n_lines == 43_335
    assert sum(text.count("\n") for text in texts) == n_lines
    assert kept < bound < whole


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=sweep_configs())
@example(cfg=cli.SweepConfig(("fixed", "hba_asymptotic", "cma"), (10.0, 1e4, 1.5), (0.0, -0.0),
                             (0.5, 0.9), (0.0, 0.2), optimize_v=("hba_asymptotic",)))
def test_skip_lines_are_the_reference_lines(cfg):
    # len() is the number of lines written (the benchmark's cli.skipped_rows
    # reads it), one string per skipped block, every reading the same text,
    # and the lines are the row-by-row reference's
    _, skips = cli.build_grid(cfg)
    _, want = reference_grid(cfg)
    texts = list(skips.block_texts())
    assert texts == list(skips.block_texts()) and len(texts) == len(skips.blocks)
    assert "".join(texts) == "".join(f"{line}\n" for line in want)
    assert len(skips) == len(want)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        cli.run_sweep(cfg)
    assert err.getvalue().splitlines()[: len(skips)] == want


def test_kernel_and_svg_pieces_cut_anywhere(monkeypatch, tmp_path):
    # row-kernel slices of a few rows and SVG pieces of a few points cut
    # blocks, curves, runs broken on a log axis, fallback rows (V = 1e200)
    # and error rows: every output byte and every value stays the one of a
    # sweep in whole pieces
    cfg = cli.SweepConfig(("fixed", "hba_exact", "hba_asymptotic", "cma"),
                          (1.5, 10.0, 1e3, 1e200), (0.0, 0.02), (0.1, 0.4, 0.7, 0.02),
                          (0.0, 0.2), x_axes=("t_min", "variance"),
                          y_columns=("rate_bits", "holevo_bits"), log_y=True,
                          optimize_v=("cma",))

    def outputs(name, kernel_rows, chunk_rows, svg_points):
        out = tmp_path / name
        out.mkdir()
        monkeypatch.setattr(cli, "KERNEL_ROWS", kernel_rows)
        monkeypatch.setattr(fading, "CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(svgplot, "SVG_POINTS", svg_points)
        rows, n_errors, _ = sweep_and_skips(dataclasses.replace(
            cfg, csv_path=str(out / "sweep.csv"), svg_path=str(out / "sweep.svg")))
        return list(rows), n_errors, {p.name: p.read_bytes() for p in out.iterdir()}

    whole = outputs("whole", 10**6, 10**6, 10**6)
    assert whole[1] > 0 and len(whole[2]) == 5
    # kernel calls and law_mean chunks narrower than a block (4 V) cut it along V
    for kernel_rows, chunk_rows, svg_points in ((1, 1, 1), (3, 2, 2), (7, 3, 5), (6, 5, 3)):
        assert outputs(f"cut{kernel_rows}", kernel_rows, chunk_rows, svg_points) == whole


@pytest.mark.parametrize("kernel_rows, chunk_rows", [(8192, 64), (5, 3), (2, 1)])
def test_run_points_on_ragged_blocks_equal_run_point(monkeypatch, capsys, kernel_rows, chunk_rows):
    # hba_asymptotic blocks cut short by the large-V floor are ragged rows of
    # the blocks x V matrix (NaN after their end), and optimize-v blocks are
    # one row wide: every row still has run_point's value, also where kernel
    # calls and law_mean chunks are narrower than one block
    monkeypatch.setattr(cli, "KERNEL_ROWS", kernel_rows)
    monkeypatch.setattr(fading, "CHUNK_ROWS", chunk_rows)
    cfg = cli.SweepConfig(("hba_asymptotic", "cma", "hba_exact", "fixed"),
                          tuple(np.geomspace(1.5, 1e5, 9).tolist()), (0.0, 0.02),
                          (0.05, 0.4, 0.7), (0.0, 0.2), optimize_v=("hba_exact",))
    rows, _ = cli.run_sweep(cfg)
    capsys.readouterr()
    want, _ = reference_rows(cfg)
    assert_rows_equal(rows, want)
    widths = {a: {b[5] - b[4] for b in rows.blocks if b[0] == a} for a in cfg.approaches}
    assert len(widths["hba_asymptotic"]) > 1 and widths["hba_exact"] == {1}
    assert widths["cma"] == widths["fixed"] == {9}


def test_sweep_with_a_long_v_list_peaks_below_a_bound(monkeypatch, capsys):
    # 10^4 V per block: a kernel call stays within KERNEL_ROWS cells, a
    # law_mean chunk within CHUNK_ROWS cells of 51 nodes (and of 52 for the
    # cells of its second stage), and run_points writes into the sweep's
    # columns, so each run_points call of the sweep peaks at about 1.6 MB of
    # traced memory; one kernel call for all 20,000 cma rows needs 3.1 MB, a
    # law_mean chunk of one whole block (10,000 x 51 nodes) 7.4 MB
    cfg = cli.SweepConfig(("fixed", "cma"), tuple(np.geomspace(1.5, 1e5, 10_000).tolist()),
                          (0.01,), (0.3,), (0.0, 0.2))
    real = cli.run_points
    bound = 2_500_000

    def peak():
        peaks = []

        def traced(*args):
            out = []
            peaks.append(traced_peak(lambda: out.append(real(*args))))
            return out[0]

        with monkeypatch.context() as m:
            m.setattr(cli, "run_points", traced)
            rows, n_errors = cli.run_sweep(cfg)
        capsys.readouterr()
        assert len(rows) == 30_000 and n_errors == 0 and len(peaks) == 2
        return max(peaks)

    assert peak() < bound
    with monkeypatch.context() as m:
        m.setattr(cli, "KERNEL_ROWS", 30_000)
        assert peak() > bound
    with monkeypatch.context() as m:
        m.setattr(fading, "CHUNK_ROWS", 10_000)
        assert peak() > bound


def test_cma_integrand_gets_one_node_row_per_averaged_block(monkeypatch, capsys):
    # a fig3-shaped grid (45 V from 1.3 to 2000) with point masses and a
    # wider law, whose t_min = 0.05 blocks need stage 2 at large V: what the
    # mutual information shares across a block, its 51 first-stage nodes and
    # T / (1 + eps T), is computed once per averaged block, not once per row;
    # the 52 second-stage nodes come one row per cell whose 51- and 25-node
    # levels disagree, and only for those
    shapes = []
    real = cma.mutual_information_form

    def counting(t, v_a, eps):
        shapes.append(t.shape)
        return real(t, v_a, eps)

    monkeypatch.setattr(cma, "mutual_information_form", counting)
    cfg = cli.sweep_config_from_sources(
        cli.load_preset("fig3"), {"approach": "cma", "eps": "0,0.01", "delta_t": "0,0.2,0.6"}
    )
    cfg = dataclasses.replace(cfg, csv_path=None, svg_path=None)
    rows, n_errors = cli.run_sweep(cfg)
    capsys.readouterr()
    averaged = sum(1 for b in rows.blocks if b[3] > 0.0)
    assert n_errors == 0 and averaged == 18 and len(rows) == 28 * 45  # t_min 0.5 + 0.6 > 1
    node_rows = {n: [math.prod(shape[:-1]) for shape in shapes if shape[-1] == n] for n in (51, 52)}
    assert sum(node_rows[51]) == averaged
    assert len(shapes) == 1 + len(node_rows[51]) + len(node_rows[52])  # and one point-mass call
    second = 0
    for (_, eps, *_, start, end), f in zip(rows.blocks, rows.laws):
        if f.delta_t > 0.0:
            _, coarse, rough = tanh_sinh_levels(real, f.t_min, f.t_max, rows.v[start:end] - 1.0, eps)
            second += int((~levels_agree(coarse, rough)).sum())
    assert second > 0 and sum(node_rows[52]) == second
    assert all(len(shape) == 2 for shape in shapes if shape[-1] == 52)


@st.composite
def law_layouts(draw):
    """(seed, width, blocks) of a blocks x V matrix: each block (t_min,
    delta_t, eps, length), its V cells NaN after length."""
    width = draw(st.integers(1, 3) | st.integers(fading.CHUNK_ROWS - 2, fading.CHUNK_ROWS + 40))
    block = st.tuples(
        st.floats(0.01, 0.8),
        st.sampled_from((0.0, 1e-20, 1e-3, 0.2)),  # point masses, exact and in rounding
        st.floats(0.0, 0.1) | st.just(0.0),
        st.integers(1, width),
    )
    return draw(st.integers(0, 2**32 - 1)), width, draw(st.lists(block, min_size=1, max_size=4))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(layout=law_layouts())
@example(layout=(7, fading.CHUNK_ROWS + 30, [(0.3, 0.2, 0.01, fading.CHUNK_ROWS + 30),
                                              (0.8, 0.2, 0.0, 5), (0.5, 0.0, 0.02, 40)]))
def test_law_mean_on_block_columns_has_every_cell_scalar_bits(layout):
    # (blocks, 1) law columns and a (blocks, width) V matrix: every cell is
    # the scalar law_mean of its block and V, bit for bit (NaN where the
    # scalar levels disagree), and the padding after a block's end is NaN
    seed, width, blocks = layout
    t_min, delta_t, eps, lengths = zip(*blocks)
    t_max = [FadingUniform(t, d).t_max for t, d in zip(t_min, delta_t)]
    v = np.full((len(blocks), width), np.nan)
    rng = np.random.default_rng(seed)
    for b, m in enumerate(lengths):
        v[b, :m] = 10.0 ** rng.uniform(0.0, 6.0, m)
    columns = [np.array(c, dtype=float)[:, None] for c in (t_min, t_max, eps)]
    for integrand, shift in ((cma.mutual_information_form, 1.0), (holevo_rows, 0.0)):
        got = fading.law_mean(integrand, columns[0], columns[1], v - shift, columns[2])
        assert got.shape == v.shape
        for b, m in enumerate(lengths):
            want = []
            for x in v[b, :m].tolist():
                try:
                    want.append(fading.law_mean(integrand, t_min[b], t_max[b], x - shift, eps[b]))
                except QuadratureError:
                    want.append(math.nan)
            cells = got[b, :m]
            assert np.where(np.isnan(cells), 0.0, cells).tobytes() == np.nan_to_num(want).tobytes()
            assert np.isnan(cells).tolist() == np.isnan(want).tolist()
            assert np.isnan(got[b, m:]).all()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(layout=law_layouts())
@example(layout=(3, fading.CHUNK_ROWS + 1, [(0.4, 1e-20, 0.0, fading.CHUNK_ROWS + 1)]))
def test_law_mean_takes_a_point_mass_at_its_one_node(layout):
    # point masses (delta_t = 0, or below the rounding of t_min) and averaged
    # blocks in one law_mean call, as blocks x V, as rows and one cell at a
    # time: a point cell is the fixed channel's value at t_min bit for bit,
    # and the integrand gets one node of a point mass, never more (an entry
    # whose nodes are all equal is a point mass), and never an empty array
    seed, width, blocks = layout
    blocks = [*blocks, (0.55, 0.0, 0.01, width), (0.45, 0.2, 0.0, 1)]
    t_min, delta_t, eps, lengths = zip(*blocks)
    t_max = [FadingUniform(t, d).t_max for t, d in zip(t_min, delta_t)]
    point = [hi == lo for lo, hi in zip(t_min, t_max)]
    v = np.full((len(blocks), width), np.nan)
    rng = np.random.default_rng(seed)
    for b, m in enumerate(lengths):
        v[b, :m] = 10.0 ** rng.uniform(0.0, 6.0, m)
    inside = ~np.isnan(v)
    block_of = np.nonzero(inside)[0]
    columns = [np.array(c, dtype=float)[:, None] for c in (t_min, t_max, eps)]

    def fixed_holevo(x, t, e):
        try:
            return holevo_fixed(ChannelParams(x, t, e))
        except DomainError:
            return math.nan

    def fixed_mi(x, t, e):
        return mutual_information_fixed(ChannelParams(x, t, e))

    for integrand, shift, fixed in ((cma.mutual_information_form, 1.0, fixed_mi),
                                    (holevo_rows, 0.0, fixed_holevo)):
        calls = []  # per law_mean call, the node arrays its integrand got

        def mean(*args):
            calls.append([])

            def recording(t, *rest):
                calls[-1].append(t)
                return integrand(t, *rest)

            try:
                return fading.law_mean(recording, *args)
            except DomainError:  # the scalar path's error where a node fails
                return math.nan

        got = mean(columns[0], columns[1], v - shift, columns[2])
        rows = [c[block_of, 0] for c in columns]
        by_rows = mean(rows[0], rows[1], v[inside] - shift, rows[2])
        assert by_rows.tobytes() == got[inside].tobytes()
        for b in np.flatnonzero(point):
            for x, cell in zip(v[b, : lengths[b]].tolist(), got[b].tolist()):
                want = np.array(fixed(x, t_min[b], eps[b])).tobytes()
                assert np.array(cell).tobytes() == want
                assert np.array(mean(t_min[b], t_max[b], x - shift, eps[b])).tobytes() == want
        n_point = int(inside[point].sum())
        one_node = [[t.shape for t in nodes if t.shape[-1] == 1] for nodes in calls]
        assert one_node == [[(sum(point), 1, 1)], [(n_point, 1)]] + [[(1,)]] * n_point
        for t in itertools.chain.from_iterable(calls):
            assert t.size > 0 and t.shape[-1] in (1, 51, 52)
            assert t.shape[-1] == 1 or not (t.min(axis=-1) == t.max(axis=-1)).any()
        # node rows per stage: the 51 first-stage nodes once per averaged
        # block and cut along V (blocks x V) or per averaged row, the 52
        # second-stage nodes as one row per cell whose 51- and 25-node levels
        # disagree (also the NaN padding after a block's end)
        averaged = ~np.array(point)
        _, coarse, rough = tanh_sinh_levels(integrand, *np.broadcast_arrays(
            columns[0][averaged], columns[1][averaged], (v - shift)[averaged], columns[2][averaged]))
        second = ~levels_agree(coarse, rough)
        cuts = -(-width // fading.CHUNK_ROWS)
        want = [(int(averaged.sum()) * cuts, int(second.sum())),
                (int(inside[averaged].sum()), int(second[inside[averaged]].sum()))]
        for nodes, (first_rows, second_rows) in zip(calls, want):
            rows_of = {n: sum(math.prod(t.shape[:-1]) for t in nodes if t.shape[-1] == n)
                       for n in (51, 52)}
            assert rows_of == {51: first_rows, 52: second_rows}
            assert all(t.ndim == 2 for t in nodes if t.shape[-1] == 52)


def test_svg_sorts_only_what_is_out_of_order(tmp_path):
    # V and t_min listed out of order, with duplicate points: each plot has
    # the bytes of the same series handed over sorted as sorted(points)
    # sorts them; a tie in x, and a NaN, still take the sort
    cfg = cli.SweepConfig(("hba_exact", "cma"), (100.0, 2.0, 10.0, 2.0), (0.01,),
                          (0.5, 0.1, 0.3, 0.1), (0.2,), x_axes=("t_min", "variance"),
                          csv_path=str(tmp_path / "sweep.csv"),
                          svg_path=str(tmp_path / "sweep.svg"))
    rows, _, _ = sweep_and_skips(cfg)
    for axis in cfg.x_axes:
        series = cli._curves(rows, axis, "rate_bits", False)
        assert any(list(xs) != sorted(xs) for _, xs, _ in series)
        in_order = [(label, *map(list, zip(*sorted(zip(xs, ys))))) for label, xs, ys in series]
        path = tmp_path / f"sorted_{axis}.svg"
        svgplot.write_line_plot(str(path), in_order, axis, "rate_bits")
        assert path.read_bytes() == (tmp_path / f"sweep_{axis}_rate_bits.svg").read_bytes()
    # on a log axis a NaN or a y <= 0 is not drawn but breaks its run
    nan = math.nan
    series = [("a", [3.0, 1.0, 2.0], [1.0, 2.0, 3.0]), ("b", [1.0, 1.0, 2.0], [2.0, 1.0, 0.5]),
              ("c", [1.0, 1.0, 2.0], [nan, 1.0, 1.0]), ("d", [1.0, 2.0, 2.0], [0.5, nan, 0.2]),
              ("e", [0.5, 1.0, 1.5], [3.0, 2.0, 1.0]), ("f", [0.5, 0.5, 1.5], [3.0, -1.0, 1.0])]
    in_order = []
    for label, xs, ys in series:
        order = np.lexsort((ys, xs))  # a NaN last among equal x, as the plot sorts it
        in_order.append((label, np.array(xs)[order], np.array(ys)[order]))
    for name, given in (("given", series), ("in_order", in_order)):
        svgplot.write_line_plot(str(tmp_path / f"{name}.svg"), given, "x", "y", log_y=True)
    assert (tmp_path / "given.svg").read_bytes() == (tmp_path / "in_order.svg").read_bytes()


def test_run_points_sends_invalid_points_to_run_point():
    # V is checked once, by SweepConfig, not per row: V = 0.5 never reaches
    # run_points, and a NaN V (a failed optimize-v row) is not evaluated; a
    # law the approach refuses (a fixed channel of nonzero width) is a
    # build_grid skip with run_point's DomainError, and never reaches it
    for bad in (0.5, math.nan):
        with pytest.raises(DomainError, match="v values must be finite and >= 1"):
            cli.SweepConfig(("fixed",), (bad,), (0.0,), (0.5,), (0.0,))
        with pytest.raises(DomainError, match="variance must satisfy V >= 1"):
            cli.run_point("fixed", bad, 0.0, FadingUniform(0.5))
    rows = sweep_rows([("fixed", 0.0, 0.5, 0.0, 0, 2)], [10.0, math.nan])
    assert cli.run_points(rows, "fixed", [0]) == {}
    want = skr_fixed(ChannelParams(10.0, 0.5, 0.0))
    assert tuple(rows.values[:, 0]) == (want.mutual_info, want.holevo, want.rate)
    assert np.isnan(rows.values[:, 1]).all()
    rows, skips = cli.build_grid(cli.SweepConfig(("fixed",), (10.0,), (0.0,), (0.5,), (0.0, 0.2)))
    assert [b[:4] for b in rows.blocks] == [("fixed", 0.0, 0.5, 0.0)]
    with pytest.raises(DomainError) as refused:
        cli.run_point("fixed", 10.0, 0.0, FadingUniform(0.5, 0.2))
    assert str(refused.value) == "fixed-channel evaluation requires delta_t = 0"
    assert list(skips.block_texts()) == [
        f"skip approach=fixed V=10 eps=0.0 t_min=0.5 delta_t=0.2: {refused.value}\n"
    ]


def test_build_grid_checks_each_law_once_per_approach(monkeypatch, capsys):
    # every approach's law check runs once per (approach, law), all inside
    # build_grid, whatever the number of eps and V; a law it refuses is
    # skipped with the DomainError run_point raises for it, and run_points
    # checks no law
    calls, state = [], {"in_grid": False}
    real_grid = cli.build_grid

    def grid(cfg):
        state["in_grid"] = True
        try:
            return real_grid(cfg)
        finally:
            state["in_grid"] = False

    def counted(approach, check):
        def law_columns(f):
            calls.append((approach, f.t_min, f.delta_t, state["in_grid"]))
            return check(f)

        return law_columns

    models = {a: (counted(a, check), kernel) for a, (check, kernel) in cli._ROW_MODELS.items()}
    monkeypatch.setattr(cli, "_ROW_MODELS", models)
    monkeypatch.setattr(cli, "build_grid", grid)
    # fixed refuses delta_t = 0.2, hba_asymptotic delta_t = 0 and t_max = 1
    # (t_min 0.8); the law at t_min 0.9, delta_t 0.2 is not built at all
    cfg = cli.SweepConfig(cli.APPROACHES, (1.5, 10.0), (0.0, 0.01), (0.3, 0.8, 0.9), (0.0, 0.2))
    rows, n_errors = cli.run_sweep(cfg)
    err = capsys.readouterr().err
    laws = [(t, d) for d in cfg.delta_t_list for t in cfg.t_min_values if t + d <= 1.0]
    assert len(laws) == 5 and n_errors == 0
    assert sorted(calls) == sorted((a, *law, True) for a in cli.APPROACHES for law in laws)
    skips = collections.Counter()
    for line in err.splitlines():
        fields, reason = line.split(": ", 1)
        _, approach, v, eps, t_min, delta_t = (x.split("=")[-1] for x in fields.split(" "))
        if reason.startswith("V below the large-V validity floor"):
            continue
        with pytest.raises(DomainError) as refused:
            cli.run_point(approach, float(v), float(eps), FadingUniform(float(t_min), float(delta_t)))
        assert reason == str(refused.value), line
        skips[approach] += 1
    # per eps and V: fixed 2 laws of width 0.2 and the unbuilt law, hba_asymptotic
    # 3 point masses, t_min 0.8 at delta_t 0.2 and the unbuilt law; hba_exact
    # and cma the unbuilt law alone
    assert skips == {"fixed": 12, "hba_asymptotic": 20, "hba_exact": 4, "cma": 4}
    assert {b[0] for b in rows.blocks} == set(cli.APPROACHES)


def test_run_points_fails_negative_asymptotic_holevo():
    # V = 1.5 is far below the large-V floor; the array path must hand the
    # point to run_point, which raises on the negative averaged Holevo bound
    f = FadingUniform(0.4, 0.2)
    rows = sweep_rows([("hba_asymptotic", 0.01, f.t_min, f.delta_t, 0, 2)], [1.5, 1e4])
    failed = cli.run_points(rows, "hba_asymptotic", [0])
    assert list(failed) == [0]
    assert str(failed[0]).startswith("large-V closed form outside its validity at V = 1.5")
    want = hba.skr_hba_asymptotic(1e4, 0.01, f)
    assert tuple(rows.values[:, 1]) == (want.mutual_info, want.holevo, want.rate)


def row_blocks(approach, eps, t_min, delta_t):
    """The block table of rows given one by one: one block per run of rows
    with equal (eps, t_min, delta_t)."""
    blocks, start = [], 0
    for key, run in itertools.groupby(zip(eps, t_min, delta_t)):
        stop = start + len(list(run))
        blocks.append((approach, *key, start, stop))
        start = stop
    return blocks


def sweep_rows(blocks, v):
    """``SweepRows`` of a block table and V column, with each block's law
    and the columns its approach's law check makes of it."""
    laws = [FadingUniform(*b[2:4]) for b in blocks]
    columns = [cli._ROW_MODELS[b[0]][0](f) for b, f in zip(blocks, laws)]
    return cli.SweepRows(blocks, v, laws, columns)


def run_points_outcome(approach, v, eps, t_min, delta_t):
    """``run_points`` on rows given one by one: (mutual_info, holevo, rate)
    or the exception's type and text at every row."""
    rows = sweep_rows(row_blocks(approach, eps, t_min, delta_t), v)
    failed = cli.run_points(rows, approach, range(len(rows.blocks)))
    return [
        (type(failed[i]), str(failed[i])) if i in failed else tuple(rows.values[:, i].tolist())
        for i in range(len(v))
    ]


def run_points_reference(approach, v, eps, t_min, delta_t):
    """``run_point`` at every point: (mutual_info, holevo, rate) or the
    exception's type and text."""
    out = []
    for args in zip(v, eps, t_min, delta_t):
        try:
            r = cli.run_point(approach, args[0], args[1], FadingUniform(*args[2:]))
        except (DomainError, NumericalError) as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append((r.mutual_info, r.holevo, r.rate))
    return out


@pytest.mark.parametrize(
    "approach, bad_block",
    [
        ("fixed", (0.01, 1e-320, 0.0)),  # 1/T overflows: the block raises
        ("cma", (0.01, 1e-320, 0.0)),  # every row raises in run_point
        ("hba_asymptotic", (0.01, 0.01, 0.2)),  # V = 10 below the large-V floor (101)
        ("hba_exact", (0.01, 1e-320, 0.0)),
    ],
)
def test_failing_block_between_good_ones_and_nan_rows_match_run_point(approach, bad_block):
    # a NaN V (an optimize-v row whose optimum failed) is left unevaluated
    # in a good block and in the failing one; every other row has exactly
    # run_point's value or exception
    delta_t = 0.0 if approach == "fixed" else 0.2
    good = [(0.01, 0.3, delta_t), (0.0, 0.5, delta_t)]
    table = [good[0], bad_block, good[1]]
    v = [10.0, math.nan, 1e4, 10.0, math.nan, 2.0, 1e3, 5e3]
    spans = [(0, 3), (3, 5), (5, 8)]
    rows = sweep_rows([(approach, *b, start, stop) for b, (start, stop) in zip(table, spans)], v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        failed = cli.run_points(rows, approach, range(3))
    for (eps, t_min, dt), (start, stop) in zip(table, spans):
        for i in range(start, stop):
            got = tuple(rows.values[:, i].tolist())
            if math.isnan(v[i]):
                assert i not in failed and np.isnan(got).all()
                continue
            if i in failed:
                got = (type(failed[i]), str(failed[i]))
            assert got == run_points_reference(approach, [v[i]], [eps], [t_min], [dt])[0], i
    assert 3 in failed and {0, 2, 6, 7}.isdisjoint(failed)


@st.composite
def kernel_matrices(draw):
    """(approach, blocks, v) of one row kernel's blocks x V matrix: each
    admitted block (eps, t_min, delta_t), and V log-uniform on [1, 1e250],
    NaN in some cells and after a block's end."""
    approach = draw(st.sampled_from(sorted(cli._ROW_MODELS)))
    eps = st.sampled_from((0.0, 1e-300)) | st.floats(0.0, 0.1)
    t_min = st.floats(-320.0, 0.0).map(lambda e: 10.0**e) | st.sampled_from((1e-320, 1.0))
    delta_t = st.sampled_from((0.0, 1e-20, 1e-3, 0.2, None))  # None: t_max = 1
    blocks = []
    for e, t, d in draw(st.lists(st.tuples(eps, t_min, delta_t), min_size=1, max_size=4)):
        d = 1.0 - t if d is None else d
        try:
            cli._ROW_MODELS[approach][0](FadingUniform(t, d))
        except DomainError:  # a law the sweep skips never reaches the kernel
            continue
        blocks.append((e, t, d))
    assume(blocks)
    width = draw(st.integers(1, 6))
    v = st.none() | st.floats(0.0, 250.0).map(lambda e: 10.0**e)
    cells = draw(st.lists(st.lists(v, min_size=width, max_size=width),
                          min_size=len(blocks), max_size=len(blocks)))
    return approach, blocks, np.array([[math.nan if x is None else x for x in row]
                                       for row in cells])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix=kernel_matrices())
@example(matrix=("hba_exact", [(0.01, 0.5, 0.2), (0.01, 1e-320, 0.2)], np.array([[1e200, 10.0]] * 2)))
@example(matrix=("hba_asymptotic", [(0.01, 0.5, 0.2)], np.array([[1.2, math.nan, 1e4]])))
@example(matrix=("cma", [(0.0, 1e-320, 0.0), (0.01, 0.5, 0.2)], np.array([[10.0, 1e200]] * 2)))
def test_nan_is_the_one_signal_of_a_cell_the_kernel_cannot_vouch_for(matrix):
    # the rate is NaN exactly where run_point raises, and elsewhere the
    # kernel's (mutual_info, holevo) are run_point's, bit for bit; run_points
    # sends exactly those cells to run_point, which makes them error rows
    approach, blocks, v = matrix
    laws = [FadingUniform(t, d) for _, t, d in blocks]
    check, kernel = cli._ROW_MODELS[approach]
    table = [(e, *check(f)) for (e, _, _), f in zip(blocks, laws)]
    with np.errstate(all="ignore"):
        mi, holevo = kernel(v, *(np.array(c, dtype=float)[:, None] for c in zip(*table)))
        rate = mi - holevo
    raises = set()
    for b, k in zip(*np.nonzero(~np.isnan(v))):
        try:
            out = cli.run_point(approach, float(v[b, k]), blocks[b][0], laws[b])
        except (DomainError, NumericalError):
            raises.add((b, k))
            assert np.isnan(rate[b, k])
        else:
            got = np.array([mi[b, k], holevo[b, k]]).tobytes()
            assert got == np.array([out.mutual_info, out.holevo]).tobytes()
    spans = np.cumsum([0] + [v.shape[1]] * len(blocks))
    rows = sweep_rows([(approach, *b, start, stop) for b, start, stop
                       in zip(blocks, spans, spans[1:])], v.ravel())
    calls, real = [], cli.run_point
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_point", lambda *args: calls.append(args) or real(*args))
        failed = cli.run_points(rows, approach, range(len(blocks)))
    want = sorted(int(spans[b] + k) for b, k in raises)
    assert sorted(failed) == want and len(calls) == len(want)


def test_hba_exact_rows_span_chunks_with_a_fallback_row_in_each(monkeypatch):
    # 3 chunks, each with a row the kernel cannot vouch for (V = 1e200: the
    # spectrum overflows at its nodes), which run_point gives its
    # DomainError; the rows ending at T = 1 at eps = 0 stay in the array
    n = 2 * fading.CHUNK_ROWS + 10
    fallback = {5, fading.CHUNK_ROWS + 17, 2 * fading.CHUNK_ROWS + 3}
    v = [1e200 if k in fallback else 10.0 ** (k / n) * 10.0 for k in range(n)]
    eps = [0.0 if k % 7 == 0 else 0.01 for k in range(n)]
    t_min = [0.8 if k % 7 == 0 else 0.3 + 0.4 * k / n for k in range(n)]
    delta_t = [0.2] * n
    calls = []
    real = cli.run_point

    def counting(approach, v_, eps_, f):
        calls.append((v_, eps_, f.t_min))
        return real(approach, v_, eps_, f)

    monkeypatch.setattr(cli, "run_point", counting)
    got = run_points_outcome("hba_exact", v, eps, t_min, delta_t)
    assert sorted(calls) == sorted((v[k], eps[k], t_min[k]) for k in fallback)
    monkeypatch.setattr(cli, "run_point", real)
    assert got == run_points_reference("hba_exact", v, eps, t_min, delta_t)
    assert all(got[k][0] is DomainError for k in fallback)
    assert all(isinstance(out[0], float) for k, out in enumerate(got) if k not in fallback)


def test_hba_exact_point_rows_make_no_run_point_calls(monkeypatch, capsys):
    # delta_t = 0, or below the rounding of t_min, gives t_max = t_min: the
    # rows take the fixed-channel value from ``holevo_rows``, as one array
    calls = []
    real = cli.run_point
    monkeypatch.setattr(cli, "run_point", lambda *args: calls.append(args) or real(*args))
    cfg = cli.SweepConfig(
        ("hba_exact",), (1.0, 10.0, 1e3, 1e5), (0.0, 0.01), (0.1, 0.5, 0.988695, 1.0), (0.0, 1e-20)
    )
    rows, n_errors = cli.run_sweep(cfg)
    capsys.readouterr()
    assert calls == [] and n_errors == 0 and len(rows) == 64
    for row in rows:
        want = real("hba_exact", row.v, row.eps, FadingUniform(row.t_min, row.delta_t))
        assert (row.mutual_info, row.holevo, row.rate) == (want.mutual_info, want.holevo, want.rate)


def test_hba_exact_invalid_points_are_rejected_at_the_sweep_boundary():
    # run_points checks no V or eps: each invalid pair is a DomainError of
    # SweepConfig before any row is built, as it is of run_point; the valid
    # row keeps run_point's value
    v = [0.5, math.nan, math.inf, 10.0, 10.0, 10.0, 10.0]
    eps = [0.01, 0.01, 0.01, -0.1, math.nan, math.inf, 0.01]
    for v_, eps_ in zip(v[:6], eps[:6]):
        with pytest.raises(DomainError, match="values must be finite and >= "):
            cli.SweepConfig(("hba_exact",), (v_,), (eps_,), (0.4,), (0.2,))
        with pytest.raises(DomainError):
            cli.run_point("hba_exact", v_, eps_, FadingUniform(0.4, 0.2))
    got = run_points_outcome("hba_exact", v[6:], eps[6:], [0.4], [0.2])
    assert got == run_points_reference("hba_exact", v[6:], eps[6:], [0.4], [0.2])
    assert isinstance(got[0][0], float)


def test_hba_exact_overflowing_row_is_an_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_points_outcome("hba_exact", [1e200, 10.0], [0.0, 0.0], [0.5, 0.5], [0.2, 0.2])
    assert got == run_points_reference(
        "hba_exact", [1e200, 10.0], [0.0, 0.0], [0.5, 0.5], [0.2, 0.2]
    )
    assert got[0][0] is DomainError and isinstance(got[1][0], float)


def test_hba_exact_rows_mutual_info_has_the_scalar_bits():
    # the C library's log2 rounds about 1 in 2,000 of these ratios (5 of these
    # rows) differently from numpy's: the kernel and the point must both take
    # ``numerics.log2``
    rng = np.random.default_rng(3)
    n = 8_000
    v = 10.0 ** rng.uniform(0.0, 6.0, n)
    eps, t_min = rng.uniform(0.0, 0.1, n), rng.uniform(0.01, 0.8, n)
    mi, _ = hba.skr_hba_exact_rows(v, eps, t_min, t_min + 0.2)
    want = [
        mutual_information_fixed(ChannelParams(*args))
        for args in zip(v.tolist(), t_min.tolist(), eps.tolist())
    ]
    assert mi.tolist() == want


@pytest.mark.parametrize("eps", [5e-324, 1e-310, 1e-308, 1e-307])
def test_tiny_eps_rows_equal_the_eps_zero_row(eps):
    # the thermal term eps T / (2 (1-T)) underflows to nothing next to the
    # logarithm; the closed form of htilde made these DomainError rows, or
    # was 5.7e-11 bits off (1e-307)
    cfg = cli.SweepConfig(("hba_asymptotic",), (1e4,), (0.0, eps), (0.25,), (0.001,))
    rows, n_errors = cli.run_sweep(cfg)
    zero, tiny = rows
    assert n_errors == 0 and (zero.eps, tiny.eps) == (0.0, eps)
    assert (zero.error, tiny.error) == ("", "")
    assert (tiny.mutual_info, tiny.holevo, tiny.rate) == (zero.mutual_info, zero.holevo, zero.rate)
