"""The sweep's array path gives every row exactly what ``run_point`` gives it.

``cli.run_sweep`` evaluates the rows of a grid as one array per approach
(the fading averages in chunks of tanh-sinh node matrices), keeps them as
columns, writes the CSV block by block from slices of the columns, and
builds the SVG curves from block slices.  The CSV is a byte contract, so
these tests hold the sweep to the row-by-row reference it replaced: each row
through ``run_point`` (after ``optimal_variance`` for an optimize-v row),
compared with ``==``, error rows with the same text, the CSV written cell by
cell and every SVG drawn from curves regrouped row by row.
"""

import dataclasses
import itertools
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fixed_rate_oracle
from cvqkd_fading import cli, fading, hba, svgplot
from cvqkd_fading.channel import ChannelParams, mutual_information_fixed, skr_fixed
from cvqkd_fading.cma import optimal_variance
from cvqkd_fading.errors import DomainError, NumericalError
from cvqkd_fading.fading import FadingUniform

# fixed-channel points at eps = 0 where lambda2 once rounded below 1 - 1e-12
# (CHANGES.md, the MENDED line on the lambda >= 1 check)
FOUND_POINTS = ((1e3, 0.988695), (1e4, 0.985585), (1e5, 0.98587))


def reference_rows(cfg):
    """The grid evaluated row by row, as the sweep did before arrays."""
    rows = list(cli.build_grid(cfg)[0])
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
    return rows


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
        # at 5e-324 the thermal term of the large-V average underflows
        eps_list=(0.0, *draw(st.lists(st.floats(0.0, 0.1) | st.sampled_from([-0.0, 5e-324]),
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
def test_sweep_rows_equal_run_point(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        got_dir, want_dir = Path(tmp, "got"), Path(tmp, "want")
        got_dir.mkdir(), want_dir.mkdir()
        cfg = dataclasses.replace(
            cfg, csv_path=str(got_dir / "sweep.csv"), svg_path=str(got_dir / "sweep.svg")
        )
        got, got_exc = outcome(cli.run_sweep, cfg)
        want, want_exc = outcome(reference_rows, cfg)
        # no exception escapes either: a row that fails is an error row in both;
        # should one escape, the sweep must fail the same way the row-by-row
        # loop does
        assert got_exc == want_exc
        if want_exc is None:
            rows, n_errors = got
            assert_rows_equal(rows, want)
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
def test_preset_outputs_equal_row_by_row_reference(tmp_path, capsys, preset):
    got_dir, want_dir = tmp_path / "got", tmp_path / "want"
    got_dir.mkdir(), want_dir.mkdir()
    cfg = cli.sweep_config_from_sources(cli.load_preset(preset), {})
    cfg = dataclasses.replace(
        cfg, csv_path=str(got_dir / "sweep.csv"), svg_path=str(got_dir / "sweep.svg")
    )
    cli.run_sweep(cfg)
    capsys.readouterr()
    want = reference_rows(cfg)
    (want_dir / "sweep.csv").write_text(reference_csv(want), encoding="utf-8")
    reference_svgs(cfg, want, want_dir)
    assert_outputs_equal(got_dir, want_dir)


def test_asymptotic_average_runs_once_per_block(monkeypatch, capsys):
    # the large-V Holevo bound is (1/2) log2 V plus a V-free mean, one
    # kernel call per (eps, law) block, eps = 0 included
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
    assert len(calls) == 6 and all(isinstance(t_min, float) for t_min, _, _ in calls)


def test_run_points_sends_invalid_points_to_run_point():
    # V is checked once, by SweepConfig, not per row: V = 0.5 never reaches
    # run_points, and a NaN V (a failed optimize-v row) is not evaluated; a
    # block the array cannot take (a fixed channel of nonzero width) goes
    # row by row to run_point and its DomainError
    for bad in (0.5, math.nan):
        with pytest.raises(DomainError, match="v values must be finite and >= 1"):
            cli.SweepConfig(("fixed",), (bad,), (0.0,), (0.5,), (0.0,))
        with pytest.raises(DomainError, match="variance must satisfy V >= 1"):
            cli.run_point("fixed", bad, 0.0, FadingUniform(0.5))
    blocks = [("fixed", 0.0, 0.5, 0.0, 0, 2), ("fixed", 0.0, 0.5, 0.2, 2, 3)]
    mi, holevo, rate, failed = cli.run_points("fixed", blocks, [10.0, math.nan, 10.0])
    assert list(failed) == [2] and isinstance(failed[2], DomainError)
    assert str(failed[2]) == "fixed-channel evaluation requires delta_t = 0"
    want = skr_fixed(ChannelParams(10.0, 0.5, 0.0))
    assert (mi[0], holevo[0], rate[0]) == (want.mutual_info, want.holevo, want.rate)
    assert np.isnan([mi[1], holevo[1], rate[1]]).all()


def test_run_points_fails_negative_asymptotic_holevo():
    # V = 1.5 is far below the large-V floor; the array path must hand the
    # point to run_point, which raises on the negative averaged Holevo bound
    f = FadingUniform(0.4, 0.2)
    mi, holevo, rate, failed = cli.run_points(
        "hba_asymptotic", [("hba_asymptotic", 0.01, f.t_min, f.delta_t, 0, 2)], [1.5, 1e4]
    )
    assert list(failed) == [0]
    assert str(failed[0]).startswith("large-V closed form outside its validity at V = 1.5")
    want = hba.skr_hba_asymptotic(1e4, 0.01, f)
    assert (mi[1], holevo[1], rate[1]) == (want.mutual_info, want.holevo, want.rate)


def row_blocks(approach, eps, t_min, delta_t):
    """The block table of rows given one by one: one block per run of rows
    with equal (eps, t_min, delta_t)."""
    blocks, start = [], 0
    for key, run in itertools.groupby(zip(eps, t_min, delta_t)):
        stop = start + len(list(run))
        blocks.append((approach, *key, start, stop))
        start = stop
    return blocks


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


def run_points_outcome(approach, v, eps, t_min, delta_t):
    blocks = row_blocks(approach, eps, t_min, delta_t)
    mi, holevo, rate, failed = cli.run_points(approach, blocks, v)
    return [
        (type(failed[i]), str(failed[i])) if i in failed else (mi[i], holevo[i], rate[i])
        for i in range(len(v))
    ]


@pytest.mark.parametrize(
    "approach, bad_block",
    [
        ("fixed", (0.01, 1e-320, 0.0)),  # 1/T overflows: the block raises
        ("cma", (0.01, 0.9, 0.2)),  # t_max past 1: the law raises
        ("hba_asymptotic", (0.01, 0.8, 0.2)),  # t_max = 1: the block raises
        ("hba_exact", (0.01, 0.9, 0.2)),
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
    blocks = [(approach, *b, start, stop) for b, (start, stop) in zip(table, spans)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mi, holevo, rate, failed = cli.run_points(approach, blocks, v)
    for (eps, t_min, dt), (start, stop) in zip(table, spans):
        for i in range(start, stop):
            got = (mi[i], holevo[i], rate[i])
            if math.isnan(v[i]):
                assert i not in failed and np.isnan(got).all()
                continue
            if i in failed:
                got = (type(failed[i]), str(failed[i]))
            assert got == run_points_reference(approach, [v[i]], [eps], [t_min], [dt])[0], i
    assert 3 in failed and {0, 2, 6, 7}.isdisjoint(failed)


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
    mi, _, _ = hba.skr_hba_exact_rows(v, eps, t_min, t_min + 0.2)
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
