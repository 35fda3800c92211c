"""The sweep's array path gives every row exactly what ``run_point`` gives it.

``cli.run_sweep`` evaluates the rows of a grid as one array per approach
(``hba_exact`` in chunks of Gauss-Legendre node matrices), formats the CSV
cells a block of rows shares once, and builds the SVG curves block by
block.  The CSV is a byte contract, so these tests hold the sweep to the
row-by-row reference it replaced: each row through ``run_point`` (after
``optimal_variance`` for an optimize-v row), compared with ``==``, and
error rows with the same text.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvqkd_fading import cli, hba
from cvqkd_fading.channel import ChannelParams, mutual_information_fixed, skr_fixed
from cvqkd_fading.cma import optimal_variance
from cvqkd_fading.errors import DomainError, NumericalError
from cvqkd_fading.hba import FadingUniform

# fixed-channel points at eps = 0 where lambda2 rounds below 1 - 1e-12
# (CHANGES.md, FOUND line on the lambda >= 1 check)
FOUND_POINTS = ((1e3, 0.988695), (1e4, 0.985585), (1e5, 0.98587))


def reference_rows(cfg):
    """The grid evaluated row by row, as the sweep did before arrays."""
    rows, _ = cli.build_grid(cfg)
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
    """The SVG curves regrouped row by row."""
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
        series.setdefault(" ".join(key), []).append((row.x_value(axis), y))
    return list(series.items())


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
# lambda2 -> 1 there and hba_exact rows fall back to adaptive Simpson
t_mins = st.floats(0.01, 1.0) | st.sampled_from([t for _, t in FOUND_POINTS] + [0.8, 0.999])


@st.composite
def sweep_configs(draw):
    approaches = draw(
        st.lists(st.sampled_from(("fixed", "cma", "hba_asymptotic", "hba_exact")), min_size=1,
                 max_size=4, unique=True)
    )
    return cli.SweepConfig(
        approaches=tuple(approaches),
        v_list=(1.0, *draw(st.lists(st.floats(0.0, 6.0).map(lambda x: 10.0**x), max_size=6))),
        eps_list=(0.0, *draw(st.lists(st.floats(0.0, 0.1), max_size=2))),
        t_min_values=tuple(draw(st.lists(t_mins, min_size=1, max_size=4))),
        delta_t_list=tuple(draw(st.lists(st.sampled_from((0.0, 1e-3, 0.2)), min_size=1,
                                         max_size=3, unique=True))),
        # an optimized V may lie below the large-V floor, where hba_asymptotic
        # rows fail on a negative averaged Holevo bound
        optimize_v=tuple(
            a for a in approaches if a != "fixed" and draw(st.booleans())
        ),
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
    got, got_exc = outcome(cli.run_sweep, cfg)
    want, want_exc = outcome(reference_rows, cfg)
    # no exception escapes either: a subnormal eps, where htilde's closed form
    # breaks down, is a DomainError row in both; should one escape, the sweep
    # must fail the same way the row-by-row loop does
    assert got_exc == want_exc
    if want_exc is None:
        rows, n_errors = got
        assert_rows_equal(rows, want)
        assert n_errors == sum(1 for row in want if row.error)


@pytest.mark.parametrize("v, t_min", FOUND_POINTS)
def test_found_points_stay_error_rows(v, t_min):
    # lambda2 rounds below 1 - 1e-12 at these points (ROADMAP item 1); the
    # array path must fail them with the scalar path's message, not a value
    cfg = cli.SweepConfig(("fixed",), (v,), (0.0,), (t_min,), (0.0,))
    rows, n_errors = cli.run_sweep(cfg)
    with pytest.raises(DomainError) as scalar:
        skr_fixed(ChannelParams(v, t_min, 0.0))
    assert n_errors == 1
    assert rows[0].error == f"DomainError: {scalar.value}"
    assert rows[0].error.startswith("DomainError: symplectic eigenvalue must be >= 1, got ")
    assert rows[0].rate is None


@pytest.mark.parametrize("preset", ["fig2", "fig3", "fig45"])
def test_preset_outputs_equal_row_by_row_reference(tmp_path, capsys, preset):
    cfg = cli.sweep_config_from_sources(cli.load_preset(preset), {})
    cfg = dataclasses.replace(cfg, csv_path=str(tmp_path / "sweep.csv"), svg_path=None)
    rows, _ = cli.run_sweep(cfg)
    capsys.readouterr()
    want = reference_rows(cfg)
    assert (tmp_path / "sweep.csv").read_bytes() == reference_csv(want).encode("utf-8")
    for axis in cfg.x_axes:
        for column in cfg.y_columns:
            assert cli._series_for(cfg, rows, axis, column) == reference_series(
                cfg, want, axis, column
            )


def test_htilde_runs_once_per_block(monkeypatch, capsys):
    calls = []
    real = hba.htilde

    def counting(eps, f):
        calls.append((eps, f))
        return real(eps, f)

    monkeypatch.setattr(hba, "htilde", counting)
    cfg = cli.SweepConfig(
        ("hba_asymptotic",), (1e3, 1e4, 1e5, 1e6), (0.0, 0.01, 0.02), (0.3, 0.5), (0.2,)
    )
    rows, n_errors = cli.run_sweep(cfg)
    capsys.readouterr()
    assert n_errors == 0 and len(rows) == 24
    assert len(calls) == 4  # the (eps > 0, t_min) blocks; eps = 0 needs none


def test_run_points_sends_invalid_points_to_run_point():
    mi, holevo, rate, failed = cli.run_points(
        "fixed", [0.5, 10.0, math.nan], [0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0]
    )
    assert set(failed) == {0, 2}
    assert all(isinstance(exc, DomainError) for exc in failed.values())
    want = skr_fixed(ChannelParams(10.0, 0.5, 0.0))
    assert (mi[1], holevo[1], rate[1]) == (want.mutual_info, want.holevo, want.rate)


def test_run_points_fails_negative_asymptotic_holevo():
    # V = 1.5 is far below the large-V floor; the array path must hand the
    # point to run_point, which raises on the negative averaged Holevo bound
    f = FadingUniform(0.4, 0.2)
    mi, holevo, rate, failed = cli.run_points(
        "hba_asymptotic", [1.5, 1e4], [0.01, 0.01], [f.t_min] * 2, [f.delta_t] * 2
    )
    assert list(failed) == [0]
    assert str(failed[0]).startswith("large-V closed form outside its validity at V = 1.5")
    want = hba.skr_hba_asymptotic(1e4, 0.01, f)
    assert (mi[1], holevo[1], rate[1]) == (want.mutual_info, want.holevo, want.rate)


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
    mi, holevo, rate, failed = cli.run_points(approach, v, eps, t_min, delta_t)
    return [
        (type(failed[i]), str(failed[i])) if i in failed else (mi[i], holevo[i], rate[i])
        for i in range(len(v))
    ]


def test_hba_exact_rows_span_chunks_with_a_fallback_row_in_each(monkeypatch):
    # 3 chunks; t_min = 0.8, delta_t = 0.2 at eps = 0 ends at T = 1, where
    # the two rules disagree and the row takes adaptive Simpson
    n = 2 * hba._CHUNK_ROWS + 10
    fallback = {5, hba._CHUNK_ROWS + 17, 2 * hba._CHUNK_ROWS + 3}
    v = [10.0 ** (k / n) * 10.0 for k in range(n)]
    eps = [0.0 if k in fallback else 0.01 for k in range(n)]
    t_min = [0.8 if k in fallback else 0.3 + 0.4 * k / n for k in range(n)]
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
    assert all(len(out) == 3 and isinstance(out[0], float) for out in got)


def test_hba_exact_invalid_points_get_the_run_point_exception():
    v = [0.5, math.nan, math.inf, 10.0, 10.0, 10.0, 10.0]
    eps = [0.01, 0.01, 0.01, -0.1, math.nan, math.inf, 0.01]
    got = run_points_outcome("hba_exact", v, eps, [0.4] * 7, [0.2] * 7)
    assert got == run_points_reference("hba_exact", v, eps, [0.4] * 7, [0.2] * 7)
    assert all(out[0] is DomainError for out in got[:6])
    assert isinstance(got[6][0], float)


def test_hba_exact_overflowing_row_is_an_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_points_outcome("hba_exact", [1e200, 10.0], [0.0, 0.0], [0.5, 0.5], [0.2, 0.2])
    assert got == run_points_reference(
        "hba_exact", [1e200, 10.0], [0.0, 0.0], [0.5, 0.5], [0.2, 0.2]
    )
    assert got[0][0] is DomainError and isinstance(got[1][0], float)


def test_hba_exact_rows_mutual_info_has_the_scalar_bits():
    # numpy's log2 rounds differently from the C library's on about 1 in
    # 2,000 of these ratios (5 of these rows); the kernel must not use it
    rng = np.random.default_rng(3)
    n = 8_000
    v = 10.0 ** rng.uniform(0.0, 6.0, n)
    eps, t_min = rng.uniform(0.0, 0.1, n), rng.uniform(0.01, 0.8, n)
    mi, _, _ = hba.skr_hba_exact_rows(v, eps, t_min, np.full(n, 0.2))
    want = [
        mutual_information_fixed(ChannelParams(*args))
        for args in zip(v.tolist(), t_min.tolist(), eps.tolist())
    ]
    assert mi.tolist() == want


@pytest.mark.parametrize("eps", [5e-324, 1e-310, 1e-308])
def test_tiny_eps_is_a_domain_error_row(eps):
    # htilde's closed form breaks down: eps * t * u underflows (a bare
    # ValueError before), a dilog argument overflows, or the value is NaN
    # (reported as "rate must equal mutual_info - holevo" before)
    cfg = cli.SweepConfig(("hba_asymptotic",), (1e4,), (eps,), (0.25,), (0.001,))
    rows, n_errors = cli.run_sweep(cfg)
    assert n_errors == 1
    assert rows[0].error == (
        f"DomainError: htilde closed form is not finite at eps = {eps!r} (eps too small)"
    )
