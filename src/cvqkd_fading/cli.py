"""Command-line front end: point evaluations, parameter sweeps, variance
optimization, positivity thresholds and Monte-Carlo validation.

Subcommands: ``point``, ``sweep``, ``optimize-v``, ``threshold``,
``mc-validate``, ``preset``.  Sweeps read flat key=value config files
(``sweep --config``); the packaged presets ``fig2``, ``fig3`` and ``fig45``
are such files and every key can be overridden by the command-line flag of
the same name (flags win).  Sweeps run serially.  A sweep keeps its rows as
a block table and columns (``SweepRows``) from the grid to the files: each
approach's blocks (one approach, eps, delta_t and t_min; only V varies) go
to ``run_points``, which makes what a block has in common once and
evaluates the rows as one array, and the CSV and SVG files are written from
block slices of the columns.  Every value, and so every output byte, is the
one ``run_point`` gives for that row.

Output is CSV (UTF-8, LF, 17 significant digits) with one flat schema::

    approach,V,eps,t_min,delta_t,t_mean,attenuation_db,mutual_info_bits,
    holevo_bits,rate_bits,v_opt,error

plus optional SVG line plots.  The ``error`` cell is quoted (RFC 4180) when
its message holds a comma, a double quote or a line break.  CSV preserves the
sign of negative rates; SVG curves clamp them at zero (or break the line on a
log axis).  Exit codes: 0 success, 1 invalid arguments, 2 numerical failure,
3 partial sweep (some rows carry an error).
"""

from __future__ import annotations

import argparse
import bisect
import functools
import itertools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter

import numpy as np

from .channel import ChannelParams, SkrBreakdown, derive_chi, skr_fixed, skr_fixed_rows
from .cma import V_TOL, avg_covariance, cma_block, optimal_variance, require_v_bracket
from .cma import skr_cma, skr_cma_rows
from .errors import DomainError, NumericalError
from .fading import FadingUniform, moments_uniform
from .hba import (
    asymptotic_block,
    holevo_asymptotic_regime_floor,
    skr_hba_asymptotic,
    skr_hba_asymptotic_rows,
    skr_hba_exact,
    skr_hba_exact_rows,
)
from .montecarlo import SampleConfig, empirical_moments, moment_standard_errors
from .numerics import itp_bracket
from .svgplot import write_line_plot

APPROACHES = ("fixed", "hba_exact", "hba_asymptotic", "cma")
X_AXES = ("t_min", "t_mean", "attenuation_db", "variance")
Y_COLUMNS = ("rate_bits", "mutual_info_bits", "holevo_bits")
_Y_ATTRS = {"rate_bits": "rate", "mutual_info_bits": "mutual_info", "holevo_bits": "holevo"}

CSV_HEADER = (
    "approach,V,eps,t_min,delta_t,t_mean,attenuation_db,"
    "mutual_info_bits,holevo_bits,rate_bits,v_opt,error"
)


def attenuation_db(t: float) -> float:
    """Channel attenuation -10 log10(T) in dB."""
    if not (isinstance(t, (int, float)) and math.isfinite(t) and 0.0 < t <= 1.0):
        raise DomainError(f"attenuation needs 0 < T <= 1, got {t!r}")
    return -10.0 * math.log10(t) + 0.0  # normalizes -0.0 at T = 1


def _require_point_mass(f: FadingUniform) -> None:
    if f.delta_t != 0.0:
        raise DomainError("fixed-channel evaluation requires delta_t = 0")


def run_point(approach: str, v: float, eps: float, f: FadingUniform) -> SkrBreakdown:
    """Evaluate one grid point with the selected model."""
    if approach == "fixed":
        _require_point_mass(f)
        return skr_fixed(ChannelParams(v, f.t_min, eps))
    if approach == "hba_exact":
        return skr_hba_exact(v, eps, f)
    if approach == "hba_asymptotic":
        return skr_hba_asymptotic(v, eps, f)
    if approach == "cma":
        return skr_cma(v, eps, f)
    raise DomainError(f"unknown approach {approach!r}; expected one of {APPROACHES}")


def _fixed_block(eps: float, f: FadingUniform) -> tuple[float, float]:
    _require_point_mass(f)
    derive_chi(f.t_min, eps)
    return f.t_min, eps


def _exact_block(eps: float, f: FadingUniform) -> tuple[float, float, float]:
    return eps, f.t_min, f.t_max


# approach -> (columns of one (eps, fading) block, from the scalar code; the
# row kernel taking V and those columns repeated over the block's rows)
_ROW_MODELS = {
    "fixed": (_fixed_block, skr_fixed_rows),
    "cma": (cma_block, skr_cma_rows),
    "hba_asymptotic": (asymptotic_block, skr_hba_asymptotic_rows),
    "hba_exact": (_exact_block, skr_hba_exact_rows),
}


def run_points(approach, blocks, v):
    """Evaluate the rows of one approach's blocks, each with the values
    ``run_point`` gives for it.

    blocks are ``SweepRows.blocks`` entries (approach, eps, t_min, delta_t,
    start, stop) and v the V column they index; a NaN V marks a row that is
    not evaluated.  V and eps are not checked here: every sweep V and eps
    has passed ``SweepConfig`` (an optimized V, ``require_v_bracket``).
    Returns (mutual_info, holevo, rate), float arrays the length of v that
    are NaN at the rows not evaluated, and {row: exception} for the rows
    whose evaluation raised; the values at those rows are meaningless.
    Each block's law and columns are made once by the scalar code, and the
    rows of all blocks are one array evaluation.  A row the array cannot
    vouch for (its block's scalar code raised, a value fails a check the
    scalar path makes, or the two levels of its fading average disagree)
    goes through ``run_point``, so it gets the scalar path's value or
    exception.
    """
    v = np.asarray(v, dtype=float)
    values = np.full((3, v.size), np.nan)
    todo = ~np.isnan(v)
    block_columns, kernel = _ROW_MODELS[approach]
    table, row_block = [], np.full(v.size, -1)
    for _, eps, t_min, delta_t, start, stop in blocks:
        try:
            table.append(block_columns(eps, FadingUniform(t_min, delta_t)))
        except (DomainError, NumericalError):
            continue
        row_block[start:stop] = len(table) - 1
    index = np.flatnonzero(todo & (row_block >= 0))
    if index.size:
        with np.errstate(all="ignore"):
            mi, holevo, ok = kernel(v[index], *np.array(table)[row_block[index]].T)
        done = index[ok]
        values[:, done] = mi[ok], holevo[ok], mi[ok] - holevo[ok]
        todo[done] = False
    failed = {}
    for _, eps, t_min, delta_t, start, stop in blocks:
        for i in (start + np.flatnonzero(todo[start:stop])).tolist():
            try:
                out = run_point(approach, float(v[i]), eps, FadingUniform(t_min, delta_t))
            except (DomainError, NumericalError) as exc:
                failed[i] = exc
            else:
                values[:, i] = out.mutual_info, out.holevo, out.rate
    return (*values, failed)


def fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


def csv_text(text: str) -> str:
    """A text cell quoted per RFC 4180: only when it holds a comma, a double
    quote or a line break, with inner quotes doubled."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# ---------------------------------------------------------------------------
# sweep configuration


@dataclass(frozen=True)
class SweepConfig:
    approaches: tuple[str, ...]
    v_list: tuple[float, ...]
    eps_list: tuple[float, ...]
    t_min_values: tuple[float, ...]
    delta_t_list: tuple[float, ...]
    x_axes: tuple[str, ...] = ("t_min",)
    y_columns: tuple[str, ...] = ("rate_bits",)
    optimize_v: tuple[str, ...] = ()
    v_lo: float = 1.0 + 1e-6
    v_hi: float = 1e4
    csv_path: str | None = None
    svg_path: str | None = None
    log_y: bool = False
    title: str = ""
    # no effect and no config key; kept only because perfbench/run.py passes
    # jobs=, until a benchmark change drops it there
    jobs: int = 1

    def __post_init__(self) -> None:
        for name, values, allowed in (
            ("approach", self.approaches, APPROACHES),
            ("x_axis", self.x_axes, X_AXES),
            ("y_column", self.y_columns, Y_COLUMNS),
            ("optimize_v", self.optimize_v, APPROACHES),
        ):
            if name != "optimize_v" and not values:
                raise DomainError(f"{name} list must be non-empty")
            for item in values:
                if item not in allowed:
                    raise DomainError(f"invalid {name} {item!r}; expected one of {allowed}")
        for name, values, bound, ok in (
            ("v", self.v_list, ">= 1", lambda x: x >= 1.0),
            ("eps", self.eps_list, ">= 0", lambda x: x >= 0.0),
            ("t_min", self.t_min_values, "> 0", lambda x: x > 0.0),
            ("delta_t", self.delta_t_list, ">= 0", lambda x: x >= 0.0),
        ):
            if not values:
                raise DomainError(f"{name} list must be non-empty")
            for x in values:
                if not (math.isfinite(x) and ok(x)):
                    raise DomainError(f"{name} values must be finite and {bound}, got {x!r}")
        require_v_bracket(self.v_lo, self.v_hi)


@dataclass(slots=True)
class SweepRow:
    approach: str
    v: float | None  # None while pending optimization, and after a failed one
    eps: float
    t_min: float
    delta_t: float
    mutual_info: float | None = None
    holevo: float | None = None
    rate: float | None = None
    v_opt: float | None = None
    error: str = ""

    @property
    def t_mean(self) -> float:
        return self.t_min + 0.5 * self.delta_t


class SweepRows(Sequence):
    """The rows of a sweep as columns; a ``SweepRow`` is built when read.

    ``blocks`` holds (approach, eps, t_min, delta_t, start, stop) for each
    run of rows that share approach, eps, delta_t and t_min (the config's
    own objects, so 0.0 and -0.0 never share cells).  ``v``, ``mutual_info``,
    ``holevo`` and ``rate`` are float arrays and ``errors`` maps a row index
    to its error text (its values are meaningless).  V of an ``optimized``
    approach comes from ``optimal_variance``: NaN while pending or failed."""

    def __init__(self, blocks, v, optimized=frozenset()):
        self.blocks, self.optimized, self.errors = blocks, optimized, {}
        self.v = np.array(v, dtype=float)
        self.mutual_info, self.holevo, self.rate = np.full((3, self.v.size), math.nan)

    def __len__(self) -> int:
        return self.v.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        i = range(len(self))[i]
        block = self.blocks[bisect.bisect_right(self.blocks, i, key=itemgetter(4)) - 1]
        error = self.errors.get(i, "")
        v, *values = (float(col[i]) for col in (self.v, self.mutual_info, self.holevo, self.rate))
        v = None if math.isnan(v) else v
        mi, holevo, rate = (None if error or math.isnan(x) else x for x in values)
        v_opt = v if block[0] in self.optimized else None
        return SweepRow(block[0], v, *block[1:4], mi, holevo, rate, v_opt, error)


def csv_blocks(rows: SweepRows):
    """The CSV text, the header and then one string per block: the one
    formatter of the schema.  Each V cell is formatted once per value, the
    five cells a block shares once per block; an error row's value cells are
    blank, and so are its V cells on an optimize-v row."""
    yield CSV_HEADER + "\n"
    v_all = rows.v.tolist()
    v_cells = {v: fmt(v) for v in set(v_all)}
    failed = sorted(rows.errors)
    for approach, eps, t_min, delta_t, start, stop in rows.blocks:
        shared = ",".join(map(fmt, (eps, t_min, delta_t, t_min + 0.5 * delta_t)))
        shared += "," + fmt(attenuation_db(t_min))
        v_opt = approach in rows.optimized
        line = f"{approach},%s,{shared},%.17g,%.17g,%.17g,{'%s' if v_opt else ''},\n".__mod__
        v_block = list(map(v_cells.__getitem__, v_all[start:stop]))
        columns = [col[start:stop].tolist() for col in (rows.mutual_info, rows.holevo, rows.rate)]
        lines = list(map(line, zip(v_block, *columns, *([v_block] if v_opt else []))))
        for i in failed[bisect.bisect_left(failed, start) : bisect.bisect_left(failed, stop)]:
            v_cell = "" if v_opt else v_block[i - start]
            lines[i - start] = f"{approach},{v_cell},{shared},,,,,{csv_text(rows.errors[i])}\n"
        yield "".join(lines)


def build_grid(cfg: SweepConfig) -> tuple[SweepRows, list[str]]:
    """Expand the config into evaluation rows in deterministic declared order
    (approach, eps, delta_t, t_min, V), one block per (approach, eps, delta_t,
    t_min) that keeps a row; an optimize-v row's V is NaN.  Combinations
    outside the target model's domain are skipped with the model's own
    DomainError message; the large-V closed form also skips every V up to its
    validity floor.  Each V cell of a skip line is formatted once."""
    blocks, v_column, skipped = [], [], []
    v_cells = {v: fmt(v) for v in cfg.v_list}
    v_cells[math.nan] = "opt"  # the optimize-v slot is this very NaN object
    for approach in cfg.approaches:
        v_slots = (math.nan,) if approach in cfg.optimize_v else cfg.v_list
        head = f"skip approach={approach} V="
        for eps in cfg.eps_list:
            for delta_t in cfg.delta_t_list:
                for t_min in cfg.t_min_values:
                    v_floor = 0.0  # SweepConfig ensures V >= 1
                    try:
                        f = FadingUniform(t_min, delta_t)
                        if approach == "fixed":
                            _require_point_mass(f)
                        elif approach == "hba_asymptotic":
                            v_floor = holevo_asymptotic_regime_floor(eps, f)
                    except DomainError as exc:
                        kept, dropped, issue = (), v_slots, str(exc)
                    else:
                        kept = [v for v in v_slots if not v <= v_floor]  # NaN is kept
                        dropped = [v for v in v_slots if v <= v_floor]
                        issue = f"V below the large-V validity floor {v_floor:.6g}"
                    if kept:
                        start = len(v_column)
                        v_column += kept
                        blocks.append((approach, eps, t_min, delta_t, start, len(v_column)))
                    if dropped:
                        tail = f" eps={eps:g} t_min={t_min:g} delta_t={delta_t:g}: {issue}"
                        skipped += [head + v_cells[v] + tail for v in dropped]
    return SweepRows(blocks, v_column, frozenset(cfg.optimize_v)), skipped


def run_sweep(cfg: SweepConfig) -> tuple[SweepRows, int]:
    """Evaluate the whole grid, one ``run_points`` call per approach (an
    optimize-v row first gets its V from ``optimal_variance``), and write the
    CSV/SVG artifacts.  Every row gets the values or the error ``run_point``
    gives it.  Returns (rows, n_error_rows)."""
    rows, skipped = build_grid(cfg)
    sys.stderr.writelines(f"{line}\n" for line in skipped)
    v, errors = rows.v, rows.errors
    for approach, eps, t_min, delta_t, start, _ in rows.blocks:
        if approach in rows.optimized:  # one row per block
            try:
                f = FadingUniform(t_min, delta_t)
                v[start], _ = optimal_variance(eps, f, cfg.v_lo, cfg.v_hi)
            except (DomainError, NumericalError) as exc:
                errors[start] = f"{type(exc).__name__}: {exc}"
    for approach, group in itertools.groupby(rows.blocks, key=itemgetter(0)):
        group = list(group)
        span = slice(group[0][4], group[-1][5])
        *values, failed = run_points(approach, group, v)
        rows.mutual_info[span], rows.holevo[span], rows.rate[span] = (x[span] for x in values)
        for i, exc in failed.items():
            errors[i] = f"{type(exc).__name__}: {exc}"
            if approach in rows.optimized:  # an optimize-v row keeps empty V cells
                v[i] = math.nan

    if cfg.csv_path:
        write_csv(cfg.csv_path, rows)
    if cfg.svg_path:
        write_sweep_svgs(cfg, rows)
    return rows, len(errors)


def write_csv(path: str, rows: SweepRows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(csv_blocks(rows))


def _curves(rows: SweepRows, axis: str, column: str, log_y: bool):
    """(label, xs, ys) of every plotted curve, in the order of its first
    row: on the variance axis a curve is one block; on the others the rows
    of one (approach, V label, eps, delta_t) across t_min, its x value shared
    by the block.  Curves with equal labels are one curve.  Error rows are
    not plotted, and on a linear axis negative values are clamped at 0."""
    blocks = rows.blocks
    counts = [stop - start for *_, start, stop in blocks]
    ys = getattr(rows, _Y_ATTRS[column])
    if not log_y:
        ys = np.maximum(ys, 0.0)  # SVG never plots negative rates
    # a row's label is its block's template filled with its V label
    if axis == "variance":
        xs, v_key, v_labels = rows.v, np.zeros(len(rows), dtype=np.intp), [""]
    else:
        xs = np.repeat([
            t if axis == "t_min" else t + 0.5 * d if axis == "t_mean" else attenuation_db(t)
            for _, _, t, d, *_ in blocks
        ], counts)
        values, inverse = np.unique(rows.v, return_inverse=True)
        names = {"V=opt ": 0}  # each V formatted once
        v_key = np.array([names.setdefault(f"V={v:g} ", len(names)) for v in values.tolist()])
        v_key = v_key.astype(np.intp)[inverse]
        v_key[np.repeat([b[0] in rows.optimized for b in blocks], counts).astype(bool)] = 0
        v_labels = list(names)
    templates, block_key = {}, []
    for b in blocks:
        template = f"{b[0]} {{}}eps={b[1]:g} dT={b[3]:g}"
        template += f" t_min={b[2]:g}" if axis == "variance" else ""
        block_key.append(templates.setdefault(template, len(templates)))
    key = np.repeat(block_key, counts).astype(np.intp) * len(v_labels) + v_key
    index = np.delete(np.arange(len(rows)), list(rows.errors))
    keys, first, curve = np.unique(key[index], return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    curve = np.argsort(by_first)[curve]  # curves numbered in the order of their first row
    index = index[np.argsort(curve, kind="stable")]
    stops = np.cumsum(np.bincount(curve))[:-1]
    template_of, m = list(templates), len(v_labels)
    labels = [template_of[k // m].format(v_labels[k % m]) for k in keys[by_first].tolist()]
    return list(zip(labels, np.split(xs[index], stops), np.split(ys[index], stops)))


def write_sweep_svgs(cfg: SweepConfig, rows: SweepRows) -> None:
    """One SVG per (x_axis, y_column) pair; suffixed when there are several.
    A plot with no curve is not written, nor is a log-axis plot with no
    positive value, for which a ``skip plot`` line goes to stderr."""
    stem = cfg.svg_path.removesuffix(".svg")
    multi = len(cfg.x_axes) * len(cfg.y_columns) > 1
    for axis in cfg.x_axes:
        for column in cfg.y_columns:
            series = _curves(rows, axis, column, cfg.log_y)
            if not series:
                continue
            path = f"{stem}_{axis}_{column}.svg" if multi else f"{stem}.svg"
            try:
                write_line_plot(path, series, axis, column, cfg.title, cfg.log_y)
            except DomainError as exc:
                print(f"skip plot {path}: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# threshold search


def find_positive_threshold(
    approach: str,
    v: float,
    eps: float,
    delta_t: float,
    lo: float = 1e-3,
    hi: float | None = None,
    tol: float = 1e-5,
) -> tuple[float, float]:
    """Smallest t_min with non-negative rate: the root of rate(t_min) = 0.

    Returns (t_min_threshold, threshold_in_dB).  The rate must be monotone
    over the bracket (checked at 9 evenly spaced samples) and change sign
    across it; otherwise a NumericalError is raised ("no sign change").  The
    ITP root finder (``numerics.itp_bracket``) then shrinks the first
    sample interval [a, b] whose right end has a non-negative rate, keeping
    rate(a) < 0 <= rate(b) (rate(lo) = 0 closes on lo), and stops at
    b - a <= tol, or where no float lies between a and b; the threshold is
    the midpoint of that final bracket.
    """
    if hi is None:
        hi = 1.0 - delta_t
        if approach == "hba_asymptotic":
            hi -= 1e-9
    if not 0.0 < lo < hi:
        raise DomainError(f"invalid bracket [{lo!r}, {hi!r}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")

    def rate(t_min: float) -> float:
        return run_point(approach, v, eps, FadingUniform(t_min, delta_t)).rate

    samples = [lo + (hi - lo) * k / 8.0 for k in range(9)]
    values = [rate(t) for t in samples]
    for r1, r2 in zip(values, values[1:]):
        if r2 < r1 - 1e-9:
            raise NumericalError(
                "rate is not monotone in t_min over the bracket; refine the bracket"
            )
    if values[0] > 0.0 or values[-1] < 0.0:
        raise NumericalError(
            f"no sign change: rate({lo:g}) = {values[0]:.3e}, rate({hi:g}) = {values[-1]:.3e}"
        )
    k = next(i for i in range(1, 9) if values[i] >= 0.0)
    a, b = itp_bracket(rate, samples[k - 1], samples[k], values[k - 1], values[k], tol)
    t_star = 0.5 * (a + b)
    return t_star, attenuation_db(t_star)


# ---------------------------------------------------------------------------
# Monte-Carlo validation


def mc_validate_rows(
    v: float, eps: float, f: FadingUniform, cfg: SampleConfig
) -> list[tuple[str, float, float, float]]:
    """(quantity, empirical, closed_form, standard_error) rows for the report.
    The closed forms come first, so an invalid V or eps fails before any draw."""
    ref = moments_uniform(f)
    ref_cov = avg_covariance(ref, v, eps)
    se_sqrt, se_t, se_var = moment_standard_errors(f, cfg.n_samples)
    emp = empirical_moments(f, cfg)
    emp_cov = avg_covariance(emp, v, eps)
    return [
        ("mean_sqrt_t", emp.mean_sqrt_t, ref.mean_sqrt_t, se_sqrt),
        ("mean_t", emp.mean_t, ref.mean_t, se_t),
        ("var_sqrt_t", emp.var_sqrt_t, ref.var_sqrt_t, se_var),
        ("cov_c", emp_cov.c, ref_cov.c, math.sqrt(v * v - 1.0) * se_sqrt),
        ("cov_b", emp_cov.b, ref_cov.b, (v - 1.0 + eps) * se_t),
    ]


# ---------------------------------------------------------------------------
# config files and argument parsing


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value format; '#' starts a comment; later keys win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parse_float_list(text: str) -> tuple[float, ...]:
    """Comma list of floats, or 'logspace:lo:hi:n' for a log-spaced grid."""
    text = text.strip()
    if text.startswith("logspace:"):
        try:
            _, lo_s, hi_s, n_s = text.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError as exc:
            raise DomainError(f"bad logspace spec {text!r}") from exc
        if not (0.0 < lo < hi and n >= 2):
            raise DomainError(f"bad logspace spec {text!r}")
        ratio = (hi / lo) ** (1.0 / (n - 1))
        values = [lo * ratio**k for k in range(n)]
        values[-1] = hi
        return tuple(values)
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise DomainError(f"bad float list {text!r}") from exc


def _parse_t_min(text: str) -> tuple[float, ...]:
    """Single value, comma list, or 'start:stop:step' inclusive grid."""
    text = text.strip()
    if ":" in text:
        try:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
        except ValueError as exc:
            raise DomainError(f"bad t_min range {text!r}") from exc
        if step <= 0.0 or stop < start:
            raise DomainError(f"bad t_min range {text!r}")
        n = int(round((stop - start) / step))
        values = [start + k * step for k in range(n + 1)]
        return tuple(v for v in values if v <= stop + 1e-12)
    return _parse_float_list(text)


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise DomainError(f"bad boolean {text!r}")


def _parse_optimize(text: str) -> tuple[str, ...]:
    lowered = text.strip().lower()
    if lowered in ("", "none", "false", "0", "no", "off"):
        return ()
    if lowered in ("all", "true", "1", "yes", "on"):
        return APPROACHES
    return _parse_str_list(text)


_SWEEP_KEYS = {
    "approach": ("approaches", _parse_str_list),
    "v": ("v_list", _parse_float_list),
    "eps": ("eps_list", _parse_float_list),
    "t_min": ("t_min_values", _parse_t_min),
    "delta_t": ("delta_t_list", _parse_float_list),
    "x_axis": ("x_axes", _parse_str_list),
    "y_column": ("y_columns", _parse_str_list),
    "optimize_v": ("optimize_v", _parse_optimize),
    "v_lo": ("v_lo", float),
    "v_hi": ("v_hi", float),
    "csv": ("csv_path", str),
    "svg": ("svg_path", str),
    "log_y": ("log_y", _parse_bool),
    "title": ("title", str),
}


def sweep_config_from_sources(
    config_text: str | None, overrides: dict[str, str]
) -> SweepConfig:
    """Build a SweepConfig from a config file plus flag overrides (flags win)."""
    raw: dict[str, str] = {}
    if config_text is not None:
        raw.update(parse_config_text(config_text))
    raw.update({k: v for k, v in overrides.items() if v is not None})
    kwargs = {}
    for key, value in raw.items():
        if key not in _SWEEP_KEYS:
            raise DomainError(f"unknown sweep key {key!r}")
        field_name, converter = _SWEEP_KEYS[key]
        try:
            kwargs[field_name] = converter(value)
        except DomainError:
            raise
        except ValueError as exc:
            raise DomainError(f"bad value for {key}: {value!r}") from exc
    required = ("approach", "v", "eps", "t_min", "delta_t")
    missing = [key for key in required if _SWEEP_KEYS[key][0] not in kwargs]
    if missing:
        raise DomainError(f"missing required sweep keys: {', '.join(missing)}")
    return SweepConfig(**kwargs)


def load_preset(name: str) -> str:
    candidate = resources.files("cvqkd_fading").joinpath("presets", f"{name}.cfg")
    if not candidate.is_file():
        raise DomainError(f"unknown preset {name!r}; expected fig2, fig3 or fig45")
    return candidate.read_text(encoding="utf-8")


def _add_sweep_override_flags(parser: argparse.ArgumentParser) -> None:
    for key in _SWEEP_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", default=None)


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    return {key: getattr(args, f"cfg_{key}") for key in _SWEEP_KEYS}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the invalid-arguments code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call (parsing reads it and keeps no state between calls)."""
    parser = _Parser(
        prog="cvqkd-fading",
        description="Secret key rates for CV-QKD over a uniformly fading channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one parameter point")
    p_point.add_argument("--approach", required=True, choices=APPROACHES)
    p_point.add_argument("--v", type=float, required=True)
    p_point.add_argument("--eps", type=float, required=True)
    p_point.add_argument("--t-min", type=float, required=True)
    p_point.add_argument("--delta-t", type=float, default=0.0)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from config/flags")
    p_sweep.add_argument("--config", help="flat key=value config file")
    _add_sweep_override_flags(p_sweep)

    p_preset = sub.add_parser("preset", help="run a packaged sweep preset")
    p_preset.add_argument("name", choices=("fig2", "fig3", "fig45"))
    _add_sweep_override_flags(p_preset)

    p_opt = sub.add_parser("optimize-v", help="optimal modulation variance (averaged-state model)")
    p_opt.add_argument("--eps", type=float, required=True)
    p_opt.add_argument("--t-min", type=float, required=True)
    p_opt.add_argument("--delta-t", type=float, default=0.0)
    p_opt.add_argument("--v-lo", type=float, default=1.0 + 1e-6)
    p_opt.add_argument("--v-hi", type=float, default=1e4)

    p_thr = sub.add_parser("threshold", help="t_min where the rate crosses zero")
    p_thr.add_argument("--approach", required=True, choices=APPROACHES)
    p_thr.add_argument("--v", type=float, required=True)
    p_thr.add_argument("--eps", type=float, required=True)
    p_thr.add_argument("--delta-t", type=float, default=0.0)
    p_thr.add_argument("--lo", type=float, default=1e-3)
    p_thr.add_argument("--hi", type=float, default=None)
    p_thr.add_argument("--tol", type=float, default=1e-5)

    p_mc = sub.add_parser("mc-validate", help="sampling check of the averaged covariance")
    p_mc.add_argument("--v", type=float, required=True)
    p_mc.add_argument("--eps", type=float, required=True)
    p_mc.add_argument("--t-min", type=float, required=True)
    p_mc.add_argument("--delta-t", type=float, default=0.0)
    p_mc.add_argument("--n", type=int, default=1_000_000)
    p_mc.add_argument("--seed", type=int, default=20240)
    return parser


def cmd_point(args: argparse.Namespace) -> int:
    out = run_point(args.approach, args.v, args.eps, FadingUniform(args.t_min, args.delta_t))
    rows = SweepRows([(args.approach, args.eps, args.t_min, args.delta_t, 0, 1)], [args.v])
    rows.mutual_info[0], rows.holevo[0], rows.rate[0] = out.mutual_info, out.holevo, out.rate
    sys.stdout.writelines(csv_blocks(rows))
    return 0


def cmd_sweep(args: argparse.Namespace, config_text: str | None) -> int:
    cfg = sweep_config_from_sources(config_text, _collect_overrides(args))
    rows, n_errors = run_sweep(cfg)
    if cfg.csv_path is None:
        sys.stdout.writelines(csv_blocks(rows))
    else:
        print(f"wrote {len(rows)} rows to {cfg.csv_path}", file=sys.stderr)
    if n_errors:
        print(f"{n_errors} grid points failed; see the error column", file=sys.stderr)
        return 3
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    f = FadingUniform(args.t_min, args.delta_t)
    v_opt, rate_opt = optimal_variance(args.eps, f, args.v_lo, args.v_hi)
    for name, edge in (("v_lo", args.v_lo), ("v_hi", args.v_hi)):
        if abs(v_opt - edge) <= V_TOL:
            print(
                f"warning: v_opt = {fmt(v_opt)} is within {V_TOL:g} of the bracket edge "
                f"{name} = {fmt(edge)}; the optimum may lie outside [v_lo, v_hi]",
                file=sys.stderr,
            )
    print("eps,t_min,delta_t,v_opt,rate_bits")
    print(",".join(map(fmt, (args.eps, args.t_min, args.delta_t, v_opt, rate_opt))))
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    t_star, db = find_positive_threshold(
        args.approach, args.v, args.eps, args.delta_t, args.lo, args.hi, args.tol
    )
    print("approach,V,eps,delta_t,t_min_threshold,threshold_db")
    print(",".join([args.approach, *map(fmt, (args.v, args.eps, args.delta_t, t_star, db))]))
    return 0


def cmd_mc_validate(args: argparse.Namespace) -> int:
    f = FadingUniform(args.t_min, args.delta_t)
    rows = mc_validate_rows(args.v, args.eps, f, SampleConfig(args.n, args.seed))
    print("quantity,empirical,closed_form,abs_dev,std_err,n_sigma,within_5_sigma")
    all_ok = True
    for name, emp, ref, se in rows:
        dev = abs(emp - ref)
        if se == 0.0:
            ok = dev == 0.0
            n_sigma = 0.0 if ok else math.inf
        else:
            n_sigma = dev / se
            ok = n_sigma < 5.0
        all_ok &= ok
        cells = [name, *map(fmt, (emp, ref, dev, se)), f"{n_sigma:.3f}", str(ok).lower()]
        print(",".join(cells))
    if not all_ok:
        print("empirical moments outside the 5-sigma band", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "point":
            return cmd_point(args)
        if args.command == "sweep":
            config_text = None
            if args.config:
                with open(args.config, "r", encoding="utf-8") as fh:
                    config_text = fh.read()
            return cmd_sweep(args, config_text)
        if args.command == "preset":
            return cmd_sweep(args, load_preset(args.name))
        if args.command == "optimize-v":
            return cmd_optimize(args)
        if args.command == "threshold":
            return cmd_threshold(args)
        if args.command == "mc-validate":
            return cmd_mc_validate(args)
        parser.error(f"unknown command {args.command!r}")
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
