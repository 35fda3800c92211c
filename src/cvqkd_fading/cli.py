"""Command-line front end: point evaluations, parameter sweeps, variance
optimization, positivity thresholds and Monte-Carlo validation.

Subcommands: ``point``, ``sweep``, ``optimize-v``, ``threshold``,
``mc-validate``, ``preset``.  Sweeps read flat key=value config files
(``sweep --config``); the packaged presets ``fig2``, ``fig3`` and ``fig45``
are such files and every key can be overridden by the command-line flag of
the same name (flags win).  Sweeps run serially.  A sweep keeps its rows as
a block table and columns (``SweepRows``) from the grid to the files: each
approach's blocks (one approach, eps, delta_t and t_min; only V varies) go
to ``run_points``, which evaluates the rows in array slices into those
columns, and the files are written a piece at a time from their slices;
what rows share (a law, its moments, a cell, a label) is made once per
distinct value, and the value cells and SVG coordinates are made per array
by ``digits``, byte for byte Python's ``'%.17g'`` and ``'%.2f'``.  Every
value, and so every output byte, is the one ``run_point`` gives that row.

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
import contextlib
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter

import numpy as np

from . import digits
from .channel import ChannelParams, SkrBreakdown, skr_fixed
from .cma import V_HI, V_LO, V_TOL, avg_covariance, cma_law_columns, optimal_variance
from .cma import require_v_bracket, skr_cma, skr_cma_rows
from .errors import DomainError, NumericalError
from .fading import FadingUniform, moments_uniform
from .hba import (
    asymptotic_law_columns,
    holevo_asymptotic_regime_floor,
    skr_hba_asymptotic,
    skr_hba_asymptotic_rows,
    skr_hba_exact,
    skr_hba_exact_rows,
)
from .montecarlo import SampleConfig, empirical_moments, moment_standard_errors
from .numerics import itp_bracket, log_grid
from .svgplot import write_line_plot

APPROACHES = ("fixed", "hba_exact", "hba_asymptotic", "cma")
X_AXES = ("t_min", "t_mean", "attenuation_db", "variance")
Y_COLUMNS = ("rate_bits", "mutual_info_bits", "holevo_bits")
_Y_ATTRS = {"rate_bits": "rate", "mutual_info_bits": "mutual_info", "holevo_bits": "holevo"}

CSV_HEADER = (
    "approach,V,eps,t_min,delta_t,t_mean,attenuation_db,"
    "mutual_info_bits,holevo_bits,rate_bits,v_opt,error"
)
CSV_ROWS = 1024  # rows per piece of ``csv_blocks``: the file is never held whole
AXIS_POINTS = 10**6  # most points a range or logspace spec may expand to
KERNEL_ROWS = 8192  # cells (blocks x V) per call of a row kernel in ``run_points``
THRESHOLD_LO, THRESHOLD_TOL = 1e-3, 1e-5  # threshold's default bracket low end and tolerance


def attenuation_db(t: float) -> float:
    """Channel attenuation -10 log10(T) in dB."""
    if not (isinstance(t, (int, float)) and math.isfinite(t) and 0.0 < t <= 1.0):
        raise DomainError(f"attenuation needs 0 < T <= 1, got {t!r}")
    return -10.0 * math.log10(t) + 0.0  # normalizes -0.0 at T = 1


def _require_point_mass(f: FadingUniform) -> tuple[float, float]:
    """The fixed channel's law columns (t_min, t_max): the point mass of hba_exact."""
    if f.delta_t != 0.0:
        raise DomainError("fixed-channel evaluation requires delta_t = 0")
    return f.t_min, f.t_max


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


# approach -> (its law check: a law's columns after eps, from the scalar code,
# or the DomainError that skips it; the kernel: kernel(V, eps, *law columns))
_ROW_MODELS = {
    "fixed": (_require_point_mass, skr_hba_exact_rows),
    "cma": (cma_law_columns, skr_cma_rows),
    "hba_asymptotic": (asymptotic_law_columns, skr_hba_asymptotic_rows),
    "hba_exact": (lambda f: (f.t_min, f.t_max), skr_hba_exact_rows),
}


def run_points(rows, approach, blocks):
    """Evaluate the rows of one approach's blocks (indices into
    ``rows.blocks``) in place, each with the values ``run_point`` gives it.

    V and eps have passed ``SweepConfig`` or ``require_v_bracket``, and each
    law its approach's law check, whose columns (``rows.columns``) follow a
    block's eps; a NaN V is not evaluated.  Writes ``rows.mutual_info``,
    ``holevo`` and ``rate`` and returns {row: exception} for the rows that
    raised.  The kernel takes a matrix of V, one row per block (NaN after a
    block's end), and each block column as a (blocks, 1) array: runs of whole
    blocks of at most ``KERNEL_ROWS`` cells per call, a wider block cut along
    V.  A row whose rate is NaN (a value fails a scalar check, or the two
    levels of its average disagree) goes through ``run_point``.
    """
    kernel = _ROW_MODELS[approach][1]
    v, start, counts = rows.v, rows.block_start, rows.block_rows
    blocks = np.array(blocks, dtype=np.intp)
    table = np.array([(rows.block_eps[b], *rows.columns[b]) for b in blocks.tolist()]).T
    left = [np.empty(0, dtype=np.intp)]  # rows for run_point
    width = min(int(counts[blocks].max(initial=1)), KERNEL_ROWS)  # V per kernel call
    step = KERNEL_ROWS // width  # blocks per kernel call
    for k in range(0, blocks.size, step):
        b, columns = blocks[k : k + step], [column[k : k + step, None] for column in table]
        end = int(counts[b].max())
        for cols in (np.arange(at, min(at + width, end)) for at in range(0, end, width)):
            inside = cols < counts[b, None]
            cells = np.where(inside, start[b, None] + cols, 0)  # the rows, 0 after a block's end
            x = np.where(inside, v[cells], np.nan)
            with np.errstate(all="ignore"):
                mi, holevo = kernel(x, *columns)
                rate = mi - holevo
            done = np.isfinite(rate)
            rows.values[:, cells[done]] = mi[done], holevo[done], rate[done]
            left.append(cells[~done & ~np.isnan(x)])
    failed = {}
    for i in np.sort(np.concatenate(left)).tolist():
        b = rows.row_block[i]
        try:
            out = run_point(approach, float(v[i]), rows.blocks[b][1], rows.laws[b])
        except (DomainError, NumericalError) as exc:
            failed[i] = exc
        else:
            rows.values[:, i] = out.mutual_info, out.holevo, out.rate
    return failed


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
    v_lo: float = V_LO
    v_hi: float = V_HI
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


class SweepRows:
    """The rows of a sweep as columns; a ``SweepRow`` is built when read.

    ``blocks`` holds (approach, eps, t_min, delta_t, start, stop) for each
    run of rows that share approach, eps, delta_t and t_min (the config's
    own objects, so 0.0 and -0.0 never share cells), in row order, ``laws``
    their laws, one object per (t_min, delta_t), and ``columns`` their law
    checks' columns.  The block columns ``block_eps``, ``block_t_min``,
    ``block_delta_t``, ``block_t_mean``, ``block_attenuation`` (floats),
    ``block_start`` and ``block_rows`` (its row count) are made once, as is
    ``row_block``, each row's block.  ``v``, ``mutual_info``, ``holevo`` and
    ``rate`` are float arrays (the last three the rows of ``values``) and
    ``errors`` maps a row index to its error text (its values are
    meaningless).  V of an ``optimized`` approach comes from
    ``optimal_variance``: NaN while pending or failed."""

    def __init__(self, blocks, v, laws, columns=(), optimized=frozenset()):
        self.blocks, self.laws, self.columns = blocks, laws, columns
        self.optimized, self.errors = optimized, {}
        self.v = np.array(v, dtype=float)
        self.values = np.full((3, self.v.size), math.nan)
        self.mutual_info, self.holevo, self.rate = self.values
        columns = [np.fromiter(map(itemgetter(k), blocks), float, len(blocks)) for k in range(1, 6)]
        self.block_eps, self.block_t_min, self.block_delta_t, start, stop = columns
        self.block_t_mean = self.block_t_min + 0.5 * self.block_delta_t
        self.block_attenuation = _cells(self.block_t_min, attenuation_db).astype(float)
        self.block_start, self.block_rows = start.astype(np.intp), (stop - start).astype(np.intp)
        self.row_block = np.repeat(np.arange(len(blocks)), self.block_rows)

    def __len__(self) -> int:
        return self.v.size

    def __getitem__(self, i: int) -> SweepRow:
        i = range(len(self))[i]
        return next(self._rows(self.blocks[self.row_block[i]], i, i + 1))

    def __iter__(self):
        return itertools.chain.from_iterable(self._rows(b, *b[4:]) for b in self.blocks)

    def _rows(self, block, start: int, stop: int):
        columns = (self.v, self.mutual_info, self.holevo, self.rate)
        for i, v, *values in zip(range(start, stop), *(c[start:stop].tolist() for c in columns)):
            error = self.errors.get(i, "")
            mi, holevo, rate = (None if error or math.isnan(x) else x for x in values)
            v = None if math.isnan(v) else v
            v_opt = v if block[0] in self.optimized else None
            yield SweepRow(block[0], v, *block[1:4], mi, holevo, rate, v_opt, error)


def _cells(x, cell):
    """cell(value) at each entry of the float array x, once per bit pattern (-0.0 is not 0.0)."""
    _, first, inverse = np.unique(x.view(np.int64), return_index=True, return_inverse=True)
    return np.array([cell(value) for value in x[first].tolist()], dtype=object)[inverse]


def csv_blocks(rows: SweepRows):
    """The CSV text, the header and then pieces of at most ``CSV_ROWS`` rows
    of one approach: the one formatter of the schema.  A piece is one byte
    matrix of NUL-padded cells side by side: the V cells (made once per
    distinct V) and the five cells a block shares (joined once per block)
    gathered by index, the value cells from ``digits.g17`` and the separators
    as constant columns; its NULs are dropped in one pass.  An error row's
    value cells are blank, and so is a NaN V's (a failed optimum): its line
    is spliced in after that pass."""
    yield CSV_HEADER + "\n"
    block_columns = (rows.block_eps, rows.block_t_min, rows.block_delta_t, rows.block_t_mean,
                     rows.block_attenuation)
    cells = [_cells(x, fmt) for x in block_columns]
    shared = digits.cells(list(map(",".join, zip(*cells))))
    _, first, v_index = np.unique(rows.v.view(np.int64), return_index=True, return_inverse=True)
    v_cells = digits.cells(["" if math.isnan(v) else fmt(v) for v in rows.v[first].tolist()])
    columns = (rows.mutual_info, rows.holevo, rows.rate)
    failed = sorted(rows.errors)
    for approach, group in itertools.groupby(rows.blocks, key=itemgetter(0)):
        group = list(group)
        for start in range(group[0][4], group[-1][5], CSV_ROWS):
            stop = min(start + CSV_ROWS, group[-1][5])
            m, v = stop - start, np.take(v_cells, v_index[start:stop], axis=0)
            values = np.concatenate([c[start:stop] for c in columns])
            mi, holevo, rate = digits.g17(values).reshape(3, m, -1)
            block_cells = np.take(shared, rows.row_block[start:stop], axis=0)
            head = digits.side_by_side([f"{approach},", v, ",", block_cells], m)
            v_opt = [v] if approach in rows.optimized else []
            parts = [head, ",", mi, ",", holevo, ",", rate, ",", *v_opt, ",\n"]
            matrix = digits.side_by_side(parts, m)
            pieces, at = [], 0
            for i in failed[bisect.bisect_left(failed, start) : bisect.bisect_left(failed, stop)]:
                error = f",,,,,{csv_text(rows.errors[i])}\n"  # after the row's head cells
                pieces += [matrix[at : i - start], head[i - start], error]
                at = i - start + 1
            pieces.append(matrix[at:])
            yield "".join(p if isinstance(p, str) else digits.text(p) for p in pieces)


def _or_issue(make, *args):
    """(make(*args), "") or (None, the text of the DomainError it raised)."""
    try:
        return make(*args), ""
    except DomainError as exc:
        return None, str(exc)


class SkipLines:
    """A grid's skip lines, one per skipped V, kept as its blocks' (head,
    tail, skipped V cells) records; ``block_texts`` makes a block's lines as
    one string, when read."""

    def __init__(self, blocks):
        self.blocks = blocks

    def __len__(self) -> int:
        return sum(len(dropped) for _, _, dropped in self.blocks)

    def block_texts(self):
        """The lines with their line ends, one string per skipped block."""
        for head, tail, dropped in self.blocks:
            yield head + f"{tail}\n{head}".join(dropped) + tail + "\n"


def build_grid(cfg: SweepConfig) -> tuple[SweepRows, SkipLines]:
    """Expand the config into evaluation rows in deterministic declared order
    (approach, eps, delta_t, t_min, V), one block per (approach, eps, delta_t,
    t_min) that keeps a row; an optimize-v row's V is NaN.  Each law is made
    once, and checked once per approach (``_ROW_MODELS``): skipped with the
    DomainError of a check that refuses it, or kept with its columns.  The
    large-V closed form also skips every V up to its validity floor.  Each V
    cell of a skip line is made once; the lines only as they are written."""
    blocks, laws, columns, v_column, skipped = [], [], [], [], []
    v_given = cfg.v_list, [fmt(v) for v in cfg.v_list]  # the V slots and their cells
    grid = [[_or_issue(FadingUniform, t, d) for t in cfg.t_min_values] for d in cfg.delta_t_list]
    for approach in cfg.approaches:
        check = _ROW_MODELS[approach][0]  # f is None where the law failed, and issue its error
        admitted = [[(f, *_or_issue(check, f)) if f else (f, None, issue) for f, issue in row]
                    for row in grid]
        slots, cells = ((math.nan,), ["opt"]) if approach in cfg.optimize_v else v_given
        head = f"skip approach={approach} V="
        for eps in cfg.eps_list:
            for delta_t, grid_row in zip(cfg.delta_t_list, admitted):
                for t_min, (f, law_cols, issue) in zip(cfg.t_min_values, grid_row):
                    v_floor = 0.0  # SweepConfig ensures V >= 1
                    if approach == "hba_asymptotic" and not issue:
                        v_floor = holevo_asymptotic_regime_floor(eps, f)
                    kept = () if issue else [v for v in slots if not v <= v_floor]  # NaN is kept
                    dropped = cells if issue else [c for v, c in zip(slots, cells) if v <= v_floor]
                    if kept:
                        start = len(v_column)
                        v_column += kept
                        blocks.append((approach, eps, t_min, delta_t, start, len(v_column)))
                        laws.append(f)
                        columns.append(law_cols)
                    if dropped:
                        issue = issue or f"V below the large-V validity floor {v_floor:.6g}"
                        tail = f" eps={eps!r} t_min={t_min!r} delta_t={delta_t!r}: {issue}"
                        skipped.append((head, tail, dropped))
    optimized = frozenset(cfg.optimize_v)
    return SweepRows(blocks, v_column, laws, columns, optimized), SkipLines(skipped)


def run_sweep(cfg: SweepConfig) -> tuple[SweepRows, int]:
    """Evaluate the whole grid, one ``run_points`` call per approach on the
    indices of its blocks, which fills the rows' columns in place (an
    optimize-v row first gets its V from ``optimal_variance``), and write the
    CSV/SVG artifacts.  Every row gets the values or the error ``run_point``
    gives it.  The skip lines go to stderr a block at a time, the CSV and
    each SVG to their files a piece at a time: no output is held whole.
    Returns (rows, n_error_rows)."""
    rows, skipped = build_grid(cfg)
    sys.stderr.writelines(skipped.block_texts())
    v, errors = rows.v, rows.errors
    for (approach, eps, *_, start, _), f in zip(rows.blocks, rows.laws):
        if approach in rows.optimized:  # one row per block
            try:
                v[start], _ = optimal_variance(eps, f, cfg.v_lo, cfg.v_hi)
            except (DomainError, NumericalError) as exc:
                errors[start] = f"{type(exc).__name__}: {exc}"
    by_approach = itertools.groupby(range(len(rows.blocks)), key=lambda b: rows.blocks[b][0])
    for approach, blocks in by_approach:
        for i, exc in run_points(rows, approach, list(blocks)).items():
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
    blocks, row_block = rows.blocks, rows.row_block
    eps, t_min, delta_t = rows.block_eps, rows.block_t_min, rows.block_delta_t
    ys = getattr(rows, _Y_ATTRS[column])
    if not log_y:
        ys = np.maximum(ys, 0.0)  # SVG never plots negative rates
    # a row's label is its block's template filled with its V label
    if axis == "variance":
        xs, v_key, v_labels = rows.v, np.zeros(len(rows), dtype=np.intp), [""]
    else:
        xs = (
            t_min if axis == "t_min" else rows.block_t_mean if axis == "t_mean"
            else rows.block_attenuation
        )[row_block]
        names = {"V=opt ": 0}
        v_key = _cells(rows.v, lambda v: names.setdefault(f"V={v:g} ", len(names))).astype(np.intp)
        v_key[np.array([b[0] in rows.optimized for b in blocks], dtype=bool)[row_block]] = 0
        v_labels = list(names)
    parts = [(" {}eps=", eps), (" dT=", delta_t)] + [(" t_min=", t_min)] * (axis == "variance")
    template = np.array([b[0] for b in blocks], dtype=object)
    for part, x in parts:
        template += part + _cells(x, "{:g}".format)
    templates = {}
    block_key = [templates.setdefault(t, len(templates)) for t in template.tolist()]
    key = np.array(block_key, dtype=np.intp)[row_block] * len(v_labels) + v_key
    index = np.delete(np.arange(len(rows)), list(rows.errors))
    keys, first, curve = np.unique(key[index], return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    curve = np.argsort(by_first)[curve]  # curves numbered in the order of their first row
    index = index[np.argsort(curve, kind="stable")]
    xs, ys, stops = xs[index], ys[index], np.cumsum(np.bincount(curve)).tolist()
    template_of, m = list(templates), len(v_labels)
    labels = [template_of[k // m].format(v_labels[k % m]) for k in keys[by_first].tolist()]
    return [(label, xs[a:b], ys[a:b]) for label, a, b in zip(labels, [0, *stops], stops)]


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
    lo: float = THRESHOLD_LO,
    hi: float | None = None,
    tol: float = THRESHOLD_TOL,
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
        if not (0.0 < lo < hi and 2 <= n <= AXIS_POINTS):
            raise DomainError(f"bad logspace spec {text!r} (lo < hi, 2 to {AXIS_POINTS} points)")
        return tuple(log_grid(lo, hi, n))
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
        if not (start <= stop and 0.0 < step < math.inf and (stop - start) / step <= AXIS_POINTS):
            raise DomainError(f"bad t_min range {text!r} (finite, at most {AXIS_POINTS} points)")
        n = int(round((stop - start) / step))
        values = [start + k * step for k in range(n + 1)]
        return tuple(v for v in values if v <= stop + 1e-9 * step)
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
    "csv": ("csv_path", lambda text: text or None),  # an empty path is no path
    "svg": ("svg_path", lambda text: text or None),
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


def _config_file(path: str | None) -> str | None:
    """The text of a ``sweep --config`` file, or None without one."""
    if not path:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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
    """argparse exits 2 on usage errors; remap to the invalid-arguments code.
    A comma list of numbers starting with a minus sign, which argparse takes
    for a flag, is joined to a flag taking a value just before it: ``--eps
    -0.0,0.01`` is read as ``--eps=-0.0,0.01``."""

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        for i in range(len(args) - 1, 0, -1):
            action = self._option_string_actions.get(args[i - 1])
            if action and action.nargs is None and args[i].startswith("-"):
                with contextlib.suppress(ValueError):  # not all numbers: left as it is
                    [*map(float, args[i].split(","))]
                    args[i - 1 : i + 1] = [f"{args[i - 1]}={args[i]}"]
        return super().parse_known_args(args, namespace)

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
    p_point.set_defaults(run=cmd_point)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from config/flags")
    p_sweep.add_argument("--config", help="flat key=value config file")
    _add_sweep_override_flags(p_sweep)
    p_sweep.set_defaults(run=lambda args: cmd_sweep(args, _config_file(args.config)))

    p_preset = sub.add_parser("preset", help="run a packaged sweep preset")
    p_preset.add_argument("name", choices=("fig2", "fig3", "fig45"))
    _add_sweep_override_flags(p_preset)
    p_preset.set_defaults(run=lambda args: cmd_sweep(args, load_preset(args.name)))

    p_opt = sub.add_parser("optimize-v", help="optimal modulation variance (averaged-state model)")
    p_opt.add_argument("--eps", type=float, required=True)
    p_opt.add_argument("--t-min", type=float, required=True)
    p_opt.add_argument("--delta-t", type=float, default=0.0)
    p_opt.add_argument("--v-lo", type=float, default=V_LO)
    p_opt.add_argument("--v-hi", type=float, default=V_HI)
    p_opt.set_defaults(run=cmd_optimize)

    p_thr = sub.add_parser("threshold", help="t_min where the rate crosses zero")
    p_thr.add_argument("--approach", required=True, choices=APPROACHES)
    p_thr.add_argument("--v", type=float, required=True)
    p_thr.add_argument("--eps", type=float, required=True)
    p_thr.add_argument("--delta-t", type=float, default=0.0)
    p_thr.add_argument("--lo", type=float, default=THRESHOLD_LO)
    p_thr.add_argument("--hi", type=float, default=None)
    p_thr.add_argument("--tol", type=float, default=THRESHOLD_TOL)
    p_thr.set_defaults(run=cmd_threshold)

    p_mc = sub.add_parser("mc-validate", help="sampling check of the averaged covariance")
    p_mc.add_argument("--v", type=float, required=True)
    p_mc.add_argument("--eps", type=float, required=True)
    p_mc.add_argument("--t-min", type=float, required=True)
    p_mc.add_argument("--delta-t", type=float, default=0.0)
    p_mc.add_argument("--n", type=int, default=1_000_000)
    p_mc.add_argument("--seed", type=int, default=20240)
    p_mc.set_defaults(run=cmd_mc_validate)
    return parser


def cmd_point(args: argparse.Namespace) -> int:
    f = FadingUniform(args.t_min, args.delta_t)
    out = run_point(args.approach, args.v, args.eps, f)
    rows = SweepRows([(args.approach, args.eps, args.t_min, args.delta_t, 0, 1)], [args.v], [f])
    rows.values[:, 0] = out.mutual_info, out.holevo, out.rate
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
    # the band's floor, the rounding of an n-term mean: (ceil(log2 n) + 4) ulp
    # of the closed form; for var_sqrt_t mean_sqrt_t's squared, at least 5e-324
    ulps = math.ceil(math.log2(args.n)) + 4
    sqrt_floor = ulps * math.ulp(rows[0][2])
    all_ok = True
    for name, emp, ref, se in rows:
        dev = abs(emp - ref)
        floor = sqrt_floor * sqrt_floor if name == "var_sqrt_t" else ulps * math.ulp(ref)
        n_sigma = dev / max(se, floor, math.ulp(0.0))
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
        return args.run(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
