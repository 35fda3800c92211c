"""Command-line front end: point evaluations, parameter sweeps, variance
optimization, positivity thresholds and Monte-Carlo validation.

Subcommands: ``point``, ``sweep``, ``optimize-v``, ``threshold``,
``mc-validate``, ``preset``.  Sweeps read flat key=value config files
(``sweep --config``); the packaged presets ``fig2``, ``fig3`` and ``fig45``
are such files and every key can be overridden by the command-line flag of
the same name (flags win).  Sweeps run serially; the ``jobs`` key and
``--jobs`` flag are still accepted (>= 1) but have no effect.  A sweep
evaluates each approach's rows with ``run_points`` as one array each, with
what a block of rows (one approach, eps, delta_t and t_min; only V varies)
has in common computed once; ``hba_exact`` rows in chunks of
Gauss-Legendre node matrices.  Every value, and so every output byte, is
the one ``run_point`` gives for that row.

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
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter

import numpy as np

from .channel import ChannelParams, SkrBreakdown, derive_chi, skr_fixed, skr_fixed_rows
from .cma import V_TOL, avg_covariance, cma_block, optimal_variance, skr_cma, skr_cma_rows
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


def run_points(approach, v, eps, t_min, delta_t):
    """Evaluate the points (v[i], eps[i], t_min[i], delta_t[i]) of one
    approach, each with the values ``run_point`` gives for it.

    Returns (mutual_info, holevo, rate) as lists of floats and {index:
    exception} for the points whose evaluation raised; the values at those
    points are meaningless.  The points are evaluated as one array: a
    block (a run of points with equal eps, t_min and delta_t) gets its
    shared values once from the scalar code, repeated over its points.  A
    point the array cannot vouch for (its block's scalar code raised, V or
    eps is out of range, a value fails a check the scalar path makes, or an
    ``hba_exact`` point needs adaptive Simpson or has delta_t = 0) goes
    through ``run_point``, so it gets the scalar path's value or exception.
    """
    n = len(v)
    values = np.full((3, n), np.nan)
    scalar = range(n)
    model = _ROW_MODELS.get(approach)
    if model is not None and n:
        block_columns, kernel = model
        va, ea, ta, da = (np.array(x, dtype=float) for x in (v, eps, t_min, delta_t))
        starts = np.flatnonzero(
            np.r_[True, (ea[1:] != ea[:-1]) | (ta[1:] != ta[:-1]) | (da[1:] != da[:-1])]
        )
        counts = np.diff(np.r_[starts, n])
        table, good = [], np.zeros(starts.size, dtype=bool)
        for k, i in enumerate(starts.tolist()):
            try:
                table.append(block_columns(eps[i], FadingUniform(t_min[i], delta_t[i])))
            except (DomainError, NumericalError):
                continue
            good[k] = True
        in_good = np.repeat(good, counts)
        valid = (va >= 1.0) & (va < math.inf) & (ea >= 0.0) & (ea < math.inf)
        todo = np.flatnonzero(in_good & valid)
        if todo.size:
            columns = np.repeat(np.array(table), counts[good], axis=0)[valid[in_good]]
            with np.errstate(all="ignore"):
                mi, holevo, ok = kernel(va[todo], *columns.T)
            done = todo[ok]
            values[0, done], values[1, done] = mi[ok], holevo[ok]
            values[2] = values[0] - values[1]
            pending = np.ones(n, dtype=bool)
            pending[done] = False
            scalar = np.flatnonzero(pending).tolist()
    mutual_info, holevo, rate = values.tolist()
    failed = {}
    for i in scalar:
        try:
            out = run_point(approach, v[i], eps[i], FadingUniform(t_min[i], delta_t[i]))
        except (DomainError, NumericalError) as exc:
            failed[i] = exc
        else:
            mutual_info[i], holevo[i], rate[i] = out.mutual_info, out.holevo, out.rate
    return mutual_info, holevo, rate, failed


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
    jobs: int = 1  # accepted for existing configs and callers; has no effect

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
        if self.jobs < 1:
            raise DomainError(f"jobs must be >= 1, got {self.jobs!r}")
        if not 1.0 <= self.v_lo < self.v_hi:
            raise DomainError(f"need 1 <= v_lo < v_hi, got [{self.v_lo!r}, {self.v_hi!r}]")


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

    def x_value(self, axis: str) -> float:
        if axis == "t_min":
            return self.t_min
        if axis == "t_mean":
            return self.t_mean
        if axis == "attenuation_db":
            return attenuation_db(self.t_min)
        if axis == "variance":
            return self.v if self.v is not None else math.nan
        raise DomainError(f"unknown x axis {axis!r}")


def _blocks(rows: list[SweepRow]):
    """Runs of consecutive rows of one block: the same approach and the very
    same eps, delta_t and t_min objects, as ``build_grid`` hands every row of
    a block.  Identity, not equality, so 0.0 and -0.0 never share cells."""
    block: list[SweepRow] = []
    for row in rows:
        if block:
            head = block[0]
            if not (
                row.t_min is head.t_min
                and row.eps is head.eps
                and row.delta_t is head.delta_t
                and row.approach == head.approach
            ):
                yield block
                block = []
        block.append(row)
    if block:
        yield block


def csv_lines(rows: list[SweepRow]):
    """The CSV line of every row, without line end: the one formatter of the
    schema.  The five cells a block shares (eps, t_min, delta_t, t_mean,
    attenuation_db) are formatted once per block, each V cell once per value
    (V >= 1, so no -0.0 shares a cell with 0.0)."""
    v_cells: dict[float | None, str] = {}
    for block in _blocks(rows):
        head = block[0]
        shared = ",".join(
            [
                fmt(head.eps),
                fmt(head.t_min),
                fmt(head.delta_t),
                fmt(head.t_mean),
                fmt(attenuation_db(head.t_min)),
            ]
        )
        for row in block:
            v_cell = v_cells.get(row.v)
            if v_cell is None:
                v_cell = v_cells[row.v] = fmt(row.v)
            yield (
                f"{row.approach},{v_cell},{shared},{fmt(row.mutual_info)},"
                f"{fmt(row.holevo)},{fmt(row.rate)},{fmt(row.v_opt)},{csv_text(row.error)}"
            )


def build_grid(cfg: SweepConfig) -> tuple[list[SweepRow], list[str]]:
    """Expand the config into evaluation rows in deterministic declared order
    (approach, eps, delta_t, t_min, V).  Combinations outside the target
    model's domain are skipped with the model's own DomainError message; the
    large-V closed form also skips every V up to its validity floor.  A skip
    line's head and tail are formatted once per block, each V cell once per
    value (V >= 1, so no -0.0 shares a cell with 0.0)."""
    rows: list[SweepRow] = []
    skipped: list[str] = []
    v_cells: dict[float | None, str] = {None: "opt"}
    for approach in cfg.approaches:
        v_slots = (None,) if approach in cfg.optimize_v else cfg.v_list
        head = f"skip approach={approach} V="
        for eps in cfg.eps_list:
            for delta_t in cfg.delta_t_list:
                for t_min in cfg.t_min_values:
                    domain_issue, v_floor = None, 0.0  # SweepConfig ensures V >= 1
                    try:
                        f = FadingUniform(t_min, delta_t)
                        if approach == "fixed":
                            _require_point_mass(f)
                        elif approach == "hba_asymptotic":
                            v_floor = holevo_asymptotic_regime_floor(eps, f)
                    except DomainError as exc:
                        domain_issue = str(exc)
                    tail = None
                    for v in v_slots:
                        if domain_issue is None and (v is None or not v <= v_floor):
                            rows.append(SweepRow(approach, v, eps, t_min, delta_t))
                            continue
                        if tail is None:
                            issue = domain_issue
                            if issue is None:
                                issue = f"V below the large-V validity floor {v_floor:.6g}"
                            tail = f" eps={eps:g} t_min={t_min:g} delta_t={delta_t:g}: {issue}"
                        v_cell = v_cells.get(v)
                        if v_cell is None:
                            v_cell = v_cells[v] = fmt(v)
                        skipped.append(head + v_cell + tail)
    return rows, skipped


def run_sweep(cfg: SweepConfig) -> tuple[list[SweepRow], int]:
    """Evaluate the whole grid, one ``run_points`` call per approach (an
    optimize-v row first gets its V from ``optimal_variance``), and write the
    CSV/SVG artifacts.  Every row gets the values or the error ``run_point``
    gives it.  ``cfg.jobs`` has no effect.  Returns (rows, n_error_rows)."""
    rows, skipped = build_grid(cfg)
    sys.stderr.writelines(f"{line}\n" for line in skipped)
    n_errors = 0
    for row in [row for row in rows if row.v is None]:
        try:
            f = FadingUniform(row.t_min, row.delta_t)
            row.v, _ = optimal_variance(row.eps, f, cfg.v_lo, cfg.v_hi)
        except (DomainError, NumericalError) as exc:
            row.error = f"{type(exc).__name__}: {exc}"
            n_errors += 1
        else:
            row.v_opt = row.v
    for approach, run in itertools.groupby(rows, key=attrgetter("approach")):
        group = [row for row in run if not row.error]
        mutual_info, holevo, rate, failed = run_points(
            approach,
            [row.v for row in group],
            [row.eps for row in group],
            [row.t_min for row in group],
            [row.delta_t for row in group],
        )
        for row, mi, hol, r in zip(group, mutual_info, holevo, rate):
            row.mutual_info, row.holevo, row.rate = mi, hol, r
        for i, exc in failed.items():
            row = group[i]
            row.error = f"{type(exc).__name__}: {exc}"
            row.mutual_info = row.holevo = row.rate = None
            if row.v_opt is not None:  # an optimize-v row keeps empty V cells
                row.v = row.v_opt = None
        n_errors += len(failed)

    if cfg.csv_path:
        write_csv(cfg.csv_path, rows)
    if cfg.svg_path:
        write_sweep_svgs(cfg, rows)
    return rows, n_errors


def write_csv(path: str, rows: list[SweepRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for line in csv_lines(rows):
            fh.write(line + "\n")


def _print_csv(rows: list[SweepRow]) -> None:
    print(CSV_HEADER)
    for line in csv_lines(rows):
        print(line)


def _series_for(cfg: SweepConfig, rows: list[SweepRow], axis: str, column: str):
    """(name, points) of every plotted curve, built block by block: on the
    variance axis a curve is one block; on the others one (approach, V, eps,
    delta_t) across t_min, its x value shared by the block."""
    attr = _Y_ATTRS[column]
    series: dict[str, list[tuple[float, float]]] = {}
    for block in _blocks(rows):
        head = block[0]
        tail = f"eps={head.eps:g} dT={head.delta_t:g}"
        if axis == "variance":
            name = f"{head.approach} {tail} t_min={head.t_min:g}"
        else:
            x = head.x_value(axis)
        for row in block:
            y = getattr(row, attr)
            if row.error or y is None:
                continue
            if not cfg.log_y:
                y = max(y, 0.0)  # SVG never plots negative rates
            if axis == "variance":
                series.setdefault(name, []).append((row.v, y))
            else:
                v_label = "V=opt" if row.v_opt is not None else f"V={row.v:g}"
                series.setdefault(f"{head.approach} {v_label} {tail}", []).append((x, y))
    return list(series.items())


def write_sweep_svgs(cfg: SweepConfig, rows: list[SweepRow]) -> None:
    """One SVG per (x_axis, y_column) pair; suffixed when there are several."""
    base = cfg.svg_path
    assert base is not None
    stem = base[:-4] if base.endswith(".svg") else base
    multi = len(cfg.x_axes) * len(cfg.y_columns) > 1
    for axis in cfg.x_axes:
        for column in cfg.y_columns:
            series = _series_for(cfg, rows, axis, column)
            if not series:
                continue
            path = f"{stem}_{axis}_{column}.svg" if multi else f"{stem}.svg"
            write_line_plot(
                path,
                series,
                x_label=axis,
                y_label=column,
                title=cfg.title,
                log_y=cfg.log_y,
            )


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
    """Smallest t_min with non-negative rate, by bisection of rate(t_min) = 0.

    Returns (t_min_threshold, threshold_in_dB).  The rate must be monotone
    over the bracket (checked by sampling) and change sign across it;
    otherwise a NumericalError is raised ("no sign change").  Bisection
    stops at b - a <= tol, or where no float lies between a and b.
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
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        if rate(mid) >= 0.0:
            b = mid
        else:
            a = mid
    t_star = 0.5 * (a + b)
    return t_star, attenuation_db(t_star)


# ---------------------------------------------------------------------------
# Monte-Carlo validation


def mc_validate_rows(
    v: float, eps: float, f: FadingUniform, cfg: SampleConfig
) -> list[tuple[str, float, float, float]]:
    """(quantity, empirical, closed_form, standard_error) rows for the report."""
    emp = empirical_moments(f, cfg)
    ref = moments_uniform(f)
    emp_cov = avg_covariance(emp, v, eps)
    ref_cov = avg_covariance(ref, v, eps)
    se_sqrt, se_t, se_var = moment_standard_errors(f, cfg.n_samples)
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
    "jobs": ("jobs", int),
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
    missing = [
        key
        for key, (field_name, _) in _SWEEP_KEYS.items()
        if field_name in ("approaches", "v_list", "eps_list", "t_min_values", "delta_t_list")
        and field_name not in kwargs
    ]
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
    f = FadingUniform(args.t_min, args.delta_t)
    out = run_point(args.approach, args.v, args.eps, f)
    row = SweepRow(args.approach, args.v, args.eps, args.t_min, args.delta_t)
    row.mutual_info, row.holevo, row.rate = out.mutual_info, out.holevo, out.rate
    _print_csv([row])
    return 0


def cmd_sweep(args: argparse.Namespace, config_text: str | None) -> int:
    cfg = sweep_config_from_sources(config_text, _collect_overrides(args))
    rows, n_errors = run_sweep(cfg)
    if cfg.csv_path is None:
        _print_csv(rows)
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
    print(
        ",".join(
            [fmt(args.eps), fmt(args.t_min), fmt(args.delta_t), fmt(v_opt), fmt(rate_opt)]
        )
    )
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    t_star, db = find_positive_threshold(
        args.approach, args.v, args.eps, args.delta_t, args.lo, args.hi, args.tol
    )
    print("approach,V,eps,delta_t,t_min_threshold,threshold_db")
    print(
        ",".join(
            [args.approach, fmt(args.v), fmt(args.eps), fmt(args.delta_t), fmt(t_star), fmt(db)]
        )
    )
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
        print(
            ",".join(
                [name, fmt(emp), fmt(ref), fmt(dev), fmt(se), f"{n_sigma:.3f}", str(ok).lower()]
            )
        )
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
