"""Command-line front end: point evaluations, parameter sweeps, variance
optimization, positivity thresholds and Monte-Carlo validation.

Subcommands: ``point``, ``sweep``, ``optimize-v``, ``threshold``,
``mc-validate``, ``preset``.  Sweeps read flat key=value config files
(``sweep --config``); the packaged presets ``fig2``, ``fig3`` and ``fig45``
are such files and every key can be overridden by the command-line flag of
the same name (flags win).  Sweeps run serially in declared order; the
``jobs`` key and ``--jobs`` flag are still accepted (>= 1) but have no effect.

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
import math
import sys
from dataclasses import dataclass
from importlib import resources

from .channel import ChannelParams, SkrBreakdown, skr_fixed
from .cma import avg_covariance, moments_uniform, optimal_variance, skr_cma
from .errors import DomainError, NumericalError
from .hba import (
    FadingUniform,
    holevo_asymptotic_regime_floor,
    skr_hba_asymptotic,
    skr_hba_exact,
)
from .montecarlo import SampleConfig, empirical_moments, moment_standard_errors
from .svgplot import write_line_plot

APPROACHES = ("fixed", "hba_exact", "hba_asymptotic", "cma")
X_AXES = ("t_min", "t_mean", "attenuation_db", "variance")
Y_COLUMNS = ("rate_bits", "mutual_info_bits", "holevo_bits")

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


def fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


def csv_text(text: str) -> str:
    """A text cell quoted per RFC 4180: only when it holds a comma, a double
    quote or a line break, with inner quotes doubled."""
    if any(c in text for c in ',"\r\n'):
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


@dataclass
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

    def csv_line(self) -> str:
        return ",".join(
            [
                self.approach,
                fmt(self.v),
                fmt(self.eps),
                fmt(self.t_min),
                fmt(self.delta_t),
                fmt(self.t_mean),
                fmt(attenuation_db(self.t_min)),
                fmt(self.mutual_info),
                fmt(self.holevo),
                fmt(self.rate),
                fmt(self.v_opt),
                csv_text(self.error),
            ]
        )

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

    def y_value(self, column: str) -> float | None:
        return {
            "rate_bits": self.rate,
            "mutual_info_bits": self.mutual_info,
            "holevo_bits": self.holevo,
        }[column]


def build_grid(cfg: SweepConfig) -> tuple[list[SweepRow], list[str]]:
    """Expand the config into evaluation rows in deterministic declared order
    (approach, eps, delta_t, t_min, V).  Combinations outside the target
    model's domain are skipped with the model's own DomainError message; the
    large-V closed form also skips every V up to its validity floor."""
    rows: list[SweepRow] = []
    skipped: list[str] = []
    for approach in cfg.approaches:
        v_slots = (None,) if approach in cfg.optimize_v else cfg.v_list
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
                    for v in v_slots:
                        issue = domain_issue
                        if issue is None and v is not None and v <= v_floor:
                            issue = f"V below the large-V validity floor {v_floor:.6g}"
                        if issue is not None:
                            skipped.append(
                                f"skip approach={approach} V={'opt' if v is None else fmt(v)} "
                                f"eps={eps:g} t_min={t_min:g} delta_t={delta_t:g}: {issue}"
                            )
                            continue
                        rows.append(SweepRow(approach, v, eps, t_min, delta_t))
    return rows, skipped


def run_sweep(cfg: SweepConfig) -> tuple[list[SweepRow], int]:
    """Evaluate the whole grid serially, in declared order, and write the
    CSV/SVG artifacts.  ``cfg.jobs`` has no effect.  Returns
    (rows, n_error_rows)."""
    rows, skipped = build_grid(cfg)
    for line in skipped:
        print(line, file=sys.stderr)
    n_errors = 0
    for row in rows:
        try:
            f = FadingUniform(row.t_min, row.delta_t)
            v = row.v
            if v is None:
                v, _ = optimal_variance(row.eps, f, cfg.v_lo, cfg.v_hi)
            out = run_point(row.approach, v, row.eps, f)
        except (DomainError, NumericalError) as exc:
            row.error = f"{type(exc).__name__}: {exc}"
            n_errors += 1
            continue
        if row.v is None:
            row.v_opt = v
        row.v, row.mutual_info, row.holevo, row.rate = v, out.mutual_info, out.holevo, out.rate

    if cfg.csv_path:
        write_csv(cfg.csv_path, rows)
    if cfg.svg_path:
        write_sweep_svgs(cfg, rows)
    return rows, n_errors


def write_csv(path: str, rows: list[SweepRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_line() + "\n")


def _series_for(cfg: SweepConfig, rows: list[SweepRow], axis: str, column: str):
    series: dict[tuple, list[tuple[float, float]]] = {}
    for row in rows:
        if row.error:
            continue
        y = row.y_value(column)
        if y is None:
            continue
        if not cfg.log_y:
            y = max(y, 0.0)  # SVG never plots negative rates
        if axis == "variance":
            key = (row.approach, f"eps={row.eps:g}", f"dT={row.delta_t:g}", f"t_min={row.t_min:g}")
        else:
            v_label = "V=opt" if row.v_opt is not None else f"V={row.v:g}"
            key = (row.approach, v_label, f"eps={row.eps:g}", f"dT={row.delta_t:g}")
        series.setdefault(key, []).append((row.x_value(axis), y))
    return [(" ".join(key), pts) for key, pts in series.items()]


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
    otherwise a NumericalError is raised ("no sign change").
    """
    if hi is None:
        hi = 1.0 - delta_t
        if approach == "hba_asymptotic":
            hi -= 1e-9
    if not 0.0 < lo < hi:
        raise DomainError(f"invalid bracket [{lo!r}, {hi!r}]")

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


def build_parser() -> argparse.ArgumentParser:
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
    print(CSV_HEADER)
    print(row.csv_line())
    return 0


def cmd_sweep(args: argparse.Namespace, config_text: str | None) -> int:
    cfg = sweep_config_from_sources(config_text, _collect_overrides(args))
    rows, n_errors = run_sweep(cfg)
    if cfg.csv_path is None:
        print(CSV_HEADER)
        for row in rows:
            print(row.csv_line())
    else:
        print(f"wrote {len(rows)} rows to {cfg.csv_path}", file=sys.stderr)
    if n_errors:
        print(f"{n_errors} grid points failed; see the error column", file=sys.stderr)
        return 3
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    f = FadingUniform(args.t_min, args.delta_t)
    v_opt, rate_opt = optimal_variance(args.eps, f, args.v_lo, args.v_hi)
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
    cfg = SampleConfig(args.n, args.seed)
    print("quantity,empirical,closed_form,abs_dev,std_err,n_sigma,within_5_sigma")
    all_ok = True
    for name, emp, ref, se in mc_validate_rows(args.v, args.eps, f, cfg):
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
