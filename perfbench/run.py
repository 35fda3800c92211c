"""Benchmark of the cvqkd_fading package, driven only through its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_quadrature --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for the parameter boxes):

* ``sweep_quadrature`` -- fig2-family ``cli.run_sweep`` dominated by the
  adaptive quadrature of ``hba_exact``;
* ``sweep_closed_form`` -- fig3/fig45-family ``cli.run_sweep`` with no
  quadrature, where the sweep driver is about half of the time;
* ``queries`` -- one client in a closed loop calling ``cli.main`` with
  ``optimize-v``, ``threshold`` and ``mc-validate``.

With ``--trace 0`` the run measures for ``--seconds`` seconds with nothing
wrapped and reports the end-to-end metrics, the same four on every workload:

* ``throughput_per_s`` -- sweep rows evaluated and written per second of
  ``run_sweep`` time, or CLI calls answered per second;
* ``latency_p50_ms`` -- median time of one ``run_sweep`` of the grid, or of
  one query session (its three calls);
* ``peak_rss_mb`` -- peak resident memory up to the end of the timed region;
* ``setup_s`` -- median time of a fresh ``python -m cvqkd_fading.cli
  point ...`` answering, over several cold starts.

The three timings are rescaled to a reference machine speed (``speed.py``).
With ``--trace 1`` the run alternates untraced passes with passes in which
every layer is wrapped (``tracing.py``) and reports the per-layer metrics.
Either way every output is checked against an independent oracle
(``oracle.py``) outside the timed region; an error row, a non-zero exit or
a failed check counts in ``failed``.  The last line of standard output is
the result object.  The line before it is the run record: versions,
machine, seed, and the metrics as named per query kind (``rows_per_s``,
``optimize_v_p95_ms`` ...; ``_raw`` for unscaled times), the largest
deviation from the oracle and ``failed_fraction``, each with its sample
count.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_START_ARGS, REFERENCE_START_S, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep_quadrature", "sweep_closed_form", "queries")

# name -> unit; the same names and units as in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "numerics.integrate.calls": "count",
    "numerics.integrate.evals": "count",
    "numerics.integrate.evals_per_call": "count",
    "numerics.integrate.self_s": "s",
    "numerics.maximize_scalar.calls": "count",
    "numerics.maximize_scalar.evals": "count",
    "numerics.maximize_scalar.self_s": "s",
    "numerics.g_entropy.calls": "count",
    "numerics.dilog.calls": "count",
    "channel.holevo_fixed.calls": "count",
    "channel.holevo_fixed.self_s": "s",
    "channel.holevo_fixed.us_per_call": "us",
    "channel.skr_fixed.calls": "count",
    "channel.skr_fixed.self_s": "s",
    "hba.skr_hba_exact.calls": "count",
    "hba.skr_hba_exact.self_s": "s",
    "hba.skr_hba_asymptotic.calls": "count",
    "hba.skr_hba_asymptotic.self_s": "s",
    "cma.skr_cma.calls": "count",
    "cma.skr_cma.self_s": "s",
    "cma.optimal_variance.calls": "count",
    "cma.optimal_variance.self_s": "s",
    "montecarlo.empirical_moments.self_s": "s",
    "montecarlo.samples": "count",
    "cli.run_point.calls": "count",
    "cli.find_positive_threshold.bisection_steps": "count",
    "cli.build_grid.s": "s",
    "cli.write_csv.s": "s",
    "cli.write_csv.bytes": "bytes",
    "cli.skipped_rows": "count",
    "cli.error_rows": "count",
    "svgplot.write_line_plot.s": "s",
    "svgplot.write_line_plot.bytes": "bytes",
    "driver.share": "ratio",
    "import_s": "s",
    "cli.pool.speedup_jobs2": "ratio",
    "trace.overhead_ratio": "ratio",
}

COLD_START_REPEATS = 7
# the cold start answers one point query, as a user's first call would
COLD_START_ARGV = ["point", "--approach", "hba_exact", "--v", "10", "--eps", "0.01",
                   "--t-min", "0.4", "--delta-t", "0.2"]
SWEEP_SAMPLE_ROWS = 240  # sweep rows compared with the oracle per run
QUERY_SCAN_POINTS = 400  # variances in the dense scan that must not beat optimize-v
SCAN_TOL_BITS = 1e-7  # golden-section stops at |dV| = 1e-3, worth < 1e-7 bits here
TRACED_SESSIONS = 40  # query sessions repeated untraced and traced
THRESHOLD_TOL = 1e-5  # the CLI's default bisection tolerance


def load_package():
    """Import the package from this checkout's src/ and time the import."""
    if not (SRC / "cvqkd_fading" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import cvqkd_fading.cli

    import_s = time.perf_counter() - start
    package = sys.modules["cvqkd_fading"]
    if Path(package.__file__).resolve().parent != SRC / "cvqkd_fading":
        raise SystemExit(f"perfbench: imported {package.__file__}, not the checkout's package")
    return package, import_s


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values):
    return statistics.median(values) if values else math.nan


def p95(values):
    return statistics.quantiles(values, n=20)[18] if len(values) >= 2 else math.nan


def cold_start(tally: Tally) -> tuple[float, float]:
    """Fresh interpreters answering one CLI call: (median time rescaled to
    reference speed, median wall time).

    Each program start follows a start of the same interpreter that only
    imports numpy; the ratio of the two, times ``REFERENCE_START_S``, is the
    rescaled time (see ``speed.py``).  One unmeasured pair fills the bytecode
    cache first, as an installed package has it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def timed(args):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        return proc, time.perf_counter() - start

    ratios, walls = [], []
    for attempt in range(COLD_START_REPEATS + 1):
        reference, reference_wall = timed(REFERENCE_START_ARGS)
        proc, wall = timed(["-m", "cvqkd_fading.cli", *COLD_START_ARGV])
        ok = proc.returncode == 0 and proc.stdout.count("\n") == 2 and reference.returncode == 0
        if not tally.check(ok, f"cold start exited {proc.returncode}: {proc.stderr[-200:]}"):
            continue
        if attempt:
            ratios.append(wall / reference_wall)
            walls.append(wall)
    return median(ratios) * REFERENCE_START_S, median(walls)


# ---------------------------------------------------------------------------
# sweeps


def sweep_config(cli, grid, out_dir: Path, jobs: int = 1):
    return cli.SweepConfig(
        **dataclasses.asdict(grid),
        csv_path=str(out_dir / f"sweep-jobs{jobs}.csv"),
        svg_path=str(out_dir / f"sweep-jobs{jobs}.svg"),
        jobs=jobs,
    )


def timed_sweep(cli, cfg):
    """One run_sweep; returns (rows, error rows, (start, end), CSV digest)."""
    gc.collect()
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        rows, n_errors = cli.run_sweep(cfg)
        end = time.perf_counter()
    digest = hashlib.sha256(Path(cfg.csv_path).read_bytes()).hexdigest()
    return rows, n_errors, (start, end), digest


class SweepPass:
    """One sweep of the grid per call, counting its rows as operations, its
    error rows as failures and checking it wrote the same CSV as the first."""

    def __init__(self, cli, cfg, tally: Tally) -> None:
        self.cli, self.cfg, self.tally = cli, cfg, tally
        self.digest = None

    def __call__(self):
        rows, n_errors, span, digest = timed_sweep(self.cli, self.cfg)
        self.tally.attempted += len(rows)
        self.tally.failures += [f"error row: {r.error}" for r in rows if r.error]
        if self.digest is None:
            self.digest = digest
        else:
            self.tally.check(digest == self.digest, "repeated sweep wrote a different CSV")
        return (rows, n_errors), span


def repeat(run_pass, seconds: float):
    """Run passes until the time is up; returns (first result, (start, end) of each)."""
    first, spans = None, []
    start = time.perf_counter()
    while not spans or time.perf_counter() - start < seconds:
        result, span = run_pass()
        spans.append(span)
        if first is None:
            first = result
        del result
    return first, spans


def alternate_traced(package, run_pass, seconds: float):
    """Alternate untraced and traced passes of the same work, at least two of
    each and then until the time is up, so both see the same machine state.

    Returns ({False: (first untraced result, None), True: (first traced
    result, its tracer)}, {False: untraced walls, True: traced walls})."""
    import tracing

    first, walls = {}, {False: [], True: []}
    start = time.perf_counter()
    while len(walls[True]) < 2 or time.perf_counter() - start < seconds:
        for traced in (False, True):
            tracer = tracing.Tracer() if traced else None
            if tracer:
                tracer.install(package)
            try:
                result, (pass_start, pass_end) = run_pass()
            finally:
                if tracer:
                    tracer.uninstall()
            walls[traced].append(pass_end - pass_start)
            first.setdefault(traced, (result, tracer))
            del result
    return first, walls


def check_sweep_rows(rows, cfg, seed: int, tally: Tally) -> float:
    """Compare a seeded sample of rows with the oracle; returns the largest
    rate deviation in bits.  Also checks the SVG files were written."""
    import numpy as np

    import oracle

    stem = cfg.svg_path[: -len(".svg")]
    for axis in cfg.x_axes:
        svg = Path(f"{stem}_{axis}_rate_bits.svg")
        tally.check(svg.is_file() and svg.stat().st_size > 0, f"missing plot {svg.name}")
    rng = np.random.default_rng([seed, 1 << 20])
    pick = rng.choice(len(rows), size=min(SWEEP_SAMPLE_ROWS, len(rows)), replace=False)
    worst = 0.0
    for i in sorted(pick):
        r = rows[i]
        if r.error:
            continue  # already counted as a failed operation
        mi, hol = oracle.MODELS[r.approach](r.v, r.eps, r.t_min, r.delta_t)
        dev = max(abs(r.mutual_info - mi), abs(r.holevo - hol))
        rate_dev = abs(r.rate - (mi - hol))
        worst = max(worst, rate_dev)
        tally.check(
            max(dev, rate_dev) <= oracle.RATE_TOL_BITS,
            f"{r.approach} V={r.v!r} eps={r.eps!r} t_min={r.t_min!r} dT={r.delta_t!r} "
            f"off the oracle by {max(dev, rate_dev):.3e} bits",
        )
    return worst


def sweep_workload(package, grid, args, out_dir: Path, tally: Tally):
    cli = package.cli
    cfg = sweep_config(cli, grid, out_dir)
    sweep_pass = SweepPass(cli, cfg, tally)
    if not args.trace:
        with SpeedProbe() as probe:
            (rows, _), spans = repeat(sweep_pass, args.seconds)
        peak_mb = peak_rss_mb()  # before the oracle allocates anything
        worst = check_sweep_rows(rows, cfg, args.seed, tally)
        walls = [end - start for start, end in spans]
        scaled = [probe.scaled(start, end) for start, end in spans]
        named = {
            "rows_per_s": (median([len(rows) / w for w in scaled]), len(scaled)),
            "rows_per_s_raw": (median([len(rows) / w for w in walls]), len(walls)),
            "sweep_p50_ms": (1e3 * median(scaled), len(scaled)),
            "sweep_p50_ms_raw": (1e3 * median(walls), len(walls)),
            "rows": (len(rows), 1),
            "rate_max_abs_err_bits": (worst, SWEEP_SAMPLE_ROWS),
            "speed_loop_p50_s": (median(probe.durations), len(probe.durations)),
        }
        metrics = {
            "throughput_per_s": named["rows_per_s"][0],
            "latency_p50_ms": named["sweep_p50_ms"][0],
            "peak_rss_mb": peak_mb,
        }
        return metrics, named

    first, walls = alternate_traced(package, sweep_pass, args.seconds / 2)
    (rows, _), _ = first[False]
    worst = check_sweep_rows(rows, cfg, args.seed, tally)
    (_, n_errors), tracer = first[True]
    del first, rows
    _, _, (pool_start, pool_end), pool_digest = timed_sweep(cli, sweep_config(cli, grid, out_dir, jobs=2))
    tally.check(pool_digest == sweep_pass.digest, "jobs=2 wrote a different CSV than jobs=1")
    layers = tracer.metrics()
    layers.update(
        {
            "cli.error_rows": n_errors,
            "cli.pool.speedup_jobs2": median(walls[False]) / (pool_end - pool_start),
            "trace.overhead_ratio": median(walls[True]) / median(walls[False]),
            "driver.share": 1.0 - tracer.model_s / walls[True][0],
        }
    )
    return layers, {"rate_max_abs_err_bits": (worst, SWEEP_SAMPLE_ROWS)}


# ---------------------------------------------------------------------------
# queries


def run_query(cli, argv):
    """One closed-loop CLI call; returns (exit code, stdout, start, end)."""
    out = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cli.main(argv)
        end = time.perf_counter()
    return code, out.getvalue(), start, end


def run_sessions(cli, stream, tally: Tally, seconds: float | None = None, count: int | None = None):
    """Run sessions until the time or the count is reached, counting each
    call as an operation and each non-zero exit as a failure.
    Returns [(session, [(kind, argv, code, stdout, start, end), ...]), ...]."""
    done = []
    start = time.perf_counter()
    for session in stream:
        if count is not None and len(done) >= count:
            break
        if seconds is not None and done and time.perf_counter() - start >= seconds:
            break
        calls = [(kind, argv, *run_query(cli, argv)) for kind, argv in session.argvs()]
        for _, argv, code, *_ in calls:
            tally.check(code == 0, f"{' '.join(argv)} exited {code}")
        done.append((session, calls))
    return done


def check_queries(done, tally: Tally) -> float:
    """Exit codes, optimize-v against a dense oracle scan, threshold brackets
    and mc-validate verdicts.  Returns the largest optimize-v rate deviation."""
    import numpy as np

    import oracle

    worst = 0.0
    for s, calls in done:
        for kind, argv, code, stdout, *_ in calls:
            if code != 0:
                continue  # already counted as a failed operation
            lines = stdout.strip().splitlines()
            if kind == "optimize_v":
                v_opt, rate_opt = (float(x) for x in lines[1].split(",")[3:5])
                mi, hol = oracle.cma(v_opt, s.eps, s.t_min, s.delta_t)
                worst = max(worst, abs(rate_opt - (mi - hol)))
                tally.check(
                    abs(rate_opt - (mi - hol)) <= oracle.RATE_TOL_BITS,
                    f"optimize-v rate {rate_opt!r} off the oracle {mi - hol!r}",
                )
                scan = oracle.cma_rate_scan(
                    np.geomspace(1.0 + 1e-6, 1e4, QUERY_SCAN_POINTS), s.eps, s.t_min, s.delta_t
                )
                tally.check(
                    float(scan.max()) <= rate_opt + SCAN_TOL_BITS,
                    f"optimize-v {rate_opt!r} beaten by the scan ({float(scan.max())!r})",
                )
            elif kind == "threshold":
                t_star, db = (float(x) for x in lines[1].split(",")[4:6])
                below = oracle.hba_exact(s.v, s.eps, t_star - THRESHOLD_TOL, s.delta_t)
                above = oracle.hba_exact(s.v, s.eps, t_star + THRESHOLD_TOL, s.delta_t)
                tally.check(
                    below[0] - below[1] < 0.0 <= above[0] - above[1]
                    and abs(db + 10.0 * math.log10(t_star)) <= 1e-9,
                    f"threshold {t_star!r} ({db!r} dB) does not bracket the sign change",
                )
            else:
                tally.check(
                    len(lines) == 6 and all(line.endswith(",true") for line in lines[1:]),
                    f"mc-validate output {stdout!r}",
                )
    return worst


def query_workload(package, args, tally: Tally):
    import workloads

    cli = package.cli
    if not args.trace:
        with SpeedProbe() as probe:
            done = run_sessions(cli, workloads.sessions(args.seed), tally, seconds=args.seconds)
        peak_mb = peak_rss_mb()  # before the oracle allocates anything
        worst = check_queries(done, tally)
        named = {}
        for suffix, seconds_of in (("", probe.scaled), ("_raw", lambda start, end: end - start)):
            sessions_s, by_kind = [], {}
            for _, calls in done:
                call_s = [(kind, seconds_of(start, end)) for kind, _, _, _, start, end in calls]
                sessions_s.append(sum(s for _, s in call_s))
                for kind, s in call_s:
                    by_kind.setdefault(kind, []).append(1e3 * s)
            named[f"queries_per_s{suffix}"] = (3 * len(done) / sum(sessions_s), 3 * len(done))
            named[f"session_p50_ms{suffix}"] = (1e3 * median(sessions_s), len(done))
            for kind, ms in by_kind.items():
                named[f"{kind}_p50_ms{suffix}"] = (median(ms), len(ms))
                named[f"{kind}_p95_ms{suffix}"] = (p95(ms), len(ms))
        named["rate_max_abs_err_bits"] = (worst, len(done))
        named["speed_loop_p50_s"] = (median(probe.durations), len(probe.durations))
        metrics = {
            "throughput_per_s": named["queries_per_s"][0],
            "latency_p50_ms": named["session_p50_ms"][0],
            "peak_rss_mb": peak_mb,
        }
        return metrics, named

    def query_pass():
        start = time.perf_counter()
        done = run_sessions(cli, workloads.sessions(args.seed), tally, count=TRACED_SESSIONS)
        return done, (start, time.perf_counter())

    first, walls = alternate_traced(package, query_pass, args.seconds / 2)
    done, _ = first[False]
    worst = check_queries(done, tally)
    _, tracer = first[True]
    layers = tracer.metrics()
    layers.update(
        {
            "cli.error_rows": 0,
            "cli.pool.speedup_jobs2": 0.0,  # no sweep on this workload: not measured
            "trace.overhead_ratio": median(walls[True]) / median(walls[False]),
            "driver.share": 1.0 - tracer.model_s / walls[True][0],
        }
    )
    return layers, {"rate_max_abs_err_bits": (worst, len(done))}


# ---------------------------------------------------------------------------
# run record


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, named: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "named": {k: {"value": v, "samples": n} for k, (v, n) in named.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package, import_s = load_package()
    import workloads

    tally = Tally()
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup = None if args.trace else cold_start(tally)
        if args.workload == "queries":
            metrics, named = query_workload(package, args, tally)
        else:
            grid = getattr(workloads, args.workload)(args.seed)
            metrics, named = sweep_workload(package, grid, args, out_dir, tally)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace:
        metrics["import_s"] = import_s
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics["setup_s"] = setup[0]
        named.update(
            setup_s=(setup[0], COLD_START_REPEATS),
            setup_s_raw=(setup[1], COLD_START_REPEATS),
            peak_rss_mb=(metrics["peak_rss_mb"], 1),
        )
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    named["failed_fraction"] = (len(tally.failures) / max(tally.attempted, 1), tally.attempted)

    for failure in tally.failures[:20]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": run_record(args, named)}))
    print(
        json.dumps(
            {
                "correct": not tally.failures,
                "attempted": max(tally.attempted, 1),
                "failed": len(tally.failures),
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
