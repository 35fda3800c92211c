"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces each public function at every module attribute a
caller looks it up by (``hba.integrate``, ``cma.holevo_fixed``,
``cli.write_csv`` ...) with a wrapper, and ``uninstall`` puts the originals
back.  Spans live in memory as per-name aggregates: calls, total time and
self time, where self time is a span's duration minus the time its child
spans cover (a stack of child-time accumulators does the subtraction).
``g_entropy`` and ``dilog`` cost about as much as a timing wrapper, so they
only get a call counter.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# (module, attribute, layer name); one layer may be looked up by several callers
SPANS = (
    ("hba", "integrate", "numerics.integrate"),
    ("cma", "maximize_scalar", "numerics.maximize_scalar"),
    ("channel", "holevo_fixed", "channel.holevo_fixed"),
    ("hba", "holevo_fixed", "channel.holevo_fixed"),
    ("cma", "holevo_fixed", "channel.holevo_fixed"),
    ("cli", "skr_fixed", "channel.skr_fixed"),
    ("cli", "skr_hba_exact", "hba.skr_hba_exact"),
    ("cli", "skr_hba_asymptotic", "hba.skr_hba_asymptotic"),
    ("cli", "skr_cma", "cma.skr_cma"),
    ("cma", "skr_cma", "cma.skr_cma"),
    ("cli", "optimal_variance", "cma.optimal_variance"),
    ("cli", "empirical_moments", "montecarlo.empirical_moments"),
    ("montecarlo", "empirical_moments", "montecarlo.empirical_moments"),
    ("montecarlo", "sample_transmittance", "montecarlo.sample_transmittance"),
    ("cli", "run_point", "cli.run_point"),
    ("cli", "find_positive_threshold", "cli.find_positive_threshold"),
    ("cli", "build_grid", "cli.build_grid"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "write_line_plot", "svgplot.write_line_plot"),
)
COUNTS = (
    ("channel", "g_entropy", "numerics.g_entropy"),
    ("hba", "g_entropy", "numerics.g_entropy"),
    ("hba", "dilog", "numerics.dilog"),
)
# the function-valued argument whose calls are counted as evaluations
EVALUATED_ARG = {"numerics.integrate": 0, "numerics.maximize_scalar": 0}
# the sweep driver and front end; every other traced layer is a model
DRIVER_LAYERS = ("cli.", "svgplot.")
# find_positive_threshold samples the rate at 9 points to check monotonicity
# before it starts bisecting; the remaining rate evaluations are steps
THRESHOLD_PRESCAN = 9


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)  # (parent, child) calls
        self.model_s = 0.0  # time in model layers entered from the CLI or the benchmark
        self._stack: list[list] = [[0.0, None]]  # [child seconds, span name] per open span
        self._saved: list[tuple[object, str, object]] = []
        counts = self.counts

        def file_bytes(key):
            def hook(args, _result):
                counts[key] += os.path.getsize(args[0])
            return hook

        def skipped(_args, result):
            counts["cli.skipped_rows"] += len(result[1])

        def samples(_args, result):
            counts["montecarlo.samples"] += len(result)

        # hooks that read work counters off a span's arguments or result
        self._after = {
            "cli.write_csv": file_bytes("cli.write_csv.bytes"),
            "svgplot.write_line_plot": file_bytes("svgplot.write_line_plot.bytes"),
            "cli.build_grid": skipped,
            "montecarlo.sample_transmittance": samples,
        }

    def _span(self, name: str, fn):
        stack, calls, edges = self._stack, self.calls, self.edges
        total_s, self_s = self.total_s, self.self_s
        counted = EVALUATED_ARG.get(name)
        after = self._after.get(name)
        is_model = not name.startswith(DRIVER_LAYERS)

        def wrapper(*args, **kwargs):
            if counted is not None:
                args = list(args)
                args[counted] = self._counting(f"{name}.evals", args[counted])
            parent = stack[-1][1]
            edges[parent, name] += 1
            frame = [0.0, name]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame[0]
                if is_model and (parent is None or parent.startswith(DRIVER_LAYERS)):
                    self.model_s += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counting(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced lookup site of ``package``'s modules."""
        originals = {}
        for module, attr, name in SPANS + COUNTS:
            mod = getattr(package, module)
            fn = getattr(mod, attr)
            originals.setdefault(name, fn)
            if originals[name] is not fn:
                raise RuntimeError(f"{module}.{attr} is not the function traced as {name}")
        for module, attr, name in SPANS:
            self._patch(getattr(package, module), attr, self._span(name, originals[name]))
        for module, attr, name in COUNTS:
            self._patch(getattr(package, module), attr, self._counting(f"{name}.calls", originals[name]))

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values keyed by the names in BENCHMARK.json."""
        c, s, n = self.counts, self.self_s, self.calls
        integrate_calls = n["numerics.integrate"]
        holevo_calls = n["channel.holevo_fixed"]
        threshold_calls = n["cli.find_positive_threshold"]
        return {
            "numerics.integrate.calls": integrate_calls,
            "numerics.integrate.evals": c["numerics.integrate.evals"],
            "numerics.integrate.evals_per_call": (
                c["numerics.integrate.evals"] / integrate_calls if integrate_calls else 0.0
            ),
            "numerics.integrate.self_s": s["numerics.integrate"],
            "numerics.maximize_scalar.calls": n["numerics.maximize_scalar"],
            "numerics.maximize_scalar.evals": c["numerics.maximize_scalar.evals"],
            "numerics.maximize_scalar.self_s": s["numerics.maximize_scalar"],
            "numerics.g_entropy.calls": c["numerics.g_entropy.calls"],
            "numerics.dilog.calls": c["numerics.dilog.calls"],
            "channel.holevo_fixed.calls": holevo_calls,
            "channel.holevo_fixed.self_s": s["channel.holevo_fixed"],
            "channel.holevo_fixed.us_per_call": (
                1e6 * self.total_s["channel.holevo_fixed"] / holevo_calls if holevo_calls else 0.0
            ),
            "channel.skr_fixed.calls": n["channel.skr_fixed"],
            "channel.skr_fixed.self_s": s["channel.skr_fixed"],
            "hba.skr_hba_exact.calls": n["hba.skr_hba_exact"],
            "hba.skr_hba_exact.self_s": s["hba.skr_hba_exact"],
            "hba.skr_hba_asymptotic.calls": n["hba.skr_hba_asymptotic"],
            "hba.skr_hba_asymptotic.self_s": s["hba.skr_hba_asymptotic"],
            "cma.skr_cma.calls": n["cma.skr_cma"],
            "cma.skr_cma.self_s": s["cma.skr_cma"],
            "cma.optimal_variance.calls": n["cma.optimal_variance"],
            "cma.optimal_variance.self_s": s["cma.optimal_variance"],
            "montecarlo.empirical_moments.self_s": s["montecarlo.empirical_moments"],
            "montecarlo.samples": c["montecarlo.samples"],
            "cli.run_point.calls": n["cli.run_point"],
            "cli.find_positive_threshold.bisection_steps": (
                self.edges["cli.find_positive_threshold", "cli.run_point"]
                - THRESHOLD_PRESCAN * threshold_calls
            ),
            "cli.build_grid.s": self.total_s["cli.build_grid"],
            "cli.write_csv.s": self.total_s["cli.write_csv"],
            "cli.write_csv.bytes": c["cli.write_csv.bytes"],
            "cli.skipped_rows": c["cli.skipped_rows"],
            "svgplot.write_line_plot.s": self.total_s["svgplot.write_line_plot"],
            "svgplot.write_line_plot.bytes": c["svgplot.write_line_plot.bytes"],
        }
