"""The benchmark's trace hooks still fit the package.

``perfbench/tracing.py`` wraps each public function at every module attribute
a caller looks it up by (``cma.holevo_fixed``, ``hba.integrate``,
``cli.write_csv`` ...).  ``Tracer.install`` raises when a site is gone or is
bound to a different function than the other sites of the same layer, so a
refactor that drops or rebinds a traced lookup fails here instead of
breaking ``perfbench/run.py --trace 1``.
"""

import ast
import importlib.util
from pathlib import Path

import cvqkd_fading
import cvqkd_fading.cli  # noqa: F401  (install looks modules up as package attributes)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
PACKAGE = Path(cvqkd_fading.__file__).resolve().parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_every_site():
    tracing = load_tracing()
    sites = tracing.SPANS + tracing.COUNTS
    before = {(m, a): getattr(getattr(cvqkd_fading, m), a) for m, a, _ in sites}
    tracer = tracing.Tracer()
    tracer.install(cvqkd_fading)
    try:
        for module, attr, _ in sites:
            assert getattr(getattr(cvqkd_fading, module), attr) is not before[module, attr]
        cvqkd_fading.cli.run_point("cma", 10.0, 0.01, cvqkd_fading.FadingUniform(0.4, 0.2))
        assert tracer.calls["cli.run_point"] == 1
        assert tracer.calls["cma.skr_cma"] == 1
        assert tracer.calls["channel.holevo_fixed"] == 1
        assert tracer.counts["numerics.g_entropy.calls"] == 3
    finally:
        tracer.uninstall()
    for module, attr, _ in sites:
        assert getattr(getattr(cvqkd_fading, module), attr) is before[module, attr]


def test_traced_sweep_counts_what_it_writes_and_skips(tmp_path, capsys):
    # perfbench/run.py --trace 1 reads the written bytes off the first
    # argument of write_csv and write_line_plot, and the skips off build_grid
    tracing = load_tracing()
    cfg = cvqkd_fading.cli.SweepConfig(
        ("hba_asymptotic", "cma"), (5.0, 1e3, 1e4), (0.0, 0.01), (0.2, 0.4), (0.0, 0.2),
        x_axes=("t_min", "variance"),
        csv_path=str(tmp_path / "sweep.csv"),
        svg_path=str(tmp_path / "sweep.svg"),
    )
    tracer = tracing.Tracer()
    tracer.install(cvqkd_fading)
    try:
        _, n_errors = cvqkd_fading.cli.run_sweep(cfg)
    finally:
        tracer.uninstall()
    skips = [line for line in capsys.readouterr().err.splitlines() if line.startswith("skip ")]
    plots = sorted(tmp_path.glob("sweep_*.svg"))
    metrics = tracer.metrics()
    assert n_errors == 0 and len(plots) == 2 and skips
    assert metrics["cli.write_csv.bytes"] == (tmp_path / "sweep.csv").stat().st_size
    assert metrics["svgplot.write_line_plot.bytes"] == sum(p.stat().st_size for p in plots)
    assert metrics["cli.skipped_rows"] == len(skips)


def test_traced_mc_validate_counts_its_samples(capsys):
    # the benchmark's montecarlo.samples sums len() of each block the
    # module's sample_transmittance returns, looked up by empirical_moments
    tracing = load_tracing()
    for n, blocks in ((20_000, 1), (150_001, 3)):
        tracer = tracing.Tracer()
        tracer.install(cvqkd_fading)
        try:
            code = cvqkd_fading.cli.main(
                ["mc-validate", "--v", "10", "--eps", "0.01", "--t-min", "0.3",
                 "--delta-t", "0.4", "--n", str(n)]
            )
        finally:
            tracer.uninstall()
        assert code == 0 and len(capsys.readouterr().out.splitlines()) == 6
        assert tracer.metrics()["montecarlo.samples"] == n
        assert tracer.calls["montecarlo.empirical_moments"] == 1
        assert tracer.calls["montecarlo.sample_transmittance"] == blocks, n


def test_every_unused_import_is_a_traced_site():
    # an import the module itself does not use is kept (noqa: F401) only
    # where the tracer looks a function up by it, so a dead import cannot
    # hide behind noqa; ``test_install_and_uninstall_restore_every_site``
    # fails where a traced one is dropped
    tracing = load_tracing()
    traced = {(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTS}
    exempt = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                exempt += [(path.stem, alias.asname or alias.name) for alias in node.names]
    assert exempt and not set(exempt) - traced, sorted(set(exempt) - traced)
