"""Seeded inputs of the three benchmark workloads.

Every value is drawn from the parameter box of one packaged preset family
(``src/cvqkd_fading/presets``) or from the CLI defaults, so the program sees
the kind of grid or argument list it was written for.  Only the benchmark
holds the seed; the package receives plain grid lists (``SweepConfig``) or
argv lists (``cli.main``).  No point is ever redrawn or dropped after a
failure: failures are counted, not hidden.  Sweep axes are stratified draws
(one uniform draw in each of n equal strata), so the grids are irregular and
differ from seed to seed while their mix of cheap and costly points does not.

Boxes and why they were chosen
------------------------------
sweep_quadrature (fig2 family, about 6k rows)
    approach hba_exact,cma; V in {10, 100}; four eps on [0, 0.03];
    delta_t in {0.2, 0.6}; 320 t_min on [0.02, 0.96].  This is fig2
    (V = 10, eps up to 3 %, the same two widths, t_min 0.02..0.96) with the
    second V of the paper's low-variance regime and a t_min grid about seven
    times denser.  Points with t_max > 1 are skipped by the program
    itself, as in the preset.  Every hba_exact row runs adaptive quadrature.
sweep_closed_form (fig3/fig45 family, about 77k rows)
    approach hba_asymptotic,cma,fixed; 100 V on [1.3, 1e5] in log V
    (fig3's variance axis starts at 1.3 and is extended to the large-V limit
    of the closed form); delta_t in {0, 0.2} (the fixed baseline needs 0,
    fig3 uses 0.2); four eps on [0, 0.03]; 50 t_min on [0.02, 0.78]
    (fig45's t_min axis, so t_max < 1 as the closed form needs).  No row
    needs quadrature, so the sweep driver (grid build, validation, CSV and
    SVG) is about half of the work.  Rows whose V is below the large-V
    floor are skipped by the program, as in fig3.
queries (CLI defaults plus the paper's threshold box)
    One client in a closed loop; each session draws one fading configuration
    and asks the three interactive questions about it, in this order:
    ``optimize-v`` (eps, t_min, delta_t; default V bracket [1 + 1e-6, 1e4]),
    ``threshold --approach hba_exact`` (V, eps, delta_t; default bracket and
    tolerance) and ``mc-validate`` (V, eps, t_min, delta_t; default
    n = 1e6, seed drawn).  V is log-uniform on [10, 100] and eps uniform on
    [0, 0.03], the box of the paper's positivity-threshold claim (acceptance
    criterion 5 uses V = 10, eps up to 3 %) widened to fig2's second V;
    delta_t is uniform on [0.2, 0.6], the two widths of that claim, so the
    rate changes sign inside the default threshold bracket; t_min is uniform
    on [0.02, 1 - delta_t], fig2's t_min axis cut where t_max reaches 1.
    The box stays below V = 1e3: there, at eps = 0, the threshold pre-scan
    evaluates hba_exact on an interval ending at T = 1, where a symplectic
    eigenvalue rounds a few ulp below 1 and the call fails with a
    DomainError.  That is a known open defect of the program; it is left
    to the test suite, because a benchmark whose runs all fail measures
    nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class SweepGrid:
    """Keyword arguments of ``cli.SweepConfig`` minus output paths."""

    approaches: tuple[str, ...]
    v_list: tuple[float, ...]
    eps_list: tuple[float, ...]
    t_min_values: tuple[float, ...]
    delta_t_list: tuple[float, ...]
    x_axes: tuple[str, ...]
    log_y: bool
    title: str


@dataclass(frozen=True)
class Session:
    """One fading configuration and the three CLI calls asked about it."""

    v: float
    eps: float
    t_min: float
    delta_t: float
    mc_seed: int

    def argvs(self) -> list[tuple[str, list[str]]]:
        v, eps, t_min, dt = (repr(x) for x in (self.v, self.eps, self.t_min, self.delta_t))
        return [
            ("optimize_v", ["optimize-v", "--eps", eps, "--t-min", t_min, "--delta-t", dt]),
            (
                "threshold",
                ["threshold", "--approach", "hba_exact", "--v", v, "--eps", eps, "--delta-t", dt],
            ),
            (
                "mc_validate",
                ["mc-validate", "--v", v, "--eps", eps, "--t-min", t_min, "--delta-t", dt,
                 "--seed", str(self.mc_seed)],
            ),
        ]


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per workload, so one seed means unrelated draws."""
    return np.random.default_rng([seed, stream])


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> tuple[float, ...]:
    """One uniform draw in each of n equal strata of [lo, hi], ascending."""
    edges = lo + (hi - lo) * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    return tuple(float(x) for x in edges)


def sweep_quadrature(seed: int) -> SweepGrid:
    rng = _rng(seed, 0)
    return SweepGrid(
        approaches=("hba_exact", "cma"),
        v_list=(10.0, 100.0),
        eps_list=_stratified(rng, 0.0, 0.03, 4),
        t_min_values=_stratified(rng, 0.02, 0.96, 320),
        delta_t_list=(0.2, 0.6),
        x_axes=("t_min", "t_mean"),
        log_y=True,
        title="Key rate vs transmittance",
    )


def sweep_closed_form(seed: int) -> SweepGrid:
    rng = _rng(seed, 1)
    log_v = _stratified(rng, np.log(1.3), np.log(1e5), 100)
    return SweepGrid(
        approaches=("hba_asymptotic", "cma", "fixed"),
        v_list=tuple(float(np.exp(x)) for x in log_v),
        eps_list=_stratified(rng, 0.0, 0.03, 4),
        t_min_values=_stratified(rng, 0.02, 0.78, 50),
        delta_t_list=(0.0, 0.2),
        x_axes=("variance", "t_mean"),
        log_y=False,
        title="Key rate vs modulation variance",
    )


def sessions(seed: int):
    """Endless seeded stream of query sessions."""
    rng = _rng(seed, 2)
    while True:
        delta_t = float(rng.uniform(0.2, 0.6))
        yield Session(
            v=float(np.exp(rng.uniform(np.log(10.0), np.log(100.0)))),
            eps=float(rng.uniform(0.0, 0.03)),
            t_min=float(rng.uniform(0.02, 1.0 - delta_t)),
            delta_t=delta_t,
            mc_seed=int(rng.integers(0, 2**63)),
        )
