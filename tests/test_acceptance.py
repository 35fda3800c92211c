"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 4b and 5 were first stated as literature bounds
(an exact-vs-asymptotic budget of 2e-3 bits at V = 1e3; a positivity
threshold inside [6, 8] dB) that the 40-digit mpmath oracles in
``conftest.py`` refute at one corner of each box, while agreeing with the
program to about 1e-13 bits.  Those two criteria therefore hold the program to the
oracle and to the physics the bounds stood for; their docstrings give the
numbers.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import (
    conditional_after_homodyne,
    hba_asymptotic_rate_oracle,
    hba_rate_oracle,
    symplectic_eigs_generic,
)
from cvqkd_fading import cli
from cvqkd_fading.channel import (
    ChannelParams,
    conditional_eigenvalue,
    joint_covariance,
    skr_fixed,
    symplectic_pair,
)
from cvqkd_fading.cma import (
    avg_covariance,
    avg_mutual_information,
    cma_scaling,
    effective_params,
    skr_cma,
)
from cvqkd_fading.fading import FadingUniform, moments_uniform
from cvqkd_fading.hba import (
    asymptotic_eigenvalues,
    avg_holevo_analytic,
    holevo_asymptotic,
    skr_hba_asymptotic,
    skr_hba_exact,
)
from cvqkd_fading.montecarlo import (
    SampleConfig,
    empirical_avg_covariance,
    empirical_moments,
    moment_standard_errors,
)
from cvqkd_fading.numerics import g_entropy, integrate

FADING_GRID = [
    FadingUniform(0.4, 0.2),
    FadingUniform(0.2, 0.6),
    FadingUniform(0.1, 0.2),
    FadingUniform(0.05, 0.45),
    FadingUniform(0.3, 0.3),
    FadingUniform(0.6, 0.35),
]


def report(criterion: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.2f} s){extra}")


@pytest.mark.filterwarnings("ignore:large-V Holevo bound evaluated outside:RuntimeWarning")
def test_criterion_1_closed_forms_vs_quadrature():
    """Ergodic-MI closed form at 1e-9 and analytic Holevo average at 1e-6.

    The quadrature oracle evaluates the large-V integrand pointwise also
    where it is outside its physical regime (small V, small T); the
    closed-form-vs-quadrature identity holds there regardless, so the regime
    warning is expected and suppressed.
    """
    start = time.perf_counter()
    worst_mi = 0.0
    points = 0
    for v in (2.0, 10.0, 1e3):
        for eps in (0.0, 0.005, 0.03):
            for f in FADING_GRID:
                closed = avg_mutual_information(v, eps, f)
                ref = (
                    integrate(
                        lambda t: 0.5 * math.log2(1.0 + t * (v - 1.0) / (1.0 + eps * t)),
                        f.t_min,
                        f.t_max,
                    )
                    / f.delta_t
                )
                worst_mi = max(worst_mi, abs(closed - ref) / abs(ref))
                points += 1
    worst_hol = 0.0
    for v in (10.0, 1e3):
        for eps in (0.005, 0.03):
            for f in FADING_GRID:
                closed = avg_holevo_analytic(v, eps, f)
                ref = (
                    integrate(lambda t: holevo_asymptotic(t, eps, v), f.t_min, f.t_max)
                    / f.delta_t
                )
                worst_hol = max(worst_hol, abs(closed - ref) / abs(ref))
    elapsed = time.perf_counter() - start
    ok = points >= 50 and worst_mi < 1e-9 and worst_hol < 1e-6 and elapsed < 10.0
    report(
        "1 closed-forms-vs-quadrature",
        ok,
        elapsed,
        f"mi_rel={worst_mi:.2e} holevo_rel={worst_hol:.2e} points={points}",
    )
    assert points >= 50
    assert worst_mi < 1e-9
    assert worst_hol < 1e-6
    assert elapsed < 10.0


def test_criterion_2_matrix_oracle_equivalence():
    """Closed-form spectra vs generic i*Omega*gamma eigenvalues, 1e-9 relative."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(200):
        v = float(10.0 ** rng.uniform(0.0, 4.0))
        t = float(rng.uniform(0.02, 1.0))
        eps = float(rng.uniform(0.0, 0.1))
        p = ChannelParams(v, t, eps)
        gamma = joint_covariance(p).matrix()
        ref1, ref2 = symplectic_eigs_generic(gamma)
        (ref3,) = symplectic_eigs_generic(conditional_after_homodyne(gamma))
        lam1, lam2 = symplectic_pair(p)
        lam3 = conditional_eigenvalue(p)
        worst = max(
            worst,
            abs(lam1 - ref1) / ref1,
            abs(lam2 - ref2) / ref2,
            abs(lam3 - ref3) / ref3,
        )
        # averaged-state spectrum via the effective-parameter substitution
        t_min = float(rng.uniform(0.02, 0.8))
        f = FadingUniform(t_min, float(rng.uniform(0.0, 1.0 - t_min)))
        v_avg = float(rng.uniform(1.0 + 1e-6, 100.0))
        m = moments_uniform(f)
        eff = effective_params(m, eps, v_avg)
        p_eff = ChannelParams(v_avg, eff.t_eff, eff.eps_eff)
        gamma_avg = avg_covariance(m, v_avg, eps).matrix()
        ref1, ref2 = symplectic_eigs_generic(gamma_avg)
        (ref3,) = symplectic_eigs_generic(conditional_after_homodyne(gamma_avg))
        lam1, lam2 = symplectic_pair(p_eff)
        lam3 = conditional_eigenvalue(p_eff)
        worst = max(
            worst,
            abs(lam1 - ref1) / ref1,
            abs(lam2 - ref2) / ref2,
            abs(lam3 - ref3) / ref3,
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    report("2 matrix-oracle-equivalence", ok, elapsed, f"worst_rel={worst:.2e}")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_3_collapse_and_limits():
    """Zero-width collapse, vanishing entropy term, eigenvalue asymptotics."""
    start = time.perf_counter()
    # (a) all three models coincide as the width vanishes
    worst_collapse = 0.0
    for v, t, eps in ((10.0, 0.5, 0.0), (100.0, 0.3, 0.03), (2.0, 0.85, 0.005)):
        f = FadingUniform(t)
        fixed = skr_fixed(ChannelParams(v, t, eps)).rate
        worst_collapse = max(
            worst_collapse,
            abs(skr_hba_exact(v, eps, f).rate - fixed),
            abs(skr_cma(v, eps, f).rate - fixed),
        )
    # (b) the averaged thermal-entropy term vanishes as eps -> 0; evaluated by
    # quadrature at eps = 1e-6 on a low-transmittance configuration
    f_low = FadingUniform(0.01, 0.05)
    eps_tiny = 1e-6

    def h_term(t: float) -> float:
        omega = 1.0 + t * eps_tiny / (1.0 - t)
        return g_entropy((omega - 1.0) / 2.0)

    h_avg = integrate(h_term, f_low.t_min, f_low.t_max) / f_low.delta_t
    # (c) large-V eigenvalue approximations at V = 1e6
    worst_eig = 0.0
    for t in np.linspace(0.1, 0.9, 17):
        for eps in (0.0, 0.005, 0.03):
            p = ChannelParams(1e6, float(t), eps)
            lam1, lam2 = symplectic_pair(p)
            lam3 = conditional_eigenvalue(p)
            approx = asymptotic_eigenvalues(float(t), eps, 1e6)
            worst_eig = max(
                worst_eig,
                abs(approx.lambda1 - lam1) / lam1,
                abs(approx.lambda2 - lam2) / lam2,
                abs(approx.lambda3 - lam3) / lam3,
            )
    elapsed = time.perf_counter() - start
    ok = worst_collapse < 1e-9 and h_avg < 1e-6 and worst_eig < 1e-3
    report(
        "3 collapse-and-limits",
        ok,
        elapsed,
        f"collapse={worst_collapse:.2e} h_avg={h_avg:.2e} eig_rel={worst_eig:.2e}",
    )
    assert worst_collapse < 1e-9
    assert h_avg < 1e-6
    assert worst_eig < 1e-3


def test_criterion_4a_variance_independence():
    """Large-V rate identical at V = 1e4 and V = 1e8 to 1e-10 bits."""
    start = time.perf_counter()
    worst = 0.0
    for eps in (0.0, 0.005, 0.03):
        for f in (FadingUniform(0.4, 0.2), FadingUniform(0.2, 0.6)):
            r_lo = skr_hba_asymptotic(1e4, eps, f).rate
            r_hi = skr_hba_asymptotic(1e8, eps, f).rate
            worst = max(worst, abs(r_lo - r_hi))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10
    report("4a variance-independence", ok, elapsed, f"worst_dev={worst:.2e}")
    assert worst < 1e-10


def test_criterion_4b_exact_vs_asymptotic_window():
    """The large-V closed form is the V -> infinity limit of the exact pipeline
    over the box t_min in [0.3, 0.7] (step 0.05), eps in {0, 0.005, 0.03},
    delta_t = 0.2.

    (a) At V = 1e3 both rates agree with the 40-digit mpmath oracles
    (``hba_rate_oracle``, ``hba_asymptotic_rate_oracle``) to 1e-9 bits
    (observed: 1.2e-13).
    (b) The exact-minus-asymptotic gap falls as 1/V: V * gap(V) at V = 1e3 and
    V = 1e5 differ by at most 0.05 bits (observed: 0.020).  A constant offset
    between the closed form and the V -> infinity limit larger than about
    5e-7 bits breaks this.

    The literature budget |gap| < 2e-3 bits at V = 1e3 is not asserted,
    because the oracle shows the gap is real: it reaches -4.177e-3 bits at
    t_min = 0.7, eps = 0, and exceeds 2e-3 from t_min = 0.6 (eps <= 0.005) and
    from t_min = 0.65 (eps = 0.03).  V * gap is -4.1774, -4.1953 and -4.1971
    at V = 1e3, 1e4 and 1e5: a 1/V term whose coefficient grows as t_max -> 1,
    because the expansion parameter is V (1 - T), not V.
    """
    pytest.importorskip("mpmath")
    start = time.perf_counter()
    worst_oracle = 0.0
    worst_drift = 0.0
    worst = 0.0
    worst_at = None
    for eps in (0.0, 0.005, 0.03):
        for t_min in np.arange(0.3, 0.7001, 0.05):
            t_min = float(t_min)
            f = FadingUniform(t_min, 0.2)
            exact = skr_hba_exact(1e3, eps, f).rate
            asymptotic = skr_hba_asymptotic(1e3, eps, f).rate
            worst_oracle = max(
                worst_oracle,
                abs(exact - hba_rate_oracle(1e3, eps, t_min, 0.2)),
                abs(asymptotic - hba_asymptotic_rate_oracle(1e3, eps, t_min, 0.2)),
            )
            gap = exact - asymptotic
            gap_1e5 = skr_hba_exact(1e5, eps, f).rate - skr_hba_asymptotic(1e5, eps, f).rate
            worst_drift = max(worst_drift, abs(1e3 * gap - 1e5 * gap_1e5))
            if abs(gap) > abs(worst):
                worst, worst_at = gap, (round(t_min, 2), eps)
    elapsed = time.perf_counter() - start
    ok = worst_oracle < 1e-9 and worst_drift <= 0.05
    report(
        "4b exact-vs-asymptotic-window",
        ok,
        elapsed,
        f"oracle_dev={worst_oracle:.2e} V*gap_drift={worst_drift:.3f} "
        f"worst_gap={worst:.3e} at (t_min, eps)={worst_at}",
    )
    assert worst_oracle < 1e-9, (
        f"a program rate deviates from the mpmath oracle by {worst_oracle:.3e} bits"
    )
    assert worst_drift <= 0.05, (
        f"V * (exact - asymptotic) moves by {worst_drift:.3f} bits between V = 1e3 and "
        "V = 1e5: the closed form is not the V -> infinity limit of the exact pipeline"
    )


def test_criterion_5_threshold_claim():
    """Positivity threshold of the worst-case-rate model at V = 10 for
    eps in {0, 0.005, 0.03} and delta_t in {0.2, 0.6}.

    (a) Each threshold t* is located correctly: the mpmath oracle rate
    (``hba_rate_oracle``), which is monotone in t_min, is negative at
    t* - 1e-5 and positive at t* + 1e-5 (t* is the midpoint of the ITP root
    finder's final sign-change bracket, at most tol = 1e-5 wide).
    (b) The threshold in dB falls strictly with eps at fixed delta_t and with
    delta_t at fixed eps: more excess noise or wider fading needs a better
    channel.

    The literature band of [6, 8] dB is not asserted.  Root-finding on the
    oracle rate puts the (eps, delta_t) = (0.03, 0.6) corner at
    t_min = 0.2545641, i.e. 5.942028 dB (the program: 5.942000 dB, 1.7e-6
    from the root in t_min); the other corners are at 7.4292, 6.8706, 7.2584,
    6.6600 and 6.6045 dB.
    """
    pytest.importorskip("mpmath")
    start = time.perf_counter()
    results = {}
    for eps in (0.0, 0.005, 0.03):
        for delta_t in (0.2, 0.6):
            results[eps, delta_t] = cli.find_positive_threshold(
                "hba_exact", 10.0, eps, delta_t, tol=1e-5
            )
    elapsed = time.perf_counter() - start
    misplaced = [
        (eps, delta_t, t_star)
        for (eps, delta_t), (t_star, _) in results.items()
        if not (
            hba_rate_oracle(10.0, eps, t_star - 1e-5, delta_t)
            < 0.0
            < hba_rate_oracle(10.0, eps, t_star + 1e-5, delta_t)
        )
    ]
    db = {key: value[1] for key, value in results.items()}
    falls_with_eps = all(db[0.0, d] > db[0.005, d] > db[0.03, d] for d in (0.2, 0.6))
    falls_with_width = all(db[e, 0.2] > db[e, 0.6] for e in (0.0, 0.005, 0.03))
    ok = not misplaced and falls_with_eps and falls_with_width and elapsed < 30.0
    detail = " ".join(f"({e:g},{d:g})->{v:.2f}dB" for (e, d), v in db.items())
    report("5 threshold-claim", ok, elapsed, detail)
    assert elapsed < 30.0
    assert not misplaced, (
        f"thresholds not within 1e-5 of the oracle's sign change: {misplaced}"
    )
    assert falls_with_eps, f"threshold in dB does not fall with eps: {db}"
    assert falls_with_width, f"threshold in dB does not fall with delta_t: {db}"


def run_preset_rows(name: str):
    cfg = dataclasses.replace(
        cli.sweep_config_from_sources(cli.load_preset(name), {}),
        csv_path=None,
        svg_path=None,
    )
    rows, n_errors = cli.run_sweep(cfg)
    assert n_errors == 0, f"preset {name} produced error rows"
    return cfg, [r for r in rows if not r.error]


def test_criterion_6_qualitative_figures():
    """Shape claims of the rate-vs-transmittance and rate-vs-variance sweeps."""
    start = time.perf_counter()
    _, rows2 = run_preset_rows("fig2")

    def rate_map(approach, eps, delta_t):
        return {
            round(r.t_mean, 10): r.rate
            for r in rows2
            if r.approach == approach and r.eps == eps and r.delta_t == delta_t
        }

    # (a) averaged-covariance model: wider fading strictly lowers the rate at
    # matched mean transmittance
    matched_pairs = 0
    for eps in (0.0, 0.005, 0.03):
        narrow = rate_map("cma", eps, 0.2)
        wide = rate_map("cma", eps, 0.6)
        for t_mean, wide_rate in wide.items():
            if t_mean in narrow:
                assert wide_rate < narrow[t_mean], (
                    f"cma rate not degraded at t_mean={t_mean}, eps={eps}"
                )
                matched_pairs += 1
    assert matched_pairs >= 20
    # (b) rates decrease with excess noise for both models
    for approach in ("hba_exact", "cma"):
        for delta_t in (0.2, 0.6):
            maps = [rate_map(approach, eps, delta_t) for eps in (0.0, 0.005, 0.03)]
            for t_mean in maps[0]:
                if t_mean in maps[1] and t_mean in maps[2]:
                    assert maps[0][t_mean] > maps[1][t_mean] > maps[2][t_mean]

    cfg3, rows3 = run_preset_rows("fig3")
    t_mins = sorted({r.t_min for r in rows3})
    increasing_curves = 0
    for t_min in t_mins:
        exact = sorted(
            [(r.v, r.rate) for r in rows3 if r.approach == "hba_exact" and r.t_min == t_min]
        )
        rates = [rate for _, rate in exact]
        asymptote = max(
            r.rate for r in rows3 if r.approach == "hba_asymptotic" and r.t_min == t_min
        )
        # every curve converges onto the large-V value; the curves visible in
        # a log-rate plot (positive asymptote) additionally climb toward it
        # from below (below threshold the approach is from above instead)
        gaps = [abs(rate - asymptote) for rate in rates]
        assert gaps[-1] < gaps[len(gaps) // 2] < gaps[0], (
            f"exact rate not converging onto the asymptote at t_min={t_min}"
        )
        if asymptote > 0.0:
            assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:])), (
                f"worst-case-rate model not increasing in V at t_min={t_min}"
            )
            assert rates[-1] <= asymptote + 1e-9
            assert gaps[-1] < 2e-3
            increasing_curves += 1
    assert increasing_curves >= 3
    for t_min in [t for t in t_mins if t <= 0.2]:
        cma_rates = sorted(
            [(r.v, r.rate) for r in rows3 if r.approach == "cma" and r.t_min == t_min]
        )
        values = [rate for _, rate in cma_rates]
        peak = values.index(max(values))
        assert 0 < peak < len(values) - 1, (
            f"averaged-covariance rate should peak at interior V for t_min={t_min}"
        )
    elapsed = time.perf_counter() - start
    report("6 qualitative-figures", True, elapsed, f"matched_pairs={matched_pairs}")


def test_criterion_7_quartic_scaling():
    """Large-V factorization limits of the averaged state at V = 1e6."""
    start = time.perf_counter()
    worst_b = 0.0
    worst_l3 = 0.0
    for f in (FadingUniform(0.1, 0.2), FadingUniform(0.3, 0.4), FadingUniform(0.05, 0.6)):
        for eps in (0.0, 0.01):
            eff = effective_params(moments_uniform(f), eps, 1e6)
            sc = cma_scaling(1e6, eff)
            assert sc.b0_limit > 0.0  # Var(sqrt T) > 0 configurations
            worst_b = max(
                worst_b, abs(sc.b_over_v4 - sc.b0_limit**2) / sc.b0_limit**2
            )
            worst_l3 = max(
                worst_l3,
                abs(sc.lambda3_over_v - sc.lambda3_over_v_limit) / sc.lambda3_over_v_limit,
            )
    elapsed = time.perf_counter() - start
    ok = worst_b < 1e-3 and worst_l3 < 1e-3
    report(
        "7 quartic-scaling", ok, elapsed, f"b_rel={worst_b:.2e} lambda3_rel={worst_l3:.2e}"
    )
    assert worst_b < 1e-3
    assert worst_l3 < 1e-3


def test_criterion_8_monte_carlo_validation():
    """n = 1e6 draws land in 5-sigma bands; reruns are bit-identical."""
    start = time.perf_counter()
    f = FadingUniform(0.4, 0.2)
    cfg = SampleConfig(1_000_000, 42)
    ref = moments_uniform(f)
    se_sqrt, se_t, se_var = moment_standard_errors(f, cfg.n_samples)
    m1 = empirical_moments(f, cfg)
    m2 = empirical_moments(f, cfg)
    assert m1 == m2  # bit-identical rerun
    assert abs(m1.mean_sqrt_t - ref.mean_sqrt_t) < 5.0 * se_sqrt
    assert abs(m1.mean_t - ref.mean_t) < 5.0 * se_t
    assert abs(m1.var_sqrt_t - ref.var_sqrt_t) < 5.0 * se_var
    cov1 = empirical_avg_covariance(10.0, 0.03, f, cfg)
    cov2 = empirical_avg_covariance(10.0, 0.03, f, cfg)
    assert cov1 == cov2
    ref_cov = avg_covariance(ref, 10.0, 0.03)
    assert abs(cov1.c - ref_cov.c) < 5.0 * math.sqrt(10.0**2 - 1.0) * se_sqrt
    assert abs(cov1.b - ref_cov.b) < 5.0 * (10.0 - 1.0 + 0.03) * se_t
    sigmas = max(
        abs(m1.mean_sqrt_t - ref.mean_sqrt_t) / se_sqrt,
        abs(m1.mean_t - ref.mean_t) / se_t,
        abs(m1.var_sqrt_t - ref.var_sqrt_t) / se_var,
    )
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report("8 monte-carlo-validation", ok, elapsed, f"worst_n_sigma={sigmas:.2f}")
    assert elapsed < 10.0
