"""Averaged-covariance model: moments, effective parameters, ergodic rate."""

import itertools
import math

import numpy as np
import pytest

from conftest import (
    benchmark_sessions,
    conditional_after_homodyne,
    ergodic_mutual_info_oracle,
    symplectic_eigs_generic,
)
from cvqkd_fading import cli, cma
from cvqkd_fading.channel import ChannelParams, holevo_from_eigenvalues, skr_fixed
from cvqkd_fading.cma import (
    V_TOL,
    avg_covariance,
    avg_mutual_information,
    cma_scaling,
    effective_params,
    holevo_cma,
    optimal_variance,
    skr_cma,
)
from cvqkd_fading.errors import DomainError, NumericalError
from cvqkd_fading.fading import FadingUniform, moments_uniform
from cvqkd_fading.hba import skr_hba_exact
from cvqkd_fading.numerics import LOG2_E, integrate, maximize_scalar


def random_fading(rng):
    t_min = float(rng.uniform(0.02, 0.8))
    dt = float(rng.uniform(0.0, 1.0 - t_min))
    return FadingUniform(t_min, dt)


def mi_quadrature(v, eps, f):
    return (
        integrate(
            lambda t: 0.5 * math.log2(1.0 + t * (v - 1.0) / (1.0 + eps * t)),
            f.t_min,
            f.t_max,
        )
        / f.delta_t
    )


class TestMoments:
    def test_full_interval_closed_forms(self):
        m = moments_uniform(FadingUniform(1e-300, 1.0))
        assert m.mean_sqrt_t == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert m.mean_t == pytest.approx(0.5, rel=1e-12)
        assert m.var_sqrt_t == pytest.approx(1.0 / 18.0, rel=1e-10)

    def test_point_mass(self):
        m = moments_uniform(FadingUniform(0.5))
        assert m.mean_sqrt_t == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert m.mean_t == 0.5
        assert m.var_sqrt_t == 0.0

    def test_against_quadrature(self):
        f = FadingUniform(0.4, 0.2)
        m = moments_uniform(f)
        ref_sqrt = integrate(math.sqrt, f.t_min, f.t_max) / f.delta_t
        ref_t = integrate(lambda t: t, f.t_min, f.t_max) / f.delta_t
        assert m.mean_sqrt_t == pytest.approx(ref_sqrt, abs=1e-10)
        assert m.mean_t == pytest.approx(ref_t, abs=1e-10)

    def test_jensen_gap(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            f = random_fading(rng)
            m = moments_uniform(f)
            if f.delta_t == 0.0:
                assert m.var_sqrt_t == 0.0
            else:
                assert m.mean_sqrt_t**2 < m.mean_t
                assert m.var_sqrt_t > 0.0


class TestEffectiveParams:
    def test_point_mass_collapse(self):
        m = moments_uniform(FadingUniform(0.37))
        eff = effective_params(m, 0.02, 10.0)
        assert eff.t_eff == pytest.approx(0.37, rel=1e-14)
        assert eff.eps_eff == pytest.approx(0.02, rel=1e-12)
        assert eff.chi_eff == pytest.approx(1.0 / 0.37 - 1.0 + 0.02, rel=1e-12)

    def test_full_interval_exact_fractions(self):
        # <sqrt T> = 2/3, <T> = 1/2 -> t_eff = 4/9, Var = 1/18;
        # eps_eff = (1/18)/(4/9) * 8 = 1, chi_eff = 9/4 - 1 + 1 = 2.25 at eps=0, V=9
        m = moments_uniform(FadingUniform(1e-300, 1.0))
        eff = effective_params(m, 0.0, 9.0)
        assert eff.t_eff == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert eff.eps_eff == pytest.approx(1.0, rel=1e-10)
        assert eff.chi_eff == pytest.approx(2.25, rel=1e-10)

    def test_linear_split_reproduces_chi(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            f = random_fading(rng)
            eps = float(rng.uniform(0.0, 0.1))
            v = float(rng.uniform(1.0, 1e4))
            eff = effective_params(moments_uniform(f), eps, v)
            assert eff.a_coef * v + eff.b_coef == pytest.approx(eff.chi_eff, rel=1e-12)

    def test_b_block_identity(self):
        # t_eff (V + chi_eff) == <T>(V - 1 + eps) + 1
        f = FadingUniform(0.4, 0.2)
        m = moments_uniform(f)
        eff = effective_params(m, 0.03, 10.0)
        assert eff.t_eff * (10.0 + eff.chi_eff) == pytest.approx(
            m.mean_t * (9.0 + 0.03) + 1.0, rel=1e-12
        )


class TestAvgCovariance:
    def test_point_mass_equals_fixed_channel(self):
        p = ChannelParams(10.0, 0.5, 0.02)
        m = moments_uniform(FadingUniform(0.5))
        cov = avg_covariance(m, 10.0, 0.02)
        assert cov.a == p.v
        assert cov.b == pytest.approx(p.t * (p.v + p.chi), rel=1e-13)
        assert cov.c == pytest.approx(math.sqrt(p.t * (p.v**2 - 1.0)), rel=1e-13)

    def test_full_interval_entries(self):
        m = moments_uniform(FadingUniform(1e-300, 1.0))
        cov = avg_covariance(m, 9.0, 0.0)
        assert cov.a == 9.0
        assert cov.c == pytest.approx(5.962847939999439, rel=1e-12)
        assert cov.b == pytest.approx(5.0, rel=1e-14)

    def test_effective_substitution_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            f = random_fading(rng)
            eps = float(rng.uniform(0.0, 0.1))
            v = float(rng.uniform(1.0 + 1e-9, 100.0))
            m = moments_uniform(f)
            eff = effective_params(m, eps, v)
            cov = avg_covariance(m, v, eps)
            assert cov.c == pytest.approx(
                math.sqrt(eff.t_eff * (v * v - 1.0)), rel=1e-12
            )
            assert cov.b == pytest.approx(eff.t_eff * (v + eff.chi_eff), rel=1e-12)


def ergodic_mi_antiderivative_form(v, eps, f):
    """The paper's closed form of the ergodic mutual information, a
    difference of antiderivatives over 2 delta_t (its eps -> 0 limit at
    eps = 0).  It loses about ulp(F) / delta_t, and all of its digits as
    V -> 1, so it is a reference only at delta_t >= 1e-3 and V well above 1."""
    v_a, lo, hi, dt = v - 1.0, f.t_min, f.t_max, f.delta_t
    if eps == 0.0:
        return (
            hi * math.log2(1.0 + hi * v_a)
            - lo * math.log2(1.0 + lo * v_a)
            + math.log2((1.0 + hi * v_a) / (1.0 + lo * v_a)) / v_a
            - dt * LOG2_E
        ) / (2.0 * dt)
    slope = eps + v_a
    return (
        (math.log1p(eps * lo) - math.log1p(eps * hi)) / eps * LOG2_E
        + hi * math.log2((1.0 + hi * slope) / (1.0 + eps * hi))
        + math.log2((1.0 + hi * slope) / (1.0 + lo * slope)) / slope
        + lo * math.log2((1.0 + eps * lo) / (1.0 + lo * slope))
    ) / (2.0 * dt)


class TestErgodicMutualInformation:
    def test_no_modulation(self):
        assert avg_mutual_information(1.0, 0.02, FadingUniform(0.4, 0.2)) == 0.0

    def test_point_mass_equals_fixed(self):
        val = avg_mutual_information(10.0, 0.01, FadingUniform(0.5))
        ref = skr_fixed(ChannelParams(10.0, 0.5, 0.01)).mutual_info
        assert val == ref

    def test_closed_form_vs_quadrature(self):
        f = FadingUniform(0.4, 0.2)
        for eps in (0.005, 0.0):
            val = avg_mutual_information(10.0, eps, f)
            assert val == pytest.approx(mi_quadrature(10.0, eps, f), rel=1e-9)

    def test_closed_form_vs_quadrature_grid(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 50:
            f = random_fading(rng)
            if f.delta_t < 1e-3:
                continue
            eps = float(rng.choice([0.0, 0.005, 0.03, 0.1]))
            v = float(rng.choice([2.0, 10.0, 1e3]))
            assert avg_mutual_information(v, eps, f) == pytest.approx(
                mi_quadrature(v, eps, f), rel=1e-9
            )
            done += 1

    @pytest.mark.parametrize("v", [1.5, 10.0, 1e3, 1e5])
    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.03, 0.1])
    @pytest.mark.parametrize("t_min, delta_t", [(0.1, 1e-3), (0.4, 0.2), (0.02, 0.98), (0.9, 0.05)])
    def test_matches_the_papers_antiderivative_form(self, v, eps, t_min, delta_t):
        f = FadingUniform(t_min, delta_t)
        ref = ergodic_mi_antiderivative_form(v, eps, f)
        assert abs(avg_mutual_information(v, eps, f) - ref) <= 1e-11 * max(1.0, ref)

    @pytest.mark.parametrize("eps", [5e-324, 1e-20, 1e-15, 1e-12, 1e-9, 1e-6])
    def test_tiny_noise_matches_the_oracle(self, eps):
        # the 1/eps group of the closed form lost 0.72 bits at eps <= 1e-15
        # and 5.8e-4 at 1e-12 while it was a log2 of a ratio
        pytest.importorskip("mpmath")
        got = avg_mutual_information(10.0, eps, FadingUniform(0.5, 0.01))
        assert abs(got - ergodic_mutual_info_oracle(10.0, eps, 0.5, 0.01)) <= 1e-13

    def test_beats_worst_case_rate(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            f = random_fading(rng)
            eps = float(rng.uniform(0.0, 0.05))
            v = float(rng.uniform(1.5, 100.0))
            worst = skr_fixed(ChannelParams(v, f.t_min, eps)).mutual_info
            assert avg_mutual_information(v, eps, f) >= worst - 1e-12


class TestHolevoCma:
    def test_point_mass_equals_fixed(self):
        from cvqkd_fading.channel import holevo_fixed

        val = holevo_cma(10.0, 0.02, FadingUniform(0.5))
        assert val == pytest.approx(holevo_fixed(ChannelParams(10.0, 0.5, 0.02)), rel=1e-13)

    def test_matrix_oracle_on_averaged_state(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            f = random_fading(rng)
            eps = float(rng.uniform(0.0, 0.1))
            v = float(rng.uniform(1.0 + 1e-6, 300.0))
            m = moments_uniform(f)
            gamma = avg_covariance(m, v, eps).matrix()
            lam1, lam2 = symplectic_eigs_generic(gamma)
            (lam3,) = symplectic_eigs_generic(conditional_after_homodyne(gamma))
            ref = holevo_from_eigenvalues(max(lam1, 1.0), max(lam2, 1.0), max(lam3, 1.0))
            assert holevo_cma(v, eps, f) == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_grows_faster_than_hba_in_variance(self):
        f = FadingUniform(0.1, 0.6)
        gap_small = holevo_cma(10.0, 0.0, f) - skr_hba_exact(10.0, 0.0, f).holevo
        gap_large = holevo_cma(1e3, 0.0, f) - skr_hba_exact(1e3, 0.0, f).holevo
        assert gap_large > gap_small + 1.0


class TestSkrCma:
    def test_point_mass_equals_fixed(self):
        out = skr_cma(10.0, 0.01, FadingUniform(0.5))
        ref = skr_fixed(ChannelParams(10.0, 0.5, 0.01))
        assert out.rate == pytest.approx(ref.rate, abs=1e-12)

    def test_width_degrades_rate_at_matched_mean(self):
        # <T> = 0.5 both ways
        narrow = skr_cma(10.0, 0.0, FadingUniform(0.4, 0.2)).rate
        wide = skr_cma(10.0, 0.0, FadingUniform(0.2, 0.6)).rate
        assert wide < narrow

    def test_rapid_decline_in_variance(self):
        f = FadingUniform(0.1, 0.2)
        assert skr_cma(1e3, 0.0, f).rate < skr_cma(10.0, 0.0, f).rate - 1.0


class TestOptimalVariance:
    def test_fixed_channel_pins_to_upper_bound(self):
        # degenerate fading at high transmittance: rate increases with V, so
        # the optimum rides the upper bound and improves as the bound grows
        f = FadingUniform(0.9)
        v_opt, rate_opt = optimal_variance(0.0, f, v_lo=1.5, v_hi=50.0)
        assert v_opt == pytest.approx(50.0, rel=1e-2)
        grid = np.linspace(1.5, 50.0, 500)
        assert rate_opt >= max(skr_cma(float(v), 0.0, f).rate for v in grid) - 1e-9
        rates_by_bound = [
            optimal_variance(0.0, f, v_lo=1.5, v_hi=hi)[1] for hi in (10.0, 50.0, 500.0)
        ]
        assert rates_by_bound[0] < rates_by_bound[1] < rates_by_bound[2]

    def test_interior_optimum(self):
        f = FadingUniform(0.1, 0.2)
        v_opt, rate_opt = optimal_variance(0.0, f)
        assert 1.0 < v_opt < 1e4
        assert rate_opt >= skr_cma(v_opt / 2.0, 0.0, f).rate
        assert rate_opt >= skr_cma(2.0 * v_opt, 0.0, f).rate

    def test_against_dense_grid(self):
        f = FadingUniform(0.1, 0.2)
        _, rate_opt = optimal_variance(0.005, f)
        grid = np.geomspace(1.0 + 1e-6, 1e4, 2000)
        best = max(skr_cma(float(v), 0.005, f).rate for v in grid)
        assert rate_opt >= best - 1e-7

    def test_nonpositive_optimum_still_returned(self):
        v_opt, rate_opt = optimal_variance(0.05, FadingUniform(0.02, 0.2))
        assert math.isfinite(v_opt)
        assert rate_opt <= 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            optimal_variance(0.0, FadingUniform(0.5, 0.1), v_lo=10.0, v_hi=2.0)


def scalar_optimal_variance(eps, f, v_lo=1.0 + 1e-6, v_hi=1e4):
    """``optimal_variance`` with a pre-scan of scalar ``skr_cma`` calls: the
    reference its row pre-scan must reproduce bit for bit."""
    if not 1.0 <= v_lo < v_hi:
        raise DomainError(f"need 1 <= v_lo < v_hi, got [{v_lo!r}, {v_hi!r}]")
    def rate(v):
        return skr_cma(v, eps, f).rate

    return maximize_scalar(rate, v_lo, v_hi, V_TOL, lambda vs: [rate(v) for v in vs])


def outcome(fn, *args):
    """fn(*args), or the type and text of the exception it raised."""
    try:
        return fn(*args)
    except (DomainError, NumericalError) as exc:
        return type(exc).__name__, str(exc)


# the edge box of optimize-v: bracket ends at and next to V = 1 and up to
# 1e8, point masses, near-point and wide laws, t_min up to 1 (where a width
# leaves the law's domain), and eps from 0 through subnormal-adjacent to
# large, plus out-of-range eps that the rows must not take
EDGE_BOX = [
    (eps, t_min, delta_t, v_lo, v_hi)
    for v_lo, v_hi, delta_t, t_min, eps in itertools.product(
        (1.0, 1.0 + 1e-6, 2.0),
        (10.0, 1e4, 1e8),
        (0.0, 1e-20, 1e-6, 0.2),
        (1e-3, 0.3, 0.8, 1.0),
        (0.0, 1e-300, 0.01, 0.1),
    )
] + [(eps, 0.3, delta_t, 1.0 + 1e-6, 1e4) for eps in (-0.01, math.nan, math.inf) for delta_t in (0.0, 0.2)]


class TestOptimalVarianceRowPrescan:
    """The pre-scan of ``optimal_variance`` is one ``skr_cma_rows`` call; its
    result must be exactly the all-scalar search's, exceptions included."""

    def test_queries_sessions_match_the_scalar_prescan(self):
        for seed in (1, 2):
            for s in benchmark_sessions(seed, 40):
                f = FadingUniform(s.t_min, s.delta_t)
                assert optimal_variance(s.eps, f) == scalar_optimal_variance(s.eps, f)

    def test_edge_box_matches_the_scalar_prescan(self):
        results = []
        for eps, t_min, delta_t, v_lo, v_hi in EDGE_BOX:
            try:
                f = FadingUniform(t_min, delta_t)
            except DomainError:
                continue
            got = outcome(optimal_variance, eps, f, v_lo, v_hi)
            assert got == outcome(scalar_optimal_variance, eps, f, v_lo, v_hi), (eps, f, v_lo, v_hi)
            results.append(got)
        # the box reaches both outcomes: optima and scalar-path exceptions
        assert sum(isinstance(r[0], str) for r in results) >= 6
        assert sum(isinstance(r[0], float) for r in results) >= 400

    @pytest.mark.parametrize("v_lo, v_hi", [(1.0 + 1e-6, 1e4), (1.0, 10.0), (1.5, 1e6), (2.0, 1e8)])
    def test_the_rows_take_the_logspace_grid(self, monkeypatch, v_lo, v_hi):
        # one log-spaced rule: the pre-scan's V are the ``logspace:`` spec's
        prescans = []

        def spy(f, lo, hi, x_tol, f_many):
            return maximize_scalar(f, lo, hi, x_tol, lambda xs: prescans.append(xs) or f_many(xs))

        monkeypatch.setattr(cma, "maximize_scalar", spy)
        optimal_variance(0.01, FadingUniform(0.3, 0.2), v_lo, v_hi)
        assert prescans == [list(cli._parse_float_list(f"logspace:{v_lo!r}:{v_hi!r}:64"))]

    @pytest.mark.parametrize("bad_row", [0, 17, 63])
    def test_a_row_the_kernel_cannot_vouch_for_gets_the_scalar_value(self, monkeypatch, bad_row):
        f, eps = FadingUniform(0.1, 0.2), 0.005
        real_rows, real_skr = cma.skr_cma_rows, cma.skr_cma
        flagged, scalar_vs = [], []

        def rows(v, *columns):
            mi, holevo = real_rows(v, *columns)
            mi[bad_row] = math.nan  # a value it does not vouch for
            flagged.append(float(v[bad_row]))
            return mi, holevo

        def skr(v, *args):
            scalar_vs.append(v)
            return real_skr(v, *args)

        monkeypatch.setattr(cma, "skr_cma_rows", rows)
        monkeypatch.setattr(cma, "skr_cma", skr)
        got = optimal_variance(eps, f)
        assert flagged and flagged[0] in scalar_vs
        monkeypatch.setattr(cma, "skr_cma_rows", real_rows)
        assert got == scalar_optimal_variance(eps, f)

    def test_a_row_the_kernel_cannot_vouch_for_gets_the_scalar_exception(self, monkeypatch):
        f, eps = FadingUniform(0.1, 0.2), 0.005
        real_rows, real_skr = cma.skr_cma_rows, cma.skr_cma
        flagged = []

        def rows(v, *columns):
            mi, holevo = real_rows(v, *columns)
            holevo[5] = math.nan
            flagged.append(float(v[5]))
            return mi, holevo

        def skr(v, *args):
            if flagged and v == flagged[0]:
                raise NumericalError(f"scalar failure at V = {v!r}")
            return real_skr(v, *args)

        monkeypatch.setattr(cma, "skr_cma_rows", rows)
        monkeypatch.setattr(cma, "skr_cma", skr)
        with pytest.raises(NumericalError, match="scalar failure at V = ") as exc:
            optimal_variance(eps, f)
        assert str(exc.value) == f"scalar failure at V = {flagged[0]!r}"

    @pytest.mark.parametrize("eps", [-0.01, math.nan, math.inf])
    def test_invalid_eps_fails_before_the_rows(self, monkeypatch, eps):
        rows = []
        monkeypatch.setattr(cma, "skr_cma_rows", lambda *args: rows.append(args))
        with pytest.raises(DomainError) as exc:
            optimal_variance(eps, FadingUniform(0.1, 0.2))
        assert str(exc.value) == f"excess noise must satisfy eps >= 0, got {eps!r}"
        assert rows == []

    def test_a_block_error_propagates(self, monkeypatch):
        error = DomainError("block columns unavailable")

        def block(*args):
            raise error

        monkeypatch.setattr(cma, "cma_law_columns", block)
        with pytest.raises(DomainError) as exc:
            optimal_variance(0.005, FadingUniform(0.1, 0.2))
        assert exc.value is error


def test_sweep_averages_its_cma_rows_in_one_law_mean_call(monkeypatch, capsys):
    # six averaged blocks (two eps, three t_min) and six point masses: all
    # rows go to one law_mean call, its block columns one entry per block
    calls = []
    real = cma.law_mean

    def counting(integrand, t_min, t_max, *args):
        calls.append(t_min)
        return real(integrand, t_min, t_max, *args)

    monkeypatch.setattr(cma, "law_mean", counting)
    cfg = cli.SweepConfig(("cma",), (2.0, 10.0, 100.0), (0.0, 0.01), (0.1, 0.3, 0.5), (0.0, 0.2))
    rows, n_errors = cli.run_sweep(cfg)
    capsys.readouterr()
    assert n_errors == 0 and len(rows) == 36
    assert len(calls) == 1 and calls[0].shape == (12, 1)
    for i, row in enumerate(rows):
        want = skr_cma(row.v, row.eps, FadingUniform(row.t_min, row.delta_t))
        assert (row.mutual_info, row.holevo, row.rate) == (
            want.mutual_info,
            want.holevo,
            want.rate,
        ), i


class TestScaling:
    def test_quartic_coefficient_limit(self):
        f = FadingUniform(0.1, 0.2)
        eff = effective_params(moments_uniform(f), 0.0, 1e6)
        sc = cma_scaling(1e6, eff)
        assert abs(sc.b_over_v4 - sc.b0_limit**2) / sc.b0_limit**2 < 1e-3
        assert sc.b_over_v4 == pytest.approx(sc.b0**2, rel=1e-12)

    def test_conditional_eigenvalue_scaling_limit(self):
        f = FadingUniform(0.1, 0.2)
        eff = effective_params(moments_uniform(f), 0.0, 1e6)
        sc = cma_scaling(1e6, eff)
        assert (
            abs(sc.lambda3_over_v - sc.lambda3_over_v_limit) / sc.lambda3_over_v_limit
            < 1e-3
        )
        # the limit is sqrt(a/(1+a)) under the linear split of chi_eff
        a = eff.a_coef
        assert sc.lambda3_over_v_limit == pytest.approx(math.sqrt(a / (1.0 + a)), rel=1e-14)

    @pytest.mark.parametrize("v", [1e100, 1e200])
    def test_huge_variance_reaches_the_limits(self, v):
        # v**4 overflowed beyond V ~ 1.3e77 (a bare OverflowError)
        eff = effective_params(moments_uniform(FadingUniform(0.1, 0.2)), 0.01, v)
        sc = cma_scaling(v, eff)
        assert sc.b_over_v4 == pytest.approx(sc.b0_limit**2, rel=1e-12)
        assert sc.lambda3_over_v == pytest.approx(sc.lambda3_over_v_limit, rel=1e-12)

    def test_point_mass_no_quartic_growth(self):
        # Var(sqrt T) = 0 and eps = 0: a_coef = 0, so B/V^4 vanishes in the limit
        eff = effective_params(moments_uniform(FadingUniform(0.5)), 0.0, 1e6)
        assert eff.a_coef == 0.0
        sc = cma_scaling(1e6, eff)
        assert sc.b0_limit == 0.0
        assert sc.b_over_v4 < 1e-9

    def test_a0_tracks_exact_invariant(self):
        # A0 = t_eff (1 + a + b/V) equals t_eff (1 + chi_eff / V)
        f = FadingUniform(0.2, 0.3)
        eff = effective_params(moments_uniform(f), 0.02, 500.0)
        sc = cma_scaling(500.0, eff)
        assert sc.a0 == pytest.approx(eff.t_eff * (1.0 + eff.chi_eff / 500.0), rel=1e-12)


class TestCollapseAcrossModels:
    def test_all_three_rates_coincide_at_zero_width(self):
        for v, t, eps in ((10.0, 0.5, 0.0), (100.0, 0.25, 0.03), (2.0, 0.9, 0.01)):
            f = FadingUniform(t)
            fixed = skr_fixed(ChannelParams(v, t, eps)).rate
            hba = skr_hba_exact(v, eps, f).rate
            cma = skr_cma(v, eps, f).rate
            assert abs(fixed - hba) < 1e-9
            assert abs(fixed - cma) < 1e-9
