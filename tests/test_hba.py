"""Worst-case-rate model: exact quadrature pipeline and large-V closed forms."""

import math
import time
import warnings

import numpy as np
import pytest

from cvqkd_fading import cli, hba
from cvqkd_fading.channel import (
    ChannelParams,
    holevo_fixed,
    skr_fixed,
    spectrum_closed_form,
    symplectic_pair,
)
from cvqkd_fading.errors import DomainError, NumericalError, QuadratureError
from cvqkd_fading.hba import (
    FadingUniform,
    asymptotic_eigenvalues,
    avg_holevo_analytic,
    holevo_asymptotic,
    htilde,
    mutual_information_asymptotic,
    skr_hba_asymptotic,
    skr_hba_exact,
)
from cvqkd_fading.numerics import g_entropy, integrate


def holevo_avg_bruteforce(v, eps, f, n=10_000):
    """Midpoint-rule average of the exact Holevo bound, independent of the
    adaptive quadrature path."""
    step = f.delta_t / n
    ts = f.t_min + (np.arange(n) + 0.5) * step
    return sum(holevo_fixed(ChannelParams(v, float(t), eps)) for t in ts) / n


def holevo_avg_simpson(v, eps, f):
    """The exact average by adaptive Simpson over the scalar Holevo bound."""
    return (
        integrate(lambda t: holevo_fixed(ChannelParams(v, t, eps)), f.t_min, f.t_max)
        / f.delta_t
    )


def preset_hba_exact_points(name):
    """(V, eps, FadingUniform) of every hba_exact row of a packaged preset."""
    cfg = cli.sweep_config_from_sources(cli.load_preset(name), {})
    rows, _ = cli.build_grid(cfg)
    return [
        (r.v, r.eps, FadingUniform(r.t_min, r.delta_t))
        for r in rows
        if r.approach == "hba_exact"
    ]


def h_term_quadrature(eps, f):
    """Fading average of the thermal entropy term via adaptive quadrature."""

    def integrand(t):
        omega = 1.0 + t * eps / (1.0 - t)
        return g_entropy((omega - 1.0) / 2.0)

    return integrate(integrand, f.t_min, f.t_max) / f.delta_t


class TestFadingUniform:
    def test_degenerate_width(self):
        f = FadingUniform(0.5)
        assert f.delta_t == 0.0
        assert f.t_max == 0.5
        assert f.t_mean == 0.5

    def test_bounds(self):
        f = FadingUniform(0.4, 0.6)
        assert f.t_max == 1.0
        with pytest.raises(DomainError):
            FadingUniform(0.0, 0.2)
        with pytest.raises(DomainError):
            FadingUniform(0.5, -0.1)
        with pytest.raises(DomainError):
            FadingUniform(0.5, 0.6)


class TestExactPipeline:
    def test_degenerate_equals_fixed(self):
        out = skr_hba_exact(10.0, 0.0, FadingUniform(0.5))
        ref = skr_fixed(ChannelParams(10.0, 0.5, 0.0))
        assert out == ref

    def test_tiny_width_collapses_to_fixed(self):
        for v, t, eps in ((10.0, 0.5, 0.0), (100.0, 0.3, 0.02), (2.0, 0.8, 0.05)):
            out = skr_hba_exact(v, eps, FadingUniform(t, 1e-9))
            ref = skr_fixed(ChannelParams(v, t, eps))
            assert abs(out.rate - ref.rate) < 1e-6

    @pytest.mark.parametrize("eps", [0.0, 0.03])
    def test_against_midpoint_bruteforce(self, eps):
        f = FadingUniform(0.4, 0.2)
        out = skr_hba_exact(10.0, eps, f)
        ref_holevo = holevo_avg_bruteforce(10.0, eps, f)
        assert out.holevo == pytest.approx(ref_holevo, abs=1e-6)
        ref_mi = skr_fixed(ChannelParams(10.0, f.t_min, eps)).mutual_info
        assert out.mutual_info == ref_mi

    def test_excess_noise_lowers_rate(self):
        f = FadingUniform(0.4, 0.2)
        assert (
            skr_hba_exact(10.0, 0.03, f).rate
            < skr_hba_exact(10.0, 0.005, f).rate
            < skr_hba_exact(10.0, 0.0, f).rate
        )

    def test_monotonicities(self):
        # non-increasing in eps, non-decreasing in t_min
        rates_eps = [
            skr_hba_exact(10.0, eps, FadingUniform(0.4, 0.2)).rate
            for eps in (0.0, 0.01, 0.02, 0.05)
        ]
        assert all(a >= b for a, b in zip(rates_eps, rates_eps[1:]))
        rates_t = [
            skr_hba_exact(10.0, 0.01, FadingUniform(t, 0.2)).rate
            for t in (0.2, 0.35, 0.5, 0.65, 0.8)
        ]
        assert all(a <= b for a, b in zip(rates_t, rates_t[1:]))

    def test_full_support_width_allowed(self):
        # t_max = 1 is fine for the exact integrand (chi stays finite)
        out = skr_hba_exact(10.0, 0.02, FadingUniform(0.4, 0.6))
        assert math.isfinite(out.rate)

    def test_noisy_integrand_fails_within_budget(self):
        # at V = 1e8 the integrand's rounding noise exceeds rel_tol; the
        # fallback stops at numerics.MAX_EVALS instead of running on
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match="budget exhausted"):
            skr_hba_exact(1e8, 0.01, FadingUniform(0.5, 0.4))
        assert time.perf_counter() - start < 5.0


def gl_points_4b_box():
    return [
        (1e3, eps, FadingUniform(0.3 + 0.05 * k, 0.2))
        for eps in (0.0, 0.005, 0.03)
        for k in range(9)
    ]


def gl_points_random_box():
    rng = np.random.default_rng(20261018)
    points = []
    for _ in range(200):
        t_min = float(rng.uniform(0.01, 0.99))
        points.append(
            (
                float(10.0 ** rng.uniform(0.0, 5.0)),
                float(rng.uniform(0.0, 0.05)),
                FadingUniform(t_min, float(rng.uniform(1e-3, 1.0 - t_min))),
            )
        )
    return points


class TestGaussLegendreAverage:
    """The Gauss-Legendre average against adaptive Simpson, the oracle it
    falls back to."""

    @pytest.mark.parametrize(
        "points",
        [
            pytest.param(lambda: preset_hba_exact_points("fig2"), id="fig2"),
            pytest.param(lambda: preset_hba_exact_points("fig3"), id="fig3"),
            pytest.param(gl_points_4b_box, id="4b-box"),
            pytest.param(gl_points_random_box, id="random-box"),
        ],
    )
    def test_agrees_with_adaptive_simpson(self, points):
        # 1e-10 relative; below 1 bit, 1e-10 bits absolute, because both
        # methods stop at abs_tol = 1e-12 on the integral and Holevo values
        # reach 1e-8 bits near V = 1 (where Simpson is the less accurate one)
        for v, eps, f in points():
            ref = holevo_avg_simpson(v, eps, f)
            got = skr_hba_exact(v, eps, f).holevo
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1.0), (v, eps, f)

    def test_failed_estimate_returns_simpson_exactly(self, monkeypatch):
        # eps = 0 and t_max = 1: lambda2 -> 1 gives an x log x endpoint that
        # the 32/64-point pair does not resolve to the tolerance
        calls = []
        real = hba.integrate

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(hba, "integrate", counting)
        f = FadingUniform(0.8, 0.2)
        out = skr_hba_exact(10.0, 0.0, f)
        assert calls == [(0.8, 1.0)]
        assert out.holevo == holevo_avg_simpson(10.0, 0.0, f)

    def test_fig2_grid_rarely_reaches_the_fallback(self, monkeypatch):
        # a count, not a timing: losing the fast path sends every row to
        # adaptive Simpson (3 of the 180 rows reach it today)
        calls = 0
        real = hba.integrate

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(hba, "integrate", counting)
        points = preset_hba_exact_points("fig2")
        for v, eps, f in points:
            skr_hba_exact(v, eps, f)
        assert len(points) == 180
        assert calls <= 0.05 * len(points)

    def test_scalar_and_array_spectrum_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = float(10.0 ** rng.uniform(0.0, 6.0))
            eps = float(rng.uniform(0.0, 0.1))
            t = rng.uniform(1e-3, 1.0, 40)
            chi = 1.0 / t - 1.0 + eps
            arrays = spectrum_closed_form(v, t, chi, np.sqrt)
            for j in range(t.size):
                scalars = spectrum_closed_form(v, float(t[j]), float(chi[j]), math.sqrt)
                for arr, sc in zip(arrays, scalars):
                    assert abs(float(arr[j]) - sc) <= 4.0 * np.spacing(abs(sc))

    def test_array_holevo_matches_scalar(self):
        # the node kernel shared by skr_hba_exact (one row) and the sweep's
        # skr_hba_exact_rows (a chunk of rows); a row gets the same bits alone
        # and inside a chunk
        t = np.linspace(0.05, 1.0, 20)
        for v, eps in ((1.0, 0.0), (10.0, 0.0), (10.0, 0.03), (1e4, 0.01)):
            got, ok = hba._node_holevo(v, eps, t)
            assert ok
            for tj, g in zip(t, got):
                ref = holevo_fixed(ChannelParams(v, float(tj), eps))
                assert g == pytest.approx(ref, rel=1e-12, abs=1e-14)
            chunk, chunk_ok = hba._node_holevo(
                np.array([[v], [2.0 * v]]), np.array([[eps], [eps]]), np.array([t, t[::-1]])
            )
            assert chunk_ok.tolist() == [True, True]
            assert chunk[0].tobytes() == got.tobytes()

    @pytest.mark.parametrize(
        "v, t_bad, eps",
        [
            (10.0, math.nan, 0.0),  # non-finite node
            (10.0, 0.0, 0.0),  # outside (0, 1]
            (10.0, 1.5, 0.01),
            (1e3, 0.988695, 0.0),  # lambda2 rounds below 1 - slack
            (1e200, 0.5, 0.0),  # the spectrum overflows
        ],
    )
    def test_bad_node_raises_the_scalar_exception_class(self, v, t_bad, eps):
        # the kernel flags a row with a bad node, alone or in a chunk, so the
        # row goes to adaptive Simpson over the scalar holevo_fixed, which
        # raises the scalar exception class at that node
        with pytest.raises(DomainError) as scalar:
            holevo_fixed(ChannelParams(v, t_bad, eps))
        _, ok = hba._node_holevo(v, eps, np.array([0.5, t_bad, 0.7]))
        assert not ok
        _, chunk_ok = hba._node_holevo(
            np.array([[10.0], [v]]), np.array([[eps], [eps]]),
            np.array([[0.5, 0.6, 0.7], [0.5, t_bad, 0.7]]),
        )
        assert chunk_ok.tolist() == [True, False]

    def test_discriminant_floor_flags_the_row(self):
        # the discriminant factor rounds to -16 at this node while every
        # eigenvalue passes its check; the scalar path raises NumericalError
        v, t = 161502031.25560868, 0.999999999998079
        with pytest.raises(NumericalError):
            holevo_fixed(ChannelParams(v, t, 0.0))
        _, ok = hba._node_holevo(v, 0.0, np.array([0.5, t]))
        assert not ok

    def test_overflowing_spectrum_raises_without_warnings(self):
        # V = 1e200 overflows the array spectrum; the kernel flags the row and
        # the scalar path raises, as it does for holevo_fixed, and numpy
        # prints nothing on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = hba._gauss_legendre_pair()[0]
            _, ok = hba._node_holevo(1e200, 0.0, 0.6 + 0.1 * x)
            assert not ok
            with pytest.raises(DomainError):
                skr_hba_exact(1e200, 0.0, FadingUniform(0.5, 0.2))


class TestAsymptoticEigenvalues:
    def test_direct_substitution(self):
        s = asymptotic_eigenvalues(0.5, 0.0, 1e6)
        assert s.lambda1 == pytest.approx(5e5, rel=1e-15)
        assert s.lambda2 == 1.0
        assert s.lambda3 == pytest.approx(1000.0, rel=1e-12)

    def test_matches_exact_at_large_v(self):
        p = ChannelParams(1e6, 0.5, 0.0)
        lam1, _ = symplectic_pair(p)
        s = asymptotic_eigenvalues(0.5, 0.0, 1e6)
        assert abs(s.lambda1 - lam1) / lam1 < 1e-5

    def test_lambda2_matches_omega_at_large_v(self):
        p = ChannelParams(1e6, 0.8, 0.03)
        _, lam2 = symplectic_pair(p)
        s = asymptotic_eigenvalues(0.8, 0.03, 1e6)
        assert s.lambda2 == pytest.approx(1.12, rel=1e-12)
        assert abs(s.lambda2 - lam2) / lam2 < 1e-4

    def test_rejects_unit_transmittance(self):
        with pytest.raises(DomainError):
            asymptotic_eigenvalues(1.0, 0.0, 1e6)


class TestAsymptoticHolevo:
    def test_passive_eavesdropper_value(self):
        # eps = 0: omega = 1 and the entropy term vanishes exactly
        val = holevo_asymptotic(0.5, 0.0, 1e6)
        assert val == pytest.approx(8.965784284662087, rel=1e-14)

    def test_close_to_exact_at_large_v(self):
        exact = holevo_fixed(ChannelParams(1e6, 0.5, 0.0))
        assert abs(holevo_asymptotic(0.5, 0.0, 1e6) - exact) < 1e-3

    def test_error_shrinks_with_variance(self):
        for t in (0.1, 0.5, 0.9):
            for eps in (0.0, 0.03):
                gaps = [
                    abs(holevo_asymptotic(t, eps, v) - holevo_fixed(ChannelParams(v, t, eps)))
                    for v in (1e4, 1e5, 1e6)
                ]
                assert gaps[0] > gaps[1] > gaps[2]
                assert gaps[2] < 1e-3

    def test_noise_term_structure(self):
        # adding noise contributes g((omega-1)/2) minus the log2(omega)/2 shift
        t, v = 0.5, 1e6
        base = holevo_asymptotic(t, 0.0, v)
        omega = 1.0 + t * 0.03 / (1.0 - t)
        expected = base - 0.5 * math.log2(omega) + g_entropy((omega - 1.0) / 2.0)
        assert holevo_asymptotic(t, 0.03, v) == pytest.approx(expected, rel=1e-12)

    def test_warns_outside_regime(self):
        with pytest.warns(RuntimeWarning):
            holevo_asymptotic(0.5, 0.0, 3.0)


class TestHtilde:
    def test_against_quadrature(self):
        for t_min, dt, eps in ((0.4, 0.2, 0.005), (0.2, 0.6, 0.03), (0.1, 0.3, 0.08)):
            f = FadingUniform(t_min, dt)
            assert htilde(eps, f) == pytest.approx(h_term_quadrature(eps, f), abs=1e-8)

    def test_frozen_reference_values(self):
        # high-precision quadrature of the entropy-term average
        assert htilde(0.005, FadingUniform(0.4, 0.2)) == pytest.approx(
            0.025711713720114452, rel=1e-10
        )
        assert htilde(0.03, FadingUniform(0.2, 0.6)) == pytest.approx(
            0.13322292089132438, rel=1e-10
        )

    def test_large_negative_dilog_arguments_finite(self):
        # (eps-2)(1-T)/eps reaches ~ -750 at eps = 0.005/2; must not overflow
        val = htilde(0.005, FadingUniform(0.1, 0.8))
        assert math.isfinite(val)

    def test_vanishes_as_eps_to_zero(self):
        f = FadingUniform(0.4, 0.2)
        vals = [h_term_quadrature(eps, f) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4
        closed = [htilde(eps, f) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
        for c, q in zip(closed, vals):
            assert c == pytest.approx(q, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            htilde(0.0, FadingUniform(0.4, 0.2))
        with pytest.raises(DomainError):
            htilde(0.01, FadingUniform(0.4, 0.6))  # t_max = 1
        with pytest.raises(DomainError):
            htilde(0.01, FadingUniform(0.4))  # zero width


class TestAnalyticAverage:
    def quadrature_reference(self, v, eps, f):
        return integrate(lambda t: holevo_asymptotic(t, eps, v), f.t_min, f.t_max) / f.delta_t

    def test_against_quadrature_grid(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 50:
            t_min = float(rng.uniform(0.05, 0.7))
            dt = float(rng.uniform(0.05, min(0.9 - t_min, 0.6)))
            eps = float(rng.uniform(0.001, 0.1))
            v = float(10.0 ** rng.uniform(2.0, 6.0))
            f = FadingUniform(t_min, dt)
            ref = self.quadrature_reference(v, eps, f)
            assert avg_holevo_analytic(v, eps, f) == pytest.approx(ref, rel=1e-6)
            checked += 1

    def test_zero_noise_limit_branch(self):
        f = FadingUniform(0.4, 0.2)
        ref = self.quadrature_reference(1e3, 0.0, f)
        assert avg_holevo_analytic(1e3, 0.0, f) == pytest.approx(ref, rel=1e-9)

    def test_variance_dependence_is_half_log(self):
        # only the (1/2) log2 V term carries V: a 4x variance adds exactly 1 bit
        f = FadingUniform(0.4, 0.2)
        low = avg_holevo_analytic(250.0, 0.005, f)
        high = avg_holevo_analytic(1000.0, 0.005, f)
        assert high - low == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            avg_holevo_analytic(1e3, 0.005, FadingUniform(0.4, 0.6))
        with pytest.raises(DomainError):
            avg_holevo_analytic(1e3, 1.0, FadingUniform(0.4, 0.2))
        with pytest.raises(DomainError):
            avg_holevo_analytic(0.5, 0.005, FadingUniform(0.4, 0.2))


class TestAsymptoticRate:
    def test_rate_independent_of_variance(self):
        f = FadingUniform(0.4, 0.2)
        r1 = skr_hba_asymptotic(1e4, 0.005, f).rate
        r2 = skr_hba_asymptotic(1e6, 0.005, f).rate
        r3 = skr_hba_asymptotic(1e8, 0.005, f).rate
        assert abs(r1 - r2) < 1e-12
        assert abs(r1 - r3) < 1e-10

    def test_close_to_exact_pipeline(self):
        f = FadingUniform(0.4, 0.2)
        for eps in (0.0, 0.005):
            exact = skr_hba_exact(1e3, eps, f).rate
            asym = skr_hba_asymptotic(1e3, eps, f).rate
            assert abs(exact - asym) < 2e-3

    def test_mutual_information_asymptotic_matches_exact_shape(self):
        # large-V limit of the exact mutual information
        exact = skr_fixed(ChannelParams(1e8, 0.4, 0.01)).mutual_info
        asym = mutual_information_asymptotic(0.4, 0.01, 1e8)
        assert exact == pytest.approx(asym, abs=1e-6)
