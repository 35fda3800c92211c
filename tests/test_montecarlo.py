"""Sampling validation: determinism, convergence to closed forms, error scaling."""

import math

import numpy as np
import pytest

from cvqkd_fading.cma import avg_covariance
from cvqkd_fading.errors import DomainError
from cvqkd_fading.fading import FadingUniform, moments_uniform
from cvqkd_fading.montecarlo import (
    SampleConfig,
    empirical_avg_covariance,
    empirical_moments,
    moment_standard_errors,
    sample_transmittance,
)


class TestSampling:
    def test_degenerate_width_gives_constant_draws(self):
        draws = sample_transmittance(FadingUniform(0.37), SampleConfig(5, 1))
        assert np.all(draws == 0.37)

    def test_draws_stay_in_support(self):
        f = FadingUniform(0.3, 0.4)
        draws = sample_transmittance(f, SampleConfig(10_000, 9))
        assert draws.min() >= f.t_min
        assert draws.max() < f.t_max

    def test_mean_within_clt_band(self):
        # uniform on [0,1]: sd = 1/sqrt(12); 4-sigma band at n = 1e6
        draws = sample_transmittance(FadingUniform(1e-12, 1.0), SampleConfig(1_000_000, 42))
        band = 4.0 * (1.0 / math.sqrt(12.0)) / 1000.0
        assert abs(float(draws.mean()) - 0.5) < band

    def test_bitwise_determinism(self):
        f = FadingUniform(0.2, 0.5)
        cfg = SampleConfig(4096, 123456789)
        a = sample_transmittance(f, cfg)
        b = sample_transmittance(f, cfg)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_stream(self):
        f = FadingUniform(0.2, 0.5)
        a = sample_transmittance(f, SampleConfig(64, 1))
        b = sample_transmittance(f, SampleConfig(64, 2))
        assert a.tobytes() != b.tobytes()

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SampleConfig(0, 1)
        with pytest.raises(DomainError):
            SampleConfig(10, -1)
        with pytest.raises(DomainError):
            SampleConfig(10, 2**64)


class TestEmpiricalMoments:
    def test_degenerate_width_is_exact(self):
        for n in (1, 7):
            m = empirical_moments(FadingUniform(0.42), SampleConfig(n, 3))
            assert m.mean_t == 0.42
            assert m.mean_sqrt_t == math.sqrt(0.42)
            assert m.var_sqrt_t == 0.0

    def test_full_interval_within_bands(self):
        f = FadingUniform(1e-12, 1.0)
        cfg = SampleConfig(1_000_000, 42)
        m = empirical_moments(f, cfg)
        se_sqrt, se_t, se_var = moment_standard_errors(f, cfg.n_samples)
        assert abs(m.mean_sqrt_t - 2.0 / 3.0) < 5.0 * se_sqrt
        assert abs(m.mean_t - 0.5) < 5.0 * se_t
        assert abs(m.var_sqrt_t - 1.0 / 18.0) < 5.0 * se_var

    def test_generic_interval_within_bands(self):
        f = FadingUniform(0.4, 0.2)
        cfg = SampleConfig(1_000_000, 7)
        m = empirical_moments(f, cfg)
        ref = moments_uniform(f)
        se_sqrt, se_t, se_var = moment_standard_errors(f, cfg.n_samples)
        assert abs(m.mean_sqrt_t - ref.mean_sqrt_t) < 5.0 * se_sqrt
        assert abs(m.mean_t - ref.mean_t) < 5.0 * se_t
        assert abs(m.var_sqrt_t - ref.var_sqrt_t) < 5.0 * se_var


class TestEmpiricalCovariance:
    def test_degenerate_width_is_exact_fixed_matrix(self):
        cov = empirical_avg_covariance(10.0, 0.02, FadingUniform(0.5), SampleConfig(3, 1))
        ref = avg_covariance(moments_uniform(FadingUniform(0.5)), 10.0, 0.02)
        assert cov.a == ref.a
        assert cov.b == pytest.approx(ref.b, rel=1e-15)
        assert cov.c == pytest.approx(ref.c, rel=1e-15)

    def test_full_interval_entries_within_bands(self):
        f = FadingUniform(1e-12, 1.0)
        cfg = SampleConfig(1_000_000, 42)
        cov = empirical_avg_covariance(9.0, 0.0, f, cfg)
        se_sqrt, se_t, _ = moment_standard_errors(f, cfg.n_samples)
        assert cov.a == 9.0
        assert abs(cov.c - 5.962847939999439) < 5.0 * math.sqrt(81.0 - 1.0) * se_sqrt
        assert abs(cov.b - 5.0) < 5.0 * 8.0 * se_t

    def test_generic_interval_within_bands(self):
        f = FadingUniform(0.4, 0.2)
        cfg = SampleConfig(1_000_000, 11)
        cov = empirical_avg_covariance(10.0, 0.03, f, cfg)
        ref = avg_covariance(moments_uniform(f), 10.0, 0.03)
        se_sqrt, se_t, _ = moment_standard_errors(f, cfg.n_samples)
        assert abs(cov.c - ref.c) < 5.0 * math.sqrt(100.0 - 1.0) * se_sqrt
        assert abs(cov.b - ref.b) < 5.0 * (9.0 + 0.03) * se_t


class TestErrorScaling:
    def test_sqrt_n_convergence_rate(self):
        # seed-averaged |error| of the sqrt-moment estimator should scale ~ n^-0.5
        f = FadingUniform(0.2, 0.6)
        ref = moments_uniform(f).mean_sqrt_t
        ns = [1000, 10_000, 100_000, 1_000_000]
        mean_abs_dev = []
        for n in ns:
            devs = [
                abs(empirical_moments(f, SampleConfig(n, 1000 + s)).mean_sqrt_t - ref)
                for s in range(40)
            ]
            mean_abs_dev.append(sum(devs) / len(devs))
        slope = np.polyfit(np.log(ns), np.log(mean_abs_dev), 1)[0]
        assert -0.6 < slope < -0.4
