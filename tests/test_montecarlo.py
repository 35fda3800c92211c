"""Sampling validation: determinism, convergence to closed forms, error scaling."""

import math
import sys
import threading
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import moment_standard_deviations_oracle

from cvqkd_fading import montecarlo
from cvqkd_fading.cma import avg_covariance
from cvqkd_fading.errors import DomainError
from cvqkd_fading.fading import FadingUniform, TransmittanceMoments, moments_uniform
from cvqkd_fading.montecarlo import (
    BLOCK,
    SampleConfig,
    empirical_avg_covariance,
    empirical_moments,
    moment_standard_errors,
    sample_transmittance,
)


def draw(f, cfg):
    """The whole stream of cfg in one ``sample_transmittance`` call."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    return sample_transmittance(f, rng, np.empty(cfg.n_samples))


class TestSampling:
    def test_degenerate_width_gives_constant_draws(self):
        draws = draw(FadingUniform(0.37), SampleConfig(5, 1))
        assert np.all(draws == 0.37)

    def test_draws_stay_in_support(self):
        f = FadingUniform(0.3, 0.4)
        draws = draw(f, SampleConfig(10_000, 9))
        assert draws.min() >= f.t_min
        assert draws.max() < f.t_max

    def test_mean_within_clt_band(self):
        # uniform on [0,1]: sd = 1/sqrt(12); 4-sigma band at n = 1e6
        draws = draw(FadingUniform(1e-12, 1.0), SampleConfig(1_000_000, 42))
        band = 4.0 * (1.0 / math.sqrt(12.0)) / 1000.0
        assert abs(float(draws.mean()) - 0.5) < band

    def test_bitwise_determinism(self):
        f = FadingUniform(0.2, 0.5)
        cfg = SampleConfig(4096, 123456789)
        a = draw(f, cfg)
        b = draw(f, cfg)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_stream(self):
        f = FadingUniform(0.2, 0.5)
        a = draw(f, SampleConfig(64, 1))
        b = draw(f, SampleConfig(64, 2))
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


def out_of_place_moments(f, cfg):
    """The moments formed with a new array per stage over the whole stream:
    the written-out reference ``empirical_moments`` must reproduce bit for
    bit while the stream fits in one block."""
    if f.delta_t == 0.0:
        return moments_uniform(f)
    u = np.random.Generator(np.random.PCG64(cfg.seed)).random(cfg.n_samples)
    t = f.t_min + f.delta_t * u
    sqrt_t = np.sqrt(t)
    mean_sqrt = float(sqrt_t.mean())
    mean_t = float(t.mean())
    var = float(np.mean((sqrt_t - mean_sqrt) ** 2))
    return TransmittanceMoments(mean_sqrt, mean_t, var)


def exact_sums_moments(f, cfg):
    """The moments of the same draws with every sum taken by ``math.fsum``;
    the squared deviations from the rounded mean less n times its distance
    from the exact mean, (sum d)^2 / n."""
    n = cfg.n_samples
    u = np.random.Generator(np.random.PCG64(cfg.seed)).random(n)
    t = f.t_min + f.delta_t * u
    sqrt_t = np.sqrt(t)
    mean_sqrt = math.fsum(sqrt_t) / n
    d = sqrt_t - mean_sqrt
    var = (math.fsum(d * d) - math.fsum(d) ** 2 / n) / n
    return TransmittanceMoments(mean_sqrt, math.fsum(t) / n, var)


class TestInPlaceMoments:
    @pytest.mark.parametrize(
        "t_min, delta_t, n, seed",
        [
            (0.3, 0.4, 100_000, 0),
            (0.3, 0.4, 100_000, 7),
            (0.3, 0.4, 100_000, 2**64 - 1),
            (0.02, 0.6, 12_345, 123456789),
            (0.4, 0.2, 1_000_000, 11),
            (0.5, 0.0, 1000, 3),
            (0.5, 0.25, 1, 5),
            (0.5, 0.25, 2, 5),
            (1e-12, 1.0, 100_000, 42),
            # around numpy's first pairwise split (n > 128), around 2048 and
            # at sizes that are not a multiple of 4
            (0.3, 0.4, 127, 1),
            (0.3, 0.4, 128, 1),
            (0.3, 0.4, 129, 1),
            (0.3, 0.4, 136, 1),
            (0.3, 0.4, 2047, 1),
            (0.3, 0.4, 2048, 1),
            (0.3, 0.4, 2049, 1),
            (0.3, 0.4, 2056, 1),
            (0.02, 0.6, 1001, 9),
            (0.4, 0.2, 2_000_003, 2),
        ],
    )
    def test_equals_the_out_of_place_formula(self, t_min, delta_t, n, seed):
        # one block is the whole-buffer pass bit for bit; more blocks merge
        # to within 1e-15 of the exact sums, as that pass comes to 4.2e-16
        f, cfg = FadingUniform(t_min, delta_t), SampleConfig(n, seed)
        got = empirical_moments(f, cfg)
        if n <= BLOCK:
            assert got == out_of_place_moments(f, cfg)
        else:
            ref = astuple(exact_sums_moments(f, cfg))
            assert astuple(got) == pytest.approx(ref, rel=1e-15, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        t_min=st.floats(1e-12, 0.99),
        width=st.floats(-12.0, 0.0).map(lambda u: 10.0**u),
        n=st.tuples(st.integers(0, 2), st.integers(1, BLOCK)).map(lambda q: q[0] * BLOCK + q[1]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_blocks_merge_to_the_exact_sums(self, t_min, width, n, seed):
        # each mean within 1e-15 relative of the exact sums, and the variance
        # too, up to the (4 ulp)^2 a mean off by its rounding adds to every
        # squared deviation: all a narrow law's variance can hold.  A merge
        # without the deviations' sum is first order off there (9e-15
        # relative at delta_t = 1e-3)
        f, cfg = FadingUniform(t_min, min(width, 1.0 - t_min)), SampleConfig(n, seed)
        got, ref = empirical_moments(f, cfg), exact_sums_moments(f, cfg)
        if n <= BLOCK:
            assert got == out_of_place_moments(f, cfg)
        assert abs(got.mean_sqrt_t - ref.mean_sqrt_t) <= 1e-15 * ref.mean_sqrt_t
        assert abs(got.mean_t - ref.mean_t) <= 1e-15 * ref.mean_t
        floor = (4.0 * sys.float_info.epsilon * ref.mean_sqrt_t) ** 2
        assert abs(got.var_sqrt_t - ref.var_sqrt_t) <= 1e-15 * ref.var_sqrt_t + floor

    def test_draws_equal_the_out_of_place_formula(self, monkeypatch):
        # the blocks empirical_moments draws, put end to end, are one
        # Generator.random(n) stream scaled and shifted
        f = FadingUniform(1e-12, 1.0)
        real, blocks = montecarlo.sample_transmittance, []

        def keep(*args):
            t = real(*args)
            blocks.append(t.copy())
            return t

        monkeypatch.setattr(montecarlo, "sample_transmittance", keep)
        for n in (10_000, 127, 128, 129, 136, 1001, 2047, 2048, 2049, BLOCK, BLOCK + 1, 2_000_003):
            cfg = SampleConfig(n, 42)
            u = np.random.Generator(np.random.PCG64(cfg.seed)).random(cfg.n_samples)
            expected = (f.t_min + f.delta_t * u).tobytes()
            blocks.clear()
            empirical_moments(f, cfg)
            assert [b.size for b in blocks[:-1]] == [BLOCK] * (len(blocks) - 1), n
            assert np.concatenate(blocks).tobytes() == expected, n

    def test_peak_memory_is_one_sample_buffer(self):
        # 10^7 draws would be 80 MB in one buffer; one block is 512 KB at any
        # n.  A first call warms numpy's generator set-up, a one-off 1 MB
        f, cfg = FadingUniform(0.3, 0.4), SampleConfig(10**7, 7)
        empirical_moments(f, SampleConfig(10, 7))
        tracemalloc.start()
        try:
            empirical_moments(f, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * BLOCK

    def test_concurrent_callers_keep_the_serial_bits(self):
        # more callers than cores, switching threads every microsecond: no
        # call may see another's buffer or generator
        f = FadingUniform(0.3, 0.4)
        cfgs = [SampleConfig(20_000 + 8 * seed, seed) for seed in range(6)]
        got = {}

        def call(i):
            got[i] = [empirical_moments(f, cfgs[i]) for _ in range(4)]

        callers = [threading.Thread(target=call, args=(i,), daemon=True) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
            assert not any(caller.is_alive() for caller in callers)
        finally:
            sys.setswitchinterval(interval)
        for i, cfg in enumerate(cfgs):
            assert got[i] == [out_of_place_moments(f, cfg)] * 4


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


class TestStandardErrors:
    CASES = [
        (t_min, delta_t)
        for t_min in (1e-12, 0.02, 0.3, 0.5)
        for delta_t in (1e-12, 1e-10, 1e-7, 3.2e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.4, 1.0 - t_min)
        if t_min + delta_t <= 1.0
    ]

    @pytest.mark.parametrize("t_min, delta_t", CASES)
    def test_match_the_quadrature_oracle(self, t_min, delta_t):
        pytest.importorskip("mpmath")
        got = moment_standard_errors(FadingUniform(t_min, delta_t), 1)
        for value, ref in zip(got, moment_standard_deviations_oracle(t_min, delta_t)):
            assert value == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("t_min", [1e-12, 0.3, 0.5, 0.9])
    def test_law_past_one_is_the_law_ending_at_one(self, t_min):
        past = FadingUniform(t_min, 1.0 - t_min + 5e-13)
        law = FadingUniform(t_min, 1.0 - t_min)
        assert past == law and past.t_min + past.delta_t <= 1.0
        assert moments_uniform(past) == moments_uniform(law)
        assert moment_standard_errors(past, 1000) == moment_standard_errors(law, 1000)
        assert draw(past, SampleConfig(10_000, 3)).max() <= 1.0


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
