"""Fixed-channel covariances, symplectic spectra, mutual information, rate."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import conditional_after_homodyne, mutual_info_oracle, symplectic_eigs_generic
from cvqkd_fading.channel import (
    ChannelParams,
    SkrBreakdown,
    SymplecticSpectrum,
    TwoModeCovariance,
    conditional_eigenvalue,
    derive_chi,
    derive_omega,
    holevo_fixed,
    holevo_from_eigenvalues,
    joint_covariance,
    mutual_information_fixed,
    skr_fixed,
    symplectic_pair,
)
from cvqkd_fading.cli import run_point
from cvqkd_fading.cma import avg_covariance
from cvqkd_fading.errors import DomainError
from cvqkd_fading.fading import FadingUniform, moments_uniform
from cvqkd_fading.hba import skr_hba_exact_rows


def random_params(rng, n):
    """n random valid channel points spanning V in [1, 1e4], T in (0, 1], eps in [0, 0.1]."""
    out = []
    for _ in range(n):
        v = float(10.0 ** rng.uniform(0.0, 4.0))
        t = float(rng.uniform(0.005, 1.0))
        eps = float(rng.uniform(0.0, 0.1))
        out.append(ChannelParams(v, t, eps))
    return out


class TestDerivedQuantities:
    def test_chi_values(self):
        assert derive_chi(1.0, 0.0) == 0.0
        assert derive_chi(0.5, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert derive_chi(0.5, 0.05) == pytest.approx(1.05, abs=1e-15)

    def test_omega_values(self):
        assert derive_omega(0.5, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert derive_omega(0.5, 0.03) == pytest.approx(1.03, abs=1e-15)
        assert derive_omega(0.9, 0.03) == pytest.approx(1.27, rel=1e-14)

    def test_omega_chi_identity(self):
        for t in (0.1, 0.35, 0.8, 0.99):
            for eps in (0.0, 0.01, 0.1):
                omega = derive_omega(t, eps)
                assert derive_chi(t, eps) == pytest.approx(
                    (1.0 - t) * omega / t, rel=1e-12
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            derive_chi(0.0, 0.0)
        with pytest.raises(DomainError):
            derive_chi(1.1, 0.0)
        with pytest.raises(DomainError):
            derive_chi(0.5, -0.01)
        with pytest.raises(DomainError):
            derive_omega(1.0, 0.0)  # diverges at T = 1

    def test_channel_params_validation(self):
        with pytest.raises(DomainError):
            ChannelParams(0.99, 0.5, 0.0)
        with pytest.raises(DomainError):
            ChannelParams(10.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            ChannelParams(10.0, 0.5, -1e-3)
        p = ChannelParams(10.0, 1.0, 0.02)  # T = 1 is allowed, chi = eps
        assert p.chi == pytest.approx(0.02, abs=1e-15)
        with pytest.raises(DomainError):
            _ = p.omega


class TestMutualInformation:
    def test_no_modulation_is_zero(self):
        for t, eps in ((1.0, 0.0), (0.5, 0.03), (0.1, 0.1)):
            assert mutual_information_fixed(ChannelParams(1.0, t, eps)) == 0.0

    def test_lossless_noiseless(self):
        mi = mutual_information_fixed(ChannelParams(10.0, 1.0, 0.0))
        assert mi == pytest.approx(1.6609640474436812, rel=1e-14)

    def test_half_transmittance(self):
        mi = mutual_information_fixed(ChannelParams(10.0, 0.5, 0.0))
        assert mi == pytest.approx(1.2297158093186486, rel=1e-14)

    def test_integrand_identity(self):
        # (1/2) log2((V+chi)/(1+chi)) == (1/2) log2(1 + T V_A / (1 + eps T))
        rng = np.random.default_rng(11)
        for p in random_params(rng, 100):
            alt = 0.5 * math.log2(1.0 + p.t * p.v_a / (1.0 + p.eps * p.t))
            assert mutual_information_fixed(p) == pytest.approx(alt, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        v_a=st.floats(-12.0, 5.0).map(lambda u: 10.0**u),
        t=st.floats(-12.0, 0.0).map(lambda u: 10.0**u),
        eps=st.just(0.0) | st.floats(1e-6, 0.1),
    )
    @example(v_a=1e-12, t=1e-12, eps=0.0)
    def test_every_path_matches_the_oracle(self, v_a, t, eps):
        # (1/2) log2((V + chi) / (1 + chi)) lost the digits of T (V-1) to
        # the rounding of chi = 1/T - 1 + eps: 100 % off at T = 1e-10
        pytest.importorskip("mpmath")
        v = 1.0 + v_a
        want = mutual_info_oracle(v, eps, t)
        f = FadingUniform(t)
        got = [run_point(a, v, eps, f).mutual_info for a in ("fixed", "hba_exact", "cma")]
        got.append(float(skr_hba_exact_rows(*(np.array([x]) for x in (v, eps, t, t)))[0][0]))
        for x in got:
            assert abs(x - want) <= 1e-15 * want

    def test_tiny_signal_keeps_its_digits(self):
        # point --approach fixed --v 1.000001 --eps 0 --t-min 1e-10 printed
        # 1.6017e-16 bits
        mi = mutual_information_fixed(ChannelParams(1.000001, 1e-10, 0.0))
        assert abs(mi - 7.2134752038513886e-17) <= 2.0 * math.ulp(7.2134752038513886e-17)


class TestSymplecticSpectrum:
    def test_pure_lossless_state(self):
        lam1, lam2 = symplectic_pair(ChannelParams(10.0, 1.0, 0.0))
        assert lam1 == pytest.approx(1.0, abs=1e-12)
        assert lam2 == pytest.approx(1.0, abs=1e-12)

    def test_matrix_oracle_agreement(self):
        rng = np.random.default_rng(2024)
        for p in random_params(rng, 200):
            lam1, lam2 = symplectic_pair(p)
            ref1, ref2 = symplectic_eigs_generic(joint_covariance(p).matrix())
            assert lam1 == pytest.approx(ref1, rel=1e-9)
            assert lam2 == pytest.approx(ref2, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        v=st.floats(0.0, 4.0).map(lambda u: 10.0**u),
        t=st.floats(0.005, 1.0),
        eps=st.floats(0.0, 0.1),
    )
    def test_random_covariances_agree_with_generic_eigensolver(self, v, t, eps):
        p = ChannelParams(v, t, eps)
        lam1, lam2 = symplectic_pair(p)
        ref1, ref2 = symplectic_eigs_generic(joint_covariance(p).matrix())
        # the generic eigensolver is the less accurate side: next to a pure
        # state it errs by up to about 2e-16 V^2 (2.1e-8 at V = 1e4,
        # T = 1 - 1e-16, eps = 0)
        tol = 1e-15 * v * v
        assert lam1 == pytest.approx(ref1, rel=1e-9, abs=tol)
        assert lam2 == pytest.approx(ref2, rel=1e-9, abs=tol)

    def test_conditional_matrix_oracle_agreement(self):
        rng = np.random.default_rng(2025)
        for p in random_params(rng, 200):
            gamma_cond = conditional_after_homodyne(joint_covariance(p).matrix())
            (ref,) = symplectic_eigs_generic(gamma_cond)
            assert conditional_eigenvalue(p) == pytest.approx(ref, rel=1e-9)

    def test_conditional_closed_values(self):
        assert conditional_eigenvalue(ChannelParams(10.0, 1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
        for t, eps in ((0.3, 0.0), (0.9, 0.05)):
            assert conditional_eigenvalue(ChannelParams(1.0, t, eps)) == pytest.approx(1.0, abs=1e-12)
        # V=10, T=0.5, eps=0: chi=1 -> sqrt(10 * 11 / 11) = sqrt(10)
        assert conditional_eigenvalue(ChannelParams(10.0, 0.5, 0.0)) == pytest.approx(
            3.1622776601683793, rel=1e-14
        )

    def test_b0_over_a0_identity(self):
        # lambda3 = sqrt(B0/A0) * sqrt(V) with A0 = T(1+chi/V), B0 = T(chi+1/V)
        rng = np.random.default_rng(5)
        for p in random_params(rng, 50):
            a0 = p.t * (1.0 + p.chi / p.v)
            b0 = p.t * (p.chi + 1.0 / p.v)
            assert conditional_eigenvalue(p) == pytest.approx(
                math.sqrt(b0 / a0 * p.v), rel=1e-12
            )

    def test_monotone_in_excess_noise(self):
        base1, base2 = symplectic_pair(ChannelParams(10.0, 0.5, 0.0))
        noisy1, noisy2 = symplectic_pair(ChannelParams(10.0, 0.5, 0.03))
        assert noisy1 > base1
        assert noisy2 > base2

    def test_physicality_on_sampled_domain(self):
        rng = np.random.default_rng(77)
        for p in random_params(rng, 200):
            lam1, lam2 = symplectic_pair(p)
            assert lam1 >= lam2 >= 1.0 - 1e-12
            assert conditional_eigenvalue(p) >= 1.0 - 1e-12

    def test_spectrum_type_validation(self):
        with pytest.raises(DomainError):
            SymplecticSpectrum(0.5, 0.4, 1.0)
        with pytest.raises(DomainError):
            SymplecticSpectrum(1.0, 2.0, 1.0)


class TestTwoModeCovariance:
    def test_block_entries(self):
        p = ChannelParams(10.0, 0.5, 0.02)
        cov = joint_covariance(p)
        assert cov.a == 10.0
        assert cov.b == pytest.approx(p.t * (p.v + p.chi), rel=1e-15)
        assert cov.c == pytest.approx(math.sqrt(p.t * (p.v**2 - 1.0)), rel=1e-15)
        mat = cov.matrix()
        assert mat.shape == (4, 4)
        assert mat[0, 2] == cov.c and mat[1, 3] == -cov.c

    def test_unphysical_rejected(self):
        cases = [
            (2.0, 2.0, 2.5),  # correlations beyond physical
            (0.5, 2.0, 0.0),  # below vacuum
        ]
        # pure-loss states (eps = 0, lambda2 = 1 exactly) with c raised 1e-9 relative
        for v in (10.0, 1e3, 1e5):
            for t in (0.1, 0.5, 0.9):
                cov = joint_covariance(ChannelParams(v, t, 0.0))
                cases.append((cov.a, cov.b, cov.c * (1.0 + 1e-9)))
        for a, b, c in cases:
            with pytest.raises(DomainError):
                TwoModeCovariance(a=a, b=b, c=c)

    def test_physical_states_constructed(self):
        # validated inputs up to V = 1e6, including the pure-loss boundary
        # (eps = 0), T -> 1 and small fading widths, always give a state
        rng = np.random.default_rng(1327)
        for k in range(10_000):
            v = float(10.0 ** rng.uniform(0.0, 6.0))
            eps = 0.0 if k % 2 else float(rng.uniform(0.0, 0.1))
            t = float(1.0 - 10.0 ** rng.uniform(-16.0, 0.0)) if k % 4 < 2 else float(
                10.0 ** rng.uniform(-6.0, 0.0)
            )
            joint_covariance(ChannelParams(v, max(t, 1e-6), eps))
            t_min = float(10.0 ** rng.uniform(-4.0, 0.0))
            delta_t = float((1.0 - t_min) * 10.0 ** rng.uniform(-6.0, 0.0))
            avg_covariance(moments_uniform(FadingUniform(t_min, delta_t)), v, eps)


class TestHolevoAndRate:
    def test_pure_state_zero_holevo(self):
        assert holevo_fixed(ChannelParams(10.0, 1.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_lossy_channel(self):
        assert holevo_fixed(ChannelParams(10.0, 0.5, 0.0)) > 0.1

    def test_excess_noise_helps_eavesdropper(self):
        assert holevo_fixed(ChannelParams(10.0, 0.5, 0.03)) > holevo_fixed(
            ChannelParams(10.0, 0.5, 0.0)
        )

    def test_holevo_matches_eigenvalue_composition(self):
        rng = np.random.default_rng(13)
        for p in random_params(rng, 50):
            lam1, lam2 = symplectic_pair(p)
            lam3 = conditional_eigenvalue(p)
            assert holevo_fixed(p) == holevo_from_eigenvalues(lam1, lam2, lam3)

    def test_skr_composition(self):
        p = ChannelParams(10.0, 0.5, 0.0)
        out = skr_fixed(p)
        assert out.mutual_info == mutual_information_fixed(p)
        assert out.holevo == holevo_fixed(p)
        assert out.rate == out.mutual_info - out.holevo

    def test_lossless_rate_is_mutual_info(self):
        out = skr_fixed(ChannelParams(10.0, 1.0, 0.0))
        assert out.rate == pytest.approx(1.6609640474436812, rel=1e-12)

    def test_no_modulation_rate_nonpositive(self):
        out = skr_fixed(ChannelParams(1.0, 0.5, 0.0))
        assert out.mutual_info == 0.0
        assert out.rate <= 0.0

    def test_negative_rates_returned_unclamped(self):
        out = skr_fixed(ChannelParams(10.0, 0.5, 0.3))
        assert out.rate < 0.0

    def test_breakdown_invariants(self):
        with pytest.raises(DomainError):
            SkrBreakdown(1.0, -0.5, 1.5)
        with pytest.raises(DomainError):
            SkrBreakdown(1.0, 0.25, 0.5)
