"""The spectrum, entropy, moment and averaging kernels against mpmath, and
the physics their values must keep.

Both fading models rest on three closed forms: the symplectic spectrum of
the (V, T, eps) state and the entropy g(x), which give the fixed-channel
Holevo bound that ``hba`` averages, and the moments of sqrt(T), which set
the effective channel of ``cma``.  Their textbook forms cancel in double
precision (at large V as T -> 1, at large x, at small fading widths), so
these property tests hold each kernel to an mpmath evaluation of its
textbook definition on boxes that reach those regimes.  The fading averages
(``fading.law_mean``) are held to mpmath quadrature from subnormal widths
up to the whole support, as V -> 1 and where eps * t_min underflows.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ORACLE_DPS,
    entropy_bits_oracle,
    ergodic_mutual_info_oracle,
    hba_asymptotic_rate_oracle,
    hba_rate_oracle,
    spectrum_oracle,
    sqrt_t_moments_oracle,
)
from cvqkd_fading.channel import ChannelParams, holevo_fixed, skr_fixed, spectrum_closed_form
from cvqkd_fading.cma import avg_mutual_information, holevo_cma, skr_cma
from cvqkd_fading.fading import FadingUniform, moments_uniform
from cvqkd_fading.hba import skr_hba_asymptotic, skr_hba_exact
from cvqkd_fading.montecarlo import moment_standard_errors
from cvqkd_fading.numerics import g_entropy, g_entropy_array

mpmath = pytest.importorskip("mpmath")

# V log-uniform on [1, 1e6], 1 - T log-uniform on [1e-6, 1], eps = 0 for
# about half of the draws: where the cancelling spectrum lost up to 3e-6
variances = st.floats(0.0, 6.0).map(lambda u: 10.0**u)
transmittances = st.floats(-6.0, 0.0).map(lambda w: 1.0 - 10.0**w).filter(lambda t: t > 0.0)
noises = st.just(0.0) | st.floats(0.0, 0.1)


@settings(max_examples=300, deadline=None)
@given(v=variances, t=transmittances, eps=noises)
@example(v=1e3, t=0.988695, eps=0.0)  # lambda2 was 1 - 1.03e-12 here
def test_spectrum_matches_the_oracle(v, t, eps):
    lams = spectrum_closed_form(v, t, eps, math.sqrt)
    for lam, ref in zip(lams, spectrum_oracle(v, t, eps)):
        # at eps = 0, lambda2 is exactly 1, and its square root rounds to
        # either side of 1 by an ulp or two
        assert lam >= 1.0 - 4 * 2.0**-52
        assert abs(lam - ref) <= 1e-13 * ref


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-300.0, 12.0).map(lambda u: 10.0**u) | st.sampled_from([5e-324, 2.0**-1022]))
@example(x=5e7)  # the cancelling form erred by 4e-7 bits here
def test_entropy_matches_the_oracle(x):
    with mpmath.workdps(ORACLE_DPS):
        ref = entropy_bits_oracle(mpmath.mpf(x))
    for got in (g_entropy(x), float(g_entropy_array(np.array([x]))[0])):
        assert abs(got - ref) <= 1e-14 * max(1.0, ref)


@settings(max_examples=300, deadline=None)
@given(t_min=st.floats(0.01, 0.99), w=st.floats(0.0, 1.0))
def test_moments_match_the_oracle(t_min, w):
    # delta_t log-uniform on [1e-12, 1 - t_min]
    delta_t = 10.0 ** (-12.0 + w * (12.0 + math.log10(1.0 - t_min)))
    m = moments_uniform(FadingUniform(t_min, delta_t))
    # the definitions cancel by up to 26 digits at delta_t = 1e-12
    with mpmath.workdps(2 * ORACLE_DPS):
        lo = mpmath.mpf(t_min)
        hi = lo + mpmath.mpf(delta_t)
        mean_sqrt = 2 * (hi**1.5 - lo**1.5) / (3 * (hi - lo))
        var_sqrt = (lo + hi) / 2 - mean_sqrt**2
    assert abs(m.mean_sqrt_t - mean_sqrt) <= 1e-14 * mean_sqrt
    assert abs(m.var_sqrt_t - var_sqrt) <= 1e-14 * var_sqrt


# a law anywhere in the double range: t_min and delta_t log-uniform down to
# the smallest subnormal, t_min + delta_t <= 1
tiny_laws = st.tuples(st.floats(-323.3, 0.0), st.floats(-323.3, 0.0)).map(
    lambda uv: (10.0**uv[0], (1.0 - 10.0**uv[0]) * 10.0**uv[1])
).filter(lambda law: law[1] > 0.0)


@settings(max_examples=300, deadline=None)
@given(law=tiny_laws)
@example(law=(1e-300, 1e-300))  # Var(sqrt T) was 0 / 0, a ZeroDivisionError
@example(law=(1e-160, 1e-160))  # Var(sqrt T) and two standard errors were 0
@example(law=(0.5, 1e-160))  # Var(sqrt T) subnormal, its root normal
@example(law=(1e-100, 1e-160))  # delta_t^2 underflows, Var(sqrt T) does not
@example(law=(5e-324, 5e-324))
def test_moments_and_standard_errors_down_to_subnormal_laws_match_the_oracle(law):
    f = FadingUniform(*law)
    m = moments_uniform(f)
    mean_sqrt, mean_t, var_sqrt, sd_t, sd_var = sqrt_t_moments_oracle(f.t_min, f.delta_t)
    got = (m.mean_sqrt_t, m.mean_t, m.var_sqrt_t, *moment_standard_errors(f, 1))
    want = (mean_sqrt, mean_t, var_sqrt, mpmath.sqrt(var_sqrt), sd_t, sd_var)
    for k, (value, ref) in enumerate(zip(got, want)):
        # 1e-14 relative, or 4 units of the last subnormal place: below the
        # normal range only the absolute error of a value is bounded
        assert abs(mpmath.mpf(value) - ref) <= 1e-14 * ref + 4 * mpmath.mpf(2) ** -1074, k


@st.composite
def fading_points(draw):
    """(V, t_min, delta_t), the law ending at T = 1 for about a third of the
    draws."""
    v = 10.0 ** draw(st.floats(0.0, 4.0))
    t_min = draw(st.floats(0.05, 0.75))
    return v, t_min, draw(st.sampled_from((0.01, 0.2, 1.0 - t_min)))


@settings(max_examples=60, deadline=None)
@given(point=fading_points(), eps_pair=st.lists(st.floats(0.0, 0.1), min_size=2, max_size=2))
def test_rate_does_not_increase_with_excess_noise(point, eps_pair):
    v, t_min, delta_t = point
    lo, hi = sorted(eps_pair)
    f = FadingUniform(t_min, delta_t)
    for rate in (
        lambda eps: skr_fixed(ChannelParams(v, t_min, eps)).rate,
        lambda eps: skr_hba_exact(v, eps, f).rate,
        lambda eps: skr_cma(v, eps, f).rate,
    ):
        assert rate(hi) <= rate(lo) + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    v=st.floats(0.0, 3.0).map(lambda u: 10.0**u),
    eps=st.floats(0.0, 0.1),
    t_min=st.floats(0.05, 0.9),
    delta_t=st.floats(-12.0, -5.0).map(lambda u: 10.0**u),
)
@example(v=10.0, eps=0.01, t_min=0.5, delta_t=1e-7)  # cma erred by 3.4e-8 bits here
def test_averaged_holevo_bounds_tend_to_the_fixed_channel(v, eps, t_min, delta_t):
    # as delta_t -> 0 both averaged bounds move off the fixed-channel bound
    # at t_min no faster than the fixed channel does along T
    fixed = holevo_fixed(ChannelParams(v, t_min, eps))
    slope = abs(holevo_fixed(ChannelParams(v, t_min + 1e-3, eps)) - fixed) / 1e-3
    f = FadingUniform(t_min, delta_t)
    for holevo in (skr_hba_exact(v, eps, f).holevo, holevo_cma(v, eps, f)):
        assert abs(holevo - fixed) <= (slope + 1.0) * delta_t + 1e-13 * max(1.0, fixed)


@st.composite
def widths(draw):
    """(t_min, delta_t): delta_t log-uniform from the smallest subnormal up
    to the support width 1 - t_min, or below ulp(t_min), or that width."""
    t_min = draw(st.floats(0.02, 0.95))
    top = math.log10(1.0 - t_min)
    delta_t = draw(
        st.floats(0.0, 1.0).map(lambda w: 10.0 ** (-323.3 + w * (323.3 + top)))
        | st.just(0.3 * math.ulp(t_min))
        | st.just(1.0 - t_min)
    )
    return t_min, max(delta_t, 5e-324)


@settings(max_examples=40, deadline=None)
@given(
    width=widths(),
    v=st.floats(0.0, 4.0).map(lambda u: 10.0**u),
    eps=st.just(0.0) | st.floats(0.0, 0.05),
)
@example(width=(0.5, 1e-20), v=10.0, eps=0.01)  # the cma mutual information read -11102 bits
@example(width=(0.5, 5e-324), v=1e3, eps=0.0)
@example(width=(0.8, 0.2), v=1e4, eps=0.0)  # an x log x end at T = 1
def test_averages_match_the_oracle_at_every_width(width, v, eps):
    f = FadingUniform(*width)
    # the law as stored: a t_max up to 1e-12 above 1 is taken as 1
    t_min, delta_t = f.t_min, f.delta_t
    mi = ergodic_mutual_info_oracle(v, eps, t_min, delta_t)
    assert abs(avg_mutual_information(v, eps, f) - mi) <= 1e-14 * max(1.0, mi)
    assert abs(skr_hba_exact(v, eps, f).rate - hba_rate_oracle(v, eps, t_min, delta_t)) <= 1e-13
    if f.t_max < 1.0:
        ref = hba_asymptotic_rate_oracle(1e4, eps, t_min, delta_t)
        assert abs(skr_hba_asymptotic(1e4, eps, f).rate - ref) <= 1e-13 * max(1.0, abs(ref))


@settings(max_examples=40, deadline=None)
@given(
    v_a=st.floats(-12.0, 0.0).map(lambda u: 10.0**u),
    eps=st.just(0.0) | st.floats(0.0, 0.05),
    t_min=st.floats(0.02, 0.9),
    w=st.floats(0.0, 1.0),
)
@example(v_a=1e-9, eps=0.0, t_min=0.5, w=0.1)  # 100 % off as a difference of antiderivatives
def test_ergodic_mutual_information_keeps_its_digits_as_v_tends_to_one(v_a, eps, t_min, w):
    delta_t = max(w * (1.0 - t_min), 1e-3)
    ref = ergodic_mutual_info_oracle(1.0 + v_a, eps, t_min, delta_t)
    got = avg_mutual_information(1.0 + v_a, eps, FadingUniform(t_min, delta_t))
    assert abs(got - ref) <= 1e-13 * ref


@pytest.mark.parametrize(
    "eps, t_min, delta_t", [(1.0, 0.5, 0.4), (1.5, 0.3, 0.2), (1.5, 0.02, 0.6), (20.0, 0.1, 0.3)]
)
def test_asymptotic_rate_matches_the_oracle_at_eps_of_one_and_above(eps, t_min, delta_t):
    # the rule eps < 1 came from the dilogarithm closed form; the law_mean
    # nodes hold for any eps >= 0
    ref = hba_asymptotic_rate_oracle(1e4, eps, t_min, delta_t)
    got = skr_hba_asymptotic(1e4, eps, FadingUniform(t_min, delta_t)).rate
    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


@settings(max_examples=30, deadline=None)
@given(
    eps=st.floats(-300.0, -150.0).map(lambda u: 10.0**u),
    t_min=st.floats(-300.0, -150.0).map(lambda u: 10.0**u),
    delta_t=st.floats(0.1, 0.5),
)
@example(eps=1e-200, t_min=1e-200, delta_t=0.1)  # exited 1 with "eps too small"
def test_asymptotic_rate_matches_the_oracle_where_eps_t_min_underflows(eps, t_min, delta_t):
    ref = hba_asymptotic_rate_oracle(1e4, eps, t_min, delta_t)
    got = skr_hba_asymptotic(1e4, eps, FadingUniform(t_min, delta_t)).rate
    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))
