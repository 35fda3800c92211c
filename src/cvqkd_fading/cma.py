"""Secret key rate from the fading-averaged covariance matrix.

The channel is treated as a classical mixture of fixed-transmittance
subchannels.  Gaussian extremality lets the Holevo bound be computed from the
Gaussian state with the mixture's covariance matrix, whose entries depend on
the first two moments of sqrt(T) and T.  The averaged matrix coincides with a
fixed channel at effective parameters (t_eff, eps_eff), where the effective
excess noise picks up a fading-induced term proportional to Var(sqrt(T)) and
to the modulation variance; this makes the Holevo bound grow quickly with V,
so the modulation variance must be optimized per fading configuration.

The legitimate rate is the ergodic average of the fixed-channel mutual
information over the transmittance distribution, written with log1p and
taken by the law's averaging kernel.  The law, its moments and that kernel
(``FadingUniform``, ``moments_uniform``, ``law_mean``) live in ``fading``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelParams,
    SkrBreakdown,
    TwoModeCovariance,
    holevo_fixed,
    holevo_rows,
    mutual_information_fixed,
    mutual_information_form,
    require_noise,
    require_variance,
)
from .errors import DomainError
from .fading import FadingUniform, TransmittanceMoments, law_mean, moments_uniform
from .numerics import LOG2_E, log1p, maximize_scalar

# how closely ``optimal_variance`` locates the optimum on the V axis
V_TOL = 1e-3


@dataclass(frozen=True)
class EffectiveChannel:
    """Fixed-channel parameters reproducing the fading-averaged covariance.

    chi_eff is linear in the variance it was built with:
    chi_eff = a_coef * V + b_coef.  Because eps_eff depends on V, an
    EffectiveChannel is valid only for the (moments, eps, V) triple that
    produced it and must never be reused across a V sweep.
    """

    t_eff: float
    eps_eff: float
    chi_eff: float
    a_coef: float
    b_coef: float


@dataclass(frozen=True)
class CmaScaling:
    """Large-V factorization of the averaged-state eigenvalue problem.

    a0 and b0 are the exact reduced coefficients at the given V (A = A-term /
    V^2 contribution, B = b0^2 V^4); their V -> infinity limits isolate the
    quartic growth driven by Var(sqrt(T)) > 0.
    """

    a0: float
    b0: float
    b_over_v4: float
    b0_limit: float
    lambda3_over_v: float
    lambda3_over_v_limit: float


def _effective_coefficients(m: TransmittanceMoments) -> tuple[float, float]:
    """(t_eff, Var(sqrt T) / t_eff) with t_eff = <sqrt(T)>^2."""
    t_eff = m.mean_sqrt_t**2
    return t_eff, m.var_sqrt_t / t_eff


def effective_excess_noise(ratio, eps, v):
    """eps_eff = eps * (1 + ratio) + ratio * (V - 1), ratio = Var(sqrt T)/t_eff,
    for float or ndarray arguments."""
    return eps * (1.0 + ratio) + ratio * (v - 1.0)


def effective_params(m: TransmittanceMoments, eps: float, v: float) -> EffectiveChannel:
    """Effective (t_eff, eps_eff, chi_eff) for the averaged covariance matrix.

    t_eff = <sqrt(T)>^2 and
    eps_eff = eps * (1 + Var(sqrt T)/t_eff) + Var(sqrt T)/t_eff * (V - 1).
    a_coef/b_coef are the coefficients of the exact linear split
    chi_eff(V) = a_coef * V + b_coef.
    """
    require_noise(eps)
    require_variance(v)
    t_eff, ratio = _effective_coefficients(m)
    eps_eff = effective_excess_noise(ratio, eps, v)
    chi_eff = 1.0 / t_eff - 1.0 + eps_eff
    a_coef = ratio
    b_coef = 1.0 / t_eff - 1.0 - ratio + eps * (1.0 + ratio)
    return EffectiveChannel(t_eff, eps_eff, chi_eff, a_coef, b_coef)


def avg_covariance(m: TransmittanceMoments, v: float, eps: float) -> TwoModeCovariance:
    """Fading-averaged two-mode covariance:
    a = V, c = <sqrt(T)> sqrt(V^2 - 1), b = <T>(V - 1 + eps) + 1."""
    require_variance(v)
    require_noise(eps)
    return TwoModeCovariance(
        a=v,
        b=m.mean_t * (v - 1.0 + eps) + 1.0,
        c=m.mean_sqrt_t * math.sqrt(v * v - 1.0),
    )


def _ergodic_mi_nodes(t, v_a, eps):
    """The fixed-channel mutual information (1/2) log2(1 + T V_A / (1 + eps T))
    at every node of t, through log1p, so that it keeps its digits as
    V_A = V - 1 -> 0."""
    return (0.5 * LOG2_E) * log1p(v_a * (t / (1.0 + eps * t)))


def avg_mutual_information(v: float, eps: float, f: FadingUniform) -> float:
    """Ergodic mutual information (1/(2 delta_t)) * int log2(1 + T V_A / (1 + eps T)) dT:
    the ``law_mean`` of the fixed-channel value over the law, the
    fixed-channel value at t_min when delta_t = 0."""
    require_variance(v)
    require_noise(eps)
    if f.delta_t == 0.0:
        return mutual_information_fixed(ChannelParams(v, f.t_min, eps))
    return law_mean(_ergodic_mi_nodes, f.t_min, f.t_max, v - 1.0, eps)


def holevo_cma(v: float, eps: float, f: FadingUniform) -> float:
    """Holevo bound of the averaged state: the fixed-channel bound evaluated
    at the effective parameters (t_eff, eps_eff), bits."""
    eff = effective_params(moments_uniform(f), eps, v)
    return holevo_fixed(ChannelParams(v, eff.t_eff, eff.eps_eff))


def skr_cma(v: float, eps: float, f: FadingUniform) -> SkrBreakdown:
    """Ergodic mutual information minus the averaged-state Holevo bound."""
    return SkrBreakdown.from_parts(avg_mutual_information(v, eps, f), holevo_cma(v, eps, f))


def cma_block(eps: float, f: FadingUniform) -> tuple[float, ...]:
    """The columns of ``skr_cma_rows`` for an (eps, fading) pair, computed by
    the scalar code and raising its DomainError: eps, t_min, t_max, delta_t,
    t_eff and Var(sqrt T)/t_eff."""
    t_eff, ratio = _effective_coefficients(moments_uniform(f))
    return eps, f.t_min, f.t_max, f.delta_t, t_eff, ratio


def skr_cma_rows(v, eps, t_min, t_max, delta_t, t_eff, ratio):
    """``skr_cma`` at every row of equal-length arrays, each row's columns
    from ``cma_block``; V >= 1 and eps >= 0 already validated.  A point mass
    takes the fixed-channel mutual information, the other rows one
    ``law_mean`` call.  Returns (mutual_info, holevo, ok), equal to the
    scalar values bit for bit where ok, with ok as in ``channel.holevo_rows``."""
    point = delta_t == 0.0
    avg = ~point
    mi = np.empty(v.size)
    mi[point] = mutual_information_form(v[point], 1.0 / t_min[point] - 1.0 + eps[point])
    mi[avg] = law_mean(_ergodic_mi_nodes, t_min[avg], t_max[avg], v[avg] - 1.0, eps[avg])
    eps_eff = effective_excess_noise(ratio, eps, v)
    holevo, ok = holevo_rows(v, t_eff, eps_eff)
    return mi, holevo, ok & (eps_eff >= 0.0) & np.isfinite(mi)


def require_v_bracket(v_lo: float, v_hi: float) -> None:
    """The rule 1 <= v_lo < v_hi < inf on the bracket of ``optimal_variance``."""
    if not 1.0 <= v_lo < v_hi:
        raise DomainError(f"need 1 <= v_lo < v_hi, got [{v_lo!r}, {v_hi!r}]")
    if v_hi == math.inf:
        raise DomainError(f"v_hi must be finite, got {v_hi!r}")


def optimal_variance(
    eps: float,
    f: FadingUniform,
    v_lo: float = 1.0 + 1e-6,
    v_hi: float = 1e4,
) -> tuple[float, float]:
    """Modulation variance maximizing the averaged-state key rate on [v_lo, v_hi].

    Log-spaced pre-scan plus golden-section refinement to ``V_TOL``; returns
    (v_opt, rate_opt) even when the optimum is non-positive (callers
    interpret rate_opt <= 0 as "no key").  The bracket and eps are checked
    first, and a ``cma_block`` error propagates.  The pre-scan is one
    ``skr_cma_rows`` call, a point the rows cannot vouch for going through
    ``skr_cma``, so (v_opt, rate_opt) are an all-scalar search's, bit for bit.
    """
    require_v_bracket(v_lo, v_hi)
    require_noise(eps)
    block = cma_block(eps, f)

    def rates(vs: list[float]) -> list[float]:
        with np.errstate(all="ignore"):
            mi, holevo, ok = skr_cma_rows(np.array(vs), *(np.full(len(vs), c) for c in block))
        return np.where(ok, mi - holevo, np.nan).tolist()

    return maximize_scalar(lambda v: skr_cma(v, eps, f).rate, v_lo, v_hi, V_TOL, rates)


def cma_scaling(v: float, eff: EffectiveChannel) -> CmaScaling:
    """Reduced eigenvalue-problem coefficients of the averaged state and their
    large-V limits.

    With chi_eff = a V + b the invariants factorize as
    A = (A0^2 + (1 - 2 t_eff) + 2 t_eff / V^2) V^2,  B = B0^2 V^4, where
    A0 = t_eff (1 + a + b/V) and B0 = t_eff (a + b/V + 1/V^2).  For
    Var(sqrt(T)) > 0 the limits are B0 -> t_eff a and
    lambda3 / V -> sqrt(a / (1 + a)); the quartic growth of B in V (versus
    quadratic for a fixed channel) is what makes the Holevo bound of the
    averaged state outrun the ergodic mutual information.
    """
    require_variance(v)
    a, b, t_eff = eff.a_coef, eff.b_coef, eff.t_eff
    a0 = t_eff * (1.0 + a + b / v)
    b0 = t_eff * (a + b / v + 1.0 / (v * v))
    # B / V^4 and lambda3 / V from chi_eff / V, so that no power of V overflows
    q = eff.chi_eff / v + 1.0 / (v * v)
    root_b = t_eff * q
    b0_limit = t_eff * a
    lam3_limit = math.sqrt(a / (1.0 + a)) if a > 0.0 else 0.0
    return CmaScaling(
        a0=a0,
        b0=b0,
        b_over_v4=root_b * root_b,
        b0_limit=b0_limit,
        lambda3_over_v=math.sqrt(q / (1.0 + eff.chi_eff / v)),
        lambda3_over_v_limit=lam3_limit,
    )
