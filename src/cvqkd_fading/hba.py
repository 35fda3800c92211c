"""Secret key rate when the eavesdropper bound is averaged over the fading.

Fast fading: the transmittance of each use is an unknown draw from a known
distribution, here uniform on [t_min, t_min + delta_t] (``fading``).  In
this model the legitimate parties code at the worst-case rate (mutual
information evaluated at t_min) while the Holevo bound is averaged over the
transmittance distribution.

Two pipelines are provided, each with a row kernel for sweeps that returns
(mutual_info, holevo), NaN in a cell where the scalar path raises:

* ``skr_hba_exact`` -- the ``fading.law_mean`` of the exact fixed-channel
  Holevo bound (integrand ``channel.holevo_rows``); valid for any V >= 1,
  the default everywhere.  QuadratureError where the 103-node level too
  disagrees; the scalar ``holevo_fixed`` error at the first node evaluated
  that fails its checks (at once beyond V ~ 1e154: the spectrum overflows).
  ``skr_hba_exact_rows`` is the same kernel for many rows, for the sweep,
  whose fixed-channel rows it takes too: at a point mass the one node t_min.
* ``skr_hba_asymptotic`` -- the large-V form, whose rate is independent of
  V.  The large-V Holevo bound is (1/2) log2 V plus a V-free part, so its
  mean is one ``law_mean`` per (eps, law) block: ``skr_hba_asymptotic_rows``
  takes it over a sweep's block columns, the scalar path at one point.  The
  paper's closed form of that mean (logarithms and dilogarithms) is a
  test-suite reference.

The large-V parts are written in (T, 1 - T, eps), never through the
equivalent thermal variance omega = 1 + T eps / (1 - T): the mutual
information less (1/2) log2 V is (1/2) log2(T / (1 + eps T)), and the
Holevo bound's is (1/2) log2(T (1-T)^2 / (1 - T + eps T)) + g(eps T / (2 (1-T))).
Its thermal term diverges at T = 1, so the pipeline needs t_max < 1; the mutual
information alone and the exact pipeline take T = 1.  Any eps >= 0 is in their domain.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .channel import holevo_fixed  # noqa: F401  (looked up by perfbench's tracer)
from .channel import (
    PHYSICALITY_SLACK,
    T_FLOOR,
    ChannelParams,
    SkrBreakdown,
    SymplecticSpectrum,
    derive_omega,
    holevo_rows,
    mutual_information_fixed,
    mutual_information_form,
    require_noise,
    require_open_transmittance,
    require_transmittance,
    require_variance,
)
from .errors import DomainError
from .fading import FadingUniform, law_mean
from .numerics import dilog, g_entropy, integrate  # noqa: F401  (looked up by perfbench's tracer)
from .numerics import g_entropy_array, log2


def asymptotic_law_columns(f: FadingUniform) -> tuple[float, float]:
    """The columns of ``skr_hba_asymptotic_rows`` after eps, t_min and
    t_max, raising the DomainError of a law outside the large-V form's
    domain."""
    if f.t_max >= 1.0:
        raise DomainError(
            "asymptotic routines need t_max < 1 (thermal variance diverges at T = 1)"
        )
    if f.delta_t <= 0.0:
        raise DomainError("analytic fading average needs delta_t > 0")
    require_transmittance(f.t_min)
    return f.t_min, f.t_max


def _require_asymptotic_domain(eps: float, f: FadingUniform) -> None:
    asymptotic_law_columns(f)
    require_noise(eps)


def skr_hba_exact(v: float, eps: float, f: FadingUniform) -> SkrBreakdown:
    """Worst-case-rate key rate with the exact Holevo bound averaged over the
    transmittance.

    mutual_info is the fixed-channel value at t_min; holevo is the mean of
    holevo_fixed(V, T, eps) over [t_min, t_max] (``law_mean``), the point
    value when t_max = t_min (delta_t = 0, or below the rounding of t_min).
    The mean is over t_max - t_min, not delta_t, whose difference from it
    (the rounding of t_min + delta_t) is ulp(t_min) / delta_t relative.  V
    and eps are validated once, here.  Raises QuadratureError where the
    103-node level too disagrees, and the scalar error at the first node
    evaluated that fails a check of ``holevo_fixed``.
    """
    mi = mutual_information_fixed(ChannelParams(v, f.t_min, eps))
    return SkrBreakdown.from_parts(mi, law_mean(holevo_rows, f.t_min, f.t_max, v, eps))


def skr_hba_exact_rows(v, eps, t_min, t_max):
    """``skr_hba_exact`` at every cell of arrays that broadcast (rows, or
    blocks x V with (blocks, 1) columns eps, t_min and t_max), V >= 1 and
    eps >= 0 already validated, t_max the law's (``FadingUniform.t_max``).
    Returns (mutual_info, holevo), equal to the scalar values bit for bit,
    holevo NaN where t_min <= T_FLOOR (the scalar path's rule), a node fails
    a check, the two levels disagree, or the mean is below
    -PHYSICALITY_SLACK."""
    holevo = law_mean(holevo_rows, t_min, t_max, v, eps)
    bad = (holevo < -PHYSICALITY_SLACK) | (t_min <= T_FLOOR)
    return mutual_information_form(t_min, v - 1.0, eps), np.where(bad, np.nan, holevo)


def _mi_asymptotic_t_part(t, eps):
    """The large-V mutual information less (1/2) log2 V: (1/2) log2(T / (1 + eps T))."""
    return 0.5 * log2(t / (1.0 + eps * t))


def _plus_half_log2_v(v_free, v):
    """A large-V quantity from its V-free part: v_free + (1/2) log2 V, for
    float or ndarray arguments."""
    return v_free + 0.5 * log2(v)


def mutual_information_asymptotic(t: float, eps: float, v: float) -> float:
    """Large-V mutual information (1/2) log2(T / (1 + eps T)) + (1/2) log2 V."""
    require_variance(v)
    require_transmittance(t)
    require_noise(eps)
    return _plus_half_log2_v(_mi_asymptotic_t_part(t, eps), v)


def asymptotic_eigenvalues(t: float, eps: float, v: float) -> SymplecticSpectrum:
    """Large-V symplectic spectrum: V(1-T), omega, sqrt((1-T) omega V / T).

    Beyond V >= 1 no threshold on V is enforced; for V too small the values
    stop being a physical spectrum and construction fails.
    """
    require_variance(v)
    omega = derive_omega(t, eps)
    return SymplecticSpectrum(
        lambda1=v * (1.0 - t),
        lambda2=omega,
        lambda3=math.sqrt((1.0 - t) * omega * v / t),
    )


def holevo_asymptotic(t: float, eps: float, v: float) -> float:
    """Large-V Holevo bound (1/2) log2(T (1-T) V / omega) + g((omega-1)/2), bits."""
    require_variance(v)
    require_open_transmittance(t)
    require_noise(eps)
    arg = _regime_ratio(t, eps) * v
    if arg <= 1.0:
        warnings.warn(
            f"large-V Holevo bound evaluated outside its regime (T(1-T)V/omega = {arg:.3g} <= 1)",
            RuntimeWarning,
            stacklevel=2,
        )
    return _plus_half_log2_v(_large_v_holevo_nodes(t, eps), v)


def _thermal_nodes(t, eps):
    """The thermal entropy term g((omega-1)/2) at every node of t, with
    (omega-1)/2 = eps T / (2 (1-T)); 0 where eps T underflows."""
    return g_entropy_array(eps * t / (2.0 * (1.0 - t)))


def _regime_ratio(t, eps):
    """T (1-T) / omega = T (1-T)^2 / (1 - T + eps T), so that omega is never
    formed: the large-V Holevo bound holds where V times this exceeds 1."""
    tb = 1.0 - t
    return t * tb * tb / (tb + eps * t)


def _large_v_holevo_nodes(t, eps):
    """The large-V Holevo bound less (1/2) log2 V at every node of t:
    (1/2) log2(T (1-T) / omega) + g((omega-1)/2)."""
    return 0.5 * log2(_regime_ratio(t, eps)) + _thermal_nodes(t, eps)


def htilde(eps: float, f: FadingUniform) -> float:
    """Fading average of the thermal entropy term g((omega-1)/2), bits
    (``law_mean``); 0 at eps = 0 (passive eavesdropper)."""
    _require_asymptotic_domain(eps, f)
    return law_mean(_thermal_nodes, f.t_min, f.t_max, eps)


def avg_holevo_analytic(v: float, eps: float, f: FadingUniform) -> float:
    """Fading average of the large-V Holevo bound, bits: (1/2) log2 V plus
    the ``law_mean`` of its V-free part, as in ``skr_hba_asymptotic_rows``."""
    _require_asymptotic_domain(eps, f)
    require_variance(v)
    return _plus_half_log2_v(law_mean(_large_v_holevo_nodes, f.t_min, f.t_max, eps), v)


def holevo_asymptotic_regime_floor(eps: float, f: FadingUniform) -> float:
    """Smallest V for which T(1-T)V/omega > 1 across [t_min, t_max].

    T(1-T)/omega is unimodal in T, so its minimum over the interval sits at
    an endpoint; below the returned V the large-V Holevo bound turns negative
    somewhere on the support and the closed form is outside its validity.
    """
    _require_asymptotic_domain(eps, f)
    return 1.0 / min(_regime_ratio(f.t_min, eps), _regime_ratio(f.t_max, eps))


def skr_hba_asymptotic(v: float, eps: float, f: FadingUniform) -> SkrBreakdown:
    """Large-V key rate: asymptotic worst-case mutual information minus the
    averaged large-V Holevo bound, by the row kernel at one point.  The
    (1/2) log2 V terms cancel, so the rate is independent of V."""
    require_variance(v)
    require_noise(eps)
    mi, hol = skr_hba_asymptotic_rows(v, eps, *asymptotic_law_columns(f))
    if np.isnan(hol):
        raise DomainError(
            f"large-V closed form outside its validity at V = {v!r} (averaged "
            "Holevo bound is negative); increase V or use the exact pipeline"
        )
    return SkrBreakdown.from_parts(mi, float(hol))


def skr_hba_asymptotic_rows(v, eps, t_min, t_max):
    """``skr_hba_asymptotic`` at every cell of arrays that broadcast (rows,
    or blocks x V with (blocks, 1) columns eps, t_min and t_max; or at one
    float point, which is how the scalar path takes it), the columns after
    eps from ``asymptotic_law_columns``; V >= 1 and eps >= 0 already
    validated.  The V-free parts depend on the block columns alone: the
    mutual information's at t_min, and one ``law_mean`` of the Holevo
    bound's, NaN where its two levels disagree (the scalar path's
    QuadratureError).  Returns (mutual_info, holevo), holevo also NaN where
    it is negative (the scalar path's DomainError)."""
    mi = _plus_half_log2_v(_mi_asymptotic_t_part(t_min, eps), v)
    holevo = _plus_half_log2_v(law_mean(_large_v_holevo_nodes, t_min, t_max, eps), v)
    return mi, np.where(holevo < 0.0, np.nan, holevo)
