"""Secret key rate when the eavesdropper bound is averaged over the fading.

Fast fading: the transmittance of each use is an unknown draw from a known
distribution, here uniform on [t_min, t_min + delta_t] (``fading``).  In
this model the legitimate parties code at the worst-case rate (mutual
information evaluated at t_min) while the Holevo bound is averaged over the
transmittance distribution.

Two pipelines are provided:

* ``skr_hba_exact`` -- the ``fading.law_mean`` of the exact fixed-channel
  Holevo bound (``holevo_rows`` at the nodes); valid for any V >= 1, and
  the default everywhere.  QuadratureError where the two tanh-sinh levels
  disagree; the scalar ``holevo_fixed`` error at the first node that fails
  its checks (at once beyond V ~ 1e154, where the spectrum overflows).
  ``skr_hba_exact_rows`` is the same kernel for many rows, for the sweep.
* ``skr_hba_asymptotic`` -- the large-V form, whose rate is independent of
  V.  The large-V Holevo bound is (1/2) log2 V plus a V-free part, so its
  mean is one ``law_mean`` per (eps, law) block.  The paper's closed form
  of that mean (logarithms and dilogarithms) is a test-suite reference.

The asymptotic forms are parametrized by the equivalent thermal variance,
which diverges at T = 1, so they require t_max < 1; the exact pipeline
accepts t_max = 1.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .channel import (
    PHYSICALITY_SLACK,
    ChannelParams,
    SkrBreakdown,
    SymplecticSpectrum,
    derive_omega,
    holevo_fixed,
    holevo_rows,
    mutual_information_fixed,
    mutual_information_form,
    require_noise,
    require_variance,
)
from .errors import DomainError
from .fading import FadingUniform, law_mean
from .numerics import dilog, integrate  # noqa: F401  (looked up by perfbench's tracer)
from .numerics import g_entropy, g_entropy_array, log2


def _require_asymptotic_domain(eps: float, f: FadingUniform) -> None:
    if f.t_max >= 1.0:
        raise DomainError(
            "asymptotic routines need t_max < 1 (thermal variance diverges at T = 1)"
        )
    if f.delta_t <= 0.0:
        raise DomainError("analytic fading average needs delta_t > 0")
    if not (math.isfinite(eps) and 0.0 <= eps < 1.0):
        raise DomainError(
            f"analytic average is implemented for 0 <= eps < 1, got {eps!r}"
        )


def _holevo_nodes(t, v, eps):
    """``holevo_fixed`` at every node of t, NaN at a node that fails a check
    of the scalar path (``holevo_rows``).  v and eps are floats (one row:
    the scalar path's error is raised at the first failing node instead) or
    columns of rows."""
    holevo, ok = holevo_rows(v, t, eps)
    if not isinstance(v, np.ndarray) and not ok.all():
        holevo_fixed(ChannelParams(v, float(t[~ok][0]), eps))
    return np.where(ok, holevo, np.nan)


def skr_hba_exact(v: float, eps: float, f: FadingUniform) -> SkrBreakdown:
    """Worst-case-rate key rate with the exact Holevo bound averaged over the
    transmittance.

    mutual_info is the fixed-channel value at t_min; holevo is the mean of
    holevo_fixed(V, T, eps) over [t_min, t_max] (``law_mean``), the point
    value when t_max = t_min (delta_t = 0, or below the rounding of t_min).
    The mean is over t_max - t_min, not delta_t, whose difference from it
    (the rounding of t_min + delta_t) is ulp(t_min) / delta_t relative.  V
    and eps are validated once, here.  Raises QuadratureError where the two
    tanh-sinh levels disagree, and the scalar error at the first node that
    fails a check of ``holevo_fixed``.
    """
    mi = mutual_information_fixed(ChannelParams(v, f.t_min, eps))
    return SkrBreakdown.from_parts(mi, law_mean(_holevo_nodes, f.t_min, f.t_max, v, eps))


def skr_hba_exact_rows(v, eps, t_min, t_max):
    """``skr_hba_exact`` at every row of equal-length arrays, V >= 1 and
    eps >= 0 already validated, t_max the law's (``FadingUniform.t_max``).
    Returns (mutual_info, holevo, ok), equal to the scalar values bit for
    bit where ok.  ok fails where a node fails a check, the two levels
    disagree, the Holevo bound is below -PHYSICALITY_SLACK or a value is
    not finite."""
    holevo = law_mean(_holevo_nodes, t_min, t_max, v, eps)
    mi = mutual_information_form(v, 1.0 / t_min - 1.0 + eps)
    return mi, holevo, (holevo >= -PHYSICALITY_SLACK) & np.isfinite(holevo) & np.isfinite(mi)


def _mi_asymptotic_t_part(t: float, eps: float) -> float:
    omega = derive_omega(t, eps)
    return 0.5 * math.log2(t / (t + (1.0 - t) * omega))


def _plus_half_log2_v(v_free, v):
    """A large-V quantity from its V-free part: v_free + (1/2) log2 V, for
    float or ndarray arguments."""
    return v_free + 0.5 * log2(v)


def mutual_information_asymptotic(t: float, eps: float, v: float) -> float:
    """Large-V mutual information (1/2) log2(T / (T + (1-T) omega)) + (1/2) log2 V."""
    require_variance(v)
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
    omega = derive_omega(t, eps)
    arg = t * (1.0 - t) * v / omega
    if arg <= 1.0:
        warnings.warn(
            f"large-V Holevo bound evaluated outside its regime (T(1-T)V/omega = {arg:.3g} <= 1)",
            RuntimeWarning,
            stacklevel=2,
        )
    return 0.5 * math.log2(arg) + g_entropy((omega - 1.0) / 2.0)


def _thermal_nodes(t, eps):
    """The thermal entropy term g((omega-1)/2) at every node of t, with
    (omega-1)/2 = eps T / (2 (1-T)); 0 where eps T underflows."""
    return g_entropy_array(eps * t / (2.0 * (1.0 - t)))


def _large_v_holevo_nodes(t, eps):
    """The large-V Holevo bound less (1/2) log2 V at every node of t:
    (1/2) log2(T (1-T) / omega) + g((omega-1)/2), with
    (1-T)/omega = (1-T)^2 / (1 - T + eps T), so that omega is never formed."""
    tb = 1.0 - t
    return 0.5 * log2(t * tb * tb / (tb + eps * t)) + _thermal_nodes(t, eps)


def htilde(eps: float, f: FadingUniform) -> float:
    """Fading average of the thermal entropy term g((omega-1)/2), bits
    (``law_mean``); 0 at eps = 0 (passive eavesdropper)."""
    _require_asymptotic_domain(eps, f)
    return law_mean(_thermal_nodes, f.t_min, f.t_max, eps)


def avg_holevo_analytic(v: float, eps: float, f: FadingUniform) -> float:
    """Fading average of the large-V Holevo bound, bits: the V-free mean of
    ``asymptotic_block`` plus (1/2) log2 V, the sweep kernel's columns."""
    _, holevo_part = asymptotic_block(eps, f)
    require_variance(v)
    return _plus_half_log2_v(holevo_part, v)


def holevo_asymptotic_regime_floor(eps: float, f: FadingUniform) -> float:
    """Smallest V for which T(1-T)V/omega > 1 across [t_min, t_max].

    T(1-T)/omega is unimodal in T, so its minimum over the interval sits at
    an endpoint; below the returned V the large-V Holevo bound turns negative
    somewhere on the support and the closed form is outside its validity.
    """
    _require_asymptotic_domain(eps, f)
    worst = min(
        t * (1.0 - t) / derive_omega(t, eps) for t in (f.t_min, f.t_max)
    )
    return 1.0 / worst


def skr_hba_asymptotic(v: float, eps: float, f: FadingUniform) -> SkrBreakdown:
    """Large-V key rate: asymptotic worst-case mutual information minus the
    averaged large-V Holevo bound, both from one ``asymptotic_block``.  The
    (1/2) log2 V terms cancel, so the rate is independent of V."""
    require_variance(v)
    require_noise(eps)
    mi_part, holevo_part = asymptotic_block(eps, f)
    hol = _plus_half_log2_v(holevo_part, v)
    if hol < 0.0:
        raise DomainError(
            f"large-V closed form outside its validity at V = {v!r} (averaged "
            "Holevo bound is negative); increase V or use the exact pipeline"
        )
    return SkrBreakdown.from_parts(_plus_half_log2_v(mi_part, v), hol)


def asymptotic_block(eps: float, f: FadingUniform) -> tuple[float, float]:
    """What ``skr_hba_asymptotic_rows`` needs of one (eps, fading) block,
    computed by the scalar code and raising its DomainError: the V-free
    parts of the mutual information at t_min and of the averaged Holevo
    bound (one ``law_mean``)."""
    _require_asymptotic_domain(eps, f)
    return (
        _mi_asymptotic_t_part(f.t_min, eps),
        law_mean(_large_v_holevo_nodes, f.t_min, f.t_max, eps),
    )


def skr_hba_asymptotic_rows(v, mi_part, holevo_part):
    """``skr_hba_asymptotic`` at every row of equal-length arrays, the block
    columns from ``asymptotic_block``; V >= 1 already validated.  Returns
    (mutual_info, holevo, ok), equal to the scalar values bit for bit where
    ok; ok fails where the averaged Holevo bound is negative (the scalar
    DomainError) or a value is not finite."""
    mi = _plus_half_log2_v(mi_part, v)
    holevo = _plus_half_log2_v(holevo_part, v)
    return mi, holevo, (holevo >= 0.0) & np.isfinite(holevo) & np.isfinite(mi)
