"""Secret key rate when the eavesdropper bound is averaged over the fading.

Fast fading: the transmittance of each use is an unknown draw from a known
distribution, here uniform on [t_min, t_min + delta_t] (``fading``).  In
this model the legitimate parties code at the worst-case rate (mutual
information evaluated at t_min) while the Holevo bound is averaged over the
transmittance distribution.

Two pipelines are provided:

* ``skr_hba_exact`` -- averages the exact fixed-channel Holevo bound over
  the transmittance; valid for any V >= 1, and the default everywhere.  One
  array evaluation covers the nodes of a 32-point and a 64-point
  Gauss-Legendre rule; the 64-point value is accepted when the two agree
  within tolerance ``numerics.ABS_TOL``/``REL_TOL`` (a nested n/2n error
  estimate, Piessens et al., QUADPACK, 1983).  Otherwise adaptive Simpson over the
  scalar ``holevo_fixed`` gives the value: at an x log x endpoint (t_max ->
  1 at small eps, where lambda2 -> 1), or when a node's spectrum overflows
  (V beyond ~1e154, where the scalar path raises).  Adaptive Simpson stays
  the independent oracle the tests hold the Gauss-Legendre value to.
  ``skr_hba_exact_rows`` evaluates the same
  node kernel for many rows at once, a chunk of rows per node matrix, for
  the sweep; a point evaluation is its one-row case.
* ``skr_hba_asymptotic`` -- the large-V closed form, whose rate is
  independent of V.  Its averaged Holevo bound is assembled from endpoint
  antiderivatives (logarithmic part plus a dilogarithm part); the assembly is
  cross-checked against quadrature of the large-V integrand in the test
  suite, which is the normative definition.

The asymptotic forms are parametrized by the equivalent thermal variance,
which diverges at T = 1, so they require t_max < 1; the exact pipeline
accepts t_max = 1.
"""

from __future__ import annotations

import math
import warnings
from functools import cache

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
from .fading import FadingUniform
from .numerics import ABS_TOL, LOG2_E, REL_TOL, dilog, g_entropy, integrate, log2

_GL_LOW, _GL_HIGH = 32, 64  # node counts of the nested Gauss-Legendre pair
# rows per node matrix of ``skr_hba_exact_rows``: 6,144 nodes, so the
# temporaries of a chunk stay small next to the process
_CHUNK_ROWS = 64
# below this eps ``htilde`` is its eps -> 0 limit, 0: with 1 - T >= 2^-53,
# (omega - 1)/2 = T eps / (2 (1 - T)) < 5e-285 and g of it < 1e-280 bits, far
# below the rounding of the rest of the bound, while the closed form loses
# every digit to its 1/eps cancellation and then underflows or overflows
EPS_NEGLIGIBLE = 1e-300


@cache
def _gauss_legendre_pair() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of both rules on [-1, 1] in one array (low rule first) and the
    weights of each rule.  Built on first use, so commands that never
    average the exact bound do not load ``numpy.polynomial``."""
    low_x, low_w = np.polynomial.legendre.leggauss(_GL_LOW)
    high_x, high_w = np.polynomial.legendre.leggauss(_GL_HIGH)
    return np.concatenate((low_x, high_x)), low_w, high_w


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


def _node_holevo(v, eps, t):
    """``holevo_fixed`` at every node of t, and whether all nodes of a row
    (the last axis of t) pass the scalar path's checks (``holevo_rows``).
    v and eps are floats, or columns of rows."""
    holevo, ok = holevo_rows(v, t, eps)
    return holevo, ok.all(axis=-1)


def _gauss_legendre(half: float, nodes: np.ndarray) -> float | None:
    """int holevo_fixed dT over one row's interval from its node values: the
    64-point value if the 32-point value agrees with it to
    max(ABS_TOL, REL_TOL * |I|), else None.  Each sum is a 1-D dot product,
    so a row of a chunk gets the bits a single row gets."""
    _, low_w, high_w = _gauss_legendre_pair()
    low = half * float(nodes[:_GL_LOW] @ low_w)
    high = half * float(nodes[_GL_LOW:] @ high_w)
    return high if abs(high - low) <= max(ABS_TOL, REL_TOL * abs(high)) else None


def skr_hba_exact(v: float, eps: float, f: FadingUniform) -> SkrBreakdown:
    """Worst-case-rate key rate with the exact Holevo bound averaged over the
    transmittance.

    mutual_info is the fixed-channel value at t_min; holevo is the mean of
    holevo_fixed(V, T, eps) over [t_min, t_max], the point value when
    t_max = t_min (delta_t = 0, or below the rounding of t_min).  The
    integral is divided by t_max - t_min, not by delta_t, whose difference
    from it (the rounding of t_min + delta_t) is ulp(t_min) / delta_t
    relative.  V and eps are validated once, here.  The integral is the
    one-row case of ``skr_hba_exact_rows``: the 64-point
    Gauss-Legendre value when every node passes the scalar checks and the
    32-point value is within tolerance ``numerics.ABS_TOL``/``REL_TOL`` of
    it; otherwise adaptive Simpson (``integrate``) over the scalar
    ``holevo_fixed``, which raises the scalar path's error where a node of
    its own fails.
    """
    p = ChannelParams(v, f.t_min, eps)
    mi = mutual_information_fixed(p)
    if f.t_max == f.t_min:
        return SkrBreakdown.from_parts(mi, holevo_fixed(p))
    half = 0.5 * (f.t_max - f.t_min)
    nodes, ok = _node_holevo(v, eps, 0.5 * (f.t_max + f.t_min) + half * _gauss_legendre_pair()[0])
    total = _gauss_legendre(half, nodes) if ok else None
    if total is None:
        total = integrate(lambda t: holevo_fixed(ChannelParams(v, t, eps)), f.t_min, f.t_max)
    return SkrBreakdown.from_parts(mi, total / (2.0 * half))


def skr_hba_exact_rows(v, eps, t_min, t_max):
    """``skr_hba_exact`` at every row of equal-length arrays, V >= 1 and
    eps >= 0 already validated, t_max the law's (``FadingUniform.t_max``);
    one node matrix per ``_CHUNK_ROWS`` rows, and ``holevo_rows`` for the
    rows with t_max = t_min.  Returns (mutual_info, holevo, ok), equal to
    the scalar values bit for bit where ok.  ok fails where a node or point
    fails a check, the two rules disagree (the rows adaptive Simpson takes),
    the Holevo bound is below -PHYSICALITY_SLACK or a value is not finite."""
    half, mid = 0.5 * (t_max - t_min), 0.5 * (t_max + t_min)
    x = _gauss_legendre_pair()[0]
    holevo = np.full(v.size, np.nan)
    point = half == 0.0
    point_holevo, point_ok = holevo_rows(v[point], t_min[point], eps[point])
    holevo[point] = np.where(point_ok, point_holevo, np.nan)
    wide = np.flatnonzero(~point)
    for lo in range(0, wide.size, _CHUNK_ROWS):
        rows = wide[lo : lo + _CHUNK_ROWS]
        t = mid[rows, None] + half[rows, None] * x
        nodes, ok = _node_holevo(v[rows, None], eps[rows, None], t)
        for i, row in zip(np.flatnonzero(ok).tolist(), rows[ok].tolist()):
            total = _gauss_legendre(float(half[row]), nodes[i])
            if total is not None:
                holevo[row] = total / (2.0 * float(half[row]))
    mi = mutual_information_form(v, 1.0 / t_min - 1.0 + eps)
    return mi, holevo, (holevo >= -PHYSICALITY_SLACK) & np.isfinite(holevo) & np.isfinite(mi)


def _mi_asymptotic_t_part(t: float, eps: float) -> float:
    omega = derive_omega(t, eps)
    return 0.5 * math.log2(t / (t + (1.0 - t) * omega))


def _mi_asymptotic(t_part, v):
    return t_part + 0.5 * log2(v)


def mutual_information_asymptotic(t: float, eps: float, v: float) -> float:
    """Large-V mutual information (1/2) log2(T / (T + (1-T) omega)) + (1/2) log2 V."""
    require_variance(v)
    return _mi_asymptotic(_mi_asymptotic_t_part(t, eps), v)


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


def _h_average_antiderivative(t: float, eps: float) -> float:
    """Antiderivative (up to the 1/(2 delta_t) weight) of twice the thermal
    entropy term g((omega-1)/2) along the transmittance; contains the
    dilogarithm pieces.  Requires 0 < eps < 1 and 0 < t < 1."""
    tb = 1.0 - t
    u = 2.0 * tb + eps * t
    return (
        2.0 * math.log2(tb)
        - 2.0 * (eps - 1.0) / (eps - 2.0) * math.log2(t)
        + 2.0 / (eps - 2.0) * math.log2(u)
        + t * math.log2(eps * t * u / (4.0 * tb * tb))
        - (eps - 1.0) / (eps - 2.0) * u * math.log2(u / (eps * t))
        - eps * LOG2_E * (dilog(tb) - dilog((eps - 2.0) * tb / eps))
    )


def htilde(eps: float, f: FadingUniform) -> float:
    """Fading average of the thermal entropy term g((omega-1)/2), in closed form.

    Explicit eps > 0 is required: the expression contains 1/eps and
    dilogarithm arguments (eps-2)(1-T)/eps; the eps -> 0 limit is exactly 0
    (passive eavesdropper) and must be substituted by the caller.  Below
    ``EPS_NEGLIGIBLE`` the limit is returned.
    """
    _require_asymptotic_domain(eps, f)
    if eps == 0.0:
        raise DomainError(
            "htilde is singular at eps = 0; callers must substitute its limit, 0"
        )
    if eps < EPS_NEGLIGIBLE:
        return 0.0
    try:
        ends = _h_average_antiderivative(f.t_max, eps) - _h_average_antiderivative(f.t_min, eps)
    except ValueError:  # eps * t * u underflows to 0 at a tiny t_min (log2 fails)
        ends = math.nan
    if not math.isfinite(ends):
        raise DomainError(f"htilde closed form is not finite at eps = {eps!r} (eps too small)")
    return ends / (2.0 * f.delta_t)


def _log_endpoint(t: float, eps: float) -> tuple[float, float, float, float]:
    """The V-free pieces (a, k, u, c) of ``_log_antiderivative`` at T = t:
    a = log2(u) / (1 - eps), k = (1-T)^2 T, u = (1-T) + eps*T and
    c = log2((1-T)^2)."""
    tb = 1.0 - t
    u = tb + eps * t
    return math.log2(u) / (1.0 - eps), tb * tb * t, u, math.log2(tb * tb)


def _log_antiderivative(t, v, a, k, u, c):
    """Antiderivative (up to the 1/(2 delta_t) weight) of
    log2(T (1-T) V / omega) along the transmittance, at T = t from the
    pieces of ``_log_endpoint``: a + t (log2(k V / u) - 2/ln 2) - c."""
    return a + t * (log2(k * v / u) - 2.0 * LOG2_E) - c


def _log_average(v, t_min, t_max, delta_t, lo, hi):
    """Fading average of log2(T (1-T) V / omega) / 2, the logarithmic part of
    the averaged large-V Holevo bound, from the ``_log_endpoint`` pieces lo
    at t_min and hi at t_max; float or ndarray arguments."""
    return (
        _log_antiderivative(t_max, v, *hi) - _log_antiderivative(t_min, v, *lo)
    ) / (2.0 * delta_t)


def avg_holevo_analytic(v: float, eps: float, f: FadingUniform) -> float:
    """Closed-form fading average of the large-V Holevo bound, bits.

    Assembled from the endpoint values of two antiderivatives, taken from
    the columns of ``asymptotic_block`` that the sweep kernel also uses: the
    logarithmic part and the thermal entropy part (``htilde``).  At eps = 0
    the htilde term is replaced by its proven limit, 0.  Quadrature of the
    large-V integrand is the normative definition; the test suite holds this
    assembly to it at 1e-6 relative.
    """
    t_min, t_max, delta_t, _, h_part, *endpoints = asymptotic_block(eps, f)
    require_variance(v)
    return _log_average(v, t_min, t_max, delta_t, endpoints[:4], endpoints[4:]) + h_part


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
    analytic averaged Holevo bound, both from one ``asymptotic_block``.  The
    (1/2) log2 V terms cancel, so the rate is independent of V."""
    require_variance(v)
    require_noise(eps)
    t_min, t_max, delta_t, mi_t_part, h_part, *endpoints = asymptotic_block(eps, f)
    mi = _mi_asymptotic(mi_t_part, v)
    hol = _log_average(v, t_min, t_max, delta_t, endpoints[:4], endpoints[4:]) + h_part
    if hol < 0.0:
        raise DomainError(
            f"large-V closed form outside its validity at V = {v!r} (averaged "
            "Holevo bound is negative); increase V or use the exact pipeline"
        )
    return SkrBreakdown.from_parts(mi, hol)


def asymptotic_block(eps: float, f: FadingUniform) -> tuple[float, ...]:
    """What ``skr_hba_asymptotic_rows`` needs of one (eps, fading) block,
    computed by the scalar code and raising its DomainError: t_min, t_max,
    delta_t, the V-free part of the mutual information, the averaged
    thermal term (``htilde``, 0 at eps = 0; all of the dilogarithm) and the
    ``_log_endpoint`` pieces at t_min and at t_max."""
    _require_asymptotic_domain(eps, f)
    h_part = htilde(eps, f) if eps > 0.0 else 0.0
    return (
        f.t_min,
        f.t_max,
        f.delta_t,
        _mi_asymptotic_t_part(f.t_min, eps),
        h_part,
        *_log_endpoint(f.t_min, eps),
        *_log_endpoint(f.t_max, eps),
    )


def skr_hba_asymptotic_rows(v, t_min, t_max, delta_t, mi_t_part, h_part, *endpoints):
    """``skr_hba_asymptotic`` at every row of equal-length arrays, the block
    columns from ``asymptotic_block``; V >= 1 already validated.  Returns
    (mutual_info, holevo, ok), equal to the scalar values bit for bit where
    ok; ok fails where the averaged Holevo bound is negative (the scalar
    DomainError) or a value is not finite."""
    mi = _mi_asymptotic(mi_t_part, v)
    log_part = _log_average(v, t_min, t_max, delta_t, endpoints[:4], endpoints[4:])
    holevo = log_part + h_part
    return mi, holevo, (holevo >= 0.0) & np.isfinite(holevo) & np.isfinite(mi)
