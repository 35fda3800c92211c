"""Fixed-transmittance Gaussian channel machinery.

Entanglement-based picture of a Gaussian-modulated coherent-state protocol
with reverse reconciliation and homodyne detection: Alice holds one mode of a
two-mode squeezed vacuum of variance V (shot-noise units), the other mode
crosses a channel of transmittance T with excess noise eps referred to the
channel input.  This module evaluates, for one fixed channel point, the
mutual information of the legitimate parties, the eavesdropper's Holevo bound
from the symplectic spectrum of the shared state, and their difference (the
asymptotic secret key rate under collective attacks, unit reconciliation
efficiency).

Negative rates are returned as-is; callers decide whether to clamp for
reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .numerics import g_entropy, g_entropy_array, log2

# slack for >= 1 physicality bounds: a square root near a pure state can
# round a symplectic eigenvalue an ulp below 1
PHYSICALITY_SLACK = 1e-12

# relative rounding slack of the covariance invariants: 8 ulp of the products
ROUNDING_ULPS = 8.0 * 2.0**-52

# 1/T overflows exactly for T <= 2^-1024 (about 5.6e-309, a subnormal)
T_FLOOR = 2.0**-1024


def require_variance(v: float) -> None:
    """The rule V >= 1 (finite) on a modulation-plus-vacuum variance."""
    if not (math.isfinite(v) and v >= 1.0):
        raise DomainError(f"variance must satisfy V >= 1, got {v!r}")


def require_noise(eps: float) -> None:
    """The rule eps >= 0 (finite) on an excess noise."""
    if not (math.isfinite(eps) and eps >= 0.0):
        raise DomainError(f"excess noise must satisfy eps >= 0, got {eps!r}")


def derive_chi(t: float, eps: float) -> float:
    """Total channel-added noise referred to the input: 1/T - 1 + eps."""
    if not (math.isfinite(t) and 0.0 < t <= 1.0):
        raise DomainError(f"transmittance must satisfy 0 < T <= 1, got {t!r}")
    if t <= T_FLOOR:
        raise DomainError(f"transmittance T = {t!r} is too small: 1/T overflows below 5.6e-309")
    require_noise(eps)
    return 1.0 / t - 1.0 + eps


def derive_omega(t: float, eps: float) -> float:
    """Equivalent thermal variance of the channel noise: 1 + T*eps/(1-T).

    Diverges as T -> 1, so T = 1 is rejected; the added noise satisfies
    chi = (1-T) * omega / T.
    """
    if not (math.isfinite(t) and 0.0 < t < 1.0):
        raise DomainError(
            f"thermal variance needs 0 < T < 1 (diverges at T = 1), got {t!r}"
        )
    require_noise(eps)
    return 1.0 + t * eps / (1.0 - t)


@dataclass(frozen=True)
class ChannelParams:
    """One fixed channel point: modulation-plus-vacuum variance V (SNU, >= 1),
    transmittance T in (0, 1], excess noise eps >= 0 (SNU, channel input).
    The added noise chi = 1/T - 1 + eps is derived once, at construction."""

    v: float
    t: float
    eps: float
    chi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_variance(self.v)
        object.__setattr__(self, "chi", derive_chi(self.t, self.eps))

    @property
    def v_a(self) -> float:
        """Modulation variance V_A = V - 1."""
        return self.v - 1.0

    @property
    def omega(self) -> float:
        return derive_omega(self.t, self.eps)


@dataclass(frozen=True)
class TwoModeCovariance:
    """Standard-form two-mode covariance matrix [[a*1, c*sz], [c*sz, b*1]]
    with sz = diag(1, -1); a, b, c in shot-noise units.

    Physical (both symplectic eigenvalues >= 1) exactly when the symplectic
    invariants satisfy det = ab - c^2 >= 1 and
    Delta = a^2 + b^2 - 2c^2 <= 1 + det^2 (Serafini, Illuminati & De Siena,
    J. Phys. B 37, L21, 2004).  Each condition carries a slack of 8 ulp of the
    products it is formed from, so the slack scales with the rounding of
    a*b - c*c, which cancels to ~V at large V on the pure-loss boundary.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if not (math.isfinite(a) and a >= 1.0 - PHYSICALITY_SLACK):
            raise DomainError(f"diagonal block a must be >= 1, got {a!r}")
        if not (math.isfinite(b) and b >= 1.0 - PHYSICALITY_SLACK):
            raise DomainError(f"diagonal block b must be >= 1, got {b!r}")
        if not math.isfinite(c):
            raise DomainError(f"correlation c must be finite, got {c!r}")
        det = a * b - c * c
        delta = a * a + b * b - 2.0 * c * c
        det_tol = ROUNDING_ULPS * (a * b + c * c)
        delta_tol = ROUNDING_ULPS * (a * a + b * b + 2.0 * c * c) + 2.0 * det * det_tol
        if det < 1.0 - det_tol or delta > 1.0 + det * det + delta_tol:
            raise DomainError(
                f"unphysical covariance (a={a!r}, b={b!r}, c={c!r}): "
                f"invariants det = {det!r}, Delta = {delta!r} violate the uncertainty principle"
            )

    def matrix(self) -> np.ndarray:
        """Dense 4x4 form, xpxp ordering."""
        a, b, c = self.a, self.b, self.c
        return np.array(
            [
                [a, 0.0, c, 0.0],
                [0.0, a, 0.0, -c],
                [c, 0.0, b, 0.0],
                [0.0, -c, 0.0, b],
            ]
        )


@dataclass(frozen=True)
class SymplecticSpectrum:
    """The three eigenvalues feeding the Holevo bound: lambda1 >= lambda2 for
    the joint state, lambda3 for the state conditioned on homodyne detection."""

    lambda1: float
    lambda2: float
    lambda3: float

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "lambda3"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 1.0 - PHYSICALITY_SLACK):
                raise DomainError(f"{name} must be >= 1, got {value!r}")
        if self.lambda1 < self.lambda2 * (1.0 - 1e-12):
            raise DomainError(
                f"eigenvalues out of order: lambda1={self.lambda1!r} < lambda2={self.lambda2!r}"
            )


@dataclass(frozen=True)
class SkrBreakdown:
    """Mutual information, Holevo bound and their difference, bits per use."""

    mutual_info: float
    holevo: float
    rate: float

    def __post_init__(self) -> None:
        if self.holevo < -PHYSICALITY_SLACK:
            raise DomainError(f"Holevo bound must be >= 0, got {self.holevo!r}")
        if self.rate != self.mutual_info - self.holevo:
            raise DomainError("rate must equal mutual_info - holevo")

    @classmethod
    def from_parts(cls, mutual_info: float, holevo: float) -> "SkrBreakdown":
        return cls(mutual_info, holevo, mutual_info - holevo)


def joint_covariance(p: ChannelParams) -> TwoModeCovariance:
    """Covariance of the state shared by Alice and Bob after the channel."""
    return TwoModeCovariance(
        a=p.v,
        b=p.t * (p.v + p.chi),
        c=math.sqrt(p.t * (p.v * p.v - 1.0)),
    )


def mutual_information_form(v, chi):
    """Homodyne mutual information (1/2) log2((V + chi) / (1 + chi)), bits,
    for float or ndarray arguments."""
    return 0.5 * log2((v + chi) / (1.0 + chi))


def mutual_information_fixed(p: ChannelParams) -> float:
    """Homodyne mutual information (1/2) log2((V + chi) / (1 + chi)), bits."""
    return mutual_information_form(p.v, p.chi)


def spectrum_closed_form(v, t, eps, sqrt):
    """Closed-form symplectic spectrum of the (V, T, eps) state, written once
    for both float and ndarray arguments (``sqrt`` is ``math.sqrt`` or
    ``np.sqrt``; only arithmetic and ``abs`` are used besides it).

    Returns (lambda1, lambda2, lambda3): lambda_{1,2} =
    sqrt((A +/- sqrt(A^2 - 4B)) / 2) of the joint state and lambda3 =
    sqrt(V (1 + V chi) / (V + chi)) of Alice's state after Bob's homodyne
    detection (either quadrature), chi = 1/T - 1 + eps.  The textbook forms
    of A and B cancel at large V as T -> 1, so everything is built from
    (V, 1 - T, eps), 1 - T being exact for T >= 0.5: with
    d = (1-T)(V-1) - T eps and r = V(1-T) + T(1 + V eps) = T(V chi + 1),
    A = d^2 + 2r (the invariant Delta = a^2 + b^2 - 2c^2; Serafini et al.
    2004), B = r^2, A^2 - 4B = d^2 (d^2 + 4r) >= 0, lambda1 = sqrt((A+s)/2)
    and lambda2 = sqrt(2 r^2 / (A+s)) with s = |d| sqrt(d^2 + 4r), and
    lambda3 = sqrt(V r / (TV + (1-T) + T eps)).  Squares are written as
    products: a Python float ``** 2`` goes through the C library's ``pow``,
    which is not always correctly rounded, while numpy squares exactly, so
    ``** 2`` would let the two argument types differ.
    """
    tb = 1.0 - t
    d = tb * (v - 1.0) - t * eps
    r = v * tb + t * (1.0 + v * eps)
    dd = d * d
    big_a = dd + 2.0 * r
    a_s = big_a + abs(d) * sqrt(dd + 4.0 * r)
    lam1 = sqrt(a_s / 2.0)
    lam2 = sqrt(2.0 * r * r / a_s)
    lam3 = sqrt(v * r / (t * v + tb + t * eps))
    return lam1, lam2, lam3


def symplectic_pair(p: ChannelParams) -> tuple[float, float]:
    """Symplectic eigenvalues (lambda1 >= lambda2) of the joint covariance."""
    lam1, lam2, _ = spectrum_closed_form(p.v, p.t, p.eps, math.sqrt)
    return lam1, lam2


def conditional_eigenvalue(p: ChannelParams) -> float:
    """Symplectic eigenvalue of Alice's state after Bob's homodyne detection:
    sqrt(V (1 + V chi) / (V + chi))."""
    return spectrum_closed_form(p.v, p.t, p.eps, math.sqrt)[2]


def holevo_from_eigenvalues(lambda1: float, lambda2: float, lambda3: float) -> float:
    """Holevo bound g((l1-1)/2) + g((l2-1)/2) - g((l3-1)/2), bits.

    Eigenvalues a few ulp below 1 (rounding near pure states) are treated as 1.
    """
    terms = []
    for lam in (lambda1, lambda2, lambda3):
        if lam < 1.0 - PHYSICALITY_SLACK:
            raise DomainError(f"symplectic eigenvalue must be >= 1, got {lam!r}")
        terms.append(g_entropy(max((lam - 1.0) / 2.0, 0.0)))
    return terms[0] + terms[1] - terms[2]


def holevo_fixed(p: ChannelParams) -> float:
    """Eavesdropper's Holevo bound for one fixed channel point, bits.  The
    exact spectrum squares V(1 - T) and T eps, so beyond about 1e154 it is
    not finite and a DomainError names the point."""
    lams = spectrum_closed_form(p.v, p.t, p.eps, math.sqrt)
    if not all(map(math.isfinite, lams)):
        raise DomainError(
            f"exact spectrum overflows at V = {p.v!r}, T = {p.t!r}, eps = {p.eps!r} "
            "(V (1 - T) or T eps beyond about 1e154); hba_asymptotic covers large V"
        )
    return holevo_from_eigenvalues(*lams)


def holevo_rows(v, t, eps) -> tuple[np.ndarray, np.ndarray]:
    """``holevo_fixed`` at every element of broadcast (V, T, eps) arrays,
    equal to the scalar values bit for bit, and the mask of the elements that
    pass every check of the scalar path: T in (T_FLOOR, 1], eigenvalues
    finite and >= 1 - PHYSICALITY_SLACK, Holevo >= -PHYSICALITY_SLACK.
    Beyond V ~ 1e154 the squares overflow and the spectrum is inf or NaN,
    which the checks reject, as the scalar path does; numpy's warnings are
    silenced on the way.  Masked-out elements hold meaningless values."""
    with np.errstate(all="ignore"):
        lams = np.array(spectrum_closed_form(v, t, eps, np.sqrt))
        g = g_entropy_array(np.maximum((lams - 1.0) / 2.0, 0.0))
    holevo = g[0] + g[1] - g[2]
    physical = (lams >= 1.0 - PHYSICALITY_SLACK) & (lams < math.inf)
    ok = (t > T_FLOOR) & (t <= 1.0) & physical.all(axis=0) & (holevo >= -PHYSICALITY_SLACK)
    return holevo, ok


def skr_fixed(p: ChannelParams) -> SkrBreakdown:
    """Secret key rate breakdown for a fixed channel (may be negative)."""
    return SkrBreakdown.from_parts(mutual_information_fixed(p), holevo_fixed(p))


def skr_fixed_rows(v: np.ndarray, t: np.ndarray, eps: np.ndarray):
    """``skr_fixed`` at every row of equal-length arrays, (T, eps) already
    validated (``derive_chi``): (mutual_info, holevo, ok) with ok as in
    ``holevo_rows``."""
    mi = mutual_information_form(v, 1.0 / t - 1.0 + eps)
    holevo, ok = holevo_rows(v, t, eps)
    return mi, holevo, ok & np.isfinite(mi)
