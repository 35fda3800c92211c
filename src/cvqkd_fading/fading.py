"""The fading law: the transmittance of each channel use is an independent
draw from a known distribution, here uniform on [t_min, t_min + delta_t].

Both eavesdropping models average over this law: the worst-case-rate model
(``hba``) over the transmittance itself, the averaged-covariance model
(``cma``) through the first two moments of sqrt(T) and T.  The Monte-Carlo
check (``montecarlo``) samples it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class FadingUniform:
    """Uniform transmittance distribution on [t_min, t_min + delta_t].

    delta_t = 0 is the degenerate point mass at t_min.  A t_max up to 1e-12
    above 1 is taken as 1: delta_t is stored as 1 - t_min (t_min <= 1), so
    the moments, the draws and the standard errors all see the same law.
    """

    t_min: float
    delta_t: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_min) and self.t_min > 0.0):
            raise DomainError(f"t_min must be positive, got {self.t_min!r}")
        if not (math.isfinite(self.delta_t) and self.delta_t >= 0.0):
            raise DomainError(f"delta_t must be >= 0, got {self.delta_t!r}")
        if self.t_min + self.delta_t > 1.0 + 1e-12:
            raise DomainError(
                f"t_max = t_min + delta_t must be <= 1, got {self.t_min + self.delta_t!r}"
            )
        if self.t_min <= 1.0 < self.t_min + self.delta_t:
            object.__setattr__(self, "delta_t", 1.0 - self.t_min)

    @property
    def t_max(self) -> float:
        return min(self.t_min + self.delta_t, 1.0)

    @property
    def t_mean(self) -> float:
        return self.t_min + 0.5 * self.delta_t


@dataclass(frozen=True)
class TransmittanceMoments:
    """First two moments of the transmittance distribution:
    mean of sqrt(T), mean of T, and Var(sqrt(T)) = <T> - <sqrt(T)>^2."""

    mean_sqrt_t: float
    mean_t: float
    var_sqrt_t: float

    def __post_init__(self) -> None:
        if not (0.0 < self.mean_sqrt_t <= 1.0):
            raise DomainError(f"mean_sqrt_t must be in (0, 1], got {self.mean_sqrt_t!r}")
        if not (0.0 < self.mean_t <= 1.0):
            raise DomainError(f"mean_t must be in (0, 1], got {self.mean_t!r}")
        if self.var_sqrt_t < 0.0:
            raise DomainError(f"var_sqrt_t must be >= 0, got {self.var_sqrt_t!r}")
        if self.mean_sqrt_t**2 > self.mean_t + 1e-12:
            raise DomainError(
                "moments violate Jensen's inequality: "
                f"<sqrt(T)>^2 = {self.mean_sqrt_t**2!r} > <T> = {self.mean_t!r}"
            )


def moments_uniform(f: FadingUniform) -> TransmittanceMoments:
    """Closed-form moments of the uniform fading law.  With a = sqrt(t_max)
    and b = sqrt(t_min), <sqrt(T)> = 2 (a^2 + ab + b^2) / (3 (a + b)) and
    Var(sqrt(T)) = delta_t^2 (a^2 + 4ab + b^2) / (18 (a + b)^4): the
    cancelling differences a^3 - b^3 and <T> - <sqrt(T)>^2 divided out."""
    if f.delta_t == 0.0:
        return TransmittanceMoments(math.sqrt(f.t_min), f.t_min, 0.0)
    a, b = math.sqrt(f.t_max), math.sqrt(f.t_min)
    sum2 = (a + b) * (a + b)
    return TransmittanceMoments(
        2.0 * (f.t_max + a * b + f.t_min) / (3.0 * (a + b)),
        f.t_min + 0.5 * f.delta_t,
        f.delta_t * f.delta_t * (f.t_max + 4.0 * a * b + f.t_min) / (18.0 * (sum2 * sum2)),
    )
