"""The fading law: the transmittance of each channel use is an independent
draw from a known distribution, here uniform on [t_min, t_min + delta_t].

Both eavesdropping models average over this law with ``law_mean``: the
worst-case-rate model (``hba``) the Holevo bound, the averaged-covariance
model (``cma``) the mutual information, its Holevo bound needing only the
moments of sqrt(T) and T (``moments_uniform``).  ``montecarlo`` samples it.

``law_mean`` is a nested pair of tanh-sinh rules (Takahasi & Mori, Publ.
RIMS 9, 1974; Bailey, Jeyabalan & Li, Exp. Math. 14, 2005): step 1/16 on
|s| <= 3.2, 103 nodes, every other one (51) the coarse level.  The nodes
crowd into both ends, so an x log x end (the exact Holevo bound at T = 1,
small eps) costs no more than a smooth integrand.  A point mass (no fading)
takes the one node t_min: both models reduce to the fixed channel by this
rule alone.  Another fading law needs other nodes and weights only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

# Error targets of ``law_mean`` (and of ``numerics.integrate``): the two
# levels must agree to max(ABS_TOL, REL_TOL * |mean|).
ABS_TOL = 1e-12
REL_TOL = 1e-10
# cells per chunk of ``law_mean``: 6,592 nodes, so the temporaries of a
# chunk stay in cache
CHUNK_ROWS = 64

# the tanh-sinh pair on [-1, 1], ordered by x = tanh((pi/2) sinh(s)),
# s = k/16 for |k| <= 51; _D is each node's distance from its nearer end,
# 1 - |x| = 2 / (1 + e^(pi |sinh s|)), taken directly (1 - x would cancel)
_S = np.arange(-51, 52) / 16.0
_D = 2.0 / (1.0 + np.exp(math.pi * np.abs(np.sinh(_S))))
_D_LO, _D_HI = _D[:51], _D[51:]  # the nodes measured from t_min, from t_max (x >= 0)
# weights of the fine level's mean, h (pi/2) cosh(s) (1 - x^2) / 2; the
# coarse level (k even, every other node from the second) takes twice them
_W = (math.pi / 64.0) * np.cosh(_S) * _D * (2.0 - _D)


@dataclass(frozen=True)
class FadingUniform:
    """Uniform transmittance distribution on [t_min, t_min + delta_t].

    delta_t = 0 is the degenerate point mass at t_min; 0 < t_min <= 1.  A
    t_max up to 1e-12 above 1 is taken as 1: delta_t is stored as 1 - t_min,
    so the moments, the draws, the standard errors and ``law_mean`` all see
    the same law.
    """

    t_min: float
    delta_t: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_min) and 0.0 < self.t_min <= 1.0):
            raise DomainError(f"t_min must satisfy 0 < t_min <= 1, got {self.t_min!r}")
        if not (math.isfinite(self.delta_t) and self.delta_t >= 0.0):
            raise DomainError(f"delta_t must be >= 0, got {self.delta_t!r}")
        if self.t_min + self.delta_t > 1.0 + 1e-12:
            raise DomainError(
                f"t_max = t_min + delta_t must be <= 1, got {self.t_min + self.delta_t!r}"
            )
        if self.t_min + self.delta_t > 1.0:
            object.__setattr__(self, "delta_t", 1.0 - self.t_min)

    @property
    def t_max(self) -> float:
        return min(self.t_min + self.delta_t, 1.0)


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
    cancelling differences a^3 - b^3 and <T> - <sqrt(T)>^2 divided out.
    They are taken on the law scaled by the 4^k (k >= 0) that lifts t_max to
    [1/4, 1], exact and changing no normal value's bits, so that no power of
    a small T underflows."""
    if f.delta_t == 0.0:
        return TransmittanceMoments(math.sqrt(f.t_min), f.t_min, 0.0)
    k = max(-math.frexp(f.t_max)[1] // 2, 0)
    t_min, t_max, delta_t = (math.ldexp(x, 2 * k) for x in (f.t_min, f.t_max, f.delta_t))
    a, b = math.sqrt(t_max), math.sqrt(t_min)
    sum2 = (a + b) * (a + b)
    var_sqrt_t = delta_t * delta_t * (t_max + 4.0 * a * b + t_min) / (18.0 * (sum2 * sum2))
    return TransmittanceMoments(
        math.ldexp(2.0 * (t_max + a * b + t_min) / (3.0 * (a + b)), -k),
        *(math.ldexp(x, -2 * k) for x in (t_min + 0.5 * delta_t, var_sqrt_t)),
    )


def _nodes(lo, hi):
    """The nodes of [lo, hi] along a last axis; lo and hi are floats, or
    columns with a last axis of 1."""
    half = 0.5 * (hi - lo)
    return np.concatenate((lo + half * _D_LO, hi - half * _D_HI), axis=-1)


def _levels(y):
    """The fine and coarse means of y, an integrand's values at the nodes
    along the last axis.  Each sum runs over the last axis only, so a cell
    of a chunk gets the bits the same cell gets alone; doubling the terms is
    exact, so the coarse level is twice the sum of every other fine term."""
    terms = y * _W
    coarse = 2.0 * np.add.reduce(terms[..., 1::2], axis=-1)
    return np.add.reduce(terms, axis=-1), coarse


def law_mean(integrand, t_min, t_max, *args):
    """Mean of integrand(T, *args) over T uniform on [t_min, t_max], the
    law's support (``FadingUniform.t_max``), by the nested tanh-sinh pair;
    at a point mass (t_max == t_min) the integrand at the one node t_min.

    integrand maps an array of nodes, and args as given, to the values at
    those nodes, elementwise.  One row (t_min a float): the fine level where
    the two levels agree to max(ABS_TOL, REL_TOL * |mean|), else
    QuadratureError with the gap.  Cells (ndarrays that broadcast: rows, or
    blocks x V with (blocks, 1) block columns): the point masses along the
    first axis in one integrand call, the other entries in chunks of at most
    ``CHUNK_ROWS`` cells, whole blocks or one cut along V, the node axis
    last, so what the block columns alone give is computed once per block;
    a cell gets the bits it gets alone, or NaN where its levels disagree.
    """
    if not isinstance(t_min, np.ndarray):
        if t_max == t_min:
            return integrand(np.full(1, t_min), *args).item()
        fine, coarse = _levels(integrand(_nodes(t_min, t_max), *args))
        if not abs(fine - coarse) <= max(ABS_TOL, REL_TOL * abs(fine)):
            raise QuadratureError(
                f"fading average on [{t_min!r}, {t_max!r}] not resolved: the two "
                f"tanh-sinh levels differ by {abs(fine - coarse):.3e}"
            )
        return float(fine)
    shape = np.broadcast_shapes(*(a.shape for a in (t_min, t_max, *args)))
    point = np.ravel(t_max == t_min)
    mean = np.empty(shape)
    mean[point] = integrand(*(a[point, ..., None] for a in (t_min, *args)))[..., 0]
    t_min, t_max, *args = (a[~point] for a in (t_min, t_max, *args))
    fine, coarse = np.empty((2, t_min.shape[0], *shape[1:]))
    # whole blocks (first-axis entries) per chunk, or one cut along V; t_min
    # and t_max are block columns, never cut, and rows have no V axis to cut
    width = math.prod(shape[1:])
    step = max(CHUNK_ROWS // width, 1)
    cuts = [slice(c, c + CHUNK_ROWS) for c in range(0, width, CHUNK_ROWS)]
    for start in range(0, fine.shape[0], step):
        rows = slice(start, start + step)
        t = _nodes(t_min[rows, ..., None], t_max[rows, ..., None])  # once per block
        for at in ((rows, cut)[: len(shape)] for cut in cuts):
            # a (blocks, 1) column is not cut: it broadcasts along V
            rest = [a[(rows, ..., None) if a.shape[-1] == 1 else at + (None,)] for a in args]
            fine[at], coarse[at] = _levels(integrand(t, *rest))
    agree = np.abs(fine - coarse) <= np.maximum(ABS_TOL, REL_TOL * np.abs(fine))
    mean[~point] = np.where(agree, fine, np.nan)
    return mean
