"""The fading law: the transmittance of each channel use is an independent
draw from a known distribution, here uniform on [t_min, t_min + delta_t].

Both eavesdropping models average over this law with ``law_mean``: the
worst-case-rate model (``hba``) the Holevo bound, the averaged-covariance
model (``cma``) the mutual information, its Holevo bound needing only the
moments of sqrt(T) and T (``moments_uniform``).  ``montecarlo`` samples it.

``law_mean`` takes nested tanh-sinh levels (Takahasi & Mori, Publ. RIMS 9,
1974; Bailey, Jeyabalan & Li, Exp. Math. 14, 2005), step 1/16 on |s| <= 3.2:
the 51-node level where it agrees with the 25-node one, else the 103-node
one.  The nodes crowd into both ends, so an x log x end (the exact Holevo
bound at T = 1, small eps) costs no more than a smooth integrand.  A point
mass (no fading) takes the one node t_min: both models reduce to the fixed
channel by this rule alone.  Another fading law needs other nodes and weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

# Error targets of ``law_mean`` (and of ``numerics.integrate``): a level
# and the next coarser one must agree to max(ABS_TOL, REL_TOL * |mean|).
ABS_TOL = 1e-12
REL_TOL = 1e-10
# cells per chunk of ``law_mean`` (3,264 nodes), so its temporaries stay in cache
CHUNK_ROWS = 64

# the tanh-sinh table on [-1, 1], ordered by x = tanh((pi/2) sinh(s)),
# s = k/16 for |k| <= 51; _D is each node's distance from its nearer end,
# 1 - |x| = 2 / (1 + e^(pi |sinh s|)), taken directly (1 - x would cancel)
_S = np.arange(-51, 52) / 16.0
_D = 2.0 / (1.0 + np.exp(math.pi * np.abs(np.sinh(_S))))
_EVEN, _ODD = (_D[1:51:2], _D[51::2]), (_D[:51:2], _D[52::2])  # distances from t_min, t_max
# weights of the 103-node mean, h (pi/2) cosh(s) (1 - x^2) / 2; the 51-node
# level (k even) takes twice them, exactly (so it has the bits of a 103-node
# pair's coarse level), and the 25-node level (k = 0 mod 4) four times
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


def _nodes(lo, hi, part):
    """The nodes of part (``_EVEN`` or ``_ODD``) on [lo, hi] along a last
    axis; lo and hi are floats, or columns with a last axis of 1."""
    half = 0.5 * (hi - lo)
    return np.concatenate((lo + half * part[0], hi - half * part[1]), axis=-1)


def _agree(mean, coarser):
    """Where a level and the next coarser one agree to max(ABS_TOL, REL_TOL * |mean|)."""
    return np.abs(mean - coarser) <= np.maximum(ABS_TOL, REL_TOL * np.abs(mean))


def _coarse_levels(even):
    """The 51- and 25-node means of an integrand's values at the k even nodes,
    each summed over the last axis only: a cell has the bits it has alone."""
    terms = even * _W[1::2]
    return 2.0 * np.add.reduce(terms, axis=-1), 4.0 * np.add.reduce(terms[..., 1::2], axis=-1)


def _fine_level(integrand, lo, hi, args, even):
    """The 103-node mean of cells whose values at the k even nodes are even; evaluates the k odd."""
    y = np.empty((*even.shape[:-1], _S.size))
    y[..., 1::2], y[..., ::2] = even, integrand(_nodes(lo, hi, _ODD), *args)
    return np.add.reduce(y * _W, axis=-1)


def law_mean(integrand, t_min, t_max, *args):
    """Mean of integrand(T, *args) over T uniform on [t_min, t_max], the
    law's support (``FadingUniform.t_max``), by nested tanh-sinh levels;
    at a point mass (t_max == t_min) the integrand at the one node t_min.

    integrand maps an array of nodes, and args as given, to the values at
    those nodes, elementwise.  A cell takes the 51-node level where it
    agrees with the 25-node one, else the 103-node level where that agrees
    with the 51-node one, else NaN (one row, t_min a float: QuadratureError
    with the gap).  Cells (ndarrays that broadcast: rows, or blocks x V with
    (blocks, 1) block columns): point masses in one integrand call, the
    others in chunks of at most ``CHUNK_ROWS`` cells, whole blocks or one
    cut along V, so what the block columns alone give is computed once per
    block, and the other 52 nodes of the cells that need them gathered as
    rows.  A cell gets the bits it gets alone.
    """
    if not isinstance(t_min, np.ndarray):
        if t_max == t_min:
            return integrand(np.full(1, t_min), *args).item()
        even = integrand(_nodes(t_min, t_max, _EVEN), *args)
        coarse, rough = _coarse_levels(even)
        fine = coarse if _agree(coarse, rough) else _fine_level(integrand, t_min, t_max, args, even)
        if not _agree(fine, coarse):
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
    level = np.empty((t_min.shape[0], *shape[1:]))
    index = np.arange(level.size).reshape(level.shape)
    pending = []  # cells that need the k odd nodes, as rows: lo, hi, args, even values, index

    def second_stage(least):  # the pending cells in one call, once they number max(least, 1)
        if sum(len(cell[-1]) for cell in pending) < max(least, 1):
            return
        lo, hi, *rest, even, cells = map(np.concatenate, zip(*pending))
        fine = _fine_level(integrand, lo, hi, rest, even)
        level.flat[cells] = np.where(_agree(fine, level.flat[cells]), fine, np.nan)
        pending.clear()

    # whole blocks (first-axis entries) per chunk, or one cut along V; t_min
    # and t_max are block columns, never cut, and rows have no V axis to cut
    width = math.prod(shape[1:])
    step = max(CHUNK_ROWS // width, 1)
    cuts = [slice(c, c + CHUNK_ROWS) for c in range(0, width, CHUNK_ROWS)]
    for start in range(0, level.shape[0], step):
        rows = slice(start, start + step)
        lo, hi = t_min[rows, ..., None], t_max[rows, ..., None]
        t = _nodes(lo, hi, _EVEN)  # once per block
        for at in ((rows, cut)[: len(shape)] for cut in cuts):
            # a (blocks, 1) column is not cut: it broadcasts along V
            rest = [a[(rows, ..., None) if a.shape[-1] == 1 else at + (None,)] for a in args]
            even = integrand(t, *rest)
            level[at], rough = _coarse_levels(even)
            redo = ~_agree(level[at], rough)
            if redo.any():
                pending.append([np.broadcast_to(a, (*redo.shape, 1))[redo] for a in (lo, hi, *rest)]
                               + [even[redo], index[at][redo]])
            second_stage(CHUNK_ROWS)
    second_stage(1)
    mean[~point] = level
    return mean
