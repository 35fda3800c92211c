"""Sampling-based validation of the statistical-mixture picture.

Draws transmittance values from the uniform fading law and rebuilds the
averaged covariance matrix empirically, converging to the closed forms (the
law and its moments live in ``fading``) as the sample count grows.  The
security analysis lives entirely at the covariance level, so only second
moments are simulated; no per-shot quadrature outcomes.

Randomness comes from numpy's PCG64 generator (``numpy.random.PCG64``)
seeded with the configured seed through ``numpy.random.SeedSequence``, so
identical configurations reproduce bit-identical streams on any platform.
The stream is drawn on the calling thread in blocks of 2^16 draws into one
reused 512 KB buffer, whatever the sample count; no thread is started.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import TwoModeCovariance
from .cma import avg_covariance
from .errors import DomainError
from .fading import FadingUniform, TransmittanceMoments, moments_uniform


@dataclass(frozen=True)
class SampleConfig:
    """Number of draws and the 64-bit generator seed."""

    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DomainError(f"n_samples must be >= 1, got {self.n_samples!r}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


BLOCK = 2**16  # draws per block: 512 KB of float64, a buffer that stays in L2


def sample_transmittance(f: FadingUniform, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the next i.i.d. draws of ``rng`` from Uniform[t_min, t_max].

    The generator's draws are scaled and shifted in place: each draw is
    t_min + delta_t * u, rounded as the out-of-place expression rounds it.
    """
    rng.random(out=out)
    out *= f.delta_t
    out += f.t_min
    return out


def empirical_moments(f: FadingUniform, cfg: SampleConfig) -> TransmittanceMoments:
    """Sample estimates of <sqrt(T)>, <T> and Var(sqrt(T)) = <T> - <sqrt(T)>^2.

    The variance uses the population definition matching the closed form (no
    ddof correction), computed in centered form to avoid cancellation.  The
    degenerate distribution returns the closed-form moments, exact for any
    sample count.  ``BLOCK`` draws at a time fill one buffer that sqrt(T), its
    deviations d from the block mean and their squares overwrite in turn,
    each summed pairwise by numpy.  A block of n_b, its mean c above the
    whole mean, adds sum d^2 + c (2 sum d + n_b c) to the centred sum of
    squares (Chan, Golub and LeVeque, 1983), exact to first order; the blocks
    merge in ``math.fsum``, so n <= ``BLOCK`` keeps one whole-buffer pass's bits.
    """
    if f.delta_t == 0.0:
        return moments_uniform(f)
    n, rng = cfg.n_samples, np.random.Generator(np.random.PCG64(cfg.seed))
    buf, blocks = np.empty(min(n, BLOCK)), []
    for start in range(0, n, BLOCK):
        t = sample_transmittance(f, rng, buf[: n - start])
        sum_t, sum_sqrt = np.add.reduce(t), np.add.reduce(np.sqrt(t, out=t))
        sum_d = np.add.reduce(np.subtract(t, sum_sqrt / t.size, out=t))
        blocks.append((t.size, sum_t, sum_sqrt, sum_d, np.add.reduce(np.square(t, out=t))))
    sizes, sums_t, sums_sqrt, sums_d, sums_d2 = np.array(blocks).T
    mean_sqrt = math.fsum(sums_sqrt) / n
    c = sums_sqrt / sizes - mean_sqrt
    var = math.fsum([*sums_d2, *(c * (2.0 * sums_d + sizes * c))]) / n
    return TransmittanceMoments(mean_sqrt, math.fsum(sums_t) / n, var)


def empirical_avg_covariance(
    v: float, eps: float, f: FadingUniform, cfg: SampleConfig
) -> TwoModeCovariance:
    """Entry-wise average of the per-draw fixed-channel covariance matrices:
    the averaged covariance (``avg_covariance``) at the empirical moments."""
    return avg_covariance(empirical_moments(f, cfg), v, eps)


# 3-point Gauss-Legendre rule on [0, 1] (nodes, weights): exact up to degree 5
_ROOT15 = math.sqrt(15.0) / 10.0
_GAUSS3 = ((0.5 - _ROOT15, 5.0 / 18.0), (0.5, 4.0 / 9.0), (0.5 + _ROOT15, 5.0 / 18.0))


def moment_standard_errors(f: FadingUniform, n_samples: int) -> tuple[float, float, float]:
    """Asymptotic standard errors of the three empirical moment estimators.

    Computed from exact uniform-law moments: Var(sqrt T)/n for the sqrt mean,
    Var(T)/n = delta_t^2/(12 n) for the mean, and the delta-method variance
    of mean(T) - mean(sqrt T)^2 for the variance estimator.  That variance
    is Var(T - 2 <sqrt T> sqrt T) = mu4 - sigma^4 of sqrt T, formed without
    cancelling differences: with a = sqrt(t_max), b = sqrt(t_min), sqrt T =
    b + w x for x in [0, 1] with w = delta_t/(a + b) and density
    2 (b + w x)/(a + b), whose mean is c = (2a + b)/(3 (a + b)), so
    mu_k = w^k I_k with I_k the density-weighted mean of (x - c)^k, a
    polynomial of degree <= 5 that ``_GAUSS3`` integrates exactly.  All zero
    when delta_t = 0 (w = 0).  A variance below the normal range is rooted factor by factor.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    a, b, delta_t = math.sqrt(f.t_max), math.sqrt(f.t_min), abs(f.delta_t)  # -0.0 gives +0.0
    w = delta_t / (a + b)
    c = (2.0 * a + b) / (3.0 * (a + b))
    i2 = i4 = 0.0
    for x, weight in _GAUSS3:
        p = weight * 2.0 * (b + w * x) / (a + b)
        d2 = (x - c) * (x - c)
        i2 += p * d2
        i4 += p * d2 * d2
    var_sqrt = moments_uniform(f).var_sqrt_t
    var_v = w**4 * (i4 - i2 * i2)
    # a variance below the normal range lost digits its root keeps: root its factors
    sd_sqrt = math.sqrt(var_sqrt) if var_sqrt >= sys.float_info.min else w * math.sqrt(i2)
    sd_v = math.sqrt(var_v) if var_v >= sys.float_info.min else w * w * math.sqrt(i4 - i2 * i2)
    root_n = math.sqrt(n_samples)
    return sd_sqrt / root_n, delta_t / math.sqrt(12.0) / root_n, sd_v / root_n
