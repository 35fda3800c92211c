"""Sampling-based validation of the statistical-mixture picture.

Draws transmittance values from the uniform fading law and rebuilds the
averaged covariance matrix empirically, converging to the closed forms (the
law and its moments live in ``fading``) as the sample count grows.  The
security analysis lives entirely at the covariance level, so only second
moments are simulated; no per-shot quadrature outcomes.

Randomness is pinned to the Philox 4x64 counter-based generator (as wrapped
by ``numpy.random.Philox``, 10 rounds) keyed with the configured seed, so
identical configurations reproduce bit-identical streams on any platform and
parallel splits can be derived as counter substreams of the same key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import TwoModeCovariance
from .cma import avg_covariance
from .errors import DomainError
from .fading import FadingUniform, TransmittanceMoments, moments_uniform


@dataclass(frozen=True)
class SampleConfig:
    """Number of draws and the 64-bit generator key."""

    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DomainError(f"n_samples must be >= 1, got {self.n_samples!r}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def _generator(cfg: SampleConfig) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=cfg.seed))


def sample_transmittance(f: FadingUniform, cfg: SampleConfig) -> np.ndarray:
    """n_samples i.i.d. draws from Uniform[t_min, t_max], deterministic in the seed.

    The generator's draw buffer is scaled and shifted in place: each draw
    is t_min + delta_t * u, rounded as the out-of-place expression rounds it.
    """
    t = _generator(cfg).random(cfg.n_samples)
    t *= f.delta_t
    t += f.t_min
    return t


def empirical_moments(f: FadingUniform, cfg: SampleConfig) -> TransmittanceMoments:
    """Sample estimates of <sqrt(T)>, <T> and Var(sqrt(T)) = <T> - <sqrt(T)>^2.

    The variance uses the population definition matching the closed form (no
    ddof correction), computed in centered form to avoid cancellation.  The
    degenerate distribution returns the closed-form moments, exact for any
    sample count.  The draws are overwritten in turn by sqrt(T), its
    deviations from the mean and their squares, so one sample buffer holds
    every stage; each mean is numpy's pairwise sum over the same values.
    """
    if f.delta_t == 0.0:
        return moments_uniform(f)
    t = sample_transmittance(f, cfg)
    mean_t = float(t.mean())
    np.sqrt(t, out=t)
    mean_sqrt = float(t.mean())
    t -= mean_sqrt
    var = float(np.square(t, out=t).mean())
    return TransmittanceMoments(mean_sqrt, mean_t, var)


def empirical_avg_covariance(
    v: float, eps: float, f: FadingUniform, cfg: SampleConfig
) -> TwoModeCovariance:
    """Entry-wise average of the per-draw fixed-channel covariance matrices:
    the averaged covariance (``avg_covariance``) at the empirical moments."""
    return avg_covariance(empirical_moments(f, cfg), v, eps)


def moment_standard_errors(f: FadingUniform, n_samples: int) -> tuple[float, float, float]:
    """Asymptotic standard errors of the three empirical moment estimators.

    Computed from exact uniform-law moments: Var(sqrt T)/n for the sqrt mean,
    Var(T)/n for the mean, and the delta-method variance of
    mean(T) - mean(sqrt T)^2 for the variance estimator.  All zero when
    delta_t = 0.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    if f.delta_t == 0.0:
        return 0.0, 0.0, 0.0
    m = moments_uniform(f)
    lo, hi, dt = f.t_min, f.t_max, f.delta_t
    mean_t32 = 2.0 / (5.0 * dt) * (hi**2.5 - lo**2.5)
    mean_t2 = (hi**3 - lo**3) / (3.0 * dt)
    var_t = mean_t2 - m.mean_t**2
    cov_t_sqrt = mean_t32 - m.mean_t * m.mean_sqrt_t
    # delta method for v = mean(T) - mean(sqrt T)^2: gradient (1, -2 <sqrt T>)
    var_v = var_t + 4.0 * m.mean_sqrt_t**2 * m.var_sqrt_t - 4.0 * m.mean_sqrt_t * cov_t_sqrt
    root_n = math.sqrt(n_samples)
    return (
        math.sqrt(m.var_sqrt_t) / root_n,
        math.sqrt(var_t) / root_n,
        math.sqrt(max(var_v, 0.0)) / root_n,
    )
