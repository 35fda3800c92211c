"""Secret key rates for Gaussian-modulated CV-QKD over uniformly fading channels.

Two eavesdropping-average models are implemented for the fast-fading regime
(transmittance uniform on [t_min, t_min + delta_t]), plus the fixed-channel
baseline, a Monte-Carlo validation of the mixture picture, and a CLI for
parameter sweeps.  All rates are asymptotic, in bits per channel use, with
unit reconciliation efficiency.
"""

from .channel import (
    ChannelParams,
    SkrBreakdown,
    SymplecticSpectrum,
    TwoModeCovariance,
    conditional_eigenvalue,
    derive_chi,
    derive_omega,
    holevo_fixed,
    holevo_from_eigenvalues,
    joint_covariance,
    mutual_information_fixed,
    skr_fixed,
    symplectic_pair,
)
from .cma import (
    CmaScaling,
    EffectiveChannel,
    avg_covariance,
    avg_mutual_information,
    cma_scaling,
    effective_params,
    holevo_cma,
    optimal_variance,
    skr_cma,
)
from .errors import DomainError, NumericalError, QuadratureError
from .fading import FadingUniform, TransmittanceMoments, moments_uniform
from .hba import (
    asymptotic_eigenvalues,
    avg_holevo_analytic,
    holevo_asymptotic,
    holevo_asymptotic_regime_floor,
    htilde,
    mutual_information_asymptotic,
    skr_hba_asymptotic,
    skr_hba_exact,
)
from .montecarlo import (
    SampleConfig,
    empirical_avg_covariance,
    empirical_moments,
    moment_standard_errors,
    sample_transmittance,
)
from .numerics import dilog, g_entropy, integrate, maximize_scalar

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "CmaScaling",
    "DomainError",
    "EffectiveChannel",
    "FadingUniform",
    "NumericalError",
    "QuadratureError",
    "SampleConfig",
    "SkrBreakdown",
    "SymplecticSpectrum",
    "TransmittanceMoments",
    "TwoModeCovariance",
    "asymptotic_eigenvalues",
    "avg_covariance",
    "avg_holevo_analytic",
    "avg_mutual_information",
    "cma_scaling",
    "conditional_eigenvalue",
    "derive_chi",
    "derive_omega",
    "dilog",
    "effective_params",
    "empirical_avg_covariance",
    "empirical_moments",
    "g_entropy",
    "holevo_asymptotic",
    "holevo_asymptotic_regime_floor",
    "holevo_cma",
    "holevo_fixed",
    "holevo_from_eigenvalues",
    "htilde",
    "integrate",
    "joint_covariance",
    "maximize_scalar",
    "moment_standard_errors",
    "moments_uniform",
    "mutual_information_asymptotic",
    "mutual_information_fixed",
    "optimal_variance",
    "sample_transmittance",
    "skr_cma",
    "skr_fixed",
    "skr_hba_asymptotic",
    "skr_hba_exact",
    "symplectic_pair",
]
