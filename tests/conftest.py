"""Shared numerical oracles for the test suite.

The closed-form symplectic eigenvalues in the library are cross-checked here
against generic linear-algebra routes that never touch the closed forms:
eigenvalues of i*Omega*gamma for the joint state, and the pseudoinverse-based
conditional-matrix construction for the post-measurement state.

The fading-averaged key rates of the worst-case-rate model are checked
against mpmath oracles at ``ORACLE_DPS`` digits.  They use the textbook
spectrum and ``mpmath.quad`` over the transmittance, never the library's
cancellation-free rewrites or its dilogarithm closed form, and import nothing
from ``cvqkd_fading``.  So are the Monte-Carlo standard errors, against
moments of the uniform law taken by quadrature.  mpmath is imported on
first use, so the rest of the suite runs without it; tests that call these
oracles get it through ``pytest.importorskip("mpmath")``.

``benchmark_sessions`` hands tests the benchmark's query sessions, so that
the interactive paths are checked on the inputs they are timed on.
``tanh_sinh_levels`` is a tanh-sinh table of the tests' own, which holds
``fading.law_mean`` to its rule bit for bit.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np

OMEGA_1MODE = np.array([[0.0, 1.0], [-1.0, 0.0]])

ORACLE_DPS = 40

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def benchmark_workloads():
    """The benchmark's ``workloads`` module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def benchmark_sessions(seed: int, n: int) -> list:
    """The first n sessions (V, eps, t_min, delta_t, mc_seed) of the
    benchmark's ``queries`` workload for a seed."""
    return list(itertools.islice(benchmark_workloads().sessions(seed), n))


# a tanh-sinh table of its own (s = k/16, |k| <= 51), written from the
# formulas, for holding ``fading.law_mean`` to its rule bit for bit
_K = np.arange(-51, 52)
_DIST = 2.0 / (1.0 + np.exp(np.pi * np.abs(np.sinh(_K / 16.0))))
_WEIGHT = (np.pi / 64.0) * np.cosh(_K / 16.0) * _DIST * (2.0 - _DIST)
assert (_K[1::2] % 2 == 0).all() and (_K[3::4] % 4 == 0).all() and len(_K[3::4]) == 25


def tanh_sinh_levels(integrand, t_min, t_max, *args):
    """The 103-, 51- and 25-node means (k any, k even, k divisible by 4) of
    integrand(T, *args) over [t_min, t_max], at every cell of arrays of one
    shape (or floats), the node axis appended: each a sum over a cell's terms
    in the order of k, the node at k < 0 measured from t_min and at k >= 0
    from t_max, so that each has the bits of that level alone."""
    t_min, t_max, *args = (np.asarray(a, dtype=float)[..., None] for a in (t_min, t_max, *args))
    half = 0.5 * (t_max - t_min)
    t = np.where(_K < 0, t_min + half * _DIST, t_max - half * _DIST)
    with np.errstate(all="ignore"):
        terms = integrand(t, *args) * _WEIGHT
    # k = -50, -48, ... are every other node from the second, k = -48, -44,
    # ... every fourth from the fourth (views: a mask would copy the node
    # axis out of memory order, and the sums would then run another way)
    return (np.add.reduce(terms, axis=-1),
            2.0 * np.add.reduce(terms[..., 1::2], axis=-1),
            4.0 * np.add.reduce(terms[..., 3::4], axis=-1))


def levels_agree(mean, coarser, abs_tol=1e-12, rel_tol=1e-10):
    """Where a level and the next coarser one agree to max(abs_tol, rel_tol * |mean|)."""
    return np.abs(mean - coarser) <= np.maximum(abs_tol, rel_tol * np.abs(mean))


def symplectic_eigs_generic(gamma: np.ndarray) -> list[float]:
    """Symplectic spectrum of a 2n x 2n covariance matrix (xpxp ordering),
    descending, via the eigenvalues of i*Omega*gamma (each appears twice)."""
    n = gamma.shape[0] // 2
    omega = np.kron(np.eye(n), OMEGA_1MODE)
    eigs = np.linalg.eigvals(1j * omega @ gamma)
    mags = np.sort(np.abs(eigs))[::-1]
    return [float(0.5 * (mags[2 * i] + mags[2 * i + 1])) for i in range(n)]


def conditional_after_homodyne(gamma4: np.ndarray) -> np.ndarray:
    """Covariance of mode A conditioned on a q-homodyne measurement of mode B,
    gamma_A - sigma^T (X gamma_B X)^+ sigma with X = diag(1, 0)."""
    block_a = gamma4[:2, :2]
    block_b = gamma4[2:, 2:]
    cross = gamma4[:2, 2:]
    x = np.diag([1.0, 0.0])
    h_hom = np.linalg.pinv(x @ block_b @ x)
    return block_a - cross @ h_hom @ cross.T


def entropy_bits_oracle(x):
    """g(x) = (x+1) log2(x+1) - x log2(x) at the working precision, g(0) = 0."""
    import mpmath

    if x <= 0:
        # a pure-state eigenvalue computed from the textbook spectrum lands
        # within rounding of 1, on either side
        if x < -mpmath.mpf(10) ** (-(ORACLE_DPS // 2)):
            raise ValueError(f"symplectic eigenvalue below 1: x = {x}")
        return mpmath.mpf(0)
    return (x + 1) * mpmath.log(x + 1, 2) - x * mpmath.log(x, 2)


def _spectrum_dps(v):
    """The working digits of the textbook spectrum: three times
    ``ORACLE_DPS``, and twice the decimal digits of V more, because
    lambda_2^2 is the difference of terms of order V^2 and g(lambda_1) one of
    terms of order V log V."""
    import mpmath

    return 3 * ORACLE_DPS + 2 * max(int(mpmath.log10(v)), 0)


def spectrum_oracle(v, t, eps):
    """(lambda1, lambda2, lambda3) of the fixed channel from the textbook
    forms: lambda_{1,2}^2 = (A +/- sqrt(A^2 - 4B)) / 2 with
    A = V^2 (1-2T) + 2T + T^2 (V+chi)^2, B = T^2 (V chi + 1)^2, and
    lambda_3^2 = V (1 + V chi) / (V + chi), chi = 1/T - 1 + eps.

    These forms cancel: A loses the digits of V^2, and near a pure state
    (eps = 0, T -> 1) sqrt(A^2 - 4B) keeps half of what is left, so they are
    taken at ``_spectrum_dps(v)`` digits.  The discriminant, 0 at a pure
    state, may still round to either side of 0 and is floored there."""
    import mpmath

    with mpmath.workdps(_spectrum_dps(v)):
        v, t, eps = (mpmath.mpf(x) for x in (v, t, eps))
        chi = 1 / t - 1 + eps
        big_a = v * v * (1 - 2 * t) + 2 * t + t * t * (v + chi) ** 2
        big_b = (t * (v * chi + 1)) ** 2
        root = mpmath.sqrt(max(big_a * big_a - 4 * big_b, 0))
        return (
            mpmath.sqrt((big_a + root) / 2),
            mpmath.sqrt((big_a - root) / 2),
            mpmath.sqrt(v * (1 + v * chi) / (v + chi)),
        )


def _holevo_exact_oracle(v, t, eps):
    """Fixed-channel Holevo bound g((l1-1)/2) + g((l2-1)/2) - g((l3-1)/2)
    from ``spectrum_oracle``."""
    import mpmath

    lam1, lam2, lam3 = spectrum_oracle(v, t, eps)
    with mpmath.workdps(_spectrum_dps(v)):
        return sum(
            sign * entropy_bits_oracle((lam - 1) / 2)
            for sign, lam in ((1, lam1), (1, lam2), (-1, lam3))
        )


def _mutual_info_oracle(v, eps, t):
    """Homodyne mutual information (1/2) log2((V + chi) / (1 + chi))."""
    import mpmath

    chi = 1 / t - 1 + eps
    return mpmath.log((v + chi) / (1 + chi), 2) / 2


def mutual_info_oracle(v: float, eps: float, t: float) -> float:
    """Fixed-channel mutual information (1/2) log2(1 + T (V-1) / (1 + eps T)),
    bits, through mpmath's log1p: the ratio form above keeps only
    ``ORACLE_DPS`` - 24 digits at T = 1e-12, V - 1 = 1e-12."""
    import mpmath

    with mpmath.workdps(ORACLE_DPS):
        v, eps, t = (mpmath.mpf(x) for x in (v, eps, t))
        return float(mpmath.log1p(t * (v - 1) / (1 + eps * t)) / (2 * mpmath.log(2)))


def fixed_rate_oracle(v: float, eps: float, t: float) -> float:
    """Fixed-channel key rate, bits: ``_mutual_info_oracle`` minus
    ``_holevo_exact_oracle``."""
    import mpmath

    with mpmath.workdps(ORACLE_DPS):
        v, eps, t = (mpmath.mpf(x) for x in (v, eps, t))
        return float(_mutual_info_oracle(v, eps, t) - _holevo_exact_oracle(v, t, eps))


def _holevo_large_v_oracle(v, t, eps):
    """Large-V Holevo integrand (1/2) log2(T (1-T) V / omega) + g((omega-1)/2),
    omega = 1 + T eps / (1-T)."""
    import mpmath

    omega = 1 + t * eps / (1 - t)
    return mpmath.log(t * (1 - t) * v / omega, 2) / 2 + entropy_bits_oracle((omega - 1) / 2)


def _fading_average_oracle(integrand, t_min, delta_t):
    """(1/delta_t) * int integrand(T) dT over [t_min, t_min + delta_t] by
    tanh-sinh quadrature, as w * int_0^1 integrand(t_min + w u) du / delta_t
    with the width w = min(delta_t, 1 - t_min) taken exactly, so that a
    width below the working precision of t_min (down to a subnormal) gives
    the value at t_min rather than 0.  Raises if the error estimate is not
    far below 1e-20.  The interval ends at T = 1, as the law's support does:
    the sum of the doubles 0.8 and 0.2, say, is 1 + 5.6e-17, where the state
    is unphysical."""
    import mpmath

    width = min(delta_t, 1 - t_min)
    value, err = mpmath.quad(lambda u: integrand(t_min + width * u), [0, 1], error=True)
    if err > mpmath.mpf(10) ** (-(ORACLE_DPS // 2)):
        raise ArithmeticError(f"oracle quadrature did not converge (error estimate {err})")
    return value * width / delta_t


def hba_rate_oracle(v: float, eps: float, t_min: float, delta_t: float) -> float:
    """Worst-case-rate key rate with the exact Holevo bound averaged over T
    uniform on [t_min, t_min + delta_t], bits: the homodyne mutual information
    (1/2) log2((V + chi) / (1 + chi)) at t_min minus the average."""
    import mpmath

    with mpmath.workdps(ORACLE_DPS):
        v, eps, t_min, delta_t = (mpmath.mpf(x) for x in (v, eps, t_min, delta_t))
        mutual_info = _mutual_info_oracle(v, eps, t_min)
        holevo = _fading_average_oracle(
            lambda t: _holevo_exact_oracle(v, t, eps), t_min, delta_t
        )
        return float(mutual_info - holevo)


def ergodic_mutual_info_oracle(v: float, eps: float, t_min: float, delta_t: float) -> float:
    """Ergodic mutual information of the averaged-covariance model, bits:
    (1/(2 delta_t)) * int log2(1 + T (V-1) / (1 + eps T)) dT over the law."""
    import mpmath

    with mpmath.workdps(ORACLE_DPS):
        v, eps, t_min, delta_t = (mpmath.mpf(x) for x in (v, eps, t_min, delta_t))
        return float(
            _fading_average_oracle(
                lambda t: mpmath.log(1 + t * (v - 1) / (1 + eps * t), 2) / 2, t_min, delta_t
            )
        )


def hba_asymptotic_rate_oracle(v: float, eps: float, t_min: float, delta_t: float) -> float:
    """Large-V form of ``hba_rate_oracle``, bits: the large-V mutual
    information (1/2) log2(T / (T + (1-T) omega)) + (1/2) log2 V at t_min minus
    the quadrature average of the large-V Holevo integrand.  The log2 V terms
    cancel, so the value does not depend on V."""
    import mpmath

    with mpmath.workdps(ORACLE_DPS):
        v, eps, t_min, delta_t = (mpmath.mpf(x) for x in (v, eps, t_min, delta_t))
        omega = 1 + t_min * eps / (1 - t_min)
        mutual_info = (
            mpmath.log(t_min / (t_min + (1 - t_min) * omega), 2) + mpmath.log(v, 2)
        ) / 2
        holevo = _fading_average_oracle(
            lambda t: _holevo_large_v_oracle(v, t, eps), t_min, delta_t
        )
        return float(mutual_info - holevo)


def sqrt_t_moments_oracle(t_min: float, delta_t: float) -> list:
    """<sqrt T>, <T>, Var(sqrt T), sd(T) and sqrt(mu4 - mu2^2) of sqrt T
    (the per-draw sds of ``moment_standard_deviations_oracle``) for T
    uniform on [t_min, t_min + delta_t], delta_t > 0, as mpmath numbers.

    sqrt T = s has density 2 s / delta_t on [sqrt(t_min), sqrt(t_max)], so
    <s> = 2 (s^3 / 3) / delta_t between the ends, and the central moment
    E[(s - m)^k] is 2 [y^(k+2) / (k+2) + m y^(k+1) / (k+1)] / delta_t
    between the ends, y = s - m.  The ends differ by about delta_t /
    (2 sqrt(t_min)): s^3 cancels by the decades d of t_min / delta_t, and m
    must then be right to ``ORACLE_DPS`` digits of y, so the sums are taken
    at ``ORACLE_DPS`` + 2 d + 20 digits (which also hold t_min + delta_t
    exactly); mpmath's exponent does not underflow."""
    import math

    import mpmath

    dps = ORACLE_DPS + 20 + 2 * max(0, math.ceil(math.log10(t_min) - math.log10(delta_t)))
    with mpmath.workdps(dps):
        lo, width = mpmath.mpf(t_min), mpmath.mpf(delta_t)
        ends = mpmath.sqrt(lo + width), mpmath.sqrt(lo)
        mean = 2 * (ends[0] ** 3 - ends[1] ** 3) / (3 * width)

        def central(k):
            def anti(s):
                y = s - mean
                return y ** (k + 2) / (k + 2) + mean * y ** (k + 1) / (k + 1)

            return 2 * (anti(ends[0]) - anti(ends[1])) / width

        mu2, mu4 = central(2), central(4)
        return [mean, lo + width / 2, mu2, width / mpmath.sqrt(12), mpmath.sqrt(mu4 - mu2 * mu2)]


def moment_standard_deviations_oracle(t_min: float, delta_t: float) -> list[float]:
    """Per-draw standard deviations of the three moment estimators of T
    uniform on [t_min, t_min + delta_t]: sd(sqrt T), sd(T) and
    sqrt(mu4 - sigma^4) of sqrt T, the delta-method sd of
    mean(T) - mean(sqrt T)^2.  Every moment is a tanh-sinh quadrature over
    the law at twice ``ORACLE_DPS``, the central ones about the quadrature
    means, so no closed form and no cancelling raw-moment difference enter."""
    import mpmath

    with mpmath.workdps(2 * ORACLE_DPS):
        lo, width = mpmath.mpf(t_min), mpmath.mpf(delta_t)

        def mean(g):
            return mpmath.quad(g, [lo, lo + width]) / width

        mean_t, mean_sqrt = mean(lambda t: t), mean(mpmath.sqrt)
        var_t = mean(lambda t: (t - mean_t) ** 2)
        mu2 = mean(lambda t: (mpmath.sqrt(t) - mean_sqrt) ** 2)
        mu4 = mean(lambda t: (mpmath.sqrt(t) - mean_sqrt) ** 4)
        return [float(mpmath.sqrt(x)) for x in (mu2, var_t, mu4 - mu2 * mu2)]
