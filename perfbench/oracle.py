"""Independent oracle for the correctness checks of the benchmark.

Nothing here calls the package.  Rates are rebuilt from the covariance
matrix of the shared state: symplectic eigenvalues are the moduli of the
eigenvalues of ``i Omega gamma`` (numpy), the eigenvalue after Bob's
homodyne detection comes from the conditioned 2x2 block, the mutual
information from Bob's variance conditioned on Alice's heterodyne outcome,
and every fading average is ``scipy.integrate.quad`` (or, for the dense
variance scan, a 96-node Gauss-Legendre rule of an analytic integrand).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

LOG2_E = 1.0 / math.log(2.0)
_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_QUAD = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": 200}
_GL_X, _GL_W = np.polynomial.legendre.leggauss(96)

# A rate, mutual information or Holevo value further than this from the
# oracle counts as a wrong output.  The program's quadrature targets 1e-10
# relative on Holevo values of at most ~20 bits here, and the matrix route
# loses ~1e-11 near pure states, so 1e-8 bits leaves two orders of margin.
RATE_TOL_BITS = 1e-8


def _entropy(nu):
    """Von Neumann entropy of a thermal mode with symplectic eigenvalue nu, bits."""
    nu = np.maximum(nu, 1.0)
    plus, minus = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return (special.xlogy(plus, plus) - special.xlogy(minus, minus)) * LOG2_E


def _gamma(a, b, c):
    """Stack of standard-form two-mode covariance matrices, xpxp order."""
    a, b, c = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c)))
    g = np.zeros(a.shape + (4, 4))
    g[..., 0, 0] = g[..., 1, 1] = a
    g[..., 2, 2] = g[..., 3, 3] = b
    g[..., 0, 2] = g[..., 2, 0] = c
    g[..., 1, 3] = g[..., 3, 1] = -c
    return g


def holevo_from_covariance(a, b, c):
    """Holevo bound (bits) of the state (a, b, c) with Bob measuring x by homodyne."""
    g = _gamma(a, b, c)
    nus = np.sort(np.abs(np.linalg.eigvals(1j * _OMEGA @ g)), axis=-1)
    nu1, nu2 = nus[..., 3], nus[..., 1]
    # Alice's block conditioned on Bob's x: gamma_A - sigma P (P gamma_B P)^+ P sigma^T
    cond = g[..., :2, :2] - g[..., :2, 2:3] @ g[..., 2:3, :2] / g[..., 2:3, 2:3]
    nu3 = np.sqrt(np.linalg.det(cond))
    return _entropy(nu1) + _entropy(nu2) - _entropy(nu3)


def mutual_info_from_covariance(a, b, c):
    """Bob's information about Alice's Gaussian modulation (heterodyne on A), bits."""
    return 0.5 * np.log2(b / (b - c * c / (a + 1.0)))


def _fixed_abc(v, t, eps):
    return v, t * (v - 1.0 + eps) + 1.0, np.sqrt(t * (v * v - 1.0))


def fixed(v: float, t: float, eps: float) -> tuple[float, float]:
    """(mutual information, Holevo bound) of a fixed channel."""
    abc = _fixed_abc(v, t, eps)
    return float(mutual_info_from_covariance(*abc)), float(holevo_from_covariance(*abc))


def _average(f, lo: float, hi: float) -> float:
    return integrate.quad(f, lo, hi, **_QUAD)[0] / (hi - lo)


def hba_exact(v: float, eps: float, t_min: float, delta_t: float) -> tuple[float, float]:
    """Worst-case mutual information at t_min; Holevo bound averaged over T."""
    mi, hol = fixed(v, t_min, eps)
    if delta_t > 0.0:
        hol = _average(lambda t: fixed(v, t, eps)[1], t_min, min(t_min + delta_t, 1.0))
    return mi, hol


def hba_asymptotic(v: float, eps: float, t_min: float, delta_t: float) -> tuple[float, float]:
    """Large-V limit: spectrum V(1-T), omega, sqrt((1-T) omega V / T) with
    omega = 1 + T eps / (1-T); averaged by quadrature of the limit integrand."""

    def holevo(t: float) -> float:
        omega = 1.0 + t * eps / (1.0 - t)
        return 0.5 * math.log2(v * (1.0 - t) * t / omega) + float(_entropy(omega))

    mi = 0.5 * math.log2(v) - 0.5 * math.log2(1.0 / t_min + eps)
    return mi, _average(holevo, t_min, t_min + delta_t)


def _moments(t_min: float, delta_t: float) -> tuple[float, float]:
    if delta_t == 0.0:
        return math.sqrt(t_min), t_min
    hi = min(t_min + delta_t, 1.0)
    return _average(math.sqrt, t_min, hi), _average(lambda t: t, t_min, hi)


def cma(v: float, eps: float, t_min: float, delta_t: float) -> tuple[float, float]:
    """Ergodic mutual information; Holevo bound of the fading-averaged covariance."""
    if delta_t == 0.0:
        return fixed(v, t_min, eps)
    mean_sqrt_t, mean_t = _moments(t_min, delta_t)
    a, b, c = v, mean_t * (v - 1.0 + eps) + 1.0, mean_sqrt_t * math.sqrt(v * v - 1.0)
    mi = _average(
        lambda t: float(mutual_info_from_covariance(*_fixed_abc(v, t, eps))),
        t_min,
        min(t_min + delta_t, 1.0),
    )
    return mi, float(holevo_from_covariance(a, b, c))


def cma_rate_scan(v: np.ndarray, eps: float, t_min: float, delta_t: float) -> np.ndarray:
    """cma rate at every V of an array (Gauss-Legendre ergodic average)."""
    hi = min(t_min + delta_t, 1.0)
    if delta_t == 0.0:
        mean_sqrt_t, mean_t = math.sqrt(t_min), t_min
        mi = mutual_info_from_covariance(*_fixed_abc(v, t_min, eps))
    else:
        t = 0.5 * (hi - t_min) * _GL_X + 0.5 * (hi + t_min)
        w = 0.5 * _GL_W  # weights of the average over [t_min, hi]
        mean_sqrt_t, mean_t = float(w @ np.sqrt(t)), float(w @ t)
        vv = v[:, None]
        mi = mutual_info_from_covariance(*_fixed_abc(vv, t[None, :], eps)) @ w
    a, b, c = v, mean_t * (v - 1.0 + eps) + 1.0, mean_sqrt_t * np.sqrt(v * v - 1.0)
    return mi - holevo_from_covariance(a, b, c)


MODELS = {
    "fixed": lambda v, eps, t_min, delta_t: fixed(v, t_min, eps),
    "hba_exact": hba_exact,
    "hba_asymptotic": hba_asymptotic,
    "cma": cma,
}
