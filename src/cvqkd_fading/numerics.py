"""Numerics shared by every other module.

Everything here is a pure function: the bosonic entropy ``g_entropy`` (and
its array form), the real dilogarithm ``dilog``, an adaptive-Simpson
``integrate``, a bracketed scalar maximizer (``maximize_scalar``, whose
pre-scan takes all its points, a ``log_grid``, in one call) and a
bracketing root finder (``itp_bracket``).  Only the tests call ``dilog``
(the paper's closed forms) and ``integrate`` (the oracle of
``fading.law_mean``).  All entropic quantities are in bits.

The closed forms of the package are written once for float and ndarray
arguments and take their logarithms from ``log2`` and ``log1p`` here:
numpy's, which round a float, a 0-d array and every element of an array
alike.  So a point and a sweep row get the same bits from the same form.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError, QuadratureError
from .fading import ABS_TOL, REL_TOL

LN2 = math.log(2.0)
LOG2_E = 1.0 / LN2
PI2_OVER_6 = math.pi * math.pi / 6.0
_TINY = 2.0**-1022

# Integrand evaluations one ``integrate`` call may spend, so an integrand
# whose rounding noise exceeds the tolerance fails instead of subdividing
# without end.  Only the test suite calls ``integrate``; the most one of its
# calls needs is 849, and an integrand whose rounding noise exceeds the
# tolerance would run past 1e6.
MAX_EVALS = 10_000
# A panel of ``integrate`` is accepted below its share of
# max(ABS_TOL, REL_TOL * |I|), the error targets of ``fading.law_mean``, and
# is halved at most MAX_DEPTH times.
MAX_DEPTH = 60


def log2(x):
    """numpy's log2: a float for a float, an array for an array."""
    y = np.log2(x)
    return y if isinstance(y, np.ndarray) else float(y)


def log1p(x):
    """numpy's log1p: a float for a float, an array for an array."""
    y = np.log1p(x)
    return y if isinstance(y, np.ndarray) else float(y)


def _g_form(x, inv_x):
    return (log1p(x) + x * log1p(inv_x)) / LN2


def g_entropy(x: float) -> float:
    """Von Neumann entropy of a thermal state with mean photon number x, in bits.

    g(x) = (x+1) log2(x+1) - x log2(x), evaluated as
    (log1p(x) + x log1p(1/x)) / ln 2, which does not cancel at large x.  The
    1/x argument is floored at 1/x for the smallest normal double, so that
    x = 0 and subnormal x take the x log x limit instead of 0 * inf.
    """
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"g_entropy requires finite x >= 0, got {x!r}")
    return _g_form(x, 1.0 / max(x, _TINY))


def g_entropy_array(x: np.ndarray) -> np.ndarray:
    """``g_entropy`` at every element of x, equal to the scalar values bit
    for bit; the caller guarantees finite x >= 0."""
    return _g_form(x, 1.0 / np.maximum(x, _TINY))


def _dilog_series(z: float) -> float:
    # power series sum z^k / k^2, |z| <= 0.5: ~55 terms reach double precision
    total = 0.0
    term = z
    k = 1
    while True:
        contrib = term / (k * k)
        total += contrib
        if abs(contrib) < 1e-18 * max(abs(total), 1e-300) or k > 200:
            return total
        term *= z
        k += 1


def dilog(z: float) -> float:
    """Real dilogarithm Li2(z) = -int_0^z ln(1-t)/t dt for z <= 1.

    Series on |z| <= 0.5; the reflection, inversion and Landen identities map
    the rest of (-inf, 1] into the series range.  Accurate to ~1e-15 relative.
    """
    if not math.isfinite(z) or z > 1.0:
        raise DomainError(f"dilog requires finite z <= 1, got {z!r}")
    if z == 1.0:
        return PI2_OVER_6
    if z < -1.0:
        # inversion: Li2(z) = -pi^2/6 - ln^2(-z)/2 - Li2(1/z)
        lg = math.log(-z)
        return -PI2_OVER_6 - 0.5 * lg * lg - dilog(1.0 / z)
    if z > 0.5:
        # reflection: Li2(z) + Li2(1-z) = pi^2/6 - ln(z) ln(1-z)
        return PI2_OVER_6 - math.log(z) * math.log1p(-z) - _dilog_series(1.0 - z)
    if z < -0.5:
        # Landen: Li2(z) + Li2(z/(z-1)) = -ln^2(1-z)/2; z/(z-1) in (1/3, 1/2]
        lg = math.log1p(-z)
        return -0.5 * lg * lg - _dilog_series(z / (z - 1.0))
    return _dilog_series(z)


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive-Simpson integral of f over [a, b].

    Subdivides until the Richardson error estimate of each panel is below its
    share of max(ABS_TOL, REL_TOL * |I|).  Raises QuadratureError instead of
    returning a silent value when f is non-finite at a node, when MAX_DEPTH
    is exhausted, or when a panel still needs subdividing after MAX_EVALS
    evaluations.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"integration interval must satisfy a < b, got [{a!r}, {b!r}]")

    evals = 0

    def ev(x: float) -> float:
        nonlocal evals
        evals += 1
        y = f(x)
        if not math.isfinite(y):
            raise QuadratureError(f"integrand returned non-finite value {y!r} at x={x!r}")
        return y

    m = 0.5 * (a + b)
    fa, fm, fb = ev(a), ev(m), ev(b)
    whole = _simpson(fa, fm, fb, b - a)
    tol = max(ABS_TOL, REL_TOL * abs(whole))

    def recurse(a_: float, m_: float, b_: float, fa_: float, fm_: float, fb_: float,
                whole_: float, tol_: float, depth: int) -> float:
        lm = 0.5 * (a_ + m_)
        rm = 0.5 * (m_ + b_)
        flm, frm = ev(lm), ev(rm)
        left = _simpson(fa_, flm, fm_, m_ - a_)
        right = _simpson(fm_, frm, fb_, b_ - m_)
        err = left + right - whole_
        if abs(err) <= 15.0 * tol_:
            return left + right + err / 15.0
        if depth <= 0:
            raise QuadratureError(
                f"max_depth exhausted on [{a_!r}, {b_!r}] with error estimate {abs(err) / 15.0:.3e}"
            )
        if evals >= MAX_EVALS:
            raise QuadratureError(
                f"evaluation budget exhausted after {evals} evaluations with error estimate "
                f"{abs(err) / 15.0:.3e}"
            )
        return recurse(a_, lm, m_, fa_, flm, fm_, left, 0.5 * tol_, depth - 1) + recurse(
            m_, rm, b_, fm_, frm, fb_, right, 0.5 * tol_, depth - 1
        )

    return recurse(a, m, b, fa, fm, fb, whole, tol, MAX_DEPTH)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden ratio reciprocal
N_SCAN = 64  # points of the pre-scan of ``maximize_scalar``


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    """n log-spaced points lo * r**k, r = (hi / lo) ** (1 / (n - 1)), the
    last one hi itself (0 < lo < hi, n >= 2): the one log-spaced rule, of the
    ``maximize_scalar`` pre-scan and of the ``logspace:`` command-line spec."""
    ratio = (hi / lo) ** (1.0 / (n - 1))
    xs = [lo * ratio**k for k in range(n)]
    xs[-1] = hi
    return xs


def maximize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    x_tol: float,
    f_many: Callable[[list[float]], list[float]],
) -> tuple[float, float]:
    """Locate a maximum of f on [lo, hi], 0 < lo < hi < inf, to within x_tol.

    A coarse pre-scan on the ``N_SCAN`` points of ``log_grid(lo, hi,
    N_SCAN)`` picks the best bracket, which golden-section search then
    refines; this keeps sharply peaked or mildly multi-modal objectives from
    defeating a bare bracketing search, and stops once a probe no longer lies
    strictly inside the bracket (float spacing above x_tol).  Returns
    (x_star, f(x_star)) for the best point evaluated anywhere.

    f_many maps the list of pre-scan points to f's values at them in one
    call (NaN where it cannot vouch for a value); a non-finite value is
    evaluated again through f, so the point gets f's value or exception.
    The refinement calls f.
    """
    if not 0.0 < lo < hi < math.inf:
        raise DomainError(f"maximize_scalar requires 0 < lo < hi < inf, got [{lo!r}, {hi!r}]")
    if not (math.isfinite(x_tol) and x_tol > 0.0):
        raise DomainError(f"x_tol must be positive, got {x_tol!r}")

    def ev(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise NumericalError(f"objective returned non-finite value {y!r} at x={x!r}")
        return y

    xs = log_grid(lo, hi, N_SCAN)
    ys = [y if math.isfinite(y) else ev(x) for x, y in zip(xs, f_many(xs))]

    i_best = max(range(N_SCAN), key=lambda i: ys[i])
    best_x, best_y = xs[i_best], ys[i_best]
    a, b = xs[max(i_best - 1, 0)], xs[min(i_best + 1, N_SCAN - 1)]

    # golden-section refinement on [a, b], while its probes lie inside it
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = ev(c), ev(d)
    while b - a > x_tol and a < c < b and a < d < b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = ev(c)
            if fc > best_y:
                best_x, best_y = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = ev(d)
            if fd > best_y:
                best_x, best_y = d, fd
    for x, y in ((c, fc), (d, fd)):
        if y > best_y:
            best_x, best_y = x, y
    return best_x, best_y


def itp_bracket(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float, tol: float
) -> tuple[float, float]:
    """Shrink a bracket a < b with f(a) = fa < 0 <= fb = f(b) until
    b - a <= tol or no float lies strictly between a and b; returns the
    final (a, b), whose ends keep those signs.

    Each step evaluates f once, at the ITP point (Oliveira & Takahashi,
    ACM TOMS 47(1), 2020; kappa1 = 0.2 / (b - a), kappa2 = 2, n0 = 1): the
    regula-falsi point, moved towards the midpoint and kept within r of it,
    where r shrinks so that at most ceil(log2((b - a) / tol)) + 1 steps are
    taken, one more than bisection needs, while a smooth f converges
    superlinearly.  fa may be 0 (a root at a); the search then closes on a.
    """
    kappa1 = 0.2 / (b - a)
    # log2 of each side, so that a subnormal tol does not overflow the ratio
    n_max = max(math.ceil(math.log2(b - a) - math.log2(tol)), 0) + 1
    # step j may leave a bracket of at most 2^(n_max - j - 1) tol: r is what
    # that leaves beyond half the bracket, at least 0 (a bisection step), with
    # 4 ulp of the final bracket kept back for the rounding of its ends
    half_tol = 0.5 * max(tol - 4.0 * math.ulp(max(abs(a), abs(b))), 0.0)
    for j in itertools.count():
        mid = 0.5 * (a + b)
        if b - a <= tol or not a < mid < b:
            return a, b
        r = max(math.ldexp(half_tol, n_max - j) - 0.5 * (b - a), 0.0)
        x_f = a - fa * (b - a) / (fb - fa) if fb > fa else mid
        sigma = math.copysign(1.0, mid - x_f)
        delta = kappa1 * (b - a) ** 2
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        if not a < x < b:
            x = mid
        fx = f(x)
        if fx >= 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
