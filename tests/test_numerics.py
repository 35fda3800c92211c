"""Special functions, quadrature, the scalar maximizer and the root finder."""

import math

import numpy as np
import pytest
import scipy.special

from cvqkd_fading import numerics
from cvqkd_fading.channel import ChannelParams, holevo_fixed, skr_fixed
from cvqkd_fading.cma import avg_mutual_information, skr_cma
from cvqkd_fading.errors import DomainError, NumericalError, QuadratureError
from cvqkd_fading.fading import FadingUniform
from cvqkd_fading.hba import avg_holevo_analytic, skr_hba_asymptotic, skr_hba_exact
from cvqkd_fading.numerics import (
    MAX_EVALS,
    dilog,
    g_entropy,
    g_entropy_array,
    integrate,
    itp_bracket,
    maximize_scalar,
)

PI2_6 = math.pi**2 / 6.0


def _log_arguments(lo):
    """Random, subnormal and huge arguments above lo."""
    rng = np.random.default_rng(13)
    x = np.concatenate((
        rng.uniform(lo, 4.0, 6000),
        10.0 ** rng.uniform(-307.0, 308.0, 6000),
        rng.uniform(0.0, 2.0**-1022, 2000),
        [5e-324, 2.0**-1022, 1e-300, 1.0, 2.0, 1e300, 1.7976931348623157e308],
    ))
    return x[x > 0.0]


class TestLogarithms:
    """``numerics.log2`` and ``log1p`` must round a float, a 0-d array and
    each element of any array alike: a sweep row and a point take their bits
    from the same closed form through them, compared with ==."""

    @pytest.mark.parametrize("name, lo", [("log2", 0.0), ("log1p", -1.0)])
    def test_same_bits_in_every_layout(self, name, lo):
        fn = getattr(numerics, name)
        x = _log_arguments(lo)
        floats = [fn(xi) for xi in x.tolist()]
        assert {type(y) for y in floats} == {float}
        zero_d = [fn(np.array(xi)) for xi in x.tolist()]
        assert {type(y) for y in zero_d} == {float}
        want = np.array(floats)
        layouts = {
            "0-d array": np.array(zero_d),
            "1-element array": np.array([fn(x[i : i + 1])[0] for i in range(x.size)]),
            "contiguous array": fn(x),
            "strided slice": fn(np.repeat(x, 3)[1::3]),
        }
        for layout, got in layouts.items():
            differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
            assert differ.size == 0, (
                f"numpy's {name} rounds a {layout} differently from a float at "
                f"{x[differ[:5]].tolist()}: sweep rows would not equal points"
            )

    def test_no_numpy_scalar_reaches_the_results(self):
        # error text formats values with !r, which numpy 2 writes np.float64(...)
        values = [g_entropy(2.5), g_entropy(0.0)]
        for eps in (0.0, 0.01):
            for f in (FadingUniform(0.3), FadingUniform(0.3, 0.2)):
                values.append(avg_mutual_information(10.0, eps, f))
                for out in (skr_fixed(ChannelParams(10.0, f.t_max, eps)),
                            skr_cma(10.0, eps, f), skr_hba_exact(10.0, eps, f)):
                    values += [out.mutual_info, out.holevo, out.rate]
            f = FadingUniform(0.3, 0.2)
            out = skr_hba_asymptotic(1e4, eps, f)
            values += [out.mutual_info, out.holevo, out.rate, avg_holevo_analytic(1e4, eps, f)]
        assert [type(x) for x in values] == [float] * len(values)


class TestGEntropy:
    def test_zero_limit_is_exact(self):
        assert g_entropy(0.0) == 0.0

    def test_unit_value(self):
        assert g_entropy(1.0) == pytest.approx(2.0, abs=1e-15)

    def test_half_value(self):
        # 1.5 log2 1.5 - 0.5 log2 0.5, high-precision reference
        assert g_entropy(0.5) == pytest.approx(1.3774437510817342722, rel=1e-14)

    def test_monotone_increasing(self):
        xs = np.sort(np.concatenate([np.logspace(-12, 4, 200), [0.0]]))
        ys = [g_entropy(float(x)) for x in xs]
        assert all(y2 > y1 for y1, y2 in zip(ys, ys[1:]))

    def test_concave(self):
        # second derivative is -1/(ln 2 * x (x+1)) < 0
        for x1, x2 in zip(np.logspace(-6, 4, 50), np.logspace(-6, 4, 50)[1:]):
            mid = 0.5 * float(x1 + x2)
            chord = 0.5 * (g_entropy(float(x1)) + g_entropy(float(x2)))
            assert g_entropy(mid) >= chord - 1e-12

    @pytest.mark.parametrize("bad", [-1e-9, -1.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            g_entropy(bad)


    def test_array_form_matches_scalar(self):
        x = np.concatenate(([0.0, 5e-324, 1e-300, 1e-12], np.logspace(-8, 8, 200)))
        got = g_entropy_array(x)
        for xi, gi in zip(x, got):
            assert gi == pytest.approx(g_entropy(float(xi)), rel=1e-14, abs=1e-300)
        assert got[0] == 0.0


class TestDilog:
    def test_known_values(self):
        assert dilog(0.0) == 0.0
        assert dilog(1.0) == pytest.approx(PI2_6, rel=1e-15)
        assert dilog(-1.0) == pytest.approx(-PI2_6 / 2.0, rel=1e-14)
        assert dilog(0.5) == pytest.approx(0.5822405264650125059, rel=1e-14)

    def test_euler_reflection(self):
        for z in np.linspace(0.02, 0.98, 49):
            z = float(z)
            lhs = dilog(z) + dilog(1.0 - z)
            rhs = PI2_6 - math.log(z) * math.log(1.0 - z)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_against_scipy_on_wide_range(self):
        # scipy.special.spence(x) = Li2(1 - x); covers the large-negative
        # arguments the fading average produces at small excess noise
        for z in np.concatenate(
            [np.linspace(-400.0, -1.5, 60), np.linspace(-1.0, 1.0, 81)]
        ):
            z = float(z)
            ref = float(scipy.special.spence(1.0 - z))
            assert dilog(z) == pytest.approx(ref, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("bad", [1.0 + 1e-9, 2.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            dilog(bad)


class TestIntegrate:
    def test_linear_is_exact(self):
        assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_sine_over_half_period(self):
        assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-11)

    def test_runge_kernel(self):
        val = integrate(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)
        assert val == pytest.approx(0.78539816339744831, rel=1e-11)

    def test_polynomials_up_to_degree_six(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            coeffs = rng.uniform(-3.0, 3.0, size=7)
            a, b = sorted(rng.uniform(-2.0, 2.0, size=2))
            if b - a < 1e-3:
                b = a + 1.0

            def poly(x, c=coeffs):
                return sum(ck * x**k for k, ck in enumerate(c))

            exact = sum(
                ck * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                for k, ck in enumerate(coeffs)
            )
            tol = max(numerics.ABS_TOL, numerics.REL_TOL * abs(exact))
            assert abs(integrate(poly, float(a), float(b)) - exact) <= 10 * tol

    def test_nonfinite_integrand_is_reported(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: math.inf if x == 0.0 else 1.0 / x, -1.0, 1.0)

    def test_max_depth_exhaustion_is_reported(self):
        # the x^-1/2 singularity at 1e-300 keeps halving the leftmost panel
        # until MAX_DEPTH runs out, after 125 evaluations (far inside MAX_EVALS)
        with pytest.raises(QuadratureError, match="max_depth exhausted"):
            integrate(lambda x: x**-0.5, 1e-300, 1.0)

    def test_evaluation_budget_is_reported(self):
        # resolving ~1,600 periods to rel_tol takes more than MAX_EVALS
        # evaluations, at a depth well inside max_depth
        with pytest.raises(QuadratureError, match=r"budget exhausted after 100\d\d evaluations"):
            integrate(lambda x: 2.0 + math.sin(1e4 * x), 0.0, 1.0)

    def test_budget_default_leaves_room(self):
        # the hardest Holevo average of the presets (eps = 0 up to t_max = 1)
        # needs 749 evaluations, the most of any call on the presets, the
        # suite and the benchmark sweeps is 849; the default is over 10x that
        n = 0

        def holevo(t):
            nonlocal n
            n += 1
            return holevo_fixed(ChannelParams(10.0, t, 0.0))

        integrate(holevo, 0.4, 1.0)
        assert n <= 849
        assert MAX_EVALS >= 10 * 849

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            integrate(math.sin, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate(math.sin, 2.0, 1.0)


def maximize(f, lo, hi, x_tol):
    """``maximize_scalar`` with a pre-scan of f point by point."""
    return maximize_scalar(f, lo, hi, x_tol, lambda xs: [f(x) for x in xs])


class TestMaximizeScalar:
    def test_quadratic_interior_maximum(self):
        x, fx = maximize(lambda x: -((x - 2.0) ** 2), 1e-3, 5.0, 1e-8)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_boundary_maximum(self):
        x, _ = maximize(lambda x: x, 1e-3, 1.0, 1e-8)
        assert x == pytest.approx(1.0, abs=1e-7)

    def test_sine_against_grid(self):
        x_tol = 1e-6
        x, fx = maximize(math.sin, 1e-3, math.pi, x_tol)
        assert abs(x - math.pi / 2.0) < 10 * x_tol
        grid = np.linspace(0.0, math.pi, 10_000)
        assert fx >= float(np.max(np.sin(grid))) - 1e-9

    def test_sharply_peaked_log_domain(self):
        # narrow peak near the small end of a wide positive interval: the
        # log-spaced pre-scan must land a bracket on it
        def f(x):
            return -((math.log(x) - math.log(3.0)) ** 2)

        x, _ = maximize(f, 1e-4, 1e4, 1e-6)
        assert x == pytest.approx(3.0, rel=1e-4)

    def test_best_of_scan_and_refinement(self):
        # multi-modal on the scan scale: pre-scan picks the global bump
        def f(x):
            return math.sin(3.0 * x) + 0.5 * math.sin(0.5 * x)

        x, fx = maximize(f, 1e-3, 10.0, 1e-8)
        grid = np.linspace(0.0, 10.0, 10_000)
        assert fx >= float(np.max(np.sin(3.0 * grid) + 0.5 * np.sin(0.5 * grid))) - 1e-9

    @pytest.mark.parametrize("peak", [1e16, 3e15])
    def test_stops_where_the_float_spacing_exceeds_x_tol(self, peak):
        # ulp(1e16) = 2 > x_tol: the bracket can never be as narrow as x_tol,
        # so the search must end once its probes stop lying inside it
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 1000:
                raise RuntimeError("the golden-section search does not stop")
            return -abs(x - peak)

        x, fx = maximize(f, 1.0, 1e16, 1e-3)
        assert abs(x - peak) <= 4 * math.ulp(peak)
        assert fx == f(x)

    def test_validation(self):
        with pytest.raises(DomainError):
            maximize(math.sin, 1.0, 1.0, 1e-6)
        with pytest.raises(DomainError):
            maximize(math.sin, 0.5, 1.0, 0.0)
        with pytest.raises(NumericalError):
            maximize(lambda x: math.nan, 0.5, 1.0, 1e-6)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.0, 1.0), (-1.0, 1.0), (1.0, math.inf),
                                        (math.nan, 1.0), (0.5, math.nan)])
    def test_the_bracket_is_positive_and_finite(self, lo, hi):
        # the pre-scan is log-spaced: lo <= 0 and an infinite hi have no grid
        with pytest.raises(DomainError, match="requires 0 < lo < hi < inf"):
            maximize(math.sin, lo, hi, 1e-6)

    @pytest.mark.parametrize("lo, hi, n", [(1.0, 1e4, 64), (1.5, 1e6, 64), (1e-3, 10.0, 2),
                                           (2.0, 2.0 + 1e-12, 5)])
    def test_log_grid(self, lo, hi, n):
        # n points from lo to hi itself, evenly spaced in log
        xs = numerics.log_grid(lo, hi, n)
        assert len(xs) == n and xs[0] == lo and xs[-1] == hi
        assert all(a < b for a, b in zip(xs, xs[1:]))
        step = math.log(hi / lo) / (n - 1)
        assert np.allclose(np.diff(np.log(xs)), step, rtol=1e-9, atol=1e-15)


def bisection_steps(a, b, tol):
    """Steps bisection takes to shrink [a, b] to width <= tol."""
    return math.ceil(math.log2(b - a) - math.log2(tol))


def find_bracket(f, a, b, tol):
    """itp_bracket on [a, b] and the points where it evaluated f."""
    points = []

    def counted(x):
        points.append(x)
        return f(x)

    return itp_bracket(counted, a, b, f(a), f(b), tol), points


def step(x):
    return -1.0 if x < 0.3141 else 1.0


def flat_then_linear(x):
    return -1.0 if x < 0.9 else x - 0.95


def linear_then_flat(x):
    return x - 0.6 if x < 0.6 else 1e-6 * (x - 0.6) - 1e-12


# (f, a, b): smooth, steep, step, flat-stretch and one-sided-flat functions
ROOT_CASES = [
    (lambda x: x**3 - 0.3, 0.0, 1.0),
    (lambda x: math.exp(x) - 2.0, 0.0, 2.0),
    (lambda x: math.tanh(50.0 * (x - 0.37)), 0.0, 1.0),
    (lambda x: x - 1.0 / 3.0, 0.25, 0.75),
    (step, 0.0, 1.0),
    (flat_then_linear, 0.0, 1.0),
    (linear_then_flat, -1.0, 1.0),
]


class TestItpBracket:
    @pytest.mark.parametrize("f, a, b", ROOT_CASES)
    @pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-9, 1e-12])
    def test_final_bracket_keeps_its_signs_within_tol_and_the_step_bound(self, f, a, b, tol):
        (lo, hi), points = find_bracket(f, a, b, tol)
        assert a <= lo < hi <= b and hi - lo <= tol
        assert f(lo) < 0.0 <= f(hi)
        assert {lo, hi} <= {a, b, *points}
        assert len(points) <= bisection_steps(a, b, tol) + 1

    def test_smooth_functions_take_far_fewer_steps_than_bisection(self):
        for f, a, b in ROOT_CASES[:4]:
            _, points = find_bracket(f, a, b, 1e-9)
            assert len(points) <= bisection_steps(a, b, 1e-9) // 3

    def test_random_step_and_flat_functions_keep_the_step_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            a = float(rng.uniform(-2.0, 1.0))
            b = a + float(10.0 ** rng.uniform(-4.0, 1.0))
            c = float(rng.uniform(a, b))
            for f in (
                lambda x: -1.0 if x < c else 1.0,
                lambda x: min(x - c, 0.0) + 1e-6 * max(x - c, 0.0) - 1e-12,
                lambda x: x - c if x > c else -1e-3,
            ):
                if not f(a) < 0.0 <= f(b):
                    continue
                for tol in (1e-5, 1e-9, 1e-14):
                    if tol < b - a:
                        (lo, hi), points = find_bracket(f, a, b, tol)
                        assert hi - lo <= tol and f(lo) < 0.0 <= f(hi)
                        assert len(points) <= bisection_steps(a, b, tol) + 1

    def test_root_at_the_low_end_is_found(self):
        # f(a) = 0: every evaluation is >= 0, so the bracket closes on a
        for f in (lambda x: x - 0.25, lambda x: 0.0):
            (lo, hi), points = find_bracket(f, 0.25, 1.0, 1e-6)
            assert lo == 0.25 and hi - lo <= 1e-6
            assert len(points) <= bisection_steps(0.25, 1.0, 1e-6) + 1

    @pytest.mark.parametrize("tol", [1e-300, 5e-324])
    def test_tol_below_float_spacing_terminates_at_adjacent_floats(self, tol):
        for f, a, b in ROOT_CASES:
            (lo, hi), points = find_bracket(f, a, b, tol)
            assert math.nextafter(lo, math.inf) == hi
            assert f(lo) < 0.0 <= f(hi)
            assert len(points) <= 64
