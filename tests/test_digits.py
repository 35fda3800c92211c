"""``digits`` gives exactly the text Python gives: ``'%.17g' % x`` and
``'%.2f' % x`` for every float64, compared byte for byte.

The fixed sets hold the cases where a vectorised formatter goes wrong: the
ends of fixed notation, values next to powers of ten (where log10 can put
a value in the wrong decade), 17-digit roundings that carry through a run
of nines, exact ties (half to even), cells with 16 trailing zeros or none,
and everything Python formats itself (zero, exponent notation, negatives
in ``'%.2f'``, subnormals, inf and NaN).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkd_fading import cli, digits

FORMATS = {"%.17g": digits.g17, "%.2f": digits.f2}
RNG = np.random.default_rng(25)


def texts(rows):
    return [digits.text(row) for row in rows]


def assert_as_python(x, form):
    x = np.asarray(x, dtype=float)
    got = texts(FORMATS[form](x))
    want = [form % v for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def near(values, ulps=3):
    """values and their neighbours up to ulps floats away on each side."""
    out = [np.asarray(values, dtype=float)]
    for direction in (-np.inf, np.inf):
        v = out[0]
        for _ in range(ulps):
            with np.errstate(over="ignore"):  # the largest float's neighbour is inf
                v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


def signed(x):
    return np.concatenate([x, -x])


POWERS = 10.0 ** np.arange(-8, 20)
# 17 significant digits ending in nines, and the midpoint to the next value:
# rounding carries through the nines (into the next decade for all nines)
CARRIES = np.array(
    [float(f"{head}{'9' * k}5e{p}") for head in ("1.234", "9.", "")
     for k in (4, 8, 13, 16) for p in range(-6, 18)]
)
# ties of '%.17g': c / 2**(17 - X), c odd, has 18 significant digits, the last a 5
TIES_17 = np.array([
    float(Fraction(c, 2 ** (17 - x)))
    for x in range(-4, 16)
    for c in RNG.integers(math.ceil(Fraction(10) ** x * 2 ** (17 - x)),
                          min(math.floor(Fraction(10) ** (x + 1) * 2 ** (17 - x)), 2**53),
                          40).tolist()
    if c % 2
])
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                    2.225073858507201e-308, 1.7976931348623157e308, 1e-5, 1e-4, 1e16, 1e17])


@pytest.mark.parametrize("form", FORMATS)
@pytest.mark.parametrize(
    "x",
    [
        signed(near(POWERS)),
        signed(near(CARRIES, 2)),
        signed(near(TIES_17, 1)),
        signed(near(SPECIAL)),
        # whole numbers (every fraction digit cut, and the dot) and halves
        signed(np.concatenate([np.arange(0.0, 2000.0, 0.5), 10.0 ** np.arange(17) * 7])),
        # subnormals and random bit patterns: every exponent and sign
        RNG.uniform(0.0, 2.0**-1022, 2000),
        RNG.integers(0, 2**64, 20_000, dtype=np.uint64).view(float),
        signed(10.0 ** RNG.uniform(-6.0, 18.0, 20_000)),
        RNG.uniform(0.0, 1.0, 20_000),
    ],
    ids=["powers_of_ten", "carries", "ties_17g", "special", "whole_and_half", "subnormal",
         "bit_patterns", "log_uniform", "unit_interval"],
)
def test_fixed_sets_as_python(x, form):
    assert_as_python(x, form)


def test_f2_ties_and_near_ties():
    # (k + 1/2) / 100 exact in binary (c / 8 with c odd) rounds half to even;
    # m + 0.005 is not a tie, and lo of the product decides it
    k = np.arange(0, 50_000)
    for x in ((2 * k + 1) / 8.0, k + 0.5, k / 100.0 + 0.005, k + 0.005, k + 0.015, k + 0.995):
        assert_as_python(x, "%.2f")
        assert_as_python(near(x[:2000], 2), "%.2f")
    # the largest cents the arrays take, and the first values past them
    assert_as_python(near(np.array([999999.99, 999999.995, 1e6, 1e13])), "%.2f")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_any_floats_as_python(values):
    for form in FORMATS:
        assert_as_python(values, form)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_bit_patterns_as_python(bits):
    x = np.array(bits, dtype=np.uint64).view(float)
    for form in FORMATS:
        assert_as_python(x, form)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-4, 1e17) | st.floats(0.0, 1e6), min_size=1, max_size=40))
def test_fixed_notation_floats_as_python(values):
    for form in FORMATS:
        assert_as_python(values, form)


def test_arrays_format_fixed_notation_themselves(monkeypatch):
    # the arrays, not Python, write every cell of fixed notation away from
    # the powers of ten; Python gets the rest
    seen = {}

    def by_python(rows, x, ok, form):
        seen[form] = x[~ok]
        return by_python_of_module(rows, x, ok, form)

    by_python_of_module = digits._by_python
    monkeypatch.setattr(digits, "_by_python", by_python)
    x = signed(10.0 ** RNG.uniform(-3.99, 16.99, 5000))
    assert_as_python(x, "%.17g")
    assert seen["%.17g"].size == 0
    assert_as_python(np.abs(x[np.abs(x) < 9.9e5]), "%.2f")
    assert seen["%.2f"].size == 0
    assert_as_python(SPECIAL, "%.17g")
    fixed = (np.abs(SPECIAL) >= 1e-4) & (np.abs(SPECIAL) < 1e17)
    assert seen["%.17g"].size == np.count_nonzero(~fixed) == 12


@pytest.mark.parametrize("shift", [-1e-12, 1e-12])
def test_a_log10_a_decade_off_is_caught(monkeypatch, shift):
    # a log10 a little off next to the powers of ten puts values one decade
    # too low or too high; the exact product shows it, and Python formats them
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    x = signed(near(np.concatenate([POWERS, POWERS * (1.0 + 1e-13)]), 3))
    assert_as_python(x, "%.17g")


def test_cli_fmt_is_python_17g():
    # the CSV reference of the tests formats cell by cell with cli.fmt, so it
    # must stay Python's own formatter, independent of the arrays
    for x in np.concatenate([SPECIAL, near(POWERS, 1), CARRIES, TIES_17]).tolist():
        assert cli.fmt(x) == f"{x:.17g}" == "%.17g" % x
    assert cli.fmt(None) == ""


def test_rows_and_text():
    assert digits.g17(np.array([0.5, -0.25])).shape == (2, 24)
    assert digits.f2(np.array([1.5])).shape == (1, 9)
    assert digits.f2(np.array([1e300])).shape[1] == len("%.2f" % 1e300)
    assert texts(digits.g17(np.empty(0))) == []
    assert digits.text(digits.g17(np.array([0.125, 3.0, -0.0]))) == "0.1253-0"
