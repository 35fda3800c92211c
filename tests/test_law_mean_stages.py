"""``fading.law_mean`` in two stages: the 51-node level where it agrees with
its nested 25-node level, else the 103-node pair.

A cell first evaluates the 51 nodes of even k and takes their mean where
it agrees with the mean of the 25 nodes of k divisible by 4.  Only a cell
where it does not evaluates the other 52 nodes, and takes the 103-node mean
where that agrees with the 51-node mean, with the bits of a 103-node pair
alone; else NaN (QuadratureError on one row).  These tests hold every cell
to that rule bit for bit through a tanh-sinh table of their own
(``conftest.tanh_sinh_levels``), every accepted cell to the 40-digit mpmath
oracles, and the share of a quadrature sweep that needs the second stage.

The rounding of T at the float nodes moves 1 - T by up to 2^-54 (T >= 1/2).
Where an integrand goes as log2(1 - T) (the large-V integrands, and the
exact Holevo bound where V (1 - T) >> 1) that moves a mean by up to
``rounding_bits`` of its law; on a narrow law within about 1e-6 of T = 1
this passes 1e-10 bits, and there neither level need be within 1e-9 bits of
the oracle.  The oracle property keeps to the laws where it is at most
``ROUNDING_CUT``; the census shows that every cell whose stage 1 accepts
what the 103-node pair rejects lies outside them.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    ORACLE_DPS,
    _fading_average_oracle,
    _holevo_exact_oracle,
    _holevo_large_v_oracle,
    benchmark_workloads,
    entropy_bits_oracle,
    levels_agree,
    tanh_sinh_levels,
)
from cvqkd_fading import cli, cma, fading, hba
from cvqkd_fading.channel import holevo_rows, mutual_information_form
from cvqkd_fading.errors import DomainError, QuadratureError
from cvqkd_fading.fading import FadingUniform

ORACLE_BITS = 1e-9  # the accuracy gate of the oracle tests
ROUNDING_CUT = 1e-10  # the oracle property's laws: rounding_bits at most this


def rounding_bits(t_min, t_max, v=math.inf):
    """How far the rounding of T at the float nodes can move the mean of an
    integrand that goes as log2(max(1 - T, 1/V)): 2^-54 / ln 2 times the
    mean of 1 / max(1 - T, 1/V) over [t_min, t_max]."""
    gap, width, floor = 1.0 - t_max, t_max - t_min, 1.0 / v
    if floor <= gap:
        total = math.log1p(width / gap)
    elif floor >= gap + width:
        total = width / floor
    else:
        total = (floor - gap) / floor + math.log((gap + width) / floor)
    return 2.0**-54 / math.log(2.0) * total / width


def eps_from(u):
    """eps from a uniform draw u in [0, 1): 0 for a quarter, uniform on
    [0, 0.1] for a quarter, else log-uniform on [1e-12, 0.1]."""
    if u < 0.25:
        return 0.0
    return 0.4 * (u - 0.25) if u < 0.5 else 10.0 ** (-12.0 + 22.0 * (u - 0.5))


def _mutual_information_oracle(v_a, eps):
    import mpmath

    return lambda t: mpmath.log1p(t * v_a / (1 + eps * t)) / (2 * mpmath.log(2))


# integrand; its arguments after T from two uniform draws; the oracle
# integrand of the mpf arguments; the V of rounding_bits (None: no
# log2(1 - T) end); the least 1 - t_max (the large-V integrands need t_max < 1)
INTEGRANDS = {
    "holevo_rows": (
        holevo_rows,
        lambda u, w: (1.0 + 10.0 ** (-12.0 + 162.0 * u), eps_from(w)),  # V - 1 up to 1e150
        lambda v, eps: (lambda t: _holevo_exact_oracle(v, t, eps)),
        lambda v, eps: v,
        0.0,
    ),
    "mutual_information_form": (
        mutual_information_form,
        lambda u, w: (10.0 ** (-12.0 + 312.0 * u), eps_from(w)),  # V - 1 up to 1e300
        _mutual_information_oracle,
        None,
        0.0,
    ),
    "_large_v_holevo_nodes": (
        hba._large_v_holevo_nodes,
        lambda u, w: (eps_from(w),),
        lambda eps: (lambda t: _holevo_large_v_oracle(1, t, eps)),
        lambda eps: math.inf,
        1e-9,
    ),
    "_thermal_nodes": (
        hba._thermal_nodes,
        lambda u, w: (eps_from(w),),
        lambda eps: (lambda t: entropy_bits_oracle(t * eps / (1 - t) / 2)),
        lambda eps: math.inf,
        1e-9,
    ),
}


def cell_from(name, u):
    """(t_min, t_max, args) of one cell of an integrand from six uniform
    draws in [0, 1), or None where the law is a point mass or ends too near
    1.  delta_t is log-uniform on [1e-12, 1]; t_min lies in the bulk, next
    to T_FLOOR (down to 10^-307.5), or such that t_max is next to 1 (1 -
    t_max log-uniform down to 1e-17, or the least gap: 0 or 1e-9)."""
    args_from, least_gap = INTEGRANDS[name][1], INTEGRANDS[name][4]
    delta_t = 10.0 ** (-12.0 + 12.0 * u[1])
    kind = int(3.0 * u[0])
    if kind == 0:
        t_min = 1e-3 + (1.0 - 1e-3) * u[2]
    elif kind == 1:
        t_min = 10.0 ** (-307.5 + 27.5 * u[2])
    else:
        gap = least_gap if u[3] < 0.2 else max(10.0 ** (-17.0 + 16.0 * u[3]), least_gap)
        t_min = 1.0 - gap - delta_t
        if t_min <= 0.0:
            t_min = 10.0 ** (-307.5 + 306.5 * u[2])
    law = FadingUniform(t_min, min(delta_t, 1.0 - t_min))
    if law.t_max == law.t_min or 1.0 - law.t_max < least_gap:
        return None
    return law.t_min, law.t_max, args_from(u[4], u[5])


def rule_value(name, t_min, t_max, args):
    """(stage, mean) of one cell by the rule through the test's own table:
    stage 1, 2, or 0 where the 103-node pair disagrees (mean NaN)."""
    levels = tanh_sinh_levels(INTEGRANDS[name][0], t_min, t_max, *args)
    fine, coarse, rough = (float(x) for x in levels)
    if levels_agree(coarse, rough):
        return 1, coarse
    return (2, fine) if levels_agree(fine, coarse) else (0, math.nan)


def program_value(name, t_min, t_max, args):
    """law_mean of one cell on its scalar path, NaN where it raises."""
    try:
        return fading.law_mean(INTEGRANDS[name][0], t_min, t_max, *args)
    except (QuadratureError, DomainError):
        return math.nan


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_every_cell_takes_the_51_node_level_or_the_103_node_pair(name):
    # 20,000 seeded draws of each integrand's cells over its whole domain,
    # on the array path and 200 of them on the scalar path: each cell has
    # the bits of the rule through the test's own table.  Every cell whose
    # stage 1 accepts what the 103-node pair rejects lies where the rounding
    # of T at the nodes can move the mean by more than ROUNDING_CUT
    integrand, rounding_v = INTEGRANDS[name][0], INTEGRANDS[name][3]
    rng = np.random.default_rng(list(map(ord, name)))
    drawn = filter(None, (cell_from(name, u) for u in rng.uniform(0.0, 1.0, (20_000, 6)).tolist()))
    t_min, t_max, *args = (np.array(c) for c in zip(*((lo, hi, *rest) for lo, hi, rest in drawn)))

    fine, coarse, rough = tanh_sinh_levels(integrand, t_min, t_max, *args)
    stage1 = levels_agree(coarse, rough)
    pair = levels_agree(fine, coarse)
    want = np.where(stage1, coarse, np.where(pair, fine, np.nan))
    got = fading.law_mean(integrand, t_min, t_max, *args)
    assert np.isnan(got).tolist() == np.isnan(want).tolist()
    assert np.nan_to_num(got).tobytes() == np.nan_to_num(want).tobytes()
    for i in range(0, len(t_min), len(t_min) // 200):
        cell = [float(a[i]) for a in (t_min, t_max, *args)]
        assert np.array(program_value(name, *cell[:2], cell[2:])).tobytes() == want[i].tobytes()

    only_stage1 = np.flatnonzero(stage1 & ~pair)
    if rounding_v is None:
        assert len(only_stage1) == 0
    for i in only_stage1:
        cut_v = rounding_v(*(float(a[i]) for a in args))
        assert rounding_bits(t_min[i], t_max[i], cut_v) > ROUNDING_CUT
    # the census, for ``pytest -s``
    print(f"{name}: {len(t_min)} cells, stage 1 accepts {stage1.sum()}, stage 2 accepts "
          f"{(~stage1 & pair).sum()}, rejects {(~stage1 & ~pair).sum()}; stage 1 accepts "
          f"where the 103-node pair rejects: {len(only_stage1)}")


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(u=st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 6))
# a stage-2 cell of each integrand, in the order of INTEGRANDS
@example(u=(0.65, 0.582, 0.946, 0.19, 0.125, 0.354))
@example(u=(0.48, 0.249, 0.892, 0.95, 0.071, 0.524))
@example(u=(0.679, 0.87, 0.227, 0.895, 0.872, 0.019))
@example(u=(0.808, 0.667, 0.49, 0.654, 0.261, 0.304))
def test_every_accepted_cell_is_within_the_oracle_gate(name, u):
    # each integrand's mean, where law_mean accepts it, is within 1e-9 bits
    # of the 40-digit mpmath oracle over the same law [t_min, t_max], on the
    # laws where the rounding of T at the nodes stays within ROUNDING_CUT;
    # ``--hypothesis-show-statistics`` counts the cells of each stage
    import mpmath

    cell = cell_from(name, u)
    assume(cell is not None)
    t_min, t_max, args = cell
    rounding_v = INTEGRANDS[name][3]
    if rounding_v is not None:
        assume(rounding_bits(t_min, t_max, rounding_v(*args)) <= ROUNDING_CUT)
    stage, want = rule_value(name, t_min, t_max, args)
    got = program_value(name, t_min, t_max, args)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    event(f"stage {stage}" if stage else "rejected")
    if stage:
        with mpmath.workdps(ORACLE_DPS):
            lo, hi, *mp_args = (mpmath.mpf(x) for x in (t_min, t_max, *args))
            oracle = _fading_average_oracle(INTEGRANDS[name][2](*mp_args), lo, hi - lo)
        assert abs(got - float(oracle)) <= ORACLE_BITS, (t_min, t_max, args, stage)


def test_at_most_a_tenth_of_a_quadrature_sweeps_cells_take_the_second_stage(monkeypatch, capsys):
    # the benchmark's sweep_quadrature grid (seed 1; 6,320 rows, every one
    # averaged): each cell takes the 51 nodes of stage 1, and 306 (4.8 %)
    # the 52 of stage 2 (hba_exact next to t_max = 1 or at t_min < 0.1, cma
    # at t_min < 0.1).  A law_mean that lost its first stage would send
    # every cell there
    cells = {51: 0, 52: 0}
    for module, name in ((hba, "holevo_rows"), (cma, "mutual_information_form")):
        def counting(t, *args, real=getattr(module, name)):
            values = real(t, *args)
            if t.shape[-1] in cells:
                cells[t.shape[-1]] += values.size // t.shape[-1]
            return values

        monkeypatch.setattr(module, name, counting)
    grid = benchmark_workloads().sweep_quadrature(1)
    rows, n_errors = cli.run_sweep(cli.SweepConfig(**dataclasses.asdict(grid)))
    capsys.readouterr()
    assert n_errors == 0 and cells[51] == len(rows) > 6000
    assert 0 < cells[52] <= 0.1 * cells[51]


def test_a_second_stage_cell_has_the_bits_of_the_103_node_pair():
    # the exact Holevo bound's x log x end at T = 1 sends cells to stage 2:
    # on a blocks x V matrix cut along V (70 V, CHUNK_ROWS 64), as rows and
    # one row at a time, a cell has the bits of the test's own 103-node level
    # there, or of its 51-node level where stage 1 accepts; NaN (one row:
    # QuadratureError with the gap) where the 103-node pair disagrees
    t_min, eps = (np.array(c, dtype=float)[:, None]
                  for c in zip(*itertools.product((0.02, 0.3, 0.6, 0.9), (0.0, 1e-3, 0.02))))
    t_max = np.ones_like(t_min)
    v = np.geomspace(1.5, 1e6, 70)[None, :] * np.ones_like(t_min)
    fine, coarse, rough = (np.reshape(x, v.shape) for x in tanh_sinh_levels(
        holevo_rows, *np.broadcast_arrays(t_min, t_max, v, eps)))
    stage1, pair = levels_agree(coarse, rough), levels_agree(fine, coarse)
    want = np.where(stage1, coarse, np.where(pair, fine, np.nan))
    assert (~stage1 & pair).sum() > 20 and stage1.sum() > 20

    got = fading.law_mean(holevo_rows, t_min, t_max, v, eps)
    assert got.tobytes() == want.tobytes()
    rows = [np.ravel(a) for a in np.broadcast_arrays(t_min, t_max, v, eps)]
    assert fading.law_mean(holevo_rows, *rows).tobytes() == want.tobytes()
    for cell, value in zip(zip(*(a.tolist() for a in rows)), want.ravel()):
        one_row = program_value("holevo_rows", *cell[:2], cell[2:])
        assert np.array(one_row).tobytes() == value.tobytes()

    def noisy(t, v, eps):  # node values with noise far beyond REL_TOL
        return holevo_rows(t, v, eps) + 1e-13 * v * np.sin(1e7 * t)

    fine, coarse, _ = (float(x) for x in tanh_sinh_levels(noisy, 0.5, 0.9, 1e8, 0.01))
    gap = f"the two tanh-sinh levels differ by {abs(fine - coarse):.3e}"
    with pytest.raises(QuadratureError, match=gap):
        fading.law_mean(noisy, 0.5, 0.9, 1e8, 0.01)
