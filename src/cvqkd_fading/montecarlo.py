"""Sampling-based validation of the statistical-mixture picture.

Draws transmittance values from the uniform fading law and rebuilds the
averaged covariance matrix empirically, converging to the closed forms (the
law and its moments live in ``fading``) as the sample count grows.  The
security analysis lives entirely at the covariance level, so only second
moments are simulated; no per-shot quadrature outcomes.

Randomness is pinned to the Philox 4x64 counter-based generator (as wrapped
by ``numpy.random.Philox``, 10 rounds) keyed with the configured seed, so
identical configurations reproduce bit-identical streams on any platform.
The sample buffer is cut into pieces that the caller and one worker thread
draw and sum in turn (numpy releases the GIL while it fills or sweeps an
array); a thread slowed by other work on its core just takes fewer pieces.
Each piece's generator is the same key with its counter advanced to the
piece's start, and the cuts follow the top levels of numpy's pairwise sum
tree, so every draw and every moment has the bits of the serial stream and
the serial sums.
"""

from __future__ import annotations

import math
import queue
import threading
from collections import deque
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


# numpy's pairwise sum adds up to this many values in one unrolled block
PAIRWISE_BLOCK = 128
# levels of that sum's tree along which the sample buffer is cut
SPLIT_DEPTH = 3


def _bounds(n: int) -> list[int]:
    """Piece boundaries of an n-value buffer: numpy's pairwise sum tree
    cut SPLIT_DEPTH levels down, so 2**SPLIT_DEPTH pieces whose sums, added
    as a balanced tree (``_tree_sum``), are the sum of all n bit for bit.
    Every split is a multiple of 8, so also of Philox's 4-draw counter
    block.  Below 2 * PAIRWISE_BLOCK * 2**SPLIT_DEPTH values a cut could
    land inside an unsplit block, so the buffer stays one piece."""
    bounds = [0, n]
    if n < PAIRWISE_BLOCK << (SPLIT_DEPTH + 1):
        return bounds
    for _ in range(SPLIT_DEPTH):
        cut = [0]
        for lo, hi in zip(bounds, bounds[1:]):
            h = (hi - lo) // 2
            cut += [lo + h - h % 8, hi]
        bounds = cut
    return bounds


def _tree_sum(sums: list[float]) -> float:
    """The pieces' sums added pairwise, as numpy adds its tree's halves."""
    while len(sums) > 1:
        sums = [sums[i] + sums[i + 1] for i in range(0, len(sums), 2)]
    return sums[0]


_jobs: queue.SimpleQueue | None = None


def _serve(jobs: queue.SimpleQueue) -> None:
    """The worker thread: run each job in turn, for the life of the process."""
    while True:
        jobs.get()()


def _submit(job) -> None:
    """Hand job to the module's one worker thread, started on first use."""
    global _jobs
    if _jobs is None:
        _jobs = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_jobs,), name="montecarlo", daemon=True).start()
    _jobs.put(job)


def _on_pieces(fn, t: np.ndarray) -> list:
    """[fn(lo, t[lo:hi]) for each piece of ``_bounds``].  The caller takes
    the pieces in turn and the worker thread helps once it runs.  The
    caller never waits for the worker to start, only for a piece the
    worker is in the middle of, so a worker held up by other work on its
    core costs at most that piece.  The worker's exception is raised here,
    and no thread touches t after this returns or raises."""
    bounds = _bounds(t.size)
    results: list = [None] * (len(bounds) - 1)
    if len(results) == 1:
        return [fn(0, t)]
    pieces = [t[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    todo = deque(range(len(results)))
    lock = threading.Condition()
    running = 0  # pieces taken and not finished
    errors: list[BaseException] = []

    def take() -> None:
        nonlocal running
        while True:
            with lock:
                if not todo:
                    return
                i = todo.popleft()
                running += 1
            try:
                results[i] = fn(bounds[i], pieces[i])
            finally:
                with lock:
                    running -= 1
                    lock.notify()

    def help_out() -> None:
        try:
            take()
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    _submit(help_out)
    try:
        take()
    finally:
        with lock:
            todo.clear()
            lock.wait_for(lambda: running == 0)
            pieces.clear()  # a job the worker has yet to start must not keep t alive
    if errors:
        raise errors[0]
    return results


def _fill(f: FadingUniform, seed: int, start: int, out: np.ndarray) -> None:
    """Draws start, start + 1, ... of the seed's Philox stream into out, as
    transmittances; start is a multiple of Philox's 4-draw block."""
    bits = np.random.Philox(key=seed)
    bits.advance(start // 4)
    np.random.Generator(bits).random(out=out)
    out *= f.delta_t
    out += f.t_min


def sample_transmittance(f: FadingUniform, cfg: SampleConfig) -> np.ndarray:
    """n_samples i.i.d. draws from Uniform[t_min, t_max], deterministic in the seed.

    The generator's draw buffer is scaled and shifted in place: each draw
    is t_min + delta_t * u, rounded as the out-of-place expression rounds it.
    The pieces are drawn on two threads; the bytes are those of one serial
    stream.
    """
    t = np.empty(cfg.n_samples)
    _on_pieces(lambda start, piece: _fill(f, cfg.seed, start, piece), t)
    return t


def _sum_then_sqrt(_start: int, piece: np.ndarray) -> tuple[float, float]:
    """(sum of T, sum of sqrt(T)) over piece, leaving sqrt(T) in it."""
    sum_t = float(np.add.reduce(piece))
    return sum_t, float(np.add.reduce(np.sqrt(piece, out=piece)))


def empirical_moments(f: FadingUniform, cfg: SampleConfig) -> TransmittanceMoments:
    """Sample estimates of <sqrt(T)>, <T> and Var(sqrt(T)) = <T> - <sqrt(T)>^2.

    The variance uses the population definition matching the closed form (no
    ddof correction), computed in centered form to avoid cancellation.  The
    degenerate distribution returns the closed-form moments, exact for any
    sample count.  The draws are overwritten in turn by sqrt(T), its
    deviations from the mean and their squares, so one sample buffer holds
    every stage.  Each pass runs over the pieces on two threads, and each
    mean is the pieces' sums added as numpy's pairwise tree adds them and
    divided by n: the bits of ``t.mean()``.
    """
    if f.delta_t == 0.0:
        return moments_uniform(f)
    t = sample_transmittance(f, cfg)
    n = t.size
    sums = _on_pieces(_sum_then_sqrt, t)
    mean_t = _tree_sum([s for s, _ in sums]) / n
    mean_sqrt = _tree_sum([s for _, s in sums]) / n

    def centered_square_sum(_start: int, piece: np.ndarray) -> float:
        piece -= mean_sqrt
        return float(np.add.reduce(np.square(piece, out=piece)))

    var = _tree_sum(_on_pieces(centered_square_sum, t)) / n
    return TransmittanceMoments(mean_sqrt, mean_t, var)


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
    when delta_t = 0.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    if f.delta_t == 0.0:
        return 0.0, 0.0, 0.0
    a, b = math.sqrt(f.t_max), math.sqrt(f.t_min)
    w = f.delta_t / (a + b)
    c = (2.0 * a + b) / (3.0 * (a + b))
    i2 = i4 = 0.0
    for x, weight in _GAUSS3:
        p = weight * 2.0 * (b + w * x) / (a + b)
        d2 = (x - c) * (x - c)
        i2 += p * d2
        i4 += p * d2 * d2
    var_v = w**4 * (i4 - i2 * i2)
    root_n = math.sqrt(n_samples)
    return (
        math.sqrt(moments_uniform(f).var_sqrt_t) / root_n,
        f.delta_t / math.sqrt(12.0) / root_n,
        math.sqrt(var_v) / root_n,
    )
