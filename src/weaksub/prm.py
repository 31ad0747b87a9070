"""Poisson random measures on a time window with i.i.d. marks, and
Laplace-functional (Campbell) verification.

`laplace_functional_mc` averages the product of e^{-f} over simulated
point sets, to be compared with exp(-integral of (1 - e^{-f}) against
the intensity) computed by the caller; for a constant f = c on a window
of rate r and length h that is exp(-r h (1 - e^{-c})).
`marked_laplace_check` estimates the Laplace functional of the
weak-subordination jump point process by two Monte Carlo routes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy import (AtomicJumps, LevyLaw, LevySpecError, SubordinatorSpec,
                   poisson_counts, poisson_scatter)
from .ordered_time import sample_subordinate_at

Array = np.ndarray


@dataclass(frozen=True)
class PointMassMark:
    """Mark law concentrated on one point."""

    point: tuple

    def sample(self, rng, size):
        return np.tile(np.asarray(self.point, dtype=float), (size, 1))


@dataclass(frozen=True)
class ConstantFunctional:
    """f(time, mark) = c, a nonnegative constant (c = inf is allowed)."""

    c: float

    def __post_init__(self):
        if not self.c >= 0:
            raise LevySpecError("functional values must be nonnegative")

    def evaluate(self, times, marks):
        return np.full(times.shape[0], self.c)


# ---------------------------------------------------------------------------
# Laplace functionals
# ---------------------------------------------------------------------------


def _check_window(horizon: float, reps: int) -> None:
    if not 0 < horizon < np.inf:
        raise LevySpecError("horizon must be positive and finite")
    if reps < 2:
        raise LevySpecError("reps must be at least 2 for a standard error")


def _mean_se(vals: Array) -> tuple[float, float]:
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


def _windows(rate: float, marks, horizon: float, size: int,
             rng: np.random.Generator, g) -> tuple[Array, Array]:
    """`size` independent windows (0, horizon] of a Poisson process of
    rate `rate` with i.i.d. marks: the point count of each, Poisson(rate
    * horizon), and g(times, marks) over all points, window 0's first,
    for the times (i.i.d. uniform, unsorted) and marks
    (`marks.sample(rng, k)`) of the points. g is called as soon as the
    points are drawn, so it may draw from rng too."""
    counts = poisson_counts(rate * horizon, size, rng)
    k = int(counts.sum())
    return counts, g(rng.uniform(0.0, horizon, size=k), marks.sample(rng, k))


def laplace_functional_mc(rate: float, marks, horizon: float, f, reps: int,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo mean of the product of e^{-f} over the points of
    `reps` independent Poisson(rate * horizon) windows, times uniform
    and marks i.i.d.; returns (estimate, standard error).

    `marks.sample(rng, k)` draws k marks, and `f.evaluate(times, marks)`
    maps k times and their marks to k nonnegative values.
    """
    _check_window(horizon, reps)  # poisson_counts checks rate x horizon
    sums = poisson_scatter(*_windows(rate, marks, horizon, reps, rng, f.evaluate))
    return _mean_se(np.exp(-sums))


# ---------------------------------------------------------------------------
# Marked-point-process identity for weak subordination
# ---------------------------------------------------------------------------


@dataclass
class MarkedCheckResult:
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float

    @property
    def combined_se(self) -> float:
        return float(np.sqrt(self.lhs_se**2 + self.rhs_se**2))

    def within(self, k: float = 4.0) -> bool:
        return abs(self.lhs - self.rhs) <= k * self.combined_se


def marked_laplace_check(T: SubordinatorSpec, X: LevyLaw, f, horizon: float,
                         reps: int, rng: np.random.Generator,
                         inner: int = 32) -> MarkedCheckResult:
    """Two Monte Carlo routes to the Laplace functional of the weak-
    subordination jump point process.

    Left: simulate the marked process directly, mark at each subordinator
    jump of size t drawn from the law of X(t), average the product of
    e^{-f(time, jump, mark)}. Right: simulate the subordinator jumps only
    and integrate out each mark with a fresh inner Monte Carlo sample
    from the same kernel; the product of per-point inner means stays
    unbiased because marks are conditionally independent given the jumps.

    f is called as f(time, jump_vector, mark_vector) -> nonnegative float,
    once per point; vectorized over leading axes is not required. Each
    side draws the jumps of all `reps` windows at once and all their
    marks in one `sample_subordinate_at` call. T's jumps must be atomic:
    gamma rays have no single jump times (LevySpecError).
    """
    _check_window(horizon, reps)
    if not isinstance(T.jumps, AtomicJumps):
        raise LevySpecError("single jump times need an atomic jump measure")

    def f_at(times, jumps):  # f at each point, marked by X at its jump
        marks = sample_subordinate_at(X, jumps, rng)
        return np.array([f(s, jump, mark) for s, jump, mark
                         in zip(times, jumps, marks)], dtype=float)

    def inner_means(times, jumps):
        values = np.exp(-f_at(np.repeat(times, inner), np.repeat(jumps, inner, axis=0)))
        return values.reshape(-1, inner).mean(axis=1)

    sums = poisson_scatter(*_windows(T.jumps.total_mass, T.jumps, horizon, reps,
                                     rng, f_at))
    lhs = _mean_se(np.exp(-sums))
    counts, means = _windows(T.jumps.total_mass, T.jumps, horizon, reps, rng,
                             inner_means)
    with np.errstate(divide="ignore"):  # a zero mean makes the product 0
        rhs = _mean_se(np.exp(poisson_scatter(counts, np.log(means))))
    return MarkedCheckResult(*lhs, *rhs)
