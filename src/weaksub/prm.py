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

from .levy import (LevyLaw, LevySpecError, SubordinatorSpec, poisson_draws,
                   poisson_scatter)
from .ordered_time import sample_subordinate_at
from .subordination import _jump_windows

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


def laplace_functional_mc(rate: float, marks, horizon: float, f, reps: int,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo mean of the product of e^{-f} over the points of
    `reps` independent Poisson(rate * horizon) windows, times uniform
    and marks i.i.d.; returns (estimate, standard error).

    `marks.sample(rng, k)` draws k marks, and `f.evaluate(times, marks)`
    maps k times and their marks to k nonnegative values.
    """
    _check_window(horizon, reps)  # poisson_draws checks rate x horizon

    def f_values(rng, k):  # f at k uniform times with i.i.d. marks
        return f.evaluate(rng.uniform(0.0, horizon, size=k), marks.sample(rng, k))

    sums = poisson_scatter(*poisson_draws(rate * horizon, f_values, reps, rng))
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

    def f_at(times, jumps, marks):
        return np.array([f(s, jump, mark) for s, jump, mark
                         in zip(times, jumps, marks)], dtype=float)

    counts, times, jumps = _jump_windows(T, horizon, reps, rng)
    sums = poisson_scatter(counts, f_at(times, jumps,
                                        sample_subordinate_at(X, jumps, rng)))
    lhs = _mean_se(np.exp(-sums))

    counts, times, jumps = _jump_windows(T, horizon, reps, rng)
    times, jumps = np.repeat(times, inner), np.repeat(jumps, inner, axis=0)
    inner_means = np.exp(-f_at(times, jumps, sample_subordinate_at(X, jumps, rng)))
    inner_means = inner_means.reshape(-1, inner).mean(axis=1)
    with np.errstate(divide="ignore"):  # a zero mean makes the product 0
        rhs = _mean_se(np.exp(poisson_scatter(counts, np.log(inner_means))))
    return MarkedCheckResult(*lhs, *rhs)
