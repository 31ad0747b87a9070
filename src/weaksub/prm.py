"""Poisson random measures on a time window with i.i.d. marks, and
Laplace-functional (Campbell) verification.

`laplace_functional_mc` averages the product of e^{-f} over simulated
point sets, to be compared with exp(-integral of (1 - e^{-f}) against
the intensity) computed by the caller; for a constant f = c on a window
of rate r and length h that is exp(-r h (1 - e^{-c})).
`marked_laplace_check` estimates the Laplace functional of the
weak-subordination jump point process by two such estimates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy import (AtomicJumps, LevyLaw, LevySpecError, SubordinatorSpec,
                   _check_count, poisson_counts, poisson_scatter)
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
    _check_count(reps, 2, "reps")


def _mean_se(vals: Array) -> tuple[float, float]:
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


def laplace_functional_mc(rate: float, marks, horizon: float, f, reps: int,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo mean of the product of e^{-f} over the points of
    `reps` independent Poisson(rate * horizon) windows, times uniform
    and marks i.i.d.; returns (estimate, standard error).

    `marks.sample(rng, k)` draws k marks, and `f.evaluate(times, marks)`
    maps k times and their marks to k nonnegative values. It runs after
    all counts, times and marks are drawn, so it may draw from rng.
    """
    _check_window(horizon, reps)  # poisson_counts checks rate x horizon
    counts = poisson_counts(rate * horizon, reps, rng)
    k = int(counts.sum())
    values = f.evaluate(rng.uniform(0.0, horizon, size=k), marks.sample(rng, k))
    return _mean_se(np.exp(-poisson_scatter(counts, values)))


# ---------------------------------------------------------------------------
# Marked-point-process identity for weak subordination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MarkAverage:
    """-log of the mean of e^{-f(time, jump, mark)} over k marks per point,
    drawn from the law of X at its jump in one call; f runs once per mark."""

    f: object
    X: LevyLaw
    k: int
    rng: np.random.Generator

    def evaluate(self, times, jumps):
        times, jumps = np.repeat(times, self.k), np.repeat(jumps, self.k, axis=0)
        marks = sample_subordinate_at(self.X, jumps, self.rng)
        values = np.array([self.f(*p) for p in zip(times, jumps, marks)], dtype=float)
        with np.errstate(divide="ignore"):  # a zero mean makes the product 0
            return -np.log(np.exp(-values).reshape(-1, self.k).mean(axis=1))


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
    subordination jump point process, each a `laplace_functional_mc`
    estimate over T's jumps, which must be atomic (gamma rays have no
    single jump times). Left: mark each jump of size t with one draw from
    the law of X(t). Right: replace each point's e^{-f} by its mean over
    `inner` (an integer >= 1) fresh marks from the same kernel; this is
    unbiased as marks are conditionally independent given the jumps. f is
    called as f(time, jump_vector, mark_vector) -> nonnegative float, once
    per mark.
    """
    _check_count(inner, 1, "inner")
    if not isinstance(T.jumps, AtomicJumps):
        raise LevySpecError("single jump times need an atomic jump measure")
    lhs, rhs = (laplace_functional_mc(T.jumps.total_mass, T.jumps, horizon,
                                      _MarkAverage(f, X, k, rng), reps, rng)
                for k in (1, inner))
    return MarkedCheckResult(*lhs, *rhs)
