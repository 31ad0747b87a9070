"""Poisson random measures on a time window with i.i.d. marks, and
Laplace-functional (Campbell) verification.

The analytic Laplace functional is exp(-integral of (1 - e^{-f}) against
the intensity); the Monte Carlo side averages the product of e^{-f} over
simulated point sets. Functionals come from a small DSL: constants, box
indicators, and a separable time-decay family, enough to exercise the
identity without a general measurable-function representation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy import (LevyLaw, LevySpecError, SubordinatorSpec, poisson_draws,
                   poisson_scatter)
from .ordered_time import sample_subordinate_at
from .subordination import _jump_windows

Array = np.ndarray


# ---------------------------------------------------------------------------
# Mark distributions (samplable, with computable box probabilities)
# ---------------------------------------------------------------------------


class MarkDistribution:
    dim: int

    def sample(self, rng: np.random.Generator, size: int) -> Array:
        raise NotImplementedError

    def box_prob(self, lo, hi) -> float:
        """P(mark in the closed box [lo, hi])."""
        raise NotImplementedError


@dataclass(frozen=True)
class PointMassMark(MarkDistribution):
    point: tuple

    @property
    def dim(self) -> int:
        return len(self.point)

    def sample(self, rng, size):
        return np.tile(np.asarray(self.point, dtype=float), (size, 1))

    def box_prob(self, lo, hi):
        p = np.asarray(self.point, dtype=float)
        return float(np.all((np.asarray(lo) <= p) & (p <= np.asarray(hi))))


@dataclass(frozen=True)
class UniformBoxMark(MarkDistribution):
    lo: tuple
    hi: tuple

    @property
    def dim(self) -> int:
        return len(self.lo)

    def sample(self, rng, size):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        return rng.uniform(lo, hi, size=(size, self.dim))

    def box_prob(self, lo, hi):
        a = np.asarray(self.lo, dtype=float)
        b = np.asarray(self.hi, dtype=float)
        lo = np.maximum(np.asarray(lo, dtype=float), a)
        hi = np.minimum(np.asarray(hi, dtype=float), b)
        if np.any(hi <= lo):
            return 0.0
        return float(np.prod((hi - lo) / (b - a)))


@dataclass(frozen=True)
class DiagonalGaussianMark(MarkDistribution):
    mean: tuple
    std: tuple

    @property
    def dim(self) -> int:
        return len(self.mean)

    def sample(self, rng, size):
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        return mean + std * rng.standard_normal((size, self.dim))

    def box_prob(self, lo, hi):
        from scipy import stats  # loaded here, so importing weaksub needs no scipy

        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        return float(np.prod(stats.norm.cdf(hi, mean, std)
                             - stats.norm.cdf(lo, mean, std)))


# ---------------------------------------------------------------------------
# Functional DSL
# ---------------------------------------------------------------------------


class Functional:
    """Nonnegative functional f(time, mark) from the supported DSL."""

    def evaluate(self, times: Array, marks: Array) -> Array:
        raise NotImplementedError

    def intensity_integral(self, rate: float, marks: MarkDistribution,
                           horizon: float) -> float:
        """integral of (1 - e^{-f}) against rate * dt x mark law."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantFunctional(Functional):
    c: float

    def __post_init__(self):
        if self.c < 0:
            raise LevySpecError("functional values must be nonnegative")

    def evaluate(self, times, marks):
        return np.full(times.shape[0], self.c)

    def intensity_integral(self, rate, marks, horizon):
        return rate * horizon * -np.expm1(-self.c)


@dataclass(frozen=True)
class BoxIndicatorFunctional(Functional):
    """c on a time interval times a mark box, 0 elsewhere."""

    c: float
    t_lo: float = 0.0
    t_hi: float = np.inf
    mark_lo: tuple | None = None
    mark_hi: tuple | None = None

    def __post_init__(self):
        if self.c < 0:
            raise LevySpecError("functional values must be nonnegative")

    def evaluate(self, times, marks):
        hit = (times > self.t_lo) & (times <= self.t_hi)
        if self.mark_lo is not None:
            lo = np.asarray(self.mark_lo, dtype=float)
            hi = np.asarray(self.mark_hi, dtype=float)
            hit &= np.all((marks >= lo) & (marks <= hi), axis=1)
        return np.where(hit, self.c, 0.0)  # inf * False would be nan

    def intensity_integral(self, rate, marks, horizon):
        length = max(0.0, min(self.t_hi, horizon) - max(self.t_lo, 0.0))
        p = 1.0
        if self.mark_lo is not None:
            p = marks.box_prob(self.mark_lo, self.mark_hi)
        return rate * length * p * -np.expm1(-self.c)


@dataclass(frozen=True)
class ExpTimeDecayFunctional(Functional):
    """Separable mark-independent family f(t, x) = c * exp(-alpha t)."""

    c: float
    alpha: float

    def __post_init__(self):
        if self.c < 0 or self.alpha < 0:
            raise LevySpecError("c and alpha must be nonnegative")

    def evaluate(self, times, marks):
        return self.c * np.exp(-self.alpha * times)

    def intensity_integral(self, rate, marks, horizon):
        from scipy import integrate

        val, _ = integrate.quad(
            lambda t: -np.expm1(-self.c * np.exp(-self.alpha * t)), 0.0, horizon)
        return rate * val


# ---------------------------------------------------------------------------
# Laplace functionals
# ---------------------------------------------------------------------------


def laplace_functional_analytic(rate: float, marks: MarkDistribution,
                                horizon: float, f: Functional) -> float:
    """exp(-integral of (1 - e^{-f}) d(intensity)); in [0, 1]. A
    functional that is infinite on positive mass gives 0 (pass c=inf)."""
    return float(np.exp(-f.intensity_integral(rate, marks, horizon)))


def _check_window(horizon: float, reps: int) -> None:
    if not horizon > 0:
        raise LevySpecError("horizon must be positive")
    if reps < 2:
        raise LevySpecError("reps must be at least 2 for a standard error")


def _mean_se(vals: Array) -> tuple[float, float]:
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


def laplace_functional_mc(rate: float, marks: MarkDistribution, horizon: float,
                          f: Functional, reps: int,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo mean of the product of e^{-f} over the points of
    `reps` independent Poisson(rate * horizon) windows, times uniform
    and marks i.i.d.; returns (estimate, standard error).
    """
    if rate < 0 or not np.isfinite(rate):
        raise LevySpecError("rate must be finite and nonnegative")
    _check_window(horizon, reps)

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
    marks in one `sample_subordinate_at` call.
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
