"""Poisson random measures on a time window with i.i.d. marks, and
Laplace-functional (Campbell) verification.

`laplace_functional_mc` averages the product of e^{-f} over simulated
point sets, to be compared with exp(-integral of (1 - e^{-f}) against
the intensity) computed by the caller; for a constant f = c on a window
of rate r and length h that is exp(-r h (1 - e^{-c})).
`marked_laplace_check` estimates the Laplace functional of the
weak-subordination jump point process by two such estimates. Both draw
and sum their points one block of TIME_T_CHUNK at a time, so their
memory does not grow with the number of points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy import (AtomicJumps, LevyLaw, LevySpecError, SubordinatorSpec,
                   _check_count, poisson_counts)
from .ordered_time import sample_subordinate_at
from .subordination import TIME_T_CHUNK
from .verify import DEFAULT_K, clt_bound


@dataclass(frozen=True)
class PointMassMark:
    """Mark law concentrated on one point."""

    point: tuple

    def sample(self, rng, size):
        point = np.asarray(self.point, dtype=float)
        return np.broadcast_to(point, (size, point.size))  # np.tile's rows, read-only


@dataclass(frozen=True)
class ConstantFunctional:
    """f(time, mark) = c, a nonnegative constant (c = inf is allowed)."""

    c: float

    def __post_init__(self):
        _nonnegative(self.c)

    def evaluate(self, times, marks):
        return np.full(times.shape[0], self.c)


# ---------------------------------------------------------------------------
# Laplace functionals
# ---------------------------------------------------------------------------


def _nonnegative(values):
    """values, checked >= 0 (inf is allowed, NaN is not)."""
    if not np.asarray(values).min(initial=0.0) >= 0:  # NaN >= 0 is False
        raise LevySpecError("functional values must be nonnegative, not NaN")
    return values


def laplace_functional_mc(rate: float, marks, horizon: float, f, reps: int,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo mean of the product of e^{-f} over the points of
    `reps` independent Poisson(rate * horizon) windows, times uniform
    and marks i.i.d.; returns (estimate, standard error). The windows'
    points are one Poisson(rate * horizon * reps) total, each point in a
    uniform window, drawn and summed into the windows' running sums of f
    one block of at most TIME_T_CHUNK points at a time, so the call
    holds one block's points and the `reps` sums, however many points.

    `marks.sample(rng, k)` draws k marks, and `f.evaluate(times, marks)`
    maps k times and their marks to k nonnegative values, shape (k,) (any
    other shape, or a NaN or negative value, is a LevySpecError). It is
    called once per block, after the block's times and marks are drawn,
    so it may draw from rng; the block's window labels are drawn after
    it returns.
    """
    if not 0 < horizon < np.inf:
        raise LevySpecError("horizon must be positive and finite")
    _check_count(reps, 2, "reps")
    with np.errstate(over="ignore"):  # poisson_counts rejects an inf mean
        mean = rate * horizon * reps
    k = int(poisson_counts(mean, rng))
    sums = np.zeros(reps)  # after the checks: a huge reps is a LevySpecError
    for start in range(0, k, TIME_T_CHUNK):
        b = min(TIME_T_CHUNK, k - start)
        # the bits of uniform(0.0, horizon, b), which computes 0.0 + horizon * u
        values = _nonnegative(f.evaluate(horizon * rng.random(b), marks.sample(rng, b)))
        if np.shape(values) != (b,):  # np.add.at would broadcast it
            raise LevySpecError(f"f must return one value per point, shape "
                                f"({b},), not {np.shape(values)}")
        # in point order, as one np.bincount over all points adds them
        np.add.at(sums, rng.integers(0, reps, size=b), values)
    vals = np.exp(np.negative(sums, out=sums), out=sums)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(reps))


# ---------------------------------------------------------------------------
# Marked-point-process identity for weak subordination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MarkAverage:
    """-log of the mean of e^{-f(time, jump, mark)} over k marks per point,
    drawn from the law of X at its jump in one call per block of points;
    f runs once per mark."""

    f: object
    X: LevyLaw
    k: int
    rng: np.random.Generator

    def evaluate(self, times, jumps):
        marks = sample_subordinate_at(self.X, np.repeat(jumps, self.k, axis=0), self.rng)
        # f gets row views, and a point's k marks share its jump's row
        jumps.flags.writeable = marks.flags.writeable = False
        values = _nonnegative(np.array(
            [self.f(t, jump, mark) for t, jump, point_marks in
             zip(times.tolist(), jumps, marks.reshape(-1, self.k, self.X.dim))
             for mark in point_marks], dtype=float))
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

    def within(self, k: float = DEFAULT_K) -> bool:
        clt_bound(k=k)  # a k that is not finite and > 0 is a LevySpecError
        return abs(self.lhs - self.rhs) <= k * self.combined_se


def marked_laplace_check(T: SubordinatorSpec, X: LevyLaw, f, horizon: float,
                         reps: int, rng: np.random.Generator,
                         inner: int = 32) -> MarkedCheckResult:
    """Two Monte Carlo routes to the Laplace functional of the weak-
    subordination jump point process, each a `laplace_functional_mc`
    estimate over T's jumps, which must be atomic (gamma rays have no
    single jump times); each holds one block of jumps and their marks at
    a time. Left: mark each jump of size t with one draw from
    the law of X(t). Right: replace each point's e^{-f} by its mean over
    `inner` (an integer >= 1) fresh marks from the same kernel; this is
    unbiased as marks are conditionally independent given the jumps. f is
    called as f(time, jump_vector, mark_vector) -> nonnegative float, once
    per mark, point by point, with a float time and read-only vectors, a
    point's marks sharing one jump vector; a NaN or negative value is a
    LevySpecError.
    """
    _check_count(inner, 1, "inner")
    if not isinstance(T.jumps, AtomicJumps):
        raise LevySpecError("single jump times need an atomic jump measure")
    lhs, rhs = (laplace_functional_mc(T.jumps.total_mass, T.jumps, horizon,
                                      _MarkAverage(f, X, k, rng), reps, rng)
                for k in (1, inner))
    return MarkedCheckResult(*lhs, *rhs)
