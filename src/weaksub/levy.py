"""Lévy laws as characteristic triplets, and their exponents.

A Lévy law is represented by its drift, Gaussian covariance and jump
measure. All jump measures here have finite total mass, so the
uncompensated form of the jump integral

    sum_j rate_j * (exp(i<theta, x_j>) - 1)

is always finite and is the internal convention: the drift field is the
total drift of the continuous part.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

PSD_TOL = 1e-10
# Largest expected point count of one `poisson_draws` call: above the CLI's
# largest draw, a row expecting MAX_ROWS = 10**7 jumps.
MAX_POISSON_POINTS = 2**27

Array = np.ndarray


class LevySpecError(ValueError):
    """Raised when a process specification violates its invariants."""


# ---------------------------------------------------------------------------
# Jump measure specifications
# ---------------------------------------------------------------------------


class JumpMeasure:
    """Base class for finite-activity jump measure specifications."""

    dim: int

    @property
    def total_mass(self) -> float:
        raise NotImplementedError

    @property
    def largest_coordinate(self) -> float:
        """Largest coordinate of any jump; inf when only a sampler knows
        the jumps."""
        return np.inf

    def sample(self, rng: np.random.Generator, size: int) -> Array:
        """Draw `size` i.i.d. jumps from the normalized measure."""
        raise NotImplementedError

    def integrate(self, g: Callable[[Array], Array], rng=None, samples=10_000):
        """(value, standard error) of the integral of g against the measure.

        g maps a (k, dim) array of jump points to values of shape
        (..., k), the jump axis last; value and standard error then have
        shape (...), one per leading index (e.g. one per theta row)."""
        raise NotImplementedError


class AtomicJumps(JumpMeasure):
    """Finite sum of weighted atoms: measure = sum_j rate_j * delta_{x_j}."""

    def __init__(self, points, rates):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        rates = np.asarray(rates, dtype=float)
        if points.ndim != 2 or rates.shape != (points.shape[0],):
            raise LevySpecError("need one rate per atom and one point per row")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(rates))):
            raise LevySpecError("atom points and rates must be finite")
        if np.any(rates <= 0):
            raise LevySpecError("atom rates must be positive")
        if np.any(np.all(points == 0.0, axis=1)):
            raise LevySpecError("atoms must be nonzero points")
        self.points = points
        self.rates = rates
        self.dim = points.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.rates.sum())

    @property
    def largest_coordinate(self) -> float:
        return float(np.max(self.points, initial=0.0))

    def sample(self, rng: np.random.Generator, size: int) -> Array:
        if not self.rates.size:
            if size > 0:
                raise LevySpecError("cannot sample jumps from the zero measure")
            return self.points
        probs = self.rates / self.rates.sum()
        idx = rng.choice(len(self.rates), size=size, p=probs)
        return self.points[idx]

    def integrate(self, g, rng=None, samples=10_000):
        """Exact: sum_j rate_j g(x_j), with standard error 0."""
        value = g(self.points) @ self.rates
        return value, (np.zeros(value.shape) if np.ndim(value) else 0.0)

    def __repr__(self):
        return f"AtomicJumps(points={self.points!r}, rates={self.rates!r})"


class ZeroJumps(AtomicJumps):
    """The zero measure: no atoms, so every jump integral is 0."""

    def __init__(self, dim: int):
        super().__init__(np.zeros((0, dim)), np.zeros(0))


@dataclass(frozen=True)
class SamplableJumps(JumpMeasure):
    """Jump measure known only through a sampler of its normalization.

    The total mass must be declared explicitly; integrals against the
    measure are then Monte Carlo estimates (total_mass times the sample
    mean), reported with standard errors.
    """

    dim: int
    total_mass_value: float
    sampler: Callable[[np.random.Generator, int], Array]

    def __post_init__(self):
        if self.total_mass_value <= 0 or not np.isfinite(self.total_mass_value):
            raise LevySpecError("samplable measure needs finite positive total mass")

    @property
    def total_mass(self) -> float:
        return self.total_mass_value

    def sample(self, rng: np.random.Generator, size: int) -> Array:
        out = np.asarray(self.sampler(rng, size), dtype=float)
        return out.reshape(size, self.dim)

    def integrate(self, g, rng=None, samples=10_000):
        """Monte Carlo over `samples` draws, shared by every leading index
        of g's values: total mass times the sample mean of g, with its
        standard error."""
        if rng is None:
            raise LevySpecError("an integral against a samplable jump measure "
                                "is a Monte Carlo estimate and needs an rng")
        vals = g(self.sample(rng, samples))
        mass = self.total_mass
        se = mass * np.sqrt((np.var(vals.real, axis=-1)
                             + np.var(vals.imag, axis=-1)) / samples)
        return mass * vals.mean(axis=-1), (se if np.ndim(se) else float(se))


# ---------------------------------------------------------------------------
# Subordinate laws (exactly samplable at arbitrary times)
# ---------------------------------------------------------------------------


def psd_factor(sigma: Array, tol: float = PSD_TOL) -> Array:
    """Factor B with B B' = sigma, for symmetric PSD sigma.

    Symmetrizes first; eigenvalues in [-tol, 0) are clipped to 0, anything
    below -tol is an error.
    """
    sigma = np.asarray(sigma, dtype=float)
    sym = 0.5 * (sigma + sigma.T)
    vals, vecs = np.linalg.eigh(sym)
    if np.any(vals < -tol):
        raise LevySpecError(f"covariance not PSD: min eigenvalue {vals.min():g}")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _theta_rows(theta, dim: int, dtype=float) -> Array:
    """theta as an array of shape (..., dim): one frequency vector, or one
    per row. Any other shape is a LevySpecError."""
    theta = np.asarray(theta, dtype=dtype)
    if theta.ndim == 0 or theta.shape[-1] != dim:
        raise LevySpecError(f"theta has shape {theta.shape}, expected (..., {dim})")
    return theta


def _per_row(value, theta: Array):
    """An exponent value as returned for theta: a Python complex when
    theta is one vector, else the array of one value per row."""
    return complex(value) if theta.ndim == 1 else value


class LevyLaw:
    """A Lévy law that can evaluate its exponent and sample increments.

    Instances are immutable and safe to share across workers; sampling
    takes an explicit RNG.
    """

    dim: int

    @property
    def jump_rate(self) -> float:
        """Expected jumps per unit time."""
        raise NotImplementedError

    def exponent(self, theta):
        """Characteristic exponent at frequency theta: a complex for theta
        of shape (dim,), an array of one value per row for (..., dim)."""
        raise NotImplementedError

    def sample(self, dt, rng: np.random.Generator, size: int = 1) -> Array:
        """Draw `size` independent increments, shape (size, dim): all over
        the duration dt, or row i over dt[i] when dt has shape (size,).
        """
        raise NotImplementedError


def _durations(dt, size: int):
    """Check durations: a scalar dt is returned as is, else an array of
    shape (size,) with one duration per row."""
    if np.ndim(dt) == 0:
        if dt < 0:
            raise LevySpecError("negative duration")
        return dt
    dt = np.asarray(dt, dtype=float)
    if dt.shape != (size,):
        raise LevySpecError(f"durations have shape {dt.shape}, expected ({size},)")
    if np.any(dt < 0):
        raise LevySpecError("negative duration")
    return dt


def poisson_scatter(counts: Array, values: Array) -> Array:
    """Compound sums: row i of the result is the sum of the counts[i]
    consecutive rows of `values` that follow those of rows 0..i-1, so
    values has counts.sum() rows. Shape (len(counts),) + values.shape[1:].
    """
    out = np.zeros((counts.shape[0],) + values.shape[1:])
    np.add.at(out, np.repeat(np.arange(counts.shape[0]), counts), values)
    return out


def poisson_draws(mean, sample: Callable[[np.random.Generator, int], Array],
                  size: int, rng: np.random.Generator) -> tuple[Array, Array]:
    """`size` independent Poisson windows: counts of shape (size,), row i
    Poisson(mean) (or Poisson(mean[i]) for `mean` of shape (size,)), then
    all counts.sum() points in one `sample(rng, k)` call, row 0's first.
    So `poisson_scatter(counts, g(points))` sums g over each window.
    A negative or NaN mean, or more than MAX_POISSON_POINTS expected
    points in all, is a LevySpecError.
    """
    with np.errstate(over="ignore"):  # an overflowed expectation is inf
        expected = np.sum(mean) * (size if np.ndim(mean) == 0 else 1)
    if not (np.all(mean >= 0) and expected <= MAX_POISSON_POINTS):
        raise LevySpecError(f"Poisson means must be nonnegative and expect at most "
                            f"{MAX_POISSON_POINTS} points per draw, not {expected:g}")
    counts = rng.poisson(mean, size=size)
    return counts, sample(rng, int(counts.sum()))


class BrownianMotion(LevyLaw):
    """Brownian motion with drift mu and covariance sigma (per unit time)."""

    def __init__(self, mu, sigma):
        self.mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if self.mu.ndim != 1:
            raise LevySpecError("mu must be a vector")
        self.dim = self.mu.shape[0]
        if sigma.shape != (self.dim, self.dim):
            raise LevySpecError("sigma must be square of order dim(mu)")
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(sigma))):
            raise LevySpecError("mu and sigma must be finite")
        self.sigma = 0.5 * (sigma + sigma.T)
        self._factor = psd_factor(self.sigma)

    @property
    def jump_rate(self) -> float:
        return 0.0

    def exponent(self, theta):
        """i<mu, theta> - theta sigma theta' / 2; sigma was symmetrised and
        checked PSD once, in __init__."""
        theta = _theta_rows(theta, self.dim)
        quad = np.sum((theta @ self.sigma) * theta, axis=-1)
        return _per_row(1j * (theta @ self.mu) - 0.5 * quad, theta)

    def sample(self, dt, rng, size=1):
        dt = _durations(dt, size)
        if np.ndim(dt):
            dt = dt[:, None]
        z = rng.standard_normal((size, self.dim))
        return dt * self.mu + np.sqrt(dt) * (z @ self._factor.T)

    def __repr__(self):
        return f"BrownianMotion(mu={self.mu!r}, sigma={self.sigma!r})"


class CompoundPoisson(LevyLaw):
    """Compound Poisson process given by an atomic (or samplable) jump measure."""

    def __init__(self, jumps: JumpMeasure):
        if jumps.total_mass <= 0:
            raise LevySpecError("compound Poisson needs a nonzero jump measure")
        self.jumps = jumps
        self.dim = jumps.dim

    @property
    def jump_rate(self) -> float:
        return self.jumps.total_mass

    def exponent(self, theta):
        """Uncompensated: sum_j rate_j (exp(i<theta, x_j>) - 1)."""
        theta = _theta_rows(theta, self.dim)
        value, _ = self.jumps.integrate(lambda x: np.exp(1j * (theta @ x.T)) - 1.0)
        return _per_row(value, theta)

    def sample(self, dt, rng, size=1):
        mean = self.jumps.total_mass * _durations(dt, size)
        return poisson_scatter(*poisson_draws(mean, self.jumps.sample, size, rng))

    def __repr__(self):
        return f"CompoundPoisson({self.jumps!r})"


class IndependentStack(LevyLaw):
    """Stack of independent Lévy laws, concatenated coordinatewise."""

    def __init__(self, blocks: Sequence[LevyLaw]):
        if not blocks:
            raise LevySpecError("stack needs at least one block")
        self.blocks = tuple(blocks)
        self.dim = sum(b.dim for b in blocks)

    @property
    def jump_rate(self) -> float:
        return sum(b.jump_rate for b in self.blocks)

    def exponent(self, theta):
        """Sum of the block exponents on the matching theta blocks."""
        theta = _theta_rows(theta, self.dim)
        total = 0.0 + 0.0j
        pos = 0
        for block in self.blocks:
            total += block.exponent(theta[..., pos : pos + block.dim])
            pos += block.dim
        return _per_row(total, theta)

    def sample(self, dt, rng, size=1):
        return np.hstack([b.sample(dt, rng, size) for b in self.blocks])

    def __repr__(self):
        return f"IndependentStack({list(self.blocks)!r})"


class Lift(LevyLaw):
    """m copies of one Lévy process X, as the process (X, ..., X) in m n
    dimensions: its exponent at (theta_1, ..., theta_m) is X's at their
    sum, and a draw tiles one draw of X m times. At a vector time, block
    k reads the same path of X at the k-th clock value of each
    coordinate."""

    def __init__(self, x: LevyLaw, m: int):
        if m < 1:
            raise LevySpecError("a lift needs at least one copy")
        self.x, self.m = x, m
        self.dim = m * x.dim

    @property
    def jump_rate(self) -> float:
        return self.x.jump_rate

    def exponent(self, theta):
        theta = _theta_rows(theta, self.dim)
        return self.x.exponent(
            theta.reshape(theta.shape[:-1] + (self.m, self.x.dim)).sum(axis=-2))

    def sample(self, dt, rng, size=1):
        return np.tile(self.x.sample(dt, rng, size), self.m)

    def __repr__(self):
        return f"Lift({self.x!r}, {self.m})"


def zero_process(dim: int) -> BrownianMotion:
    """The constant-zero process in `dim` dimensions."""
    return BrownianMotion(np.zeros(dim), np.zeros((dim, dim)))


# ---------------------------------------------------------------------------
# Subordinators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubordinatorSpec:
    """Nonnegative drift plus a finite-activity jump measure on the
    nonnegative orthant. A negative drift coordinate or an atom outside
    the orthant is an orthant violation (LevySpecError); the atoms of a
    samplable measure cannot be checked.
    """

    d: Array
    jumps: JumpMeasure

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "d", d)
        if self.jumps.dim != d.shape[0]:
            raise LevySpecError("jump measure dimension differs from drift")
        if not np.all(np.isfinite(d)):
            raise LevySpecError("drift must be finite")
        if np.any(d < 0):
            raise LevySpecError("orthant violation: drift has a negative coordinate")
        if isinstance(self.jumps, AtomicJumps) and np.any(self.jumps.points < 0):
            raise LevySpecError("orthant violation: jump atom outside the "
                                "nonnegative orthant")

    @property
    def dim(self) -> int:
        return self.d.shape[0]


def pure_drift(d) -> SubordinatorSpec:
    d = np.asarray(d, dtype=float)
    return SubordinatorSpec(d, ZeroJumps(d.shape[0]))


def laplace_exponent(T: SubordinatorSpec, z):
    """Extended Laplace exponent <d, z> + sum_j rate_j (1 - exp(-<z, t_j>)),
    for Re z >= 0 coordinatewise: a complex for z of shape (n,), one
    value per row for (..., n). Exact; atomic specs only (use
    laplace_exponent_mc for samplable measures).
    """
    return laplace_exponent_mc(T, z, None)[0]


def laplace_exponent_mc(T: SubordinatorSpec, z, rng: np.random.Generator | None,
                        samples: int = 10_000):
    """Laplace exponent with the jump integral from `T.jumps.integrate`:
    exact for atomic specs, Monte Carlo over `samples` draws otherwise.

    Returns (estimate, standard error of the jump-integral part): a
    complex and a float for z of shape (n,); for (..., n), one estimate
    and one standard error per row, all rows sharing the same draws.
    """
    z = _theta_rows(z, T.dim, dtype=complex)
    if np.any(z.real < 0):
        raise LevySpecError("laplace_exponent requires Re(z) >= 0")
    jump, se = T.jumps.integrate(lambda t: 1.0 - np.exp(-(z @ t.T)), rng, samples)
    return _per_row(z @ T.d + jump, z), se
