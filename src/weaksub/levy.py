"""Lévy laws as characteristic triplets, and their exponents.

A Lévy law is represented by its drift, Gaussian covariance and jump
measure. A jump measure is a finite sum of rays: ray j is a nonzero
point a_j carrying a 1-d Lévy measure nu_j on r > 0, with the closed-form
Laplace exponent Lambda_j(w) = integral of (1 - exp(-r w)) nu_j(dr). An
atom is a ray with nu_j = rate_j delta_1 (finite activity), a gamma ray
has nu_j(dr) = c_j exp(-b_j r) / r dr (infinite activity). Jump integrals
are uncompensated, so the drift field is the total drift of the
continuous part.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PSD_TOL = 1e-10
# Largest expected point count of one `poisson_counts` call: above the CLI's
# largest draw, a row expecting MAX_ROWS = 10**7 jumps.
MAX_POISSON_POINTS = 2**27

Array = np.ndarray


class LevySpecError(ValueError):
    """Raised when a process specification violates its invariants."""


def _check_count(value, minimum: int, name: str) -> int:
    """value as a Python int, checked an integer >= `minimum` (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise LevySpecError(f"{name} must be an integer >= {minimum}, not {value!r}")
    return int(value)


def _real(value, name: str) -> int | float:
    """value as a Python int or float: a Python or numpy int or float, or a
    0-d array of one, not a bool, within a float's range (inf and NaN pass)."""
    value = value[()] if isinstance(value, np.ndarray) else value  # a 0-d array's number
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (int, float, np.integer, np.floating))
            or isinstance(value, int) and abs(value) > sys.float_info.max):
        raise LevySpecError(f"{name} must be a real number, not {value!r}")
    return int(value) if isinstance(value, (int, np.integer)) else float(value)


def _positive(value, name: str) -> int | float:
    """`_real`'s Python number, checked finite and > 0."""
    value = _real(value, name)
    if not 0 < value < math.inf:  # NaN is not
        raise LevySpecError(f"{name} must be finite and > 0, not {value!r}")
    return value


def _finite(values: Array, what: str, unit: str) -> Array:
    """values, checked finite: a LevySpecError naming how many of its rows
    (its `unit`) hold an inf or NaN, a result beyond the floating-point
    range, so none reaches a draw, a table or a report."""
    if not np.isfinite(values).all():
        bad = ~np.all(np.isfinite(values), axis=tuple(range(1, np.ndim(values))))
        raise LevySpecError(f"{what} is not finite at {bad.sum()} of {len(values)} "
                            f"{unit}: beyond the floating-point range")
    return values


def _floats(value, name: str) -> Array:
    """a read-only finite float copy of value; numpy's error for ragged rows or
    values that are not numbers becomes a LevySpecError naming the argument."""
    try:
        values = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise LevySpecError(f"{name} must be rows of numbers, all of one length") from exc
    if not np.isfinite(values).all():
        raise LevySpecError(f"{name} must be finite")
    values.flags.writeable = False
    return values


# ---------------------------------------------------------------------------
# Jump measures
# ---------------------------------------------------------------------------


def _rays(points, **weights) -> tuple[Array, ...]:
    """points as a (k, dim) array and each named weight as a (k,) array,
    checked: rows of one length, all finite, every weight positive and no
    point zero."""
    points = np.atleast_2d(_floats(points, "jump points"))
    weights = {name: _floats(w, f"jump {name}") for name, w in weights.items()}
    if points.ndim != 2 or any(w.shape != (points.shape[0],)
                               for w in weights.values()):
        raise LevySpecError(f"need one point per row and one each of "
                            f"{', '.join(weights)} per point")
    for name, a in weights.items():
        if np.any(a <= 0):
            raise LevySpecError(f"jump {name} must be positive")
    if np.any(np.all(points == 0.0, axis=1)):
        raise LevySpecError("jump points must be nonzero")
    return (points, *weights.values())


class JumpMeasure:
    """A finite sum of rays (see the module docstring): `points` holds one
    ray per row, shape (k, dim)."""

    points: Array
    dim: int

    @property
    def mean_rate(self) -> float:
        """Sum over the rays of integral r nu_j(dr): a subordinator with
        these jumps grows in each coordinate at most this times the
        largest coordinate of `points` per unit time, in mean."""
        raise NotImplementedError

    def laplace(self, w) -> Array:
        """Sum over the rays of Lambda_j(w[..., j]), for w of shape (..., k)
        with Re w >= 0: shape (...)."""
        raise NotImplementedError

    def expected_draws(self, steps) -> float:
        """Expected number of jumps `window_draws` makes for windows of
        lengths `steps` (a scalar or an array), in all."""
        raise NotImplementedError

    def window_draws(self, steps: Array, rows: int,
                     rng: np.random.Generator) -> tuple[Array, Array]:
        """Independent windows, `rows` copies of the lengths `steps`, shape
        (m,), window row m + j of length steps[j]: each drawn jump's window
        label and the jumps, shape (jumps, dim), in no window's order, so
        `window_sums(window, jumps, rows * m)` holds each window's total
        and g summed over a window's jumps has the law of g summed over
        the measure's jumps in it, for g additive along each ray."""
        raise NotImplementedError

    def with_points(self, points) -> JumpMeasure:
        """The same ray laws on other points, one per ray."""
        raise NotImplementedError


class AtomicJumps(JumpMeasure):
    """Finite sum of weighted atoms: measure = sum_j rate_j * delta_{x_j};
    Lambda_j(w) = rate_j (1 - exp(-w))."""

    def __init__(self, points, rates):
        self.points, self.rates = _rays(points, rates=rates)
        self.dim = self.points.shape[1]
        with np.errstate(over="ignore"):
            self.total_mass = float(self.rates.sum())
        if self.total_mass == np.inf:
            raise LevySpecError("jump rates must sum to a finite total mass")

    @property
    def mean_rate(self) -> float:
        return self.total_mass

    def laplace(self, w) -> Array:
        return (1.0 - np.exp(-w)) @ self.rates

    def expected_draws(self, steps) -> float:
        return self.total_mass * float(np.sum(steps))

    def window_draws(self, steps, rows, rng):
        """One Poisson(total mass x step x rows) total per step, each of its
        points a `sample` atom in a uniform row: so each window holds
        independent Poisson(rate x step) counts of the atoms (Poisson
        colouring). Work and memory grow with the points and steps, not
        with the atoms."""
        m = steps.size
        with np.errstate(over="ignore"):  # poisson_counts rejects an inf mean
            mean = self.total_mass * rows * steps
        step = np.repeat(np.arange(m), poisson_counts(mean, rng))
        return (rng.integers(0, rows, size=step.size) * m + step,
                self.sample(rng, step.size))

    def with_points(self, points) -> AtomicJumps:
        return AtomicJumps(points, self.rates)

    def sample(self, rng: np.random.Generator, size: int) -> Array:
        """Draw `size` i.i.d. jumps from the normalized measure: atom j with
        probability rate_j / total mass, by `rng.choice` (a lone atom draws
        nothing from rng)."""
        if not self.rates.size:
            if size > 0:
                raise LevySpecError("cannot sample jumps from the zero measure")
            return self.points
        if self.rates.size == 1:
            return self.points.take(np.zeros(size, dtype=np.intp), axis=0)
        atom = rng.choice(self.rates.size, size, p=self.rates / self.total_mass)
        return self.points.take(atom, axis=0)

    def __repr__(self):
        return f"AtomicJumps(points={self.points!r}, rates={self.rates!r})"


class GammaRays(JumpMeasure):
    """Sum of gamma rays: ray j is a direction a_j >= 0, a_j != 0, carrying
    the Lévy density c_j exp(-b_j r) / r on r > 0, so Lambda_j(w) =
    c_j log1p(w / b_j). Its total over a window of length s is R_j a_j
    with R_j ~ Gamma(shape c_j s, scale 1 / b_j), drawn exactly."""

    def __init__(self, directions, c, b):
        self.points, self.c, self.b = _rays(directions, c=c, b=b)
        if np.any(self.points < 0):
            raise LevySpecError("gamma ray directions must be nonnegative")
        self.dim = self.points.shape[1]

    @property
    def mean_rate(self) -> float:
        return float(np.sum(self.c / self.b))

    def laplace(self, w) -> Array:
        return np.log1p(w / self.b) @ self.c

    def expected_draws(self, steps) -> float:
        return float(self.points.shape[0] * np.size(steps))

    def window_draws(self, steps, rows, rng):
        """One jump per ray and window: its total R_j a_j."""
        k = self.points.shape[0]
        r = rng.gamma(np.multiply.outer(steps, self.c), 1.0 / self.b,
                      size=(rows, steps.size, k))
        return (np.repeat(np.arange(rows * steps.size), k),
                (r[..., None] * self.points).reshape(-1, self.dim))

    def with_points(self, points) -> GammaRays:
        return GammaRays(points, self.c, self.b)

    def __repr__(self):
        return f"GammaRays(directions={self.points!r}, c={self.c!r}, b={self.b!r})"


# ---------------------------------------------------------------------------
# Subordinate laws (exactly samplable at arbitrary times)
# ---------------------------------------------------------------------------


def _theta_rows(theta, dim: int, dtype=float) -> Array:
    """theta as an array of shape (..., dim): one frequency vector, or one
    per row. Any other shape is a LevySpecError."""
    theta = np.asarray(theta, dtype=dtype)
    if theta.ndim == 0 or theta.shape[-1] != dim:
        raise LevySpecError(f"theta has shape {theta.shape}, expected (..., {dim})")
    return theta


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
        """Characteristic exponent at the frequencies theta, shape
        (..., dim): shape (...)."""
        raise NotImplementedError

    def sample(self, dt, rng: np.random.Generator) -> Array:
        """Independent increments, row i over the duration dt[i], for dt of
        shape (size,): shape (size, dim)."""
        raise NotImplementedError


def _durations(dt) -> Array:
    """dt as an array of shape (size,), one duration per row, checked
    finite and >= 0 (so not NaN)."""
    dt = np.asarray(dt, dtype=float)
    if dt.ndim != 1:
        raise LevySpecError(f"durations have shape {dt.shape}, expected (size,)")
    if not np.all((dt >= 0) & (dt < np.inf)):
        raise LevySpecError("durations must be finite and >= 0")
    return dt


def window_sums(window: Array, values: Array, windows: int) -> Array:
    """Sums by window label: row w of the result sums the rows i of
    `values` with window[i] = w, for labels in [0, windows), so
    `window_sums(window, g(points), windows)` sums g over each window. Shape
    (windows,) + values.shape[1:]. One np.bincount per column adds each
    window's values in label order from 0.0, so the sums equal a
    scatter-add into zeros bit for bit.
    """
    columns = values.reshape(len(values), math.prod(values.shape[1:]))
    out = np.empty((windows, columns.shape[1]))
    for j in range(columns.shape[1]):
        out[:, j] = np.bincount(window, weights=columns[:, j], minlength=windows)
    return out.reshape(out.shape[:1] + values.shape[1:])


def poisson_counts(mean, rng: np.random.Generator) -> Array:
    """One independent Poisson(mean[i]) count per entry of `mean`, in its
    shape. A count may be the total of equal windows: its points, drawn
    after all counts, each get a uniform window label, which splits it
    into independent Poisson window counts. A negative or NaN mean, or
    more than MAX_POISSON_POINTS expected points in all, is a
    LevySpecError.
    """
    with np.errstate(over="ignore"):  # an overflowed expectation is inf
        expected = np.sum(mean)
    if not (np.all(mean >= 0) and expected <= MAX_POISSON_POINTS):
        raise LevySpecError(f"Poisson means must be nonnegative and expect at most "
                            f"{MAX_POISSON_POINTS} points per draw, not {expected:g}")
    return rng.poisson(mean)


class BrownianMotion(LevyLaw):
    """Brownian motion with drift mu and covariance sigma (per unit time)."""

    def __init__(self, mu, sigma):
        self.mu = _floats(mu, "mu")
        sigma = _floats(sigma, "sigma")
        if self.mu.ndim != 1:
            raise LevySpecError("mu must be a vector")
        self.dim = self.mu.shape[0]
        if not self.dim:
            raise LevySpecError("mu must have one or more coordinates")
        if sigma.shape != (self.dim, self.dim):
            raise LevySpecError("sigma must be square of order dim(mu)")
        with np.errstate(over="ignore"):
            self.sigma = _finite(0.5 * (sigma + sigma.T), "the symmetrised sigma", "rows")
        self.sigma.flags.writeable = False
        vals, vecs = np.linalg.eigh(self.sigma)
        # rounding leaves eigenvalues down to -PSD_TOL x the largest |eigenvalue|,
        # which clip to 0
        if np.any(vals < -PSD_TOL * np.max(np.abs(vals), initial=0.0)):
            raise LevySpecError(f"covariance not PSD: min eigenvalue {vals.min():g}")
        self._factor = vecs * np.sqrt(np.clip(vals, 0.0, None))  # B B' = sigma

    @property
    def jump_rate(self) -> float:
        return 0.0

    def exponent(self, theta):
        """i<mu, theta> - theta sigma theta' / 2, the quadratic form clipped
        at 0 as __init__ clips sigma's eigenvalues, so Re psi <= 0. A form
        beyond the floating-point range makes Re psi = -inf, its limit (CF
        0), with no warning: where its terms overflow to inf of both signs,
        the form is |theta B|^2 (B B' = sigma), which cannot be NaN."""
        theta = _theta_rows(theta, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            quad = np.maximum(np.sum((theta @ self.sigma) * theta, axis=-1), 0.0)
            if np.isnan(quad).any():
                squares = np.sum(np.square(theta @ self._factor), axis=-1)
                quad = np.where(np.isnan(quad), squares, quad)
            return 1j * (theta @ self.mu) - 0.5 * quad

    def sample(self, dt, rng):
        dt = _durations(dt)
        out = rng.standard_normal((len(dt), self.dim)) @ self._factor.T
        scale = np.sqrt(dt)
        for column, mu in zip(out.T, self.mu):
            column *= scale
            column += dt * mu
        return out

    def __repr__(self):
        return f"BrownianMotion(mu={self.mu!r}, sigma={self.sigma!r})"


class CompoundPoisson(LevyLaw):
    """Compound Poisson process given by an atomic jump measure."""

    def __init__(self, jumps: AtomicJumps):
        if not isinstance(jumps, AtomicJumps):
            raise LevySpecError("compound Poisson needs an atomic jump measure")
        if jumps.total_mass <= 0:
            raise LevySpecError("compound Poisson needs a nonzero jump measure")
        self.jumps = jumps
        self.dim = jumps.dim

    @property
    def jump_rate(self) -> float:
        return self.jumps.total_mass

    def exponent(self, theta):
        """Uncompensated: sum_j rate_j (exp(i<theta, x_j>) - 1), which is
        minus the jump measure's Laplace exponent at w_j = -i<theta, x_j>."""
        theta = _theta_rows(theta, self.dim)
        return -self.jumps.laplace(-1j * (theta @ self.jumps.points.T))

    def sample(self, dt, rng):
        dt = _durations(dt)
        return window_sums(*self.jumps.window_draws(dt, 1, rng), dt.size)

    def __repr__(self):
        return f"CompoundPoisson({self.jumps!r})"


class IndependentStack(LevyLaw):
    """Stack of independent Lévy laws, concatenated coordinatewise."""

    def __init__(self, blocks: Sequence[LevyLaw]):
        self.blocks = tuple(blocks)
        if not self.blocks:
            raise LevySpecError("stack needs at least one block")
        self.dim = sum(b.dim for b in self.blocks)

    @property
    def jump_rate(self) -> float:
        return sum(b.jump_rate for b in self.blocks)

    def exponent(self, theta):
        """Sum of the block exponents on the matching theta blocks."""
        theta = _theta_rows(theta, self.dim)
        cuts = np.cumsum([b.dim for b in self.blocks])[:-1]
        return sum(b.exponent(part) for b, part
                   in zip(self.blocks, np.split(theta, cuts, axis=-1)))

    def sample(self, dt, rng):
        return np.hstack([b.sample(dt, rng) for b in self.blocks])

    def __repr__(self):
        return f"IndependentStack({list(self.blocks)!r})"


class Lift(LevyLaw):
    """m copies of one Lévy process X, as the process (X, ..., X) in m n
    dimensions: its exponent at (theta_1, ..., theta_m) is X's at their
    sum, and a draw tiles one draw of X m times. At a vector time, block
    k reads the same path of X at the k-th clock value of each
    coordinate."""

    def __init__(self, x: LevyLaw, m: int):
        _check_count(m, 1, "lift copies")
        self.x, self.m = x, m
        self.dim = m * x.dim

    @property
    def jump_rate(self) -> float:
        return self.x.jump_rate

    def exponent(self, theta):
        theta = _theta_rows(theta, self.dim)
        return self.x.exponent(
            theta.reshape(theta.shape[:-1] + (self.m, self.x.dim)).sum(axis=-2))

    def sample(self, dt, rng):
        return np.tile(self.x.sample(dt, rng), self.m)

    def __repr__(self):
        return f"Lift({self.x!r}, {self.m})"


# ---------------------------------------------------------------------------
# Subordinators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubordinatorSpec:
    """Nonnegative drift plus a jump measure on the nonnegative orthant:
    atoms (finite activity) or gamma rays (infinite activity); with no
    measure, the atomic one with no atoms, so a pure drift. A negative
    drift coordinate, or a point of the measure outside the orthant, is an
    orthant violation (LevySpecError).
    """

    d: Array
    jumps: JumpMeasure | None = None

    def __post_init__(self):
        d = _floats(self.d, "drift")
        if d.ndim != 1:
            raise LevySpecError("drift must be a vector")
        if not d.size:
            raise LevySpecError("drift must have one or more coordinates")
        object.__setattr__(self, "d", d)
        if self.jumps is None:
            object.__setattr__(self, "jumps", AtomicJumps(np.zeros((0, d.size)), []))
        if self.jumps.dim != d.shape[0]:
            raise LevySpecError("jump measure dimension differs from drift")
        if np.any(d < 0):
            raise LevySpecError("orthant violation: drift has a negative coordinate")
        if np.any(self.jumps.points < 0):
            raise LevySpecError("orthant violation: jump point outside the "
                                "nonnegative orthant")

    @property
    def dim(self) -> int:
        return self.d.shape[0]


def laplace_exponent(T: SubordinatorSpec, z):
    """Extended Laplace exponent <d, z> + sum_j Lambda_j(<z, a_j>) over the
    rays a_j of T's jump measure (for atoms, rate_j (1 - exp(-<z, t_j>))),
    for finite z with Re z >= 0 coordinatewise, shape (..., n): shape
    (...). Exact. A value that is not finite, from a z too large for
    floating point, is a LevySpecError, as in `weak_exponent`.
    """
    z = _theta_rows(z, T.dim, dtype=complex)
    if not (np.all(np.isfinite(z)) and np.all(z.real >= 0)):
        raise LevySpecError("laplace_exponent requires finite z with Re(z) >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        value = z @ T.d + T.jumps.laplace(z @ T.jumps.points.T)
    _finite(np.ravel(value), "the exact exponent", "theta grid points")
    return value
