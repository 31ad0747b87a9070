"""Strong and weak subordination of multivariate Lévy processes.

Exponent formulas for the joint 2n-dimensional process (T, Z), the
closed-form exponent for stacked configurations, exact path
simulators for finite-activity subordinators, and exact batched
samplers of the time-t value of (T, Z). Z is X evaluated along T
componentwise (strong) or the Lévy process that jumps with the law of
X(t) whenever T jumps by t (weak).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .levy import (
    AtomicJumps,
    JumpMeasure,
    LevyLaw,
    LevySpecError,
    SamplableJumps,
    SubordinatorSpec,
    _per_row,
    _theta_rows,
    laplace_exponent,
    poisson_draws,
    poisson_scatter,
)
from .ordered_time import sample_subordinate_at, vector_time_exponent

Array = np.ndarray


# ---------------------------------------------------------------------------
# Exponents
# ---------------------------------------------------------------------------


def weak_exponent(T: SubordinatorSpec, X: LevyLaw, theta1, theta2):
    """Exponent of the joint weakly subordinated process (T, X(.)T):

    i<d, theta1> + (d (*) Psi_X)(theta2)
        + sum_j rate_j (exp(i<theta1, t_j>) * CF_{X(t_j)}(theta2) - 1).

    theta1 and theta2 of shape (n,) give a complex; of shape (..., n)
    (broadcast against each other) one value per row. Exact; atomic
    jump measures only (use weak_exponent_mc otherwise).
    """
    return weak_exponent_mc(T, X, theta1, theta2, None)[0]


def _theta_pair(n: int, theta1, theta2) -> tuple[Array, Array]:
    """theta1 and theta2 as (..., n) arrays broadcast to one shape."""
    theta1, theta2 = _theta_rows(theta1, n), _theta_rows(theta2, n)
    try:
        return np.broadcast_arrays(theta1, theta2)
    except ValueError as exc:
        raise LevySpecError(f"theta1 and theta2 rows do not broadcast: {exc}") from exc


def weak_exponent_mc(T: SubordinatorSpec, X: LevyLaw, theta1, theta2,
                     rng: np.random.Generator | None,
                     samples: int = 10_000):
    """Weak exponent with the jump integral from `T.jumps.integrate`:
    exact for atomic jump measures, Monte Carlo over `samples` draws
    otherwise.

    Returns (estimate, standard error of the jump-integral part): a
    complex and a float for theta of shape (n,); for (..., n), one
    estimate and one standard error per row, all rows sharing the same
    draws (so row i equals the single-theta call with an rng in the
    same state). Every jump is evaluated against every row in one
    `vector_time_exponent` call, so temporaries hold jumps x rows x n
    values (`samples` jumps for a Monte Carlo estimate): pass a large
    grid in blocks of rows.
    """
    if X.dim != T.dim:
        raise LevySpecError("theta1, theta2, T and X dimensions disagree")
    theta1, theta2 = _theta_pair(T.dim, theta1, theta2)

    def jump_term(t):  # (k, n) jumps -> (..., k)
        psi = vector_time_exponent(X, t, theta2[..., None, :])
        return np.exp(1j * (theta1 @ t.T) + psi) - 1.0

    jump, se = T.jumps.integrate(jump_term, rng, samples)
    drift = 1j * (theta1 @ T.d) + vector_time_exponent(X, T.d, theta2)
    return _per_row(drift + jump, theta1), se


def weak_drift_component(T: SubordinatorSpec, X: LevyLaw, reps: int,
                         rng: np.random.Generator) -> tuple[Array, Array]:
    """Drift of the weak-subordination triplet for driftless atomic T:

    the integral of (t, x) over the closed 2n-dimensional unit ball
    against the joint jump measure, estimated per atom by Monte Carlo
    over x ~ law of X(t). Returns (estimate, per-coordinate SE), both
    2n-vectors.
    """
    if np.any(T.d != 0):
        raise LevySpecError("weak drift component requires a driftless subordinator")
    n = T.dim
    est = np.zeros(2 * n)
    var = np.zeros(2 * n)
    if not isinstance(T.jumps, AtomicJumps):
        raise LevySpecError("weak drift component needs atomic jumps")
    for point, rate in zip(T.jumps.points, T.jumps.rates):
        tnorm2 = float(point @ point)
        if tnorm2 > 1.0:
            continue  # every support point (t, x) lies outside the ball
        marks = sample_subordinate_at(X, point, rng, size=reps)
        inside = tnorm2 + np.sum(marks**2, axis=1) <= 1.0
        joint = np.hstack([np.broadcast_to(point, (reps, n)), marks])
        contrib = joint * inside[:, None]
        est += rate * contrib.mean(axis=0)
        var += (rate**2) * contrib.var(axis=0) / reps
    return est, np.sqrt(var)


@dataclass(frozen=True)
class StackEmbedding:
    """Block structure mapping a d-dimensional subordinator R to the
    n-dimensional T = (R_1 e_1, ..., R_d e_d), with block m of size
    dims[m] sharing the single clock R_m.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        if any(m <= 0 for m in self.dims):
            raise LevySpecError("block dimensions must be positive")

    @property
    def n(self) -> int:
        return sum(self.dims)

    @property
    def d(self) -> int:
        return len(self.dims)

    def matrix(self) -> Array:
        """The d-by-n 0/1 matrix A with T = R A."""
        a = np.zeros((self.d, self.n))
        pos = 0
        for m, nm in enumerate(self.dims):
            a[m, pos : pos + nm] = 1.0
            pos += nm
        return a

    def expand(self, r) -> Array:
        """Map d-dim subordinator values to n-dim: r A (vectorized)."""
        return np.asarray(r, dtype=float) @ self.matrix()

    def block_slices(self):
        pos = 0
        for nm in self.dims:
            yield slice(pos, pos + nm)
            pos += nm


def stacked_subordinator(R: SubordinatorSpec, stack: StackEmbedding) -> SubordinatorSpec:
    """The n-dimensional subordinator T = R A induced by the embedding."""
    if R.dim != stack.d:
        raise LevySpecError("subordinator dimension differs from block count")
    d = stack.expand(R.d)
    if isinstance(R.jumps, AtomicJumps):
        jumps: JumpMeasure = AtomicJumps(stack.expand(R.jumps.points), R.jumps.rates)
    else:
        base = R.jumps
        jumps = SamplableJumps(
            stack.n, base.total_mass,
            lambda rng, size: stack.expand(base.sample(rng, size)))
    return SubordinatorSpec(d, jumps)


def stacked_strong_exponent(R: SubordinatorSpec, stack: StackEmbedding,
                            Y: list[LevyLaw], theta1, theta2):
    """Closed-form exponent of (T, X o T) under stacked univariate
    subordination: -Lambda_R(z) with
    z_m = -i <theta1 block m, ones> - Psi_{Y_m}(theta2 block m).

    theta1 and theta2 of shape (n,) give a complex; of shape (..., n)
    one value per row.
    """
    if R.dim != stack.d or len(Y) != stack.d:
        raise LevySpecError("embedding, subordinator and block list disagree")
    theta1, theta2 = _theta_pair(stack.n, theta1, theta2)
    z = np.empty(theta1.shape[:-1] + (stack.d,), dtype=complex)
    for m, sl in enumerate(stack.block_slices()):
        if Y[m].dim != stack.dims[m]:
            raise LevySpecError(f"block {m} law has wrong dimension")
        z[..., m] = -1j * theta1[..., sl].sum(axis=-1) - Y[m].exponent(theta2[..., sl])
    if np.any(z.real < -1e-12):
        raise LevySpecError("Re(z) < 0; block exponent has positive real part")
    z.real = np.clip(z.real, 0.0, None)
    return -laplace_exponent(R, z)


# ---------------------------------------------------------------------------
# Path records
# ---------------------------------------------------------------------------


@dataclass
class PathRecord:
    """Piecewise sample path of the joint 2n-dimensional process (T, Z).

    values[i] is the post-event state at event_times[i]; the state at
    time 0 is the zero vector. Between events the subordinator block
    moves linearly with slope drift_part[:n]; the Z block is recorded
    exactly at event times only (simulators insert all requested sample
    times as events), and drift_part[n:] is its deterministic slope,
    zero unless X is deterministic.
    """

    event_times: Array
    values: Array
    drift_part: Array
    horizon: float

    @property
    def dim(self) -> int:
        return self.values.shape[1] // 2

    def value_at(self, t: float) -> Array:
        return self.values_at(np.array([t]))[0]

    def values_at(self, times) -> Array:
        """State at each time; exact at event times and before the first
        event, drift-interpolated in between."""
        times = np.asarray(times, dtype=float)
        idx = np.searchsorted(self.event_times, times, side="right") - 1
        out = np.empty((times.shape[0], self.values.shape[1]))
        for i, (t, j) in enumerate(zip(times, idx)):
            if j < 0:
                out[i] = self.drift_part * t
            else:
                out[i] = self.values[j] + self.drift_part * (t - self.event_times[j])
        return out

    def to_csv(self, fp) -> None:
        """Write columns time, T_1..T_n, Z_1..Z_n (one row per event)."""
        n = self.dim
        header = ["time"] + [f"T_{j+1}" for j in range(n)] + [f"Z_{j+1}" for j in range(n)]
        fp.write(",".join(header) + "\n")
        for t, row in zip(self.event_times, self.values):
            fp.write(",".join(repr(float(v)) for v in [t, *row]) + "\n")

    def to_jsonl(self, fp) -> None:
        """Header line with horizon/drift, then one JSON object per event."""
        n = self.dim
        fp.write(json.dumps({"horizon": self.horizon, "n": n,
                             "drift_part": list(self.drift_part)}) + "\n")
        for t, row in zip(self.event_times, self.values):
            fp.write(json.dumps({"time": float(t), "T": list(row[:n]),
                                 "Z": list(row[n:])}) + "\n")

    @classmethod
    def from_jsonl(cls, fp) -> "PathRecord":
        head = json.loads(fp.readline())
        times, values = [], []
        for line in fp:
            if not line.strip():
                continue
            rec = json.loads(line)
            times.append(rec["time"])
            values.append(rec["T"] + rec["Z"])
        n = head["n"]
        return cls(event_times=np.asarray(times, dtype=float),
                   values=np.asarray(values, dtype=float).reshape(len(times), 2 * n),
                   drift_part=np.asarray(head["drift_part"], dtype=float),
                   horizon=float(head["horizon"]))


# ---------------------------------------------------------------------------
# Simulators
# ---------------------------------------------------------------------------


@dataclass
class SubordinatorJumps:
    """Jump times (increasing) and sizes of a subordinator over a window."""

    times: Array       # (m,)
    sizes: Array       # (m, n)
    d: Array
    horizon: float

    def values_at(self, times) -> Array:
        times = np.asarray(times, dtype=float)
        out = np.outer(times, self.d)
        if len(self.times):
            counts = np.searchsorted(self.times, times, side="right")
            csum = np.vstack([np.zeros(self.sizes.shape[1]),
                              np.cumsum(self.sizes, axis=0)])
            out += csum[counts]
        return out


def _jump_windows(T: SubordinatorSpec, horizon: float, size: int,
                  rng: np.random.Generator) -> tuple[Array, Array, Array]:
    """`size` independent windows (0, horizon] of T's jumps: the jump
    count of each, Poisson(total mass * horizon), then the times (i.i.d.
    uniform, unsorted) and sizes (i.i.d. from the normalized measure) of
    all jumps, window 0's first."""
    if horizon <= 0:
        raise LevySpecError("horizon must be positive")
    mass = T.jumps.total_mass
    if not np.isfinite(mass):
        raise LevySpecError("subordinator must have finite activity; "
                            "truncate small jumps first")

    def jumps(rng, k):  # (k, 1 + n): time, then size
        return np.column_stack([rng.uniform(0.0, horizon, size=k),
                                T.jumps.sample(rng, k)])

    counts, points = poisson_draws(mass * horizon, jumps, size, rng)
    return counts, points[:, 0], points[:, 1:]


def simulate_subordinator(T: SubordinatorSpec, horizon: float,
                          rng: np.random.Generator) -> SubordinatorJumps:
    """Exact finite-activity simulation: Poisson(total mass * horizon)
    many jumps at i.i.d. uniform times, sizes i.i.d. from the normalized
    jump measure, drift d between jumps.
    """
    _, times, sizes = _jump_windows(T, horizon, 1, rng)
    return SubordinatorJumps(times=np.sort(times), sizes=sizes, d=T.d,
                             horizon=horizon)


def _event_grid(jump_times: Array, horizon: float, sample_times) -> Array:
    extra = np.asarray([horizon] if sample_times is None else sample_times,
                       dtype=float)
    if np.any(extra < 0) or np.any(extra > horizon):
        raise LevySpecError("sample times must lie in [0, horizon]")
    grid = np.union1d(jump_times, extra)
    return grid[grid > 0.0]


def simulate_strong(T: SubordinatorSpec, X: LevyLaw, horizon: float,
                    rng: np.random.Generator,
                    sample_times=None) -> PathRecord:
    """One exact path of (T, X o T).

    All component evaluation times T_j(event) are collected across
    events, and one coherent path of X is sampled exactly on the sorted
    union of those clock times, preserving cross-component dependence;
    (X o T)_j(event) is then read off as X_j(T_j(event)).
    """
    sub = simulate_subordinator(T, horizon, rng)
    events = _event_grid(sub.times, horizon, sample_times)
    n = T.dim
    tvals = sub.values_at(events)                      # (m, n)
    clock = np.concatenate([[0.0], np.unique(tvals[tvals > 0.0])])
    steps = X.sample(np.diff(clock), rng, len(clock) - 1)
    xpath = np.cumsum(np.vstack([np.zeros(n), steps]), axis=0)  # X at clock
    zvals = xpath[np.searchsorted(clock, tvals), np.arange(n)]
    drift_part = np.concatenate([T.d, np.zeros(n)])
    return PathRecord(event_times=events, values=np.hstack([tvals, zvals]),
                      drift_part=drift_part, horizon=horizon)


def simulate_weak(T: SubordinatorSpec, X: LevyLaw, horizon: float,
                  rng: np.random.Generator,
                  sample_times=None) -> PathRecord:
    """One exact path of (T, X (.) T).

    Jump part: at each subordinator jump of size t, an independent mark
    with the law of X(t). Drift part: (d t, V(t)) with V an independent
    Lévy process realized through the ordered-increment construction,
    whose increment over a gap of length g has the law of X at the
    vector time d*g. The two parts superpose independently.
    """
    sub = simulate_subordinator(T, horizon, rng)
    events = _event_grid(sub.times, horizon, sample_times)
    n = T.dim
    tvals = sub.values_at(events)

    marks = sample_subordinate_at(X, sub.sizes, rng)
    mark_csum = np.vstack([np.zeros(n), np.cumsum(marks, axis=0)])
    zvals = mark_csum[np.searchsorted(sub.times, events, side="right")]

    if np.any(T.d > 0):
        gaps = np.diff(events, prepend=0.0)
        zvals += np.cumsum(sample_subordinate_at(X, np.outer(gaps, T.d), rng),
                           axis=0)
    drift_part = np.concatenate([T.d, np.zeros(n)])
    return PathRecord(event_times=events, values=np.hstack([tvals, zvals]),
                      drift_part=drift_part, horizon=horizon)


# Rows per batch of the time-t samplers, and (jumps x theta rows) per block
# of `weaksub exponent`; bounds their temporaries.
TIME_T_CHUNK = 8192


def _clock_at(T: SubordinatorSpec, t: float, out: Array,
              rng: np.random.Generator):
    """Fill out[:, :n] with independent draws of T(t), TIME_T_CHUNK rows
    at a time; per chunk, yield its rows of `out`, the jump count of
    each row and the jumps in row order, for the caller to fill
    out[:, n:]. A row has Poisson(total mass * t) jumps from T's
    measure, and T(t) = d t + their sum."""
    if t <= 0:
        raise LevySpecError("horizon must be positive")
    for start in range(0, out.shape[0], TIME_T_CHUNK):
        rows = out[start : start + TIME_T_CHUNK]
        counts, jumps = poisson_draws(T.jumps.total_mass * t, T.jumps.sample,
                                      rows.shape[0], rng)
        rows[:, : T.dim] = t * T.d + poisson_scatter(counts, jumps)
        yield rows, counts, jumps


def simulate_strong_at(T: SubordinatorSpec, X: LevyLaw, t: float, size: int,
                       rng: np.random.Generator) -> Array:
    """`size` exact independent draws of (T(t), (X o T)(t)), shape
    (size, 2n): given T(t) = tau, (X o T)(t) is X at the vector time
    tau. The law of `simulate_strong`'s value at time t, without a
    per-path loop."""
    n = T.dim
    out = np.empty((size, 2 * n))
    for rows, _, _ in _clock_at(T, t, out, rng):
        rows[:, n:] = sample_subordinate_at(X, rows[:, :n], rng)
    return out


def simulate_weak_at(T: SubordinatorSpec, X: LevyLaw, t: float, size: int,
                     rng: np.random.Generator) -> Array:
    """`size` exact independent draws of (T(t), (X (.) T)(t)), shape
    (size, 2n): Z(t) is the sum of one independent mark per subordinator
    jump, with the law of X at that jump as vector time, plus an
    independent X at the vector time d t. The law of `simulate_weak`'s
    value at time t, without a per-path loop; exact for atomic and
    samplable jump measures alike."""
    n = T.dim
    out = np.empty((size, 2 * n))
    for rows, counts, jumps in _clock_at(T, t, out, rng):
        rows[:, n:] = poisson_scatter(counts, sample_subordinate_at(X, jumps, rng))
        if np.any(T.d > 0):
            rows[:, n:] += sample_subordinate_at(X, t * T.d, rng, size=len(counts))
    return out


# ---------------------------------------------------------------------------
# Truncation of infinite-activity 1-d subordinators
# ---------------------------------------------------------------------------


def truncate_jump_density(density, eps: float, upper: float = np.inf,
                          grid_size: int = 4096) -> tuple[SamplableJumps, float]:
    """Finite-activity approximation of a 1-d subordinator Lévy density.

    Keeps jumps in (eps, upper), returning a samplable measure (inverse
    CDF on a log grid) and the compensating drift: the expected time
    mass of the discarded jumps, integral of t*density(t) over (0, eps],
    to be added to the subordinator drift. The bias in higher moments is
    not compensated.
    """
    if eps <= 0:
        raise LevySpecError("truncation level must be positive")
    mass, _ = integrate.quad(density, eps, upper)
    comp, _ = integrate.quad(lambda t: t * density(t), 0.0, eps)
    hi = upper
    if not np.isfinite(hi):
        # extend until the tail mass is negligible relative to the kept mass
        hi = max(10.0 * eps, 1.0)
        while integrate.quad(density, hi, np.inf)[0] > 1e-12 * mass:
            hi *= 2.0
    grid = np.geomspace(eps, hi, grid_size)
    dens = np.array([density(t) for t in grid])
    cdf = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
    cdf /= cdf[-1]

    def sampler(rng, size, _grid=grid, _cdf=cdf):
        u = rng.uniform(size=size)
        return np.interp(u, _cdf, _grid).reshape(size, 1)

    return SamplableJumps(1, float(mass), sampler), float(comp)


def choose_truncation_eps(density, target: float = 1e-3) -> float:
    """Smallest-jump cutoff at which the discarded expected-time mass
    (integral of t*density over (0, eps]) stays below `target` per unit
    time."""
    def discarded(eps):
        return integrate.quad(lambda t: t * density(t), 0.0, eps)[0] - target

    lo, hi = 1e-12, 1.0
    while discarded(hi) < 0 and hi < 1e6:
        hi *= 10.0
    if discarded(hi) < 0:
        return hi
    return float(optimize.brentq(discarded, lo, hi))


def truncated_gamma_subordinator(b: float, c: float,
                                 eps: float | None = None) -> SubordinatorSpec:
    """Finite-activity approximation of the gamma subordinator with Lévy
    density c exp(-b t)/t, t > 0; compensating drift absorbs the
    discarded small-jump time mass.
    """
    if b <= 0 or c <= 0:
        raise LevySpecError("gamma subordinator needs b > 0 and c > 0")

    def density(t):
        return c * np.exp(-b * t) / t

    if eps is None:
        eps = choose_truncation_eps(density)
    jumps, comp = truncate_jump_density(density, eps)
    return SubordinatorSpec(np.array([comp]), jumps)
