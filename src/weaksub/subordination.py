"""Strong and weak subordination of multivariate Lévy processes.

Exponent formulas for the joint 2n-dimensional process (T, Z), the
closed-form exponent for stacked configurations, and exact batched
samplers of (T, Z) at any finite set of times, for subordinators with
atomic (finite-activity) or gamma-ray (infinite-activity) jumps. Z is X
evaluated along T componentwise (strong) or the Lévy process that jumps
with the law of X(t) whenever T jumps by t (weak).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy import (
    AtomicJumps,
    LevyLaw,
    Lift,
    LevySpecError,
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

    i<d, theta1> + (d (*) Psi_X)(theta2) + sum_j -Lambda_j(-u_j),
    u_j = i<theta1, a_j> + (a_j (*) Psi_X)(theta2)

    over the rays a_j of T's jump measure; for atoms the jump term is
    rate_j (exp(i<theta1, t_j>) * CF_{X(t_j)}(theta2) - 1). Exact, as the
    vector-time exponent is linear along a ray.

    theta1 and theta2 of shape (n,) give a complex; of shape (..., n)
    (broadcast against each other) one value per row. Every ray is
    evaluated against every row in one `vector_time_exponent` call, so
    temporaries hold rays x rows x n values: pass a large grid in blocks
    of rows.
    """
    if X.dim != T.dim:
        raise LevySpecError("theta1, theta2, T and X dimensions disagree")
    theta1, theta2 = _theta_pair(T.dim, theta1, theta2)
    a = T.jumps.points
    u = 1j * (theta1 @ a.T) + vector_time_exponent(X, a, theta2[..., None, :])
    drift = 1j * (theta1 @ T.d) + vector_time_exponent(X, T.d, theta2)
    return _per_row(drift - T.jumps.laplace(-u), theta1)


def _theta_pair(n: int, theta1, theta2) -> tuple[Array, Array]:
    """theta1 and theta2 as (..., n) arrays broadcast to one shape."""
    theta1, theta2 = _theta_rows(theta1, n), _theta_rows(theta2, n)
    try:
        return np.broadcast_arrays(theta1, theta2)
    except ValueError as exc:
        raise LevySpecError(f"theta1 and theta2 rows do not broadcast: {exc}") from exc


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

    def expand(self, r) -> Array:
        """Map d-dim subordinator values to n-dim: coordinate m of each
        row repeated dims[m] times (vectorized)."""
        return np.repeat(np.asarray(r, dtype=float), self.dims, axis=-1)

    def block_slices(self):
        pos = 0
        for nm in self.dims:
            yield slice(pos, pos + nm)
            pos += nm


def stacked_subordinator(R: SubordinatorSpec, stack: StackEmbedding) -> SubordinatorSpec:
    """The n-dimensional subordinator T = R A induced by the embedding."""
    if R.dim != stack.d:
        raise LevySpecError("subordinator dimension differs from block count")
    return SubordinatorSpec(stack.expand(R.d),
                            R.jumps.with_points(stack.expand(R.jumps.points)))


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
# Samplers
# ---------------------------------------------------------------------------


def _jump_windows(T: SubordinatorSpec, horizon: float, size: int,
                  rng: np.random.Generator) -> tuple[Array, Array, Array]:
    """`size` independent windows (0, horizon] of T's jumps: the jump
    count of each, Poisson(total mass * horizon), then the times (i.i.d.
    uniform, unsorted) and sizes (i.i.d. from the normalized measure) of
    all jumps, window 0's first. Atomic jumps only: gamma rays have
    infinitely many jumps in every window."""
    if not isinstance(T.jumps, AtomicJumps):
        raise LevySpecError("single jump times need an atomic jump measure")
    if horizon <= 0:
        raise LevySpecError("horizon must be positive")

    def jumps(rng, k):  # (k, 1 + n): time, then size
        return np.column_stack([rng.uniform(0.0, horizon, size=k),
                                T.jumps.sample(rng, k)])

    counts, points = poisson_draws(T.jumps.total_mass * horizon, jumps, size, rng)
    return counts, points[:, 0], points[:, 1:]


def _finite(values: Array) -> Array:
    """values, checked finite: an overflowed draw is no draw from the law."""
    if not np.all(np.isfinite(values)):
        raise LevySpecError("a draw of (T, Z) is beyond the floating-point range; "
                            "lower the horizon or the jump sizes")
    return values


# Rows per batch of the samplers, and (jumps x theta rows) per block
# of `weaksub exponent`; bounds their temporaries.
TIME_T_CHUNK = 8192
# Expected jumps, T's and X's together, per batch of the samplers: a
# batch has fewer than TIME_T_CHUNK rows when its rows expect more jumps.
MAX_BATCH_JUMPS = 2**20


def expected_jumps(T: SubordinatorSpec, X: LevyLaw, t: float) -> tuple[float, float]:
    """Upper bounds on the expected jumps in one draw of (T(t), Z(t)),
    strong or weak: T's, the jumps its sampler draws (total mass x t for
    atoms, one per gamma ray), and X's along T, its jump rate x t x T's
    reach (largest drift coordinate + the measure's mean rate x largest
    coordinate, a bound on the mean growth rate of T). Python floats, so
    a product beyond the float range is inf."""
    t = float(t)
    rate = X.jump_rate
    reach = (float(np.max(T.d, initial=0.0))
             + T.jumps.mean_rate * float(np.max(T.jumps.points, initial=0.0)))
    return T.jumps.expected_draws(t), (rate * t * reach if rate > 0 else 0.0)


def _batch_rows(T: SubordinatorSpec, X: LevyLaw, t: float) -> int:
    """TIME_T_CHUNK, or fewer rows (one at least) when that many rows
    expect more than MAX_BATCH_JUMPS jumps."""
    per_row = sum(expected_jumps(T, X, t))
    if per_row * TIME_T_CHUNK <= MAX_BATCH_JUMPS:
        return TIME_T_CHUNK
    return max(1, int(MAX_BATCH_JUMPS // per_row))


def _draw_at(T: SubordinatorSpec, X: LevyLaw, times, size: int,
             rng: np.random.Generator, draw_z) -> Array:
    """`size` independent draws of (T, Z) at `times`: shape (size, 2n) for
    a scalar time, (size, m, 2n) for m strictly increasing times. Drawn in
    batches of `_batch_rows` rows: over each step between times, a row's T
    moves by drift x step plus the jumps `T.jumps.window_draws` draws for
    the step (Poisson(total mass x step) atoms, or one total per gamma
    ray), and T at the times is the cumulative sum; Z comes from
    draw_z(T, steps, jump count per row and step, jumps in row order).
    A batch with a value beyond the floating-point range is a
    LevySpecError."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    steps = np.diff(t, prepend=0.0)
    if t.ndim != 1 or not t.size or not np.all(steps > 0):
        raise LevySpecError("times must be positive and strictly increasing")
    n, m = T.dim, t.size
    out = np.empty((size, m, 2 * n))
    batch = _batch_rows(T, X, t[-1])
    for start in range(0, size, batch):
        rows = out[start : start + batch]
        k = rows.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            counts, jumps = T.jumps.window_draws(np.tile(steps, k), rng)
            jump_sums = poisson_scatter(counts, jumps).reshape(k, m, n)
            np.cumsum(jump_sums + np.outer(steps, T.d), axis=1, out=rows[..., :n])
            _finite(rows[..., :n])
            rows[..., n:] = draw_z(rows[..., :n], steps, counts, jumps)
        _finite(rows)
    return out if np.ndim(times) else out[:, 0]


def simulate_strong_at(T: SubordinatorSpec, X: LevyLaw, times, size: int,
                       rng: np.random.Generator) -> Array:
    """`size` exact independent draws of (T, X o T) at `times`, a scalar
    (shape (size, 2n)) or m strictly increasing times (shape
    (size, m, 2n)). Given T at the times, Z is the lift (X, ..., X) at the
    vector time (T(t_1), ..., T(t_m)): one path of X read at every clock
    value of the row."""
    def draw_z(tau, steps, counts, jumps):
        k, m, n = tau.shape
        return sample_subordinate_at(Lift(X, m), tau.reshape(k, m * n),
                                     rng).reshape(k, m, n)

    return _draw_at(T, X, times, size, rng, draw_z)


def simulate_weak_at(T: SubordinatorSpec, X: LevyLaw, times, size: int,
                     rng: np.random.Generator) -> Array:
    """`size` exact independent draws of (T, X (.) T) at `times`, shaped as
    in `simulate_strong_at`. Over each step, Z moves by one independent
    mark per drawn jump, with the law of X at that jump as vector time,
    plus an independent X at the vector time d x step; Z at the times is
    the cumulative sum. Exact for gamma rays too: a ray's total R a over
    the step is one jump, and X at the vector time R a has the law of the
    sum of the marks of the ray's jumps in the step."""
    def draw_z(tau, steps, counts, jumps):
        k, m, n = tau.shape
        z = poisson_scatter(counts, sample_subordinate_at(X, jumps, rng))
        if np.any(T.d > 0):
            z += sample_subordinate_at(X, np.tile(np.outer(steps, T.d), (k, 1)), rng)
        return np.cumsum(z.reshape(k, m, n), axis=1)

    return _draw_at(T, X, times, size, rng, draw_z)
