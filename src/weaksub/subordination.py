"""Strong and weak subordination of multivariate Lévy processes.

Exponent formulas for the joint 2n-dimensional process (T, Z), the
closed-form exponent for stacked configurations, and exact batched
samplers of (T, Z) at any finite set of times, for subordinators with
atomic (finite-activity) or gamma-ray (infinite-activity) jumps. Z is X
evaluated along T componentwise (strong) or the Lévy process that jumps
with the law of X(t) whenever T jumps by t (weak).
"""
from __future__ import annotations

import numpy as np

from .levy import (
    LevyLaw,
    Lift,
    LevySpecError,
    SubordinatorSpec,
    _check_count,
    _finite,
    _theta_rows,
    laplace_exponent,
    window_sums,
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

    theta1 and theta2 have shape (..., n) and broadcast against each
    other; the result has the broadcast shape without its last axis.
    Every ray is evaluated against every row in one
    `vector_time_exponent` call, so temporaries hold rays x rows x n
    values: pass a large grid in blocks of rows.
    """
    if X.dim != T.dim:
        raise LevySpecError("theta1, theta2, T and X dimensions disagree")
    theta1, theta2 = _theta_pair(T.dim, theta1, theta2)
    a = T.jumps.points
    u = 1j * (theta1 @ a.T) + vector_time_exponent(X, a, theta2[..., None, :])
    drift = 1j * (theta1 @ T.d) + vector_time_exponent(X, T.d, theta2)
    return drift - T.jumps.laplace(-u)


def _theta_pair(n: int, theta1, theta2) -> tuple[Array, Array]:
    """theta1 and theta2 as (..., n) arrays broadcast to one shape."""
    theta1, theta2 = _theta_rows(theta1, n), _theta_rows(theta2, n)
    try:
        return np.broadcast_arrays(theta1, theta2)
    except ValueError as exc:
        raise LevySpecError(f"theta1 and theta2 rows do not broadcast: {exc}") from exc


def _check_blocks(R: SubordinatorSpec, dims) -> None:
    if len(dims) != R.dim:
        raise LevySpecError("block sizes must be one per coordinate of the subordinator")
    for m in dims:
        _check_count(m, 1, "block sizes")


def stacked_subordinator(R: SubordinatorSpec, dims) -> SubordinatorSpec:
    """The n-dimensional subordinator T = (R_1 e_1, ..., R_d e_d): block m,
    of dims[m] coordinates, shares the single clock R_m."""
    _check_blocks(R, dims)
    return SubordinatorSpec(np.repeat(R.d, dims),
                            R.jumps.with_points(np.repeat(R.jumps.points, dims, axis=-1)))


def stacked_strong_exponent(R: SubordinatorSpec, dims,
                            Y: tuple[LevyLaw, ...] | list[LevyLaw], theta1, theta2):
    """Closed-form exponent of (T, X o T) under stacked univariate
    subordination, T = stacked_subordinator(R, dims) and X the stack of
    the block laws Y: -Lambda_R(z) with
    z_m = -i <theta1 block m, ones> - Psi_{Y_m}(theta2 block m).
    Shapes as in `weak_exponent`; a block law with Re Psi > 0 makes
    Re z < 0, which `laplace_exponent` rejects.
    """
    _check_blocks(R, dims)
    if [y.dim for y in Y] != list(dims):
        raise LevySpecError("block laws and block sizes disagree")
    theta1, theta2 = _theta_pair(sum(dims), theta1, theta2)
    cuts = np.cumsum(dims)[:-1]
    z = np.stack([-1j * a.sum(axis=-1) - y.exponent(b) for y, a, b in
                  zip(Y, np.split(theta1, cuts, axis=-1), np.split(theta2, cuts, axis=-1))],
                 axis=-1)
    return -laplace_exponent(R, z)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


# Rows per batch of the samplers, (jumps x theta rows) per block of
# `weaksub exponent`, and points per block of prm's Poisson-window
# estimates; bounds their temporaries.
TIME_T_CHUNK = 8192
# Expected jumps, T's and X's together, per batch of the samplers: a
# batch has fewer than TIME_T_CHUNK rows when its rows expect more jumps.
MAX_BATCH_JUMPS = 2**20


def expected_jumps(T: SubordinatorSpec, X: LevyLaw, times) -> tuple[float, float]:
    """Upper bounds on the expected jumps in one draw of (T, Z) at
    `times`, a scalar or increasing times, strong or weak: T's, the
    jumps its sampler draws over the steps between times (total mass x
    the last time for atoms, one per gamma ray and step), and X's along
    T, its jump rate x the last time x T's reach (largest drift
    coordinate + the measure's mean rate x largest coordinate, a bound
    on the mean growth rate of T; 0 when the reach is 0, as X is then
    never run). Python floats, so a product beyond the float range is
    inf."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    rate = X.jump_rate
    reach = (float(np.max(T.d, initial=0.0))
             + T.jumps.mean_rate * float(np.max(T.jumps.points, initial=0.0)))
    return (T.jumps.expected_draws(np.diff(t, prepend=0.0)),
            rate * float(t[-1]) * reach if rate > 0 and reach > 0 else 0.0)


def _batch_rows(T: SubordinatorSpec, X: LevyLaw, times) -> int:
    """TIME_T_CHUNK, or fewer rows (one at least) when that many rows
    at `times` expect more than MAX_BATCH_JUMPS jumps."""
    per_row = sum(expected_jumps(T, X, times))
    if per_row * TIME_T_CHUNK <= MAX_BATCH_JUMPS:
        return TIME_T_CHUNK
    return max(1, int(MAX_BATCH_JUMPS // per_row))


def _draw_batches(T: SubordinatorSpec, X: LevyLaw, times, size: int,
                  rng: np.random.Generator, draw_z):
    """Yield `size` independent draws of (T, Z) at `times`, a scalar or m
    strictly increasing times, in batches of `_batch_rows` rows, each of
    shape (k, m, 2n), m = 1 for a scalar time: the first k rows of one
    buffer that each batch overwrites, so use a batch before drawing the
    next. Over each step between times, a row's T moves by drift x
    step plus the jumps `T.jumps.window_draws` draws for the step (one
    Poisson(total mass x step) total per step over the batch's rows, each
    point an atom drawn by its rate in a uniform row, or one total per
    gamma ray and window), and T at the
    times is the cumulative sum; Z comes from draw_z(T, X, rng, T's rows,
    steps, each jump's window label, jumps), window row m + j holding
    step j of the row. A `size` that is not an integer >= 0, or a batch
    with a value beyond the floating-point range, is a LevySpecError."""
    _check_count(size, 0, "size")
    t = np.atleast_1d(np.asarray(times, dtype=float))
    steps = np.diff(t, prepend=0.0)
    if t.ndim != 1 or not t.size or not (np.all(steps > 0) and t[-1] < np.inf):
        raise LevySpecError("times must be positive, finite and strictly increasing")
    n, m = T.dim, t.size
    batch = _batch_rows(T, X, t)
    buffer = np.empty((min(batch, size), m, 2 * n))
    for start in range(0, size, batch):
        k = min(batch, size - start)
        rows = buffer[:k]
        with np.errstate(over="ignore", invalid="ignore"):
            window, jumps = T.jumps.window_draws(steps, k, rng)
            np.add(window_sums(window, jumps, k * m).reshape(k, m, n), np.outer(steps, T.d),
                   out=rows[..., :n])
            for j in range(1, m):  # np.cumsum's additions, in place
                rows[:, j, :n] += rows[:, j - 1, :n]
            # T's block first, so draw_z never reads an inf clock
            _finite(rows[..., :n], "a draw of (T, Z)", "rows of its batch")
            rows[..., n:] = draw_z(T, X, rng, rows[..., :n], steps, window, jumps)
            _finite(rows[..., n:], "a draw of (T, Z)", "rows of its batch")
        del window, jumps  # so the caller's use of the batch does not hold them
        yield rows


def _draw_at(T: SubordinatorSpec, X: LevyLaw, times, size: int,
             rng: np.random.Generator, draw_z) -> Array:
    """All of `_draw_batches`' batches, copied in order into one array of
    shape (size, m, 2n), squeezed to (size, 2n) for a scalar time."""
    _check_count(size, 0, "size")
    out = np.empty((size, np.size(times), 2 * T.dim))
    start = 0
    for rows in _draw_batches(T, X, times, size, rng, draw_z):
        out[start : start + len(rows)] = rows
        start += len(rows)
    return out if np.ndim(times) else out[:, 0]


def _strong_z(T, X, rng, tau, steps, window, jumps) -> Array:
    """Z of `simulate_strong_at` given T's rows tau, shape (k, m, n)."""
    k, m, n = tau.shape
    return sample_subordinate_at(Lift(X, m), tau.reshape(k, m * n), rng).reshape(k, m, n)


def _weak_z(T, X, rng, tau, steps, window, jumps) -> Array:
    """Z of `simulate_weak_at` given T's rows tau, shape (k, m, n)."""
    k, m, n = tau.shape
    z = window_sums(window, sample_subordinate_at(X, jumps, rng), k * m)
    if np.any(T.d > 0):
        z += sample_subordinate_at(X, np.tile(np.outer(steps, T.d), (k, 1)), rng)
    z = z.reshape(k, m, n)
    for j in range(1, m):  # np.cumsum's additions, in place
        z[:, j] += z[:, j - 1]
    return z


def simulate_strong_at(T: SubordinatorSpec, X: LevyLaw, times, size: int,
                       rng: np.random.Generator) -> Array:
    """`size` exact independent draws of (T, X o T) at `times`, a scalar
    (shape (size, 2n)) or m strictly increasing times (shape
    (size, m, 2n)). Given T at the times, Z is the lift (X, ..., X) at the
    vector time (T(t_1), ..., T(t_m)): one path of X read at every clock
    value of the row."""
    return _draw_at(T, X, times, size, rng, _strong_z)


def simulate_weak_at(T: SubordinatorSpec, X: LevyLaw, times, size: int,
                     rng: np.random.Generator) -> Array:
    """`size` exact independent draws of (T, X (.) T) at `times`, shaped as
    in `simulate_strong_at`. Over each step, Z moves by one independent
    mark per jump drawn in the row's window for the step, with the law of
    X at that jump as vector time, summed by the jumps' window labels,
    plus an independent X at the vector time d x step; Z at the times is
    the cumulative sum. Exact for gamma rays too: a ray's total R a over
    the step is one jump, and X at the vector time R a has the law of the
    sum of the marks of the ray's jumps in the step."""
    return _draw_at(T, X, times, size, rng, _weak_z)
