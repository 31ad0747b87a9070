"""Vector-time evaluation of a multivariate Lévy process.

For a nonnegative time vector t, the random vector
(X_1(t_1), ..., X_n(t_n)) is infinitely divisible. With t_(1) <= ...
<= t_(n) the order statistics of t and t_(0) = 0, the coordinates alive
over the gap (t_(k-1), t_(k)] are those with t_j >= t_(k). The exponent
sums each gap times the process exponent restricted to the alive
coordinates; an exact draw adds one independent increment of X over
each gap to them. Tied times leave a zero gap, which is skipped, so no
tie-breaking rule enters.
"""
from __future__ import annotations

import numpy as np

from .levy import LevyLaw, LevySpecError, _theta_rows


def _alive_gaps(t: np.ndarray):
    """For each order statistic t_(k) of t (sorted along the last axis)
    whose gap t_(k) - t_(k-1) is nonzero in some row, yield the gap of
    each row and the alive mask t >= t_(k), or None for t_(1), where every
    coordinate is alive. A row of two times has its np.minimum and
    np.maximum as order statistics. (A tie of +0 and -0 may then take the
    other zero's sign than np.sort gives it; its gaps are zeros either
    way, and a zero adds nothing to sums that start at +0, so no draw or
    exponent moves.)"""
    if not np.all((t >= 0) & (t < np.inf)):
        raise LevySpecError("time vector must be finite and coordinatewise >= 0")
    n = t.shape[-1]
    if n == 2:
        ordered = (np.minimum(t[..., 0], t[..., 1]), np.maximum(t[..., 0], t[..., 1]))
    else:
        ordered = np.moveaxis(np.sort(t, axis=-1), -1, 0)
    previous = 0.0
    for k, current in enumerate(ordered):
        gap = current - previous
        if np.count_nonzero(gap):
            yield gap, (t >= current[..., None]) if k else None
        previous = current


def vector_time_exponent(psi: LevyLaw, t, theta):
    """Exponent of X at the vector time t:

    sum_k (t_(k) - t_(k-1)) * Psi(theta restricted to the coordinates
    j with t_j >= t_(k)).

    t and theta have shape (..., n) and broadcast against each other;
    the result has the broadcast shape without its last axis. Each
    nonzero gap is one call of psi.exponent over every row.
    """
    t = np.asarray(t, dtype=float)
    n = psi.dim
    theta = _theta_rows(theta, n)
    if t.shape[-1:] != (n,):
        raise LevySpecError("theta, t and process dimensions disagree")
    try:
        shape = np.broadcast_shapes(t.shape, theta.shape)
    except ValueError as exc:
        raise LevySpecError(f"time and theta rows do not broadcast: {exc}") from exc
    total = np.zeros(shape[:-1], dtype=complex)
    # theta broadcast to every row and laid out as np.where lays out its
    # result, with no copy when theta already is: the first gap reads it
    # as it is, and each row's exponent keeps its bits, which can depend
    # on how many rows one call holds
    theta = np.ascontiguousarray(np.broadcast_to(theta, shape))
    for gap, alive in _alive_gaps(t):
        total += gap * psi.exponent(theta if alive is None else np.where(alive, theta, 0.0))
    return total[()]


def sample_subordinate_at(x: LevyLaw, t, rng: np.random.Generator) -> np.ndarray:
    """Exact draw from the law of (X_1(t_1), ..., X_n(t_n)) at each time
    vector of t, shape (..., n): the draw has t's shape, one independent
    draw per vector. Each gap is drawn as one batch over all vectors,
    with each vector's own gap as its duration, and skipped only when it
    is zero in every vector.
    """
    t = np.asarray(t, dtype=float)
    if t.shape[-1:] != (x.dim,):
        raise LevySpecError("process dimension differs from time vector")
    rows = t.reshape(-1, x.dim)
    out = np.zeros(rows.shape)
    for gap, alive in _alive_gaps(rows):
        # out starts at +0.0 and so never holds -0.0: adding +0.0 to a dead
        # coordinate leaves it as it was, bit for bit
        draw = x.sample(gap, rng)
        out += draw if alive is None else np.where(alive, draw, 0.0)
    return out.reshape(t.shape)
