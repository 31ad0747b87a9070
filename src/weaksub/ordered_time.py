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
    each row and the alive mask t >= t_(k)."""
    if not np.all((t >= 0) & (t < np.inf)):
        raise LevySpecError("time vector must be finite and coordinatewise >= 0")
    sorted_t = np.sort(t, axis=-1)
    gaps = np.diff(sorted_t, axis=-1, prepend=0.0)
    for k in range(t.shape[-1]):
        if np.count_nonzero(gaps[..., k]):
            yield gaps[..., k], t >= sorted_t[..., k, None]


def vector_time_exponent(psi: LevyLaw, t, theta):
    """Exponent of X at the vector time t:

    sum_k (t_(k) - t_(k-1)) * Psi(theta restricted to the coordinates
    j with t_j >= t_(k)).

    t and theta have shape (..., n) and broadcast against each other:
    one (n,) pair gives a complex, else the result holds one value per
    broadcast row. Each nonzero gap is one call of psi.exponent over
    every row.
    """
    t = np.asarray(t, dtype=float)
    n = psi.dim
    theta = _theta_rows(theta, n)
    if t.shape[-1] != n:
        raise LevySpecError("theta, t and process dimensions disagree")
    try:
        shape = np.broadcast_shapes(t.shape, theta.shape)
    except ValueError as exc:
        raise LevySpecError(f"time and theta rows do not broadcast: {exc}") from exc
    total = np.zeros(shape[:-1], dtype=complex)
    for gap, alive in _alive_gaps(t):
        total += gap * psi.exponent(np.where(alive, theta, 0.0))
    return complex(total) if len(shape) == 1 else total


def vector_time_cf(psi: LevyLaw, t, theta):
    """Characteristic function of X at the vector time t; modulus <= 1.
    Shapes as in `vector_time_exponent`."""
    value = np.exp(vector_time_exponent(psi, t, theta))
    return complex(value) if np.ndim(value) == 0 else value


def sample_subordinate_at(x: LevyLaw, t, rng: np.random.Generator,
                          size: int | None = None) -> np.ndarray:
    """Exact draw from the law of (X_1(t_1), ..., X_n(t_n)).

    t is one time vector, shape (n,): the result has shape (n,) when
    size is None, else (size, n). Or t holds one time vector per row,
    shape (m, n): the result has shape (m, n), and size must be None or
    m. Each gap is drawn as one batch over all rows, with row i's own
    gap as its duration, and skipped only when it is zero in every row;
    so a single time vector and its rows tiled m times consume the same
    draws.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim not in (1, 2):
        raise LevySpecError("time vectors must have shape (n,) or (m, n)")
    n = t.shape[-1]
    if x.dim != n:
        raise LevySpecError("process dimension differs from time vector")
    if t.ndim == 2:
        if size not in (None, t.shape[0]):
            raise LevySpecError("size differs from the number of time vectors")
        m = t.shape[0]
    else:
        m = 1 if size is None else size
    out = np.zeros((m, n))
    for gap, alive in _alive_gaps(t):
        np.add(out, x.sample(gap, rng, m), out=out, where=alive)
    return out[0] if t.ndim == 1 and size is None else out
