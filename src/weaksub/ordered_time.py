"""Vector-time evaluation of a multivariate Lévy process.

For a nonnegative time vector t, the random vector
(X_1(t_1), ..., X_n(t_n)) is infinitely divisible. Its exponent is a
weighted sum of the process exponent over projections determined by the
sorted order of t, and it can be sampled exactly by accumulating
independent increments of X over the sorted gaps, keeping component j
alive only while t_j has not yet been reached.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy import LevyLaw, LevySpecError, _theta_rows

Array = np.ndarray


@dataclass(frozen=True)
class OrderedTime:
    """A time vector together with its stable sort permutation and gaps.

    perm[k] is the original index of the (k+1)-th smallest coordinate;
    deltas[k] = t_(k+1) - t_(k) with t_(0) = 0. For an (m, n) array of
    time vectors, each row is sorted on its own along the last axis.
    """

    t: Array
    perm: Array
    deltas: Array

    @property
    def rank(self) -> Array:
        """rank[..., j] is the position of coordinate j in its row's sort."""
        return np.argsort(self.perm, axis=-1)


def order_times(t) -> OrderedTime:
    """Sort a nonnegative time vector, or each row of an (m, n) array of
    them; ties broken by ascending index."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise LevySpecError("time vector must be coordinatewise >= 0")
    sorted_t = np.sort(t, axis=-1)
    deltas = sorted_t.copy()
    deltas[..., 1:] -= sorted_t[..., :-1]
    return OrderedTime(t=t, perm=np.argsort(t, axis=-1, kind="stable"),
                       deltas=deltas)


def vector_time_exponent(psi: LevyLaw, t, theta):
    """Exponent of X at the vector time t:

    sum_k (t_(k) - t_(k-1)) * Psi(theta restricted to the coordinates
    whose times have not yet elapsed).

    Invariant under the tie-breaking choice of the sort. t and theta
    have shape (..., n) and broadcast against each other: one (n,) pair
    gives a complex, else the result holds one value per broadcast row.
    Gap k is one call of psi.exponent over every row, with theta masked
    to the coordinates of rank >= k in that row's sort.
    """
    ot = order_times(t)
    n = psi.dim
    theta = _theta_rows(theta, n)
    if ot.t.shape[-1] != n:
        raise LevySpecError("theta, t and process dimensions disagree")
    try:
        shape = np.broadcast_shapes(ot.t.shape, theta.shape)
    except ValueError as exc:
        raise LevySpecError(f"time and theta rows do not broadcast: {exc}") from exc
    rank = ot.rank
    total = np.zeros(shape[:-1], dtype=complex)
    for k in range(n):
        gap = ot.deltas[..., k]
        if np.count_nonzero(gap):
            total += gap * psi.exponent(np.where(rank >= k, theta, 0.0))
    return complex(total) if len(shape) == 1 else total


def vector_time_cf(psi: LevyLaw, t, theta):
    """Characteristic function of X at the vector time t; modulus <= 1.
    Shapes as in `vector_time_exponent`."""
    value = np.exp(vector_time_exponent(psi, t, theta))
    return complex(value) if np.ndim(value) == 0 else value


def sample_subordinate_at(x: LevyLaw, t, rng: np.random.Generator,
                          size: int | None = None) -> Array:
    """Draw from the law of (X_1(t_1), ..., X_n(t_n)).

    Accumulates independent increments of one X over the sorted gaps of
    t, keeping only the still-alive coordinates of each. t is one time
    vector, shape (n,): the result has shape (n,) when size is None,
    else (size, n). Or t holds one time vector per row, shape (m, n),
    each with its own sort order: the result has shape (m, n), and size
    must be None or m. Gap k is drawn as one batch over all rows, with
    row i's own gap as its duration, and skipped only when it is zero
    in every row; so a single time vector and its rows tiled m times
    consume the same draws.
    """
    ot = order_times(t)
    if ot.t.ndim not in (1, 2):
        raise LevySpecError("time vectors must have shape (n,) or (m, n)")
    n = ot.t.shape[-1]
    if x.dim != n:
        raise LevySpecError("process dimension differs from time vector")
    if ot.t.ndim == 2:
        if size not in (None, ot.t.shape[0]):
            raise LevySpecError("size differs from the number of time vectors")
        m = ot.t.shape[0]
    else:
        m = 1 if size is None else size
    rank = ot.rank
    out = np.zeros((m, n))
    for k in range(n):
        gap = ot.deltas[..., k]
        if np.count_nonzero(gap):
            np.add(out, x.sample(gap, rng, m), out=out, where=rank >= k)
    return out[0] if ot.t.ndim == 1 and size is None else out
