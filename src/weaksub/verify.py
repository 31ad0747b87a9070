"""Statistical verification: empirical characteristic functions with CLT
bounds, and the equality-in-law suites comparing simulated strong/weak
subordination against exact exponents.
"""
from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

import numpy as np

from .levy import (
    AtomicJumps,
    BrownianMotion,
    IndependentStack,
    LevyLaw,
    LevySpecError,
    SubordinatorSpec,
    _check_count,
    _finite,
    _floats,
    _positive,
)
from .subordination import (
    _draw_batches,
    _strong_z,
    _weak_z,
    stacked_strong_exponent,
    weak_exponent,
)

Array = np.ndarray

DEFAULT_K = 4.0
DEFAULT_N_PATHS = 100_000  # samples per suite run, strong and weak each
MIN_SAMPLES = 100  # fewest samples of an ECF compared with a CLT bound
EXACT_CHECK_THETAS = 100  # A3: frequencies of the stacked closed-form check
EXACT_TOL = 1e-10  # A3: largest |psi_strong - psi_weak| of an "equal" exact check
TARGET_TOL = 1e-12  # largest |target| - 1 of a CF value: rounding in exp of an exponent
DIFFER_RATIO = 2.0  # a "differ" check needs max |diff|/bound above this
BLOCK_PHASES = 2**16  # ECF phases per block; OpenBLAS runs a product this size on one thread
TABLE_REACH = 64  # largest |phase| whose cosine and sine the ECF's tables serve


# ---------------------------------------------------------------------------
# Empirical characteristic functions
# ---------------------------------------------------------------------------


def _trig_table(trig, odd: bool) -> Array:
    """trig(j / 2**7) at index j + 2**7 * TABLE_REACH, for each integer
    |j| <= 2**7 * TABLE_REACH; the entries of j < 0 mirror those of j > 0,
    negated for an odd trig, so the table is exactly even or odd."""
    half = trig(np.arange(2**7 * TABLE_REACH + 1) * 2**-7)
    table = np.concatenate([-half[:0:-1] if odd else half[:0:-1], half])
    table.flags.writeable = False
    return table


_COS_TABLE = _trig_table(np.cos, odd=False)
_SIN_TABLE = _trig_table(np.sin, odd=True)


class _ECFSums:
    """Running sums of cos <theta, x> and sin <theta, x> over samples, shape
    (k, d), fed to `add` in pieces of any size, at the frequencies `grid`,
    shape (m, d). The sums run over blocks of `rows` = max(2, BLOCK_PHASES
    // m) samples, carried across pieces. A block is laid out grid-major,
    (m, rows), so each grid point's terms form one contiguous row: its
    phases are formed in column sub-products grid @ x.T of `sub_rows` =
    max(1, rows // d) samples, at most BLOCK_PHASES multiply-adds each,
    which OpenBLAS runs on the calling thread, and each sum is numpy's
    pairwise sum of one row; so `ecf` is bit for bit the same however the
    samples were split and however many threads OpenBLAS runs. Every block
    is formed in three (m, rows) buffers and an (m, rows) index that live
    only while `add` sums its blocks or `ecf` sums the last one.

    A block whose phases all lie within +-TABLE_REACH is summed from the
    tables (Tang's table-driven method): phase = j / 2**7 + lo exactly,
    with |lo| <= 2**-8, and cos(j / 2**7 + lo) = C cos lo - S sin lo,
    sin(...) = S cos lo + C sin lo, where C and S are the table's cos and
    sin of j / 2**7, and cos lo = 1 - z (1/2 - z/24), sin lo = lo (1 - z
    (1/6 - z/120)), z = lo**2, truncated below 1e-17. Each term is within
    4.5e-16 of libm's cosine and sine. The sums are sum(C cos lo) -
    sum(S sin lo) and sum(S cos lo) + sum(C sin lo), each pairwise over one
    grid point's row. Any other block (a phase beyond the reach, inf or
    NaN) sums libm's cosines and sines, pairwise per grid point too."""

    def __init__(self, grid: Array):
        self.grid = grid
        self.rows = max(2, BLOCK_PHASES // max(1, grid.shape[0]))
        self.sub_rows = max(1, self.rows // max(1, grid.shape[1]))
        self.n = 0
        self.sums = np.zeros((2, grid.shape[0]))
        self.carry = np.empty((0, grid.shape[1]))  # fewer than `rows` samples

    def add(self, samples: Array) -> None:
        self.n += len(samples)
        if len(self.carry):
            samples = np.concatenate([self.carry, samples])
        end = len(samples) // self.rows * self.rows
        self._blocks(samples[:end])
        self.carry = samples[end:].copy()

    def _blocks(self, x: Array) -> None:
        """Add the sums of x's blocks of `rows` samples, the last one
        possibly shorter, each formed in the leading values of buffers
        freed on return."""
        m = self.grid.shape[0]
        buffers = np.empty((3, m * min(self.rows, len(x))))
        index = np.empty(buffers.shape[1], dtype=np.intp)
        for start in range(0, len(x), self.rows):
            block = x[start : start + self.rows]
            phase, a, b = buffers[:, : m * len(block)].reshape(3, m, len(block))
            with np.errstate(over="ignore", invalid="ignore"):
                for col in range(0, len(block), self.sub_rows):
                    part = slice(col, col + self.sub_rows)
                    np.matmul(self.grid, block[part].T, out=phase[:, part])
                # initial=0.0 lies within the reach: a grid of no points has no phases
                if (-TABLE_REACH <= phase.min(initial=0.0)
                        and phase.max(initial=0.0) <= TABLE_REACH):
                    self._table_sums(phase, a, b, index[: phase.size].reshape(phase.shape))
                else:
                    self.sums[0] += np.cos(phase, out=a).sum(axis=1)
                    self.sums[1] += np.sin(phase, out=phase).sum(axis=1)

    def _table_sums(self, phase: Array, lo: Array, sin_lo: Array, j: Array) -> None:
        """Add the table-driven sums of one block's phases, all within
        +-TABLE_REACH; every argument is overwritten."""
        k = np.rint(np.multiply(phase, 2**7, out=lo), out=lo)
        np.add(k, 2**7 * TABLE_REACH, out=j, casting="unsafe")  # the tables' index
        np.subtract(phase, np.multiply(k, 2**-7, out=lo), out=lo)
        z = np.multiply(lo, lo, out=phase)
        np.multiply(z, 1 / 120, out=sin_lo)
        np.subtract(1 / 6, sin_lo, out=sin_lo)
        sin_lo *= z
        np.subtract(1, sin_lo, out=sin_lo)
        sin_lo *= lo
        cos_lo = np.multiply(z, 1 / 24, out=lo)
        np.subtract(0.5, cos_lo, out=cos_lo)
        cos_lo *= z
        np.subtract(1, cos_lo, out=cos_lo)
        # mode="clip" reads j as it is (all in range); "raise" would copy the
        # output. Each product is rounded into a buffer, then summed pairwise
        # over its grid point's row: no BLAS, no fused multiply-add. The
        # cosines are read twice, as the three buffers hold them, cos lo and
        # sin lo
        table = np.take(_COS_TABLE, j, out=phase, mode="clip")
        re = np.multiply(table, cos_lo, out=table).sum(axis=1)
        table = np.take(_COS_TABLE, j, out=phase, mode="clip")
        im = np.multiply(table, sin_lo, out=table).sum(axis=1)
        table = np.take(_SIN_TABLE, j, out=phase, mode="clip")
        self.sums[0] += re - np.multiply(sin_lo, table, out=sin_lo).sum(axis=1)
        self.sums[1] += im + np.multiply(cos_lo, table, out=cos_lo).sum(axis=1)

    def ecf(self) -> Array:
        """The mean of exp(i <theta, x>) over every sample added, shape (m,),
        after summing the last, partial block. An empty sample, or an ECF
        that is not finite, from a phase beyond the floating-point range, is
        a LevySpecError."""
        if not self.n:
            raise LevySpecError("empirical CF of an empty sample")
        self._blocks(self.carry)
        self.carry = self.carry[:0]
        re, im = self.sums
        return _finite(re + 1j * im, "the empirical CF", "theta grid points") / self.n


def ecf_grid(samples, theta) -> Array:
    """Empirical CF of samples, shape (N, d), at the frequencies theta,
    shape (..., d): the mean of exp(i <theta, x>) over the samples, shape (...).

    The bits do not depend on how the samples are batched or on how many
    threads OpenBLAS runs: the phase products run on the calling thread,
    and each cosine and sine term is within 4.5e-16 of libm's (see
    `_ECFSums`). A phase beyond the floating-point range is a
    LevySpecError.
    """
    samples = np.asarray(samples, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if samples.ndim != 2 or theta.shape[-1:] != samples.shape[1:]:
        raise LevySpecError(f"samples have shape {samples.shape} and theta "
                            f"{theta.shape}, expected (N, d) and (..., d)")
    sums = _ECFSums(theta.reshape(-1, samples.shape[1]))
    sums.add(samples)
    return sums.ecf().reshape(theta.shape[:-1])[()]


def clt_bound(*sizes: int, k: float = DEFAULT_K) -> float:
    """Comparison tolerance k * sqrt(sum of 2/n over the sample sizes): for
    |ECF - CF| on one sample, for |ECF_a - ECF_b| on two. k must be finite
    and > 0, each size an integer >= 1, and the bound of one or more
    sizes finite and at least the smallest normal float, so |diff| / bound
    stays finite and no diff passes for an inf bound; with no sizes, this
    checks k alone."""
    k = _positive(k, "the CLT width k")
    for n in sizes:
        _check_count(n, 1, "sample size")
    with np.errstate(over="ignore"):  # an overflowed bound is inf
        bound = k * np.sqrt(sum(2.0 / n for n in sizes))
    if sizes and not sys.float_info.min <= bound < np.inf:
        raise LevySpecError(f"the CLT width k = {k!r} makes the bound for sizes {sizes} "
                            f"{bound:g}, outside the normal floating-point range")
    return bound


@dataclass(frozen=True, eq=False)
class ThetaGridSpec:
    """An ECF frequency grid: explicit `points`, or else `size` standard normal
    rows from the stream `grid_seed` (an integer >= 0 either way: A3 reads it),
    times `scale`, whose default keeps |CF| well away from zero for test laws.
    It keeps a read-only float copy of `points`, and compares and hashes by
    identity."""

    size: int = 16
    scale: float = 0.5
    grid_seed: int = 20240817
    points: Array | None = None

    def __post_init__(self):
        if self.points is not None:
            object.__setattr__(self, "points", _floats(self.points, "theta grid points"))

    def build(self, dim: int) -> Array:
        _check_count(self.grid_seed, 0, "theta grid seed")
        if self.points is None:
            size = _check_count(self.size, 1, "theta grid size")
            scale = _positive(self.scale, "theta grid scale")
            grid_rng = np.random.default_rng(self.grid_seed)
            with np.errstate(over="ignore"):  # a point beyond the range is inf
                grid = scale * grid_rng.standard_normal((size, dim))
            return _finite(grid, "the theta grid", "theta grid points")
        pts = self.points
        if pts.ndim != 2 or pts.shape[1] != dim or not len(pts):
            raise LevySpecError(f"theta grid points must be in {dim} columns "
                                f"and one or more rows")
        return pts


@dataclass
class ECFReport:
    theta_grid: Array
    ecf: Array
    target: Array
    bound: float  # the CLT bound of every grid point
    n_samples: int
    k: float

    @property
    def verdicts(self) -> Array:
        return self.abs_diff <= self.bound

    @property
    def passed(self) -> bool:
        return bool(np.all(self.verdicts))

    @property
    def abs_diff(self) -> Array:
        return np.abs(self.ecf - self.target)

    @property
    def max_ratio(self) -> float:
        """Largest |ecf - target| / bound over the grid."""
        return float(np.max(self.abs_diff / self.bound))

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "k": self.k,
            "passed": self.passed,
            "max_ratio": self.max_ratio,
            "points": [
                {
                    "theta": list(map(float, th)),
                    "ecf": [float(e.real), float(e.imag)],
                    "target": [float(t.real), float(t.imag)],
                    "abs_diff": float(d),
                    "bound": float(self.bound),
                    "pass": bool(v),
                }
                for th, e, t, d, v in zip(
                    self.theta_grid, self.ecf, self.target, self.abs_diff, self.verdicts)
            ],
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}: {int(self.verdicts.sum())}/{len(self.verdicts)} grid "
                f"points within bound (N={self.n_samples}, k={self.k}, "
                f"max |diff|/bound={self.max_ratio:.3f})")


def cf_compare(samples, target, theta_grid, k: float = DEFAULT_K) -> ECFReport:
    """Compare the ECF of the samples, shape (N, d) with N >= MIN_SAMPLES, against
    the exact CF values `target`, one per row of the nonempty (m, d)
    `theta_grid`, each of modulus at most 1 + TARGET_TOL (so not NaN), all
    checked, with k, before the ECF is summed. Per-theta verdict:
    |ecf - target| <= k*sqrt(2/N)."""
    samples, theta_grid = np.asarray(samples, dtype=float), np.asarray(theta_grid, dtype=float)
    target = np.asarray(target, dtype=complex)
    if (theta_grid.ndim != 2 or not len(theta_grid) or target.shape != theta_grid.shape[:1]
            or samples.ndim != 2 or samples.shape[1] != theta_grid.shape[1]):
        raise LevySpecError(f"need (N, d) samples, a nonempty (m, d) theta grid and one "
                            f"target value per grid point, not shapes {samples.shape}, "
                            f"{theta_grid.shape} and {target.shape}")
    if not np.all(np.abs(target) <= 1 + TARGET_TOL):
        raise LevySpecError(f"the target CF values must have modulus at most "
                            f"1 + {TARGET_TOL:g}, as a CF's do")
    n = len(samples)
    if n < MIN_SAMPLES:
        raise LevySpecError(f"need at least {MIN_SAMPLES} samples for a CLT bound, not {n}")
    k = _positive(k, "the CLT width k")  # a Python number, so the report serializes
    bound = clt_bound(n, k=k)
    return ECFReport(theta_grid, ecf_grid(samples, theta_grid), target, bound, n, k)


# ---------------------------------------------------------------------------
# Equality-in-law suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Scenario:
    """One suite scenario: the processes T and X, from which the rest is
    worked out. X's blocks are those of an `IndependentStack`; any other X
    is one block."""

    T: SubordinatorSpec
    X: LevyLaw

    @property
    def _constant_on_blocks(self) -> bool:
        """Theorem 1's hypothesis: T's drift and every jump point (atom or
        gamma-ray direction) are constant on each of X's blocks."""
        blocks = self.X.blocks if isinstance(self.X, IndependentStack) else (self.X,)
        rows = np.column_stack([self.T.d, self.T.jumps.points.T])
        return all(np.all(part == part[0]) for part in
                   np.split(rows, np.cumsum([b.dim for b in blocks])[:-1]))

    @property
    def equal_in_law(self) -> bool:
        """Whether the paper makes strong and weak subordination of X by T
        equal in law: T has no jumps (the time-1 marginals then agree for
        every X), or Theorem 1's hypothesis holds."""
        return not len(self.T.jumps.points) or self._constant_on_blocks

    @property
    def stack(self) -> tuple[SubordinatorSpec, tuple[int, ...], tuple[LevyLaw, ...]] | None:
        """A3's (R, block sizes, block laws), T = stacked_subordinator(R,
        block sizes), when X is an `IndependentStack` and Theorem 1's
        hypothesis holds; else None."""
        if not (isinstance(self.X, IndependentStack) and self._constant_on_blocks):
            return None
        dims = tuple(b.dim for b in self.X.blocks)
        first = np.cumsum((0,) + dims[:-1])
        R = SubordinatorSpec(self.T.d[first],
                             self.T.jumps.with_points(self.T.jumps.points[:, first]))
        return R, dims, self.X.blocks


_BM = BrownianMotion([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
_SCENARIO_TABLE = {
    "deterministic": Scenario(SubordinatorSpec([1.0, 2.0]), _BM),
    "finite_activity_C1": Scenario(
        SubordinatorSpec(np.zeros(2), AtomicJumps([[1.0, 1.0]], [1.0])), _BM),
    "stacked_C3": Scenario(
        SubordinatorSpec(np.array([0.5, 0.5]), AtomicJumps([[1.0, 2.0]], [1.0])),
        IndependentStack((BrownianMotion([0.0], [[1.0]]), BrownianMotion([0.0], [[1.0]])))),
    "negative_control": Scenario(
        SubordinatorSpec(np.zeros(2), AtomicJumps([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])),
        _BM),
}
SCENARIOS = tuple(_SCENARIO_TABLE)


def scenario_record(name: str) -> Scenario:
    """The record of the suite scenario `name`."""
    if name not in _SCENARIO_TABLE:
        raise LevySpecError(f"unknown scenario {name!r}")
    return _SCENARIO_TABLE[name]


def scenario_processes(name: str):
    """(T, X, extras) of a suite scenario; for a stack, extras holds the
    "R", "embedding" (block sizes) and "blocks" of its A3 closed form, in
    the order `stacked_strong_exponent` takes them, else it is empty."""
    record = scenario_record(name)
    extras = ({} if record.stack is None else
              dict(zip(("R", "embedding", "blocks"), record.stack)))
    return record.T, record.X, extras


@dataclass(frozen=True)
class Check:
    """One comparison of a suite run: its ECF report, or for A3 the exact
    max |psi_strong - psi_weak|, and what the scenario expects of it:
    "equal" (every grid point within its bound, or the exact difference at
    most EXACT_TOL), "differ" (max |diff|/bound > DIFFER_RATIO) or None
    (reported, not gated: always met)."""

    name: str
    compares: ECFReport | float
    expect: str | None

    @property
    def met(self) -> bool:
        c = self.compares
        if self.expect is None:
            return True
        if self.expect == "differ":
            return c.max_ratio > DIFFER_RATIO
        return c.passed if isinstance(c, ECFReport) else c <= EXACT_TOL

    def to_dict(self) -> dict:
        c = self.compares
        return {"expect": self.expect, "met": self.met,
                **(c.to_dict() if isinstance(c, ECFReport) else {"max_abs_diff": c})}

    def summary(self) -> str:
        c = self.compares
        what = c.summary() if isinstance(c, ECFReport) else f"max |diff| = {c:.3e}"
        return (f"  {self.name}: expect {self.expect or 'none'}, "
                f"{'met' if self.met else 'NOT met'}; {what}")


@dataclass
class SuiteReport:
    scenario: str
    n_paths: int
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(check.met for check in self.checks)

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "n_paths": self.n_paths, "passed": self.passed,
                **{check.name: check.to_dict() for check in self.checks}}

    def summary(self) -> str:
        return "\n".join([f"scenario {self.scenario}: "
                          f"{'PASS' if self.passed else 'FAIL'} (N={self.n_paths})",
                          *(check.summary() for check in self.checks)])


def _strong_and_weak_ecfs(T: SubordinatorSpec, X: LevyLaw, n: int,
                          rng: np.random.Generator, grid: Array) -> tuple[Array, Array]:
    """The ECFs on grid of n strong and n weak time-1 draws of (T, Z), from
    the first and the second of rng.spawn(2): each bit for bit
    `ecf_grid(simulate_*_at(T, X, 1.0, n, child), grid)`, with no more than
    a batch of rows held at a time. The strong side runs on a worker thread
    and the weak side on the calling thread. A side that fails stops the
    other at its next batch, and its error reaches the caller, the calling
    thread's first when both fail. The worker is joined before this returns
    or raises, unless an interrupt arrives during the join, when it
    finishes its own side alone."""
    stop = threading.Event()  # set by whichever side fails

    def side_ecf(child: np.random.Generator, draw_z) -> Array | None:
        try:
            sums = _ECFSums(grid)
            for batch in _draw_batches(T, X, 1.0, n, child, draw_z):
                if stop.is_set():
                    return None
                sums.add(batch.reshape(len(batch), -1))
            return sums.ecf()
        except BaseException:
            stop.set()
            raise

    from concurrent.futures import ThreadPoolExecutor  # so exponent and simulate skip it
    strong_rng, weak_rng = rng.spawn(2)
    with ThreadPoolExecutor(1) as worker:
        strong = worker.submit(side_ecf, strong_rng, _strong_z)
        weak = side_ecf(weak_rng, _weak_z)
    return strong.result(), weak


def equality_in_law_suite(name: str, rng: np.random.Generator,
                          n_paths: int = DEFAULT_N_PATHS, k: float = DEFAULT_K,
                          theta_grid: ThetaGridSpec = ThetaGridSpec(),
                          T: SubordinatorSpec | None = None,
                          X: LevyLaw | None = None) -> SuiteReport:
    """Run one scenario's checks: draw n_paths time-1 samples of (T, Z)
    under strong and weak subordination and compare their ECFs on the
    theta grid against the exact weak exponent and against each other
    with CLT bounds of width k; for a stack, compare its closed-form
    strong exponent with the weak one exactly (A3). That closed form is
    the scenario's own, so A3 runs only when neither T nor X is given.
    Every check expects "equal" where `Scenario(T, X).equal_in_law`;
    otherwise weak still expects "equal", strong vs weak is reported
    only, and strong is expected to differ on a record's own processes (a
    named control) and reported only when T or X is given. The exact target
    and the CLT bound are computed once, before the two sides run at once,
    each summing its ECF as its rows are drawn; a side that fails stops
    the other (see `_strong_and_weak_ecfs`).
    """
    record = scenario_record(name)
    own = T is None and X is None
    T = record.T if T is None else T
    X = record.X if X is None else X
    n = T.dim
    grid = theta_grid.build(2 * n)
    n_paths = _check_count(n_paths, MIN_SAMPLES, "n_paths")
    k = _positive(k, "the CLT width k")
    bound = clt_bound(n_paths, k=k)  # checks the bound before any simulation

    target = np.exp(weak_exponent(T, X, grid[:, :n], grid[:, n:]))
    strong_ecf, weak_ecf = _strong_and_weak_ecfs(T, X, n_paths, rng, grid)
    strong = ECFReport(grid, strong_ecf, target, bound, n_paths, k)
    weak = ECFReport(grid, weak_ecf, target, bound, n_paths, k)
    cross = ECFReport(grid, strong_ecf, weak_ecf, clt_bound(n_paths, n_paths, k=k),
                      n_paths, k)
    drawn = Scenario(T, X)
    equal = drawn.equal_in_law
    checks = [Check("strong_ecf", strong, "equal" if equal else "differ" if own else None),
              Check("weak_ecf", weak, "equal"),
              Check("strong_vs_weak", cross, "equal" if equal else None)]
    if own and (stack := drawn.stack) is not None:
        th = ThetaGridSpec(EXACT_CHECK_THETAS, 1.0, theta_grid.grid_seed + 1).build(2 * n)
        diff = stacked_strong_exponent(*stack, th[:, :n], th[:, n:]) - weak_exponent(
            T, X, th[:, :n], th[:, n:])
        checks.append(Check("exact_exponent", float(np.abs(diff).max()), "equal"))
    return SuiteReport(name, n_paths, checks)
