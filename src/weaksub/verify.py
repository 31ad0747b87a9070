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
)
from .subordination import (
    TIME_T_CHUNK,
    simulate_strong_at,
    simulate_weak_at,
    stacked_strong_exponent,
    stacked_subordinator,
    weak_exponent,
)

Array = np.ndarray

DEFAULT_K = 4.0
DEFAULT_N_PATHS = 100_000  # samples per suite run, strong and weak each
EXACT_CHECK_THETAS = 100  # A3: frequencies of the stacked closed-form check
EXACT_TOL = 1e-10  # A3: largest |psi_strong - psi_weak| of an "equal" exact check
DIFFER_RATIO = 2.0  # a "differ" check needs max |diff|/bound above this
PHASE_PRODUCT = 2**16  # multiply-adds per ECF phase product: OpenBLAS stays on one thread


# ---------------------------------------------------------------------------
# Empirical characteristic functions
# ---------------------------------------------------------------------------


def ecf_grid(samples, theta) -> Array:
    """Empirical CF of samples, shape (N, d), at the frequencies theta,
    shape (..., d): the mean of exp(i <theta, x>) over the samples, shape (...).

    Cosines and sines of the real phases <theta, x> are summed over blocks
    of max(2, PHASE_PRODUCT // theta's size) samples, one phase product per
    block, which OpenBLAS runs on the calling thread; on a grid of two or
    more points this is bit for bit the blocked sum of the complex
    exponential. A worker thread sums the cosines and the calling thread
    the sines, each forming its own phases. A phase beyond the
    floating-point range is a LevySpecError.
    """
    samples = np.asarray(samples, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if samples.ndim != 2 or theta.shape[-1:] != samples.shape[1:]:
        raise LevySpecError(f"samples have shape {samples.shape} and theta "
                            f"{theta.shape}, expected (N, d) and (..., d)")
    n = samples.shape[0]
    if n == 0:
        raise LevySpecError("empirical CF of an empty sample")
    grid = theta.reshape(-1, samples.shape[1])
    rows = max(2, PHASE_PRODUCT // max(1, grid.size))
    buffers = np.empty((2, min(rows, n), grid.shape[0]))
    re, im = sums = np.zeros((2, grid.shape[0]))
    errors = {}

    def add(i: int) -> None:  # sums[i] += the sums of (cos, sin)[i] of the phases
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, n, rows):
                    phase = np.matmul(samples[start : start + rows], grid.T,
                                      out=buffers[i, : n - start])
                    sums[i] += (np.cos, np.sin)[i](phase, out=phase).sum(axis=0)
        except BaseException as exc:  # raised on the calling thread, after the join
            errors[i] = exc

    worker = threading.Thread(target=add, args=(0,))
    worker.start()
    add(1)
    worker.join()
    if errors:  # the calling thread's own error first
        raise errors[max(errors)]
    total = _finite(re + 1j * im, "the empirical CF", "theta grid points")
    return (total / n).reshape(theta.shape[:-1])[()]


def clt_bound(*sizes: int, k: float = DEFAULT_K) -> float:
    """Comparison tolerance k * sqrt(sum of 2/n over the sample sizes): for
    |ECF - CF| on one sample, for |ECF_a - ECF_b| on two. k must be finite
    and > 0, each size >= 1, and the bound of one or more sizes finite and
    at least the smallest normal float, so |diff| / bound stays finite
    and no diff passes for an inf bound; with no sizes, this checks k
    alone."""
    if not (0 < k < np.inf and min(sizes, default=1) >= 1):
        raise LevySpecError(f"the CLT width k must be finite and > 0, and each sample "
                            f"size >= 1, not k = {k!r} and sizes {sizes}")
    with np.errstate(over="ignore"):  # an overflowed bound is inf
        bound = k * np.sqrt(sum(2.0 / n for n in sizes))
    if sizes and not sys.float_info.min <= bound < np.inf:
        raise LevySpecError(f"the CLT width k = {k!r} makes the bound for sizes {sizes} "
                            f"{bound:g}, outside the normal floating-point range")
    return bound


@dataclass(frozen=True)
class ThetaGridSpec:
    """An ECF frequency grid: explicit `points`, or else `size` standard
    normal rows from the stream `grid_seed`, times `scale`. The default
    scale keeps |CF| well away from zero for the supported test laws."""

    size: int = 16
    scale: float = 0.5
    grid_seed: int = 20240817
    points: Array | None = None

    def build(self, dim: int) -> Array:
        if self.points is None:
            _check_count(self.size, 1, "theta grid size")
            if not 0 < self.scale < np.inf:
                raise LevySpecError(f"theta grid scale must be finite and > 0, "
                                    f"not {self.scale!r}")
            grid_rng = np.random.default_rng(self.grid_seed)
            return self.scale * grid_rng.standard_normal((self.size, dim))
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != dim or not np.all(np.isfinite(pts)):
            raise LevySpecError(f"theta grid points must be finite, in {dim} columns")
        return pts


def grid_exponent(T: SubordinatorSpec, X: LevyLaw, grid) -> Array:
    """weak_exponent at each row (theta1, theta2) of an (m, 2n) grid, in
    blocks of rows whose (rays x rows x n) temporaries stay within
    TIME_T_CHUNK x n values. A value that is not finite, from a grid too
    large for floating point, is a LevySpecError, so no NaN reaches a
    table or a report."""
    block = max(1, TIME_T_CHUNK // max(1, T.jumps.points.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        psi = np.concatenate([
            weak_exponent(T, X, rows[:, : T.dim], rows[:, T.dim :])
            for rows in np.split(grid, range(block, len(grid), block))])
    return _finite(psi, "the exact exponent", "theta grid points")


@dataclass
class ECFReport:
    theta_grid: Array
    ecf: Array
    target: Array
    bound: Array  # one per grid point
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
                    "bound": float(b),
                    "pass": bool(v),
                }
                for th, e, t, d, b, v in zip(
                    self.theta_grid, self.ecf, self.target,
                    self.abs_diff, self.bound, self.verdicts)
            ],
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}: {int(self.verdicts.sum())}/{len(self.verdicts)} grid "
                f"points within bound (N={self.n_samples}, k={self.k}, "
                f"max |diff|/bound={self.max_ratio:.3f})")


def cf_compare(samples, target, theta_grid, k: float = DEFAULT_K) -> ECFReport:
    """Compare the ECF of the samples, shape (N, d) with N >= 100, against
    the exact CF values `target`, one per row of the nonempty (m, d)
    `theta_grid`. Per-theta verdict: |ecf - target| <= k*sqrt(2/N).
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    target = np.asarray(target, dtype=complex)
    if theta_grid.ndim != 2 or not len(theta_grid) or target.shape != theta_grid.shape[:1]:
        raise LevySpecError(f"need a nonempty 2-d theta grid and one target value per "
                            f"grid point, not shapes {theta_grid.shape} and {target.shape}")
    emp = ecf_grid(samples, theta_grid)  # checks the samples' shape
    n = len(samples)
    if n < 100:
        raise LevySpecError("need at least 100 samples for a CLT bound")
    return ECFReport(theta_grid, emp, target, np.full(len(theta_grid), clt_bound(n, k=k)),
                     n, k)


# ---------------------------------------------------------------------------
# Equality-in-law suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One suite scenario: the processes T and X; whether the paper makes
    strong and weak subordination of X by T equal in law (if not, the
    suite expects the two to differ); and for a stack the (R, block
    sizes, block laws) of the A3 closed form."""

    T: SubordinatorSpec
    X: LevyLaw
    equal_in_law: bool = True
    stack: tuple[SubordinatorSpec, tuple[int, ...], tuple[LevyLaw, ...]] | None = None


def _stack(R: SubordinatorSpec, dims: tuple[int, ...], blocks: tuple) -> Scenario:
    return Scenario(stacked_subordinator(R, dims), IndependentStack(blocks),
                    stack=(R, dims, blocks))


_BM = BrownianMotion([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
_SCENARIO_TABLE = {
    "deterministic": Scenario(SubordinatorSpec([1.0, 2.0]), _BM),
    "finite_activity_C1": Scenario(
        SubordinatorSpec(np.zeros(2), AtomicJumps([[1.0, 1.0]], [1.0])), _BM),
    "stacked_C3": _stack(
        SubordinatorSpec(np.array([0.5, 0.5]), AtomicJumps([[1.0, 2.0]], [1.0])),
        (1, 1), (BrownianMotion([0.0], [[1.0]]), BrownianMotion([0.0], [[1.0]]))),
    "negative_control": Scenario(
        SubordinatorSpec(np.zeros(2), AtomicJumps([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])),
        _BM, equal_in_law=False),
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
    A scenario equal in law expects every check "equal"; otherwise strong
    is expected to differ from the target, and strong vs weak is
    reported only. Each sample set's ECF is computed once, as is the
    exact target.
    """
    record = scenario_record(name)
    stack = record.stack if T is None and X is None else None
    T = record.T if T is None else T
    X = record.X if X is None else X
    n = T.dim
    grid = theta_grid.build(2 * n)
    _check_count(n_paths, 100, "n_paths")
    clt_bound(n_paths, k=k)  # checks k, and its bound, before any simulation

    target = np.exp(grid_exponent(T, X, grid))
    strong = cf_compare(simulate_strong_at(T, X, 1.0, n_paths, rng), target, grid, k)
    weak = cf_compare(simulate_weak_at(T, X, 1.0, n_paths, rng), target, grid, k)
    cross = ECFReport(grid, strong.ecf, weak.ecf,
                      np.full(len(grid), clt_bound(n_paths, n_paths, k=k)), n_paths, k)
    equal = record.equal_in_law
    checks = [Check("strong_ecf", strong, "equal" if equal else "differ"),
              Check("weak_ecf", weak, "equal"),
              Check("strong_vs_weak", cross, "equal" if equal else None)]
    if stack is not None:
        theta_rng = np.random.default_rng(theta_grid.grid_seed + 1)
        th = theta_rng.standard_normal((EXACT_CHECK_THETAS, 2 * n))
        diff = stacked_strong_exponent(*stack, th[:, :n], th[:, n:]) - weak_exponent(
            T, X, th[:, :n], th[:, n:])
        checks.append(Check("exact_exponent", float(np.abs(diff).max()), "equal"))
    return SuiteReport(name, n_paths, checks)
