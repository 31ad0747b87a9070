"""Statistical verification: empirical characteristic functions with CLT
bounds, and the equality-in-law suites comparing simulated strong/weak
subordination against exact exponents.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .levy import (
    AtomicJumps,
    BrownianMotion,
    IndependentStack,
    LevyLaw,
    LevySpecError,
    SubordinatorSpec,
    pure_drift,
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
PHASE_PRODUCT = 2**16  # multiply-adds per ECF phase product: OpenBLAS stays on one thread


# ---------------------------------------------------------------------------
# Empirical characteristic functions
# ---------------------------------------------------------------------------


def ecf_grid(samples, theta) -> Array:
    """Empirical CF of samples, shape (N, d), at the frequencies theta,
    shape (..., d): the mean of exp(i <theta, x>) over the samples, shape (...).

    Cosines and sines of the real phases <theta, x> are summed (bit for bit
    the complex exponential) over blocks of TIME_T_CHUNK samples for at most
    16 frequencies, fewer beyond. Phases are formed in row sub-blocks of at
    most PHASE_PRODUCT multiply-adds, which OpenBLAS runs on the calling
    thread; on the default grid they are bit for bit one product per block.
    Over more than one block and with two usable CPUs, a worker thread sums
    the cosines and the calling thread the sines: the same bits as on one.
    A phase beyond the floating-point range is a LevySpecError.
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
    rows = max(1, 16 * TIME_T_CHUNK // max(16, grid.shape[0]))
    sub = max(2, PHASE_PRODUCT // max(1, grid.size))
    buffers = np.empty((2, min(rows, n), grid.shape[0]))
    re, im = sums = np.zeros((2, grid.shape[0]))
    errors = {}

    def add(part: slice, trigs) -> None:  # sums[part] += the sums of trigs(phases)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, n, rows):
                    block = buffers[part, : n - start]
                    phase = block[0]  # trigs[0] overwrites it in place, so runs last
                    # products of >= 2 rows: a 1-row product rounds differently
                    cuts = [0, *range(sub, len(phase) - 1, sub), len(phase)]
                    for a, b in zip(cuts, cuts[1:]):
                        np.matmul(samples[start + a : start + b], grid.T, out=phase[a:b])
                    for trig, out, acc in reversed([*zip(trigs, block, sums[part])]):
                        acc += trig(phase, out=out).sum(axis=0)
        except BaseException as exc:  # raised on the calling thread, after the join
            errors[part.start] = exc

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2 or n <= rows:  # one block: a thread would cost more than it saves
        add(slice(0, 2), (np.cos, np.sin))
    else:
        worker = threading.Thread(target=add, args=(slice(0, 1), (np.cos,)))
        worker.start()
        add(slice(1, 2), (np.sin,))
        worker.join()
    if errors:  # the calling thread's own error first
        raise errors[max(errors)]
    total = re + 1j * im
    bad = ~np.isfinite(total)
    if np.any(bad):
        raise LevySpecError(f"the empirical CF is not finite at {bad.sum()} of "
                            f"{len(total)} theta grid points: a phase <theta, x> "
                            f"is beyond the floating-point range")
    return (total / n).reshape(theta.shape[:-1])[()]


def clt_bound(n: int, k: float = DEFAULT_K) -> float:
    """Comparison tolerance k * sqrt(2/n) for |ECF - CF|."""
    return _clt_width(k, n)


def _clt_width(k: float, *sizes: int) -> float:
    """k * sqrt(sum of 2/n over the sample sizes), for k finite > 0 and sizes >= 1."""
    if not (0 < k < np.inf and min(sizes, default=1) >= 1):
        raise LevySpecError(f"the CLT width k must be finite and > 0, and each sample "
                            f"size >= 1, not k = {k!r} and sizes {sizes}")
    return k * np.sqrt(sum(2.0 / n for n in sizes))


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
            if not (isinstance(self.size, (int, np.integer)) and self.size >= 1
                    and 0 < self.scale < np.inf):
                raise LevySpecError("theta grid size must be an integer >= 1 and "
                                    "scale finite and > 0")
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
    bad = ~np.isfinite(psi)
    if np.any(bad):
        raise LevySpecError(f"the exact exponent is not finite at {bad.sum()} of "
                            f"{len(psi)} theta grid points")
    return psi


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
    """Compare the ECF of the samples against the exact CF values
    `target`, one per grid point. Per-theta verdict:
    |ecf - target| <= k*sqrt(2/N).
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    emp, n = _sample_ecf(samples, theta_grid)
    target = np.asarray(target, dtype=complex)
    if target.shape != emp.shape:
        raise LevySpecError(f"target has shape {target.shape}, expected one "
                            f"value per grid point, {emp.shape}")
    return ECFReport(theta_grid, emp, target, np.full(len(theta_grid), clt_bound(n, k)),
                     n, k)


def _sample_ecf(samples, theta_grid: Array) -> tuple[Array, int]:
    """The ECF of `samples` on `theta_grid` and the sample count, after
    the checks a CLT comparison needs: a nonempty 2-d grid, a 2-d sample
    array with as many columns as the grid, and at least 100 samples."""
    samples = np.asarray(samples, dtype=float)
    if theta_grid.ndim != 2 or theta_grid.shape[0] == 0:
        raise LevySpecError("theta grid must be a nonempty 2-d array")
    if samples.ndim != 2 or samples.shape[1] != theta_grid.shape[1]:
        raise LevySpecError(f"samples have shape {samples.shape}, expected "
                            f"(N, {theta_grid.shape[1]}) for the theta grid")
    if samples.shape[0] < 100:
        raise LevySpecError("need at least 100 samples for a CLT bound")
    return ecf_grid(samples, theta_grid), samples.shape[0]


def _two_sample_report(theta_grid, emp_a, na: int, emp_b, nb: int,
                       k: float) -> ECFReport:
    return ECFReport(theta_grid, emp_a, emp_b,
                     np.full(len(theta_grid), _clt_width(k, na, nb)), min(na, nb), k)


def ecf_two_sample_compare(samples_a, samples_b, theta_grid,
                           k: float = DEFAULT_K) -> ECFReport:
    """Compare the ECFs of two sample sets; bound k*sqrt(2/Na + 2/Nb)."""
    theta_grid = np.asarray(theta_grid, dtype=float)
    return _two_sample_report(theta_grid, *_sample_ecf(samples_a, theta_grid),
                              *_sample_ecf(samples_b, theta_grid), k)


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
    "deterministic": Scenario(pure_drift([1.0, 2.0]), _BM),
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


@dataclass
class SuiteReport:
    scenario: str
    n_paths: int
    strong: ECFReport
    weak: ECFReport
    strong_vs_weak: ECFReport
    equal_in_law: bool
    exact_exponent_max_diff: float | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        if not self.equal_in_law:
            # mismatch is the expected outcome: >= 1 theta beyond 2x bound
            return self.strong.max_ratio > 2.0 and self.weak.passed
        ok = self.strong.passed and self.weak.passed and self.strong_vs_weak.passed
        if self.exact_exponent_max_diff is not None:
            ok = ok and self.exact_exponent_max_diff <= 1e-10
        return ok

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "n_paths": self.n_paths,
            "passed": self.passed,
            "strong_ecf": self.strong.to_dict(),
            "weak_ecf": self.weak.to_dict(),
            "strong_vs_weak": self.strong_vs_weak.to_dict(),
            "exact_exponent_max_diff": self.exact_exponent_max_diff,
            "negative_control_max_ratio": (None if self.equal_in_law
                                           else self.strong.max_ratio),
            "notes": self.notes,
        }

    def summary(self) -> str:
        lines = [f"scenario {self.scenario}: "
                 f"{'PASS' if self.passed else 'FAIL'} (N={self.n_paths})",
                 f"  strong vs exact   {self.strong.summary()}",
                 f"  weak vs exact     {self.weak.summary()}",
                 f"  strong vs weak    {self.strong_vs_weak.summary()}"]
        if self.exact_exponent_max_diff is not None:
            lines.append(f"  exact exponent agreement: max |diff| = "
                         f"{self.exact_exponent_max_diff:.3e}")
        if not self.equal_in_law:
            lines.append(f"  expected mismatch effect size: max |diff|/bound = "
                         f"{self.strong.max_ratio:.2f} "
                         f"(reported, not theorem-backed)")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def equality_in_law_suite(name: str, rng: np.random.Generator,
                          n_paths: int = DEFAULT_N_PATHS, k: float = DEFAULT_K,
                          theta_grid: ThetaGridSpec = ThetaGridSpec(),
                          T: SubordinatorSpec | None = None,
                          X: LevyLaw | None = None) -> SuiteReport:
    """Run one equality-in-law scenario: draw n_paths time-1 samples of
    (T, Z) under strong and weak subordination, compare their ECFs on
    the theta grid against the exact weak exponent and against each
    other with CLT bounds of width k, and (a stack) check the closed-form
    strong exponent against the weak one exactly. That closed form is
    the scenario's own, so the exact check runs only when neither T nor
    X is given. Each sample set's ECF is computed once, as is the exact
    target.
    """
    record = scenario_record(name)
    own_processes = T is None and X is None
    T = record.T if T is None else T
    X = record.X if X is None else X
    n = T.dim
    grid = theta_grid.build(2 * n)
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 100):
        raise LevySpecError(f"n_paths must be an integer >= 100, not {n_paths!r}")
    _clt_width(k)  # checks k before any simulation

    target = np.exp(grid_exponent(T, X, grid))
    strong_samples = simulate_strong_at(T, X, 1.0, n_paths, rng)
    weak_samples = simulate_weak_at(T, X, 1.0, n_paths, rng)
    strong_rep = cf_compare(strong_samples, target, grid, k)
    weak_rep = cf_compare(weak_samples, target, grid, k)
    cross = _two_sample_report(grid, strong_rep.ecf, n_paths, weak_rep.ecf,
                               n_paths, k)

    report = SuiteReport(scenario=name, n_paths=n_paths, strong=strong_rep,
                         weak=weak_rep, strong_vs_weak=cross,
                         equal_in_law=record.equal_in_law)

    if record.stack is not None and not own_processes:
        report.notes.append(
            "exact exponent check skipped: the stacked closed form is that of "
            "the scenario's own processes, and another subordinator or "
            "subordinate was given")
    elif record.stack is not None:
        theta_rng = np.random.default_rng(theta_grid.grid_seed + 1)
        th = theta_rng.standard_normal((EXACT_CHECK_THETAS, 2 * n))
        exact = stacked_strong_exponent(*record.stack, th[:, :n], th[:, n:])
        weak = weak_exponent(T, X, th[:, :n], th[:, n:])
        report.exact_exponent_max_diff = float(np.abs(exact - weak).max())

    if not record.equal_in_law:
        report.notes.append(
            "strong subordination is outside the equality-in-law conditions "
            "here; a deviation beyond 2x the CLT bound is the expected "
            "outcome and is reported as an effect size, not asserted as a "
            "theorem")
    return report
