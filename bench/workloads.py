"""The benchmark's workloads: their generated inputs, operations and
output checks.

Inputs come only from the workload seed and the round index; sizes are
fixed here and never depend on either. A round is the workload's fixed
list of operations, and each round of `verify` and `exponent` gets
configs of its own, so a cache keyed on input values gains nothing a
CLI user would not see. `write_configs` needs only the standard library,
so the set-up probe can time the program's own imports; `make_ops`
imports weaksub.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("verify", "exponent", "prm")

# Work unit of each workload, as reported next to work_per_s.
UNITS = {
    "verify": "joint samples (strong + weak, 2N per scenario)",
    "exponent": "theta rows",
    "prm": "Monte Carlo replicates",
}

# --- sizes ------------------------------------------------------------------
# The negative control needs N well above 4e4 to show its expected mismatch
# (strong max |diff| > 2 x bound) on the default grid, whose largest exact
# strong-vs-weak CF gap is 0.0568: the gap over the bound 4*sqrt(2/N) is
# ~2.45 at N = 6e4. The equality scenarios pass at any N >= 100 and are kept
# small: one verify round takes 25-45 s on a 2-core Xeon. The other
# workloads use rounds under 0.7 s, so a run holds dozens of rounds; see
# bench/README.md for how their times are combined.
VERIFY_N = {"deterministic": 4_000, "finite_activity_C1": 4_000,
            "stacked_C3": 4_000, "negative_control": 60_000}
EXPONENT_ROWS = 200
CAMPBELL_REPS = 100_000
CAMPBELL_RATES = (0.5, 2.0, 5.0)
CAMPBELL_CS = (0.2, 1.0, 3.0)
MARKED_REPS = 1_000
SE_K = 4.0             # prm checks: |difference| <= 4 standard errors
EXACT_TOL = 1e-10      # A3: closed-form stacked exponent vs weak exponent
REAL_PART_TOL = 1e-12  # an exponent's real part is <= 0


@dataclass
class Op:
    """One operation of a round. `inputs(r)` makes the inputs of round r
    and is not timed; `run` is the timed call into weaksub on them;
    `check` gets its result and returns a failure reason, or None when
    the output is right. `out` is the operation's output directory."""

    name: str
    units: int
    inputs: Callable[[int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    out: Path | None = None


# ---------------------------------------------------------------------------
# Generated configs (standard library only)
# ---------------------------------------------------------------------------


def _uniform(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    return [rng.uniform(lo, hi) for _ in range(n)]


def _correlated_brownian(rng: random.Random, dim: int) -> dict:
    # sigma = L L^T with a random lower-triangular L of positive diagonal
    L = [[(rng.uniform(0.5, 1.2) if i == j else rng.uniform(-0.6, 0.6))
          if j <= i else 0.0 for j in range(dim)] for i in range(dim)]
    sigma = [[sum(L[i][k] * L[j][k] for k in range(dim)) for j in range(dim)]
             for i in range(dim)]
    return {"family": "brownian", "mu": _uniform(rng, -0.3, 0.3, dim),
            "sigma": sigma}


def configs(workload: str, seed: int, rnd: int = 0) -> dict[str, dict]:
    """The workload's CLI configs of round `rnd` by case name (empty for
    prm)."""
    rng = random.Random(f"{seed}/{rnd}")

    def cfg_seed() -> int:
        return rng.randrange(2**31)

    if workload == "verify":
        # default 16-point grid and k = 4; the seed drives the simulation
        return {sc: {"seed": cfg_seed(), "scenario": sc, "replicates": n,
                     "k": 4.0}
                for sc, n in VERIFY_N.items()}
    if workload == "exponent":
        sub = {"drift": _uniform(rng, 0.1, 1.0, 3),
               "atoms": [{"point": _uniform(rng, 0.1, 2.0, 3),
                          "rate": rng.uniform(0.2, 1.5)} for _ in range(6)]}
        cpp = {"family": "compound_poisson",
               "atoms": [{"point": _uniform(rng, -1.0, 1.0, 3),
                          "rate": rng.uniform(0.2, 1.0)} for _ in range(4)]}
        cases = {"bm3": {"subordinator": sub,
                         "subordinate": _correlated_brownian(rng, 3)},
                 "cpp3": {"subordinator": sub, "subordinate": cpp},
                 "stacked_C3": {"scenario": "stacked_C3"}}
        return {name: {"seed": cfg_seed(), **case,
                       "theta_grid": {"size": EXPONENT_ROWS, "scale": 0.5,
                                      "grid_seed": cfg_seed()}}
                for name, case in cases.items()}
    if workload == "prm":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(workload: str, seed: int, work_dir: Path) -> dict[str, Path]:
    """Write round 0's configs; each operation rewrites its own file with
    the configs of the round it runs."""
    work_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in configs(workload, seed).items():
        paths[name] = work_dir / f"{workload}-{name}.json"
        paths[name].write_text(json.dumps(cfg))
    return paths


# ---------------------------------------------------------------------------
# Operations and output checks
# ---------------------------------------------------------------------------


def _cli_op(workload, seed, case, units, path, out, check) -> Op:
    import weaksub.cli as cli

    def inputs(rnd):
        path.write_text(json.dumps(configs(workload, seed, rnd)[case]))
        return [workload, "--config", str(path), "--out", str(out), "--quiet"]

    # cli.main is looked up at call time so that a traced run reaches the
    # wrapper
    return Op(f"{workload}:{case}", units, inputs, lambda argv: cli.main(argv),
              check, out)


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with path.open(newline="") as fp:
        rows = list(csv.reader(fp))
    return rows[0], [[float(v) if v else math.nan for v in row] for row in rows[1:]]


def _verify_ops(seed, cfg_paths, work_dir) -> list[Op]:
    ops = []
    for sc, path in cfg_paths.items():
        out = work_dir / f"verify-{sc}"

        def check(rc, out=out):
            if rc == 0:
                return None
            try:
                report = json.loads((out / "report.json").read_text())
                detail = (f"strong {report['strong_ecf']['max_ratio']:.3f}, "
                          f"weak {report['weak_ecf']['max_ratio']:.3f} "
                          "max |diff|/bound")
            except (OSError, ValueError, KeyError) as exc:
                detail = f"no readable report ({exc})"
            return f"exit status {rc}; {detail}"

        ops.append(_cli_op("verify", seed, sc, 2 * VERIFY_N[sc], path, out,
                           check))
    return ops


def _exponent_ops(seed, cfg_paths, work_dir) -> list[Op]:
    import numpy as np

    from weaksub.subordination import stacked_strong_exponent
    from weaksub.verify import scenario_processes

    _, _, extras = scenario_processes("stacked_C3")
    ops = []
    for case, path in cfg_paths.items():
        out = work_dir / f"exponent-{case}"

        def check(rc, out=out, case=case):
            if rc != 0:
                return f"exit status {rc}"
            try:
                header, rows = _read_csv(out / "exponent.csv")
            except (OSError, ValueError, IndexError) as exc:
                return f"unreadable exponent.csv ({exc})"
            if len(rows) != EXPONENT_ROWS or any(len(r) != len(header) for r in rows):
                return f"{len(rows)} rows, expected {EXPONENT_ROWS}"
            table = np.array(rows)
            theta, psi = table[:, :-3], table[:, -3] + 1j * table[:, -2]
            if not np.all(np.isfinite(psi)):
                return "non-finite exponent value"
            if psi.real.max() > REAL_PART_TOL:
                return f"Re psi = {psi.real.max():.3e} > {REAL_PART_TOL}"
            if case == "stacked_C3":
                n = theta.shape[1] // 2
                exact = np.array([stacked_strong_exponent(
                    extras["R"], extras["embedding"], extras["blocks"],
                    th[:n], th[n:]) for th in theta])
                worst = np.abs(exact - psi).max()
                if worst > EXACT_TOL:
                    return f"stacked closed form differs by {worst:.3e}"
            return None

        ops.append(_cli_op("exponent", seed, case, EXPONENT_ROWS, path, out,
                           check))
    return ops


def _prm_ops(seed, cfg_paths, work_dir) -> list[Op]:
    import numpy as np

    import weaksub.prm as prm
    from weaksub.verify import scenario_processes

    # Every round reuses the same generator streams. Each prm check is a
    # 4-SE test with a false-alarm rate of 6e-5; a run makes 230-340
    # checks, so fresh streams per round would fail about one run in 60
    # on a correct program. The generator is a new object on every call, so
    # no cache keyed on argument values can return an earlier result.
    ops = []
    mark = prm.PointMassMark((0.0,))
    grid = itertools.product(CAMPBELL_RATES, CAMPBELL_CS)
    for i, (rate, c) in enumerate(grid):
        f = prm.ConstantFunctional(c)
        target = math.exp(-rate * -math.expm1(-c))

        def inputs(rnd, i=i):
            return np.random.default_rng([seed, i])

        def run(rng, rate=rate, f=f):
            return prm.laplace_functional_mc(rate, mark, 1.0, f, CAMPBELL_REPS, rng)

        def check(result, target=target):
            est, se = result
            if abs(est - target) > SE_K * se:
                return f"|{est:.5f} - {target:.5f}| > {SE_K} SE ({se:.2e})"
            return None

        ops.append(Op(f"prm:campbell_rate{rate}_c{c}", CAMPBELL_REPS, inputs,
                      run, check))

    T, X, _ = scenario_processes("finite_activity_C1")
    stream = len(ops)

    def f(time, jump, mark):
        return 1.0 if time <= 0.75 and np.all(np.abs(mark) <= 1.2) else 0.0

    def inputs_marked(rnd):
        return np.random.default_rng([seed, stream])

    def run_marked(rng):
        return prm.marked_laplace_check(T, X, f, horizon=1.0, reps=MARKED_REPS,
                                        rng=rng)

    def check_marked(result):
        if result.within(SE_K):
            return None
        return (f"|{result.lhs:.5f} - {result.rhs:.5f}| > "
                f"{SE_K} SE ({result.combined_se:.2e})")

    ops.append(Op("prm:marked_laplace_C1", MARKED_REPS, inputs_marked,
                  run_marked, check_marked))
    return ops


def make_ops(workload: str, seed: int, cfg_paths: dict[str, Path],
             work_dir: Path) -> list[Op]:
    build = {"verify": _verify_ops, "exponent": _exponent_ops,
             "prm": _prm_ops}[workload]
    return build(seed, cfg_paths, work_dir)
