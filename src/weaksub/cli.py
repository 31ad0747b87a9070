"""Config-driven command line: evaluate exponents on grids, dump
simulated paths or time-horizon samples to CSV, and run the
equality-in-law verification suites to JSON reports.

Configs are JSON with a strict schema (unknown keys are errors; so are
the non-finite literals NaN and Infinity); see the README for the
documented fields. All runs are deterministic given the seed: stream r
of purpose p is the generator of SeedSequence(seed, spawn_key=(p, r)).
`simulate --mode paths` draws replicate r from stream r; `simulate
--mode time1` draws its rows in chunks of TIME_T_CHUNK, chunk c from
stream c; `verify` draws from stream 0.

Exit status: 0 success (for verify, the suite passed); 1 the verify
suite failed; 2 invalid config or flags, with a JSON error on stderr;
3 any other error, with a JSON error naming the exception on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .levy import (
    AtomicJumps,
    BrownianMotion,
    CompoundPoisson,
    IndependentStack,
    LevyLaw,
    SubordinatorSpec,
    ZeroJumps,
    validate_triplet,
)
from .subordination import (
    TIME_T_CHUNK,
    simulate_strong,
    simulate_strong_at,
    simulate_weak,
    simulate_weak_at,
    weak_exponent,
)
from .verify import (
    SCENARIOS,
    SuiteConfig,
    ThetaGridSpec,
    equality_in_law_suite,
    scenario_processes,
)

PURPOSES = {"exponent": 0, "simulate": 1, "verify": 2}
# Largest theta_grid.size and replicates, and expected subordinator jumps
# per replicate: verify holds 2 x replicates x 2n floats, and exponent builds
# its whole grid before evaluating it in blocks.
MAX_ROWS = 10_000_000


class ConfigError(ValueError):
    """Invalid experiment config; `errors` lists every violation found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def stream(seed: int, purpose: str, replicate: int = 0) -> np.random.Generator:
    """Independent RNG stream for (seed, replicate index, purpose tag)."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(PURPOSES[purpose], replicate)))


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    seed: int
    scenario: str | None = None
    subordinator: SubordinatorSpec | None = None
    subordinate: LevyLaw | None = None
    horizon: float = 1.0
    replicates: int = SuiteConfig.n_paths
    theta_grid: ThetaGridSpec = field(default_factory=ThetaGridSpec)
    k: float = SuiteConfig.k
    mode: str = "time1"  # simulate output: pooled "time1" samples or "paths"

    def processes(self) -> tuple[SubordinatorSpec, LevyLaw]:
        T, X = self.subordinator, self.subordinate
        if T is None or X is None:
            if self.scenario is None:
                raise ConfigError(["either a scenario or both subordinator "
                                   "and subordinate must be given"])
            dT, dX, _ = scenario_processes(self.scenario)
            T = dT if T is None else T
            X = dX if X is None else X
        return T, X


def _take(obj, allowed: dict, errors: list[str], where: str) -> dict:
    if not isinstance(obj, dict):
        errors.append(f"{where} must be a JSON object")
        return {}
    for key in obj:
        if key not in allowed:
            errors.append(f"unknown key {key!r} in {where}")
    return {k: obj[k] for k in allowed if k in obj}


def _number(obj: dict, key: str, default, errors: list[str], where: str = "",
            minimum: int | None = None, maximum: int | None = None):
    """obj[key], or `default` when absent: an integer >= `minimum` (and
    <= `maximum`, when given) when `minimum` is given, else a finite
    number > 0. A bad value is recorded in `errors` and replaced by the
    default."""
    value = obj.get(key, default)
    if minimum is None:
        ok = isinstance(value, (int, float)) and 0 < value <= sys.float_info.max
        kind = "a finite number > 0"
    else:
        ok = (isinstance(value, int) and value >= minimum
              and (maximum is None or value <= maximum))
        kind = f"an integer >= {minimum}" + (
            "" if maximum is None else f" and <= {maximum}")
    if isinstance(value, bool) or not ok:
        errors.append(f"{where}{key} must be {kind}")
        return default
    return value


def _numbers(value, ndim: int, errors: list[str], where: str) -> np.ndarray | None:
    """`value` as a float array when it is a JSON number (ndim 0) or a
    rectangular list of numbers nested `ndim` deep; else record an error
    and return None. Booleans and strings are not numbers."""
    def numeric(v, depth):
        if depth == 0:
            return (isinstance(v, (int, float)) and not isinstance(v, bool)
                    and abs(v) <= sys.float_info.max)
        return isinstance(v, list) and all(numeric(x, depth - 1) for x in v)

    if numeric(value, ndim):
        try:
            arr = np.asarray(value, dtype=float)
        except ValueError:  # ragged nesting
            arr = None
        if arr is not None and arr.ndim == ndim:
            return arr
    kind = ("a number", "a list of numbers", "a list of lists of numbers")[ndim]
    errors.append(f"{where} must be {kind}")
    return None


def _parse_jumps(obj, errors, where) -> AtomicJumps | None:
    atoms = obj.get("atoms", [])
    if not atoms:
        return None
    if not isinstance(atoms, list):
        errors.append(f"{where}.atoms must be a list")
        return None
    points, rates = [], []
    for i, atom in enumerate(atoms):
        here = f"{where}.atoms[{i}]"
        got = _take(atom, {"point": None, "rate": None}, errors, here)
        if "point" not in got or "rate" not in got:
            errors.append(f"{here} needs point and rate")
            return None
        points.append(_numbers(got["point"], 1, errors, f"{here}.point"))
        rates.append(_numbers(got["rate"], 0, errors, f"{here}.rate"))
    if any(p is None for p in points) or any(r is None for r in rates):
        return None
    try:
        return AtomicJumps(points, rates)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


def _parse_subordinator(obj, errors) -> SubordinatorSpec | None:
    got = _take(obj, {"drift": None, "atoms": None}, errors, "subordinator")
    if "drift" not in got:
        errors.append("subordinator.drift required")
        return None
    d = _numbers(got["drift"], 1, errors, "subordinator.drift")
    if d is None:
        return None
    jumps = _parse_jumps(got, errors, "subordinator")
    if jumps is None:
        jumps = ZeroJumps(d.shape[0])
    elif jumps.dim != d.shape[0]:
        errors.append("subordinator atom dimension differs from drift")
        return None
    spec = SubordinatorSpec(d, jumps)
    report = validate_triplet(spec)
    if not report.valid:
        for v in report:
            errors.append(f"subordinator: orthant violation ({v})"
                          if "orthant" in v or "negative" in v
                          else f"subordinator: {v}")
        return None
    return spec


def _parse_subordinate(obj, errors, where="subordinate") -> LevyLaw | None:
    family = obj.get("family") if isinstance(obj, dict) else None
    if family == "brownian":
        got = _take(obj, {"family": None, "mu": None, "sigma": None}, errors, where)
        if "mu" not in got or "sigma" not in got:
            errors.append(f"{where}: brownian needs mu and sigma")
            return None
        mu = _numbers(got["mu"], 1, errors, f"{where}.mu")
        sigma = _numbers(got["sigma"], 2, errors, f"{where}.sigma")
        if mu is None or sigma is None:
            return None
        try:
            return BrownianMotion(mu, sigma)
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
            return None
    if family == "compound_poisson":
        got = _take(obj, {"family": None, "atoms": None}, errors, where)
        jumps = _parse_jumps(got, errors, where)
        if jumps is None:
            errors.append(f"{where}: compound_poisson needs atoms")
            return None
        return CompoundPoisson(jumps)
    if family == "stack":
        got = _take(obj, {"family": None, "blocks": None}, errors, where)
        blocks = got.get("blocks", [])
        blocks = [_parse_subordinate(b, errors, f"{where}.blocks[{i}]")
                  for i, b in enumerate(blocks if isinstance(blocks, list) else [])]
        if not blocks or any(b is None for b in blocks):
            errors.append(f"{where}: stack needs valid blocks")
            return None
        return IndependentStack(blocks)
    errors.append(f"{where}.family must be brownian, compound_poisson or stack")
    return None


TOP_LEVEL_KEYS = {"seed", "scenario", "subordinator", "subordinate", "horizon",
                  "replicates", "theta_grid", "k", "mode"}


def _reject_constant(name: str):
    raise ConfigError([f"not valid JSON: {name} is not a finite number"])


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config (strict schema)."""
    errors: list[str] = []
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    for key in raw:
        if key not in TOP_LEVEL_KEYS:
            errors.append(f"unknown key {key!r}")

    if "seed" not in raw:
        errors.append("seed required")
    seed = _number(raw, "seed", 0, errors, minimum=0)

    scenario = raw.get("scenario")
    if scenario is not None and scenario not in SCENARIOS:
        errors.append(f"unknown scenario {scenario!r}; "
                      f"expected one of {', '.join(SCENARIOS)}")

    subordinator = None
    if "subordinator" in raw:
        subordinator = _parse_subordinator(raw["subordinator"], errors)
    subordinate = None
    if "subordinate" in raw:
        subordinate = _parse_subordinate(raw["subordinate"], errors)

    defaults = ExperimentConfig(seed=0)
    got = _take(raw.get("theta_grid", {}),
                {"size": None, "scale": None, "grid_seed": None, "points": None},
                errors, "theta_grid")
    grid = ThetaGridSpec(
        size=_number(got, "size", defaults.theta_grid.size, errors,
                     "theta_grid.", minimum=1, maximum=MAX_ROWS),
        scale=_number(got, "scale", defaults.theta_grid.scale, errors,
                      "theta_grid."),
        grid_seed=_number(got, "grid_seed", defaults.theta_grid.grid_seed, errors,
                          "theta_grid.", minimum=0),
        points=(None if got.get("points") is None else
                _numbers(got["points"], 2, errors, "theta_grid.points")))

    mode = raw.get("mode", defaults.mode)
    if mode not in ("time1", "paths"):
        errors.append("mode must be time1 or paths")
    config = ExperimentConfig(
        seed=seed, scenario=scenario, subordinator=subordinator,
        subordinate=subordinate,
        horizon=_number(raw, "horizon", defaults.horizon, errors),
        replicates=_number(raw, "replicates", defaults.replicates, errors,
                           minimum=0, maximum=MAX_ROWS),
        theta_grid=grid, k=_number(raw, "k", defaults.k, errors), mode=mode)
    if errors:
        raise ConfigError(errors)

    T, X = config.processes()
    if T.dim != X.dim:
        raise ConfigError([f"subordinator dimension {T.dim} differs from "
                           f"subordinate dimension {X.dim}"])
    if T.jumps.total_mass * config.horizon > MAX_ROWS:
        raise ConfigError([f"horizon: {config.horizon:g} x the subordinator's jump "
                           f"rate {T.jumps.total_mass:g} expects more than "
                           f"{MAX_ROWS} jumps per replicate"])
    if grid.points is not None and grid.points.shape[1] != 2 * T.dim:
        raise ConfigError([f"theta_grid: theta grid points must have "
                           f"{2 * T.dim} columns"])
    return config


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def run_exponent(config: ExperimentConfig, out_dir: Path) -> Path:
    """Evaluate the weak-subordination exponent on the theta grid and
    write one CSV row per grid point: theta coords, Re, Im, SE (empty
    when the value is exact)."""
    T, X = config.processes()
    n = T.dim
    grid = config.theta_grid.build(2 * n)
    # rows per block: each block's (jumps x rows x n) temporaries stay
    # within TIME_T_CHUNK x n values
    block = max(1, TIME_T_CHUNK // max(1, T.jumps.points.shape[0]))
    out = out_dir / "exponent.csv"
    with out.open("w") as fp:
        cols = [f"theta_{j+1}" for j in range(2 * n)] + ["re", "im", "se"]
        fp.write(",".join(cols) + "\n")
        for start in range(0, grid.shape[0], block):
            thetas = grid[start : start + block]
            vals = weak_exponent(T, X, thetas[:, :n], thetas[:, n:])
            fp.writelines(
                ",".join([*map(_fmt, theta), _fmt(val.real), _fmt(val.imag), ""])
                + "\n" for theta, val in zip(thetas, vals))
    return out


def run_simulate(config: ExperimentConfig, out_dir: Path,
                 kind: str = "weak") -> Path:
    """Simulate (T, Z); `mode` selects pooled time-horizon samples (one
    CSV, drawn in chunks by the batched samplers) or per-replicate path
    dumps (one CSV per replicate path)."""
    T, X = config.processes()
    n = T.dim
    if config.mode == "paths":
        simulate = {"weak": simulate_weak, "strong": simulate_strong}[kind]
        out = out_dir / "paths"
        out.mkdir(parents=True, exist_ok=True)
        for r in range(config.replicates):
            path = simulate(T, X, config.horizon, stream(config.seed, "simulate", r),
                            sample_times=[config.horizon])
            with (out / f"rep_{r:06d}.csv").open("w") as fp:
                path.to_csv(fp)
        return out
    sample = {"weak": simulate_weak_at, "strong": simulate_strong_at}[kind]
    out = out_dir / "samples.csv"
    with out.open("w") as fp:
        cols = [f"T_{j+1}" for j in range(n)] + [f"Z_{j+1}" for j in range(n)]
        fp.write(",".join(cols) + "\n")
        for c, start in enumerate(range(0, config.replicates, TIME_T_CHUNK)):
            rows = sample(T, X, config.horizon,
                          min(TIME_T_CHUNK, config.replicates - start),
                          stream(config.seed, "simulate", c))
            fp.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
    return out


def run_verify(config: ExperimentConfig, out_dir: Path, quiet: bool = False) -> int:
    """Run the scenario's equality-in-law suite; write report.json and a
    text summary; exit status 0 iff the suite passed (for the negative
    control, 0 iff the expected mismatch was observed)."""
    errors = []
    if config.scenario is None:
        errors.append("verify requires a scenario")
    if config.replicates < 100:
        errors.append("verify needs replicates >= 100 for its CLT bound")
    if config.horizon != 1.0:
        errors.append("verify compares the laws at time 1, so horizon must be 1")
    if errors:
        raise ConfigError(errors)
    suite_config = SuiteConfig(n_paths=config.replicates, k=config.k,
                               theta_grid=config.theta_grid)
    report = equality_in_law_suite(config.scenario, suite_config,
                                   stream(config.seed, "verify"),
                                   T=config.subordinator, X=config.subordinate)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=2))
    (out_dir / "summary.txt").write_text(report.summary() + "\n")
    if not quiet:
        print(report.summary())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _count(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaksub",
        description="Subordination of multivariate Lévy processes: exponent "
                    "grids, exact path simulation, equality-in-law checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("exponent", "evaluate exponents on a theta grid"),
                        ("simulate", "simulate paths / time-horizon samples"),
                        ("verify", "run an equality-in-law suite")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--seed", type=_count, default=None,
                       help="override the config seed")
        p.add_argument("--out", type=Path, default=Path("."))
        p.add_argument("--replicates", type=_count, default=None,
                       help="override the config replicate count")
        p.add_argument("--quiet", action="store_true")
        if name == "simulate":
            p.add_argument("--kind", choices=("weak", "strong"), default="weak")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            text = args.config.read_text()
        except OSError as exc:
            raise ConfigError([str(exc)]) from exc
        config = parse_config(text)
        if args.seed is not None:
            config.seed = args.seed
        if args.replicates is not None:
            if args.replicates > MAX_ROWS:
                raise ConfigError([f"--replicates must be <= {MAX_ROWS}"])
            config.replicates = args.replicates
        args.out.mkdir(parents=True, exist_ok=True)
        if args.command == "exponent":
            out = run_exponent(config, args.out)
        elif args.command == "simulate":
            out = run_simulate(config, args.out, kind=args.kind)
        else:
            return run_verify(config, args.out, quiet=args.quiet)
    except ConfigError as exc:
        print(json.dumps({"error": "invalid config", "details": exc.errors}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # the command's boundary: report, never a bare traceback
        print(json.dumps({"error": "internal error", "type": type(exc).__name__,
                          "details": str(exc),
                          "traceback": traceback.format_exc()}),
              file=sys.stderr)
        return 3
    if not args.quiet:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
