"""Config-driven command line: evaluate exponents on grids, dump
samples of (T, Z) at a list of times to CSV, and run the
equality-in-law verification suites to JSON reports.

Configs are JSON with a strict schema (unknown keys are errors; so are
the non-finite literals NaN and Infinity); see the README for the
documented fields. All runs are deterministic given the seed: simulate
and verify each read one generator, `stream(seed, command)`. `simulate`
writes the rows of one `simulate_*_at` call on it, a batch at a time;
`verify` splits it with Generator.spawn(2), the strong draws from the
first child and the weak from the second.

Exit status: 0 success (for verify, the suite passed); 1 the verify
suite failed; 2 invalid config, with a JSON error on stderr, or invalid
flags (--kind with a command other than simulate too), with argparse's
usage error; 3 any other error, with a JSON error
naming the exception on stderr. On exit 2 or 3, or an interrupt, the
files the run wrote, and the directories it made for --out, go.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .levy import (
    AtomicJumps,
    BrownianMotion,
    CompoundPoisson,
    IndependentStack,
    LevyLaw,
    LevySpecError,
    SubordinatorSpec,
)
from .subordination import TIME_T_CHUNK, _draw_batches, _strong_z, _weak_z, expected_jumps
from .verify import (
    DEFAULT_K,
    DEFAULT_N_PATHS,
    MIN_SAMPLES,
    SCENARIOS,
    ThetaGridSpec,
    equality_in_law_suite,
    grid_exponent,
    scenario_record,
)

PURPOSES = {"simulate": 1, "verify": 2}
# Largest theta_grid.size and replicates, and expected subordinator and
# subordinate jumps per replicate: exponent holds its whole grid and its
# exponent values (writing them a block of rows at a time), while simulate
# and verify hold a batch of rows at a time, whatever the replicates.
MAX_ROWS = 10_000_000
# Largest expected jumps of T and X over a whole simulate or verify run
# (verify draws its replicates twice, strong and weak): about 30 s of
# sampling at 26-31 ns of CPU time per jump on a 2-vCPU Xeon (simulate
# under a compound Poisson subordinate of rate 1e6, 6e7 jumps).
MAX_RUN_JUMPS = 10**9
# Largest ECF terms of a verify run, 2 x replicates x theta grid points:
# on a 2-vCPU Xeon, 6.5-8 s at 13-16 ns of CPU per term within the ECF
# tables' reach on a 16-point grid (15 s at 29 ns on 10 000 points, whose
# blocks of 6 samples sum short rows), 22-29 s at libm's 43-57 ns per
# term of phases beyond it.
MAX_ECF_TERMS = 5 * 10**8
# Most theta grid points of a verify run: writing report.json takes about
# 9 KB of memory per point (134 MB peak RSS at 10 000 points, 978 MB at
# 100 000).
MAX_REPORT_POINTS = 10_000
# Most sample times of one simulate run.
MAX_TIMES = 16


class ConfigError(ValueError):
    """Invalid experiment config; `errors` lists every violation found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def stream(seed: int, purpose: str) -> np.random.Generator:
    """Independent RNG stream for (seed, purpose tag)."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(PURPOSES[purpose], 0)))


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    seed: int
    scenario: str | None = None
    subordinator: SubordinatorSpec | None = None
    subordinate: LevyLaw | None = None
    replicates: int = DEFAULT_N_PATHS
    theta_grid: ThetaGridSpec = ThetaGridSpec()
    k: float = DEFAULT_K
    times: tuple[float, ...] = (1.0,)  # when simulate and verify draw

    def processes(self) -> tuple[SubordinatorSpec, LevyLaw]:
        T, X = self.subordinator, self.subordinate
        if T is None or X is None:
            if self.scenario is None:
                raise ConfigError(["either a scenario or both subordinator "
                                   "and subordinate must be given"])
            record = scenario_record(self.scenario)
            T = record.T if T is None else T
            X = record.X if X is None else X
        return T, X


def _take(obj, allowed: tuple[str, ...], errors: list[str], where: str) -> dict:
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
    if not isinstance(atoms, list):
        errors.append(f"{where}.atoms must be a list")
        return None
    if not atoms:
        return None
    points, rates = [], []
    for i, atom in enumerate(atoms):
        here = f"{where}.atoms[{i}]"
        got = _take(atom, ("point", "rate"), errors, here)
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
    got = _take(obj, ("drift", "atoms"), errors, "subordinator")
    if "drift" not in got:
        errors.append("subordinator.drift required")
        return None
    d = _numbers(got["drift"], 1, errors, "subordinator.drift")
    if d is None:
        return None
    try:
        return SubordinatorSpec(d, _parse_jumps(got, errors, "subordinator"))
    except ValueError as exc:
        errors.append(f"subordinator: {exc}")
        return None


def _parse_subordinate(obj, errors, where="subordinate") -> LevyLaw | None:
    family = obj.get("family") if isinstance(obj, dict) else None
    if family == "brownian":
        got = _take(obj, ("family", "mu", "sigma"), errors, where)
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
        got = _take(obj, ("family", "atoms"), errors, where)
        if got.get("atoms") in (None, []):
            errors.append(f"{where}: compound_poisson needs atoms")
            return None
        jumps = _parse_jumps(got, errors, where)
        return None if jumps is None else CompoundPoisson(jumps)
    if family == "stack":
        got = _take(obj, ("family", "blocks"), errors, where)
        blocks = got.get("blocks", [])
        blocks = [_parse_subordinate(b, errors, f"{where}.blocks[{i}]")
                  for i, b in enumerate(blocks if isinstance(blocks, list) else [])]
        if not blocks or any(b is None for b in blocks):
            errors.append(f"{where}: stack needs valid blocks")
            return None
        return IndependentStack(blocks)
    errors.append(f"{where}.family must be brownian, compound_poisson or stack")
    return None


TOP_LEVEL_KEYS = tuple(field.name for field in fields(ExperimentConfig))


def _reject_constant(name: str):
    raise ConfigError([f"not valid JSON: {name} is not a finite number"])


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config (strict schema). The
    `overrides` (the CLI's --seed and --replicates) replace those keys
    before validation, so the same rules check them."""
    errors: list[str] = []
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    raw = {**_take(raw, TOP_LEVEL_KEYS, errors, "config"), **(overrides or {})}

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
                tuple(field.name for field in fields(ThetaGridSpec)), errors, "theta_grid")
    grid = ThetaGridSpec(
        size=_number(got, "size", defaults.theta_grid.size, errors,
                     "theta_grid.", minimum=1, maximum=MAX_ROWS),
        scale=_number(got, "scale", defaults.theta_grid.scale, errors,
                      "theta_grid."),
        grid_seed=_number(got, "grid_seed", defaults.theta_grid.grid_seed, errors,
                          "theta_grid.", minimum=0),
        points=(None if got.get("points") is None else
                _numbers(got["points"], 2, errors, "theta_grid.points")))

    times = defaults.times
    if "times" in raw:
        got = _numbers(raw["times"], 1, errors, "times")
        if got is not None and not (1 <= got.size <= MAX_TIMES and got[0] > 0
                                    and np.all(np.diff(got) > 0)):
            errors.append(f"times must be 1 to {MAX_TIMES} strictly increasing "
                          f"numbers > 0")
        times = times if got is None else tuple(got.tolist())
    config = ExperimentConfig(
        seed=seed, scenario=scenario, subordinator=subordinator,
        subordinate=subordinate,
        replicates=_number(raw, "replicates", defaults.replicates, errors,
                           minimum=0, maximum=MAX_ROWS),
        theta_grid=grid, k=_number(raw, "k", defaults.k, errors), times=times)
    if errors:
        raise ConfigError(errors)

    T, X = config.processes()
    if T.dim != X.dim:
        raise ConfigError([f"subordinator dimension {T.dim} differs from "
                           f"subordinate dimension {X.dim}"])
    if grid.points is not None and grid.points.shape[1] != 2 * T.dim:
        raise ConfigError([f"theta_grid: theta grid points must have "
                           f"{2 * T.dim} columns"])
    return config


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _check_run(config: ExperimentConfig, command: str) -> None:
    """Rules of a simulate or verify run, checked before --out is made:
    T at the last time is within the floating-point range and one
    replicate expects at most MAX_ROWS jumps of T and of X; verify needs
    a scenario, replicates >= MIN_SAMPLES, times [1], at most
    MAX_ECF_TERMS ECF terms and at most MAX_REPORT_POINTS grid points;
    and the run's draws of (T, Z) may expect at most MAX_RUN_JUMPS
    jumps."""
    T, X = config.processes()
    errors = []
    last = config.times[-1]
    drift_part = last * float(np.max(T.d, initial=0.0))  # <= T(last)
    if not np.isfinite(drift_part):
        errors.append(f"times: the last time {last:g} x the subordinator's drift "
                      f"{np.max(T.d):g} is beyond the floating-point range")
    t_jumps, x_jumps = expected_jumps(T, X, config.times)
    if t_jumps > MAX_ROWS:
        errors.append(f"times: the last time {last:g} x the subordinator's jump "
                      f"rate {T.jumps.total_mass:g} expects more than "
                      f"{MAX_ROWS} jumps per replicate")
    if x_jumps > MAX_ROWS and np.isfinite(drift_part):  # else the drift overflows it
        errors.append(f"subordinate: jump rate {X.jump_rate:g} x the last time x the "
                      f"subordinator's reach expects {x_jumps:g} jumps per "
                      f"replicate, more than {MAX_ROWS}")
    draws = 2 if command == "verify" else 1
    total = draws * config.replicates * (t_jumps + x_jumps)
    if total > MAX_RUN_JUMPS and not errors:  # else a per-replicate rule names the fault
        errors.append(f"replicates: {draws} x {config.replicates} draws expect "
                      f"{total:g} jumps, more than {MAX_RUN_JUMPS:g} per run")
    if command == "verify":
        if config.scenario is None:
            errors.append("verify requires a scenario")
        if config.replicates < MIN_SAMPLES:
            errors.append(f"verify needs replicates >= {MIN_SAMPLES} for its CLT bound")
        if config.times != (1.0,):
            errors.append("verify compares the laws at time 1, so its times must be [1]")
        grid = config.theta_grid
        points = grid.size if grid.points is None else len(grid.points)
        if 2 * config.replicates * points > MAX_ECF_TERMS:
            errors.append(f"theta_grid: 2 x {config.replicates} replicates x {points} "
                          f"grid points make more than {MAX_ECF_TERMS:g} ECF terms")
        if points > MAX_REPORT_POINTS:
            errors.append(f"theta_grid: verify reports every grid point, so it "
                          f"takes at most {MAX_REPORT_POINTS} points")
    if errors:
        raise ConfigError(errors)


def _make_dir(path: Path, written: list[Path]) -> None:
    """mkdir -p, appending each directory it makes, ancestors first, to
    `written`; a path that cannot be a directory (a file, or a path under
    one) is a bad --out, so a ConfigError."""
    try:
        for missing in [p for p in (*reversed(path.parents), path) if not p.is_dir()]:
            missing.mkdir()
            written.append(missing)
    except OSError as exc:
        raise ConfigError([f"--out: {exc}"]) from exc


def _write_csv(out: Path, cols, blocks, written: list[Path], end="\n") -> Path:
    """Add `out` to `written`, then write the header and each block's rows by repr."""
    written.append(out)
    with out.open("w") as fp:
        fp.write(",".join(cols) + "\n")
        for rows in blocks:
            fp.writelines(",".join(map(repr, row)) + end
                          for row in rows.reshape(len(rows), -1).tolist())
    return out


def run_exponent(config: ExperimentConfig, out_dir: Path, written: list[Path]) -> Path:
    """Evaluate the weak-subordination exponent on the theta grid and
    write one CSV row per grid point, TIME_T_CHUNK rows at a time: theta
    coords, Re, Im, SE. Every value is exact, so SE is always empty; the
    column stays so the CSV format stays stable. Appends the file to
    `written` first."""
    T, X = config.processes()
    grid = config.theta_grid.build(2 * T.dim)
    values = grid_exponent(T, X, grid)
    blocks = (np.column_stack([grid[i:i + TIME_T_CHUNK], values.real[i:i + TIME_T_CHUNK],
                               values.imag[i:i + TIME_T_CHUNK]])
              for i in range(0, len(grid), TIME_T_CHUNK))
    cols = [f"theta_{j+1}" for j in range(2 * T.dim)] + ["re", "im", "se"]
    return _write_csv(out_dir / "exponent.csv", cols, blocks, written, end=",\n")


def run_simulate(config: ExperimentConfig, out_dir: Path, written: list[Path],
                 kind: str = "weak") -> Path:
    """Draw (T, Z) at the config's times and write samples.csv, one row
    per replicate, a sampler batch at a time: the rows of
    `simulate_{kind}_at(T, X, times, replicates, stream(seed, "simulate"))`.
    Columns T_j then Z_j for each time, suffixed @i for the i-th time
    from the second on. Appends the file to `written` first."""
    T, X = config.processes()
    draw_z = {"weak": _weak_z, "strong": _strong_z}[kind]
    cols = [f"{c}_{j+1}" + (f"@{i+1}" if i else "")
            for i in range(len(config.times)) for c in "TZ" for j in range(T.dim)]
    batches = _draw_batches(T, X, config.times, config.replicates,
                            stream(config.seed, "simulate"), draw_z)
    return _write_csv(out_dir / "samples.csv", cols, batches, written)


def run_verify(config: ExperimentConfig, out_dir: Path, written: list[Path],
               quiet: bool = False) -> int:
    """Run the scenario's equality-in-law suite; write report.json and a
    text summary, each appended to `written` first; exit status 0 iff the
    suite passed (for a scenario outside the equality-in-law conditions,
    0 iff the expected mismatch was observed)."""
    report = equality_in_law_suite(config.scenario, stream(config.seed, "verify"),
                                   config.replicates, config.k, config.theta_grid,
                                   T=config.subordinator, X=config.subordinate)
    written.append(out_dir / "report.json")
    written[-1].write_text(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    written.append(out_dir / "summary.txt")
    written[-1].write_text(report.summary() + "\n")
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
                    "grids, exact samples at a list of times, equality-in-law "
                    "checks.")
    parser.add_argument("command", choices=("exponent", "simulate", "verify"),
                        help="exponent: evaluate exponents on a theta grid; "
                             "simulate: sample (T, Z) at a list of times; "
                             "verify: run an equality-in-law suite")
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--seed", type=_count, default=None,
                        help="override the config seed")
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--replicates", type=_count, default=None,
                        help="override the config replicate count")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--kind", choices=("weak", "strong"), default=None,
                        help="simulate only (default weak)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.kind is not None and args.command != "simulate":
        parser.error(f"argument --kind: not allowed with {args.command}")
    written: list[Path] = []  # the run's outputs
    code = 3  # until the command ends, so an interrupt removes them too
    try:
        try:
            text = args.config.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([str(exc)]) from exc
        flags = {"seed": args.seed, "replicates": args.replicates}
        config = parse_config(text, {k: v for k, v in flags.items() if v is not None})
        if args.command != "exponent":
            _check_run(config, args.command)
        _make_dir(args.out, written)
        if args.command == "verify":
            code = run_verify(config, args.out, written, quiet=args.quiet)
        else:
            if args.command == "exponent":
                out = run_exponent(config, args.out, written)
            else:
                out = run_simulate(config, args.out, written, kind=args.kind or "weak")
            if not args.quiet:
                print(out)
            code = 0
    except (ConfigError, LevySpecError) as exc:  # LevySpecError: a value out of range
        details = exc.errors if isinstance(exc, ConfigError) else [str(exc)]
        print(json.dumps({"error": "invalid config", "details": details}),
              file=sys.stderr)
        code = 2
    except Exception as exc:  # the command's boundary: report, never a bare traceback
        import traceback
        print(json.dumps({"error": "internal error", "type": type(exc).__name__,
                          "details": str(exc),
                          "traceback": traceback.format_exc()}),
              file=sys.stderr)
        code = 3
    finally:
        if code > 1:  # a partial output can look complete
            for path in reversed(written):
                with contextlib.suppress(OSError):
                    path.rmdir() if path.is_dir() else path.unlink()
    return code


if __name__ == "__main__":
    sys.exit(main())
