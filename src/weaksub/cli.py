"""Config-driven command line: evaluate exponents on grids, dump
samples of (T, Z) at a list of times to CSV, and run the
equality-in-law verification suites to JSON reports.

Configs are JSON with a strict schema of rule tables (see the README):
CONFIG_RULES and GRID_RULES give each field of ExperimentConfig and
ThetaGridSpec, whose defaults fill absent keys, one rule, and FAMILIES
gives each subordinate family one row. One walker applies them and lists
every fault (the non-finite literals NaN and Infinity are faults too).
All runs are deterministic given the seed: simulate
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
from dataclasses import dataclass
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


# A rule parses the value of one config key: rule(value, errors, where)
# returns it parsed, or appends each fault to `errors`, naming the key by
# its path `where`. Every rule is built once, here, at import.


def _object(make, rules: dict, needs=(), missing=""):
    """Rule: a JSON object, each key parsed by its rule in `rules`, then
    make(**values). Faults are listed in the table's order: the value is
    not an object, has a key with no rule, lacks a key of `needs` or has
    it [] (the fault `missing`), a rule fails, or, when none of these
    did, make raises a ValueError (a LevySpecError)."""
    def rule(obj, errors, where):
        start = len(errors)
        name = where or "config"
        if not isinstance(obj, dict):
            errors.append(f"{name} must be a JSON object")
            obj = {}
        if not obj.keys() <= rules.keys():
            errors.extend(f"unknown key {key!r} in {name}" for key in obj if key not in rules)
        lacking = [key for key in needs if obj.get(key, []) == []]
        if lacking:
            errors.append(missing.format(where=where))
        prefix = f"{where}." if where else ""
        got = {key: parse(obj[key], errors, prefix + key)
               for key, parse in rules.items() if key in obj and key not in lacking}
        if len(errors) == start:
            try:
                return make(**got)
            except ValueError as exc:
                errors.append(f"{where}: {exc}")
        return None
    return rule


def _check(ok, kind: str):
    """Rule: a JSON value for which ok(value) holds (a boolean never does)."""
    def rule(value, errors, where):
        if not isinstance(value, bool) and ok(value):
            return value
        errors.append(f"{where} must be {kind}")
        return None
    return rule


def _integer(minimum: int, maximum: int | None = None):
    return _check(lambda v: isinstance(v, int) and v >= minimum
                  and (maximum is None or v <= maximum),
                  f"an integer >= {minimum}" + ("" if maximum is None else
                                                f" and <= {maximum}"))


_POSITIVE = _check(lambda v: isinstance(v, (int, float)) and 0 < v <= sys.float_info.max,
                   "a finite number > 0")


def _array(ndim: int):
    """Rule: a JSON number (ndim 0) or a rectangular list of numbers
    nested `ndim` deep, as a float array. Booleans and strings are not
    numbers."""
    def numeric(v, depth):  # type(True) is bool, not int
        if depth == 0:
            return type(v) in (int, float) and abs(v) <= sys.float_info.max
        return type(v) is list and all([numeric(x, depth - 1) for x in v])

    kind = ("a number", "a list of numbers", "a list of lists of numbers")[ndim]

    def rule(value, errors, where):
        if numeric(value, ndim):
            with contextlib.suppress(ValueError):  # ragged nesting
                arr = np.asarray(value, dtype=float)
                if arr.ndim == ndim:
                    return arr
        errors.append(f"{where} must be {kind}")
        return None
    return rule


_NUMBER, _VECTOR, _MATRIX = map(_array, range(3))


def _list(item):
    """Rule: a JSON list, each entry parsed by the rule `item`."""
    def rule(value, errors, where):
        if not isinstance(value, list):
            errors.append(f"{where} must be a list")
            return None
        return [item(entry, errors, f"{where}[{i}]") for i, entry in enumerate(value)]
    return rule


def _scenario(value, errors, where):
    if value is not None and value not in SCENARIOS:
        errors.append(f"unknown scenario {value!r}; expected one of {', '.join(SCENARIOS)}")
    return value


def _times(value, errors, where):
    got = _VECTOR(value, errors, where)
    if got is not None and not (1 <= got.size <= MAX_TIMES and got[0] > 0
                                and np.all(np.diff(got) > 0)):
        errors.append(f"times must be 1 to {MAX_TIMES} strictly increasing numbers > 0")
    return None if got is None else tuple(got.tolist())


def _jumps(atoms) -> AtomicJumps | None:
    """The jump measure of parsed atoms, (point, rate) pairs; None for none."""
    return AtomicJumps(*zip(*atoms)) if atoms else None


_ATOMS = _list(_object(lambda point, rate: (point, rate),
                       {"point": _VECTOR, "rate": _NUMBER},
                       ("point", "rate"), "{where} needs point and rate"))


def _law(value, errors, where):
    """Rule: a subordinate law, built by the row of FAMILIES its family names."""
    family = value.get("family") if isinstance(value, dict) else None
    if isinstance(family, str) and family in _LAWS:  # a list or object is unhashable
        return _LAWS[family]({k: v for k, v in value.items() if k != "family"},
                             errors, where)
    errors.append(f"{where}.family must be {_FAMILY_NAMES}")
    return None


# Each subordinate family: its constructor, and its keys, all needed, in
# argument order with their rules.
FAMILIES = {
    "brownian": (BrownianMotion, {"mu": _VECTOR, "sigma": _MATRIX}),
    "compound_poisson": (lambda atoms: CompoundPoisson(_jumps(atoms)), {"atoms": _ATOMS}),
    "stack": (IndependentStack, {"blocks": _list(_law)}),
}
_LAWS = {family: _object(make, rules, tuple(rules),
                         f"{{where}}: {family} needs {' and '.join(rules)}")
         for family, (make, rules) in FAMILIES.items()}
_FAMILY_NAMES = "{} or {}".format(", ".join(list(FAMILIES)[:-1]), list(FAMILIES)[-1])

# The keys of theta_grid and of the config, one rule each, in the order
# faults are listed; absent keys take the dataclasses' defaults.
GRID_RULES = {"size": _integer(1, MAX_ROWS), "scale": _POSITIVE, "grid_seed": _integer(0),
              "points": lambda value, errors, where: (
                  None if value is None else _MATRIX(value, errors, where))}
CONFIG_RULES = {
    "seed": _integer(0),
    "scenario": _scenario,
    "subordinator": _object(lambda drift, atoms=(): SubordinatorSpec(drift, _jumps(atoms)),
                            {"drift": _VECTOR, "atoms": _ATOMS},
                            ("drift",), "{where}.drift required"),
    "subordinate": _law,
    "theta_grid": _object(ThetaGridSpec, GRID_RULES),
    "times": _times,
    "replicates": _integer(0, MAX_ROWS),
    "k": _POSITIVE,
}
_CONFIG = _object(ExperimentConfig, CONFIG_RULES, ("seed",), "seed required")


def _reject_constant(name: str):
    raise ConfigError([f"not valid JSON: {name} is not a finite number"])


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config (strict schema). The
    `overrides` (the CLI's --seed and --replicates) replace those keys
    before validation, so the same rules check them."""
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    errors: list[str] = []
    config = _CONFIG({**raw, **(overrides or {})}, errors, "")
    if errors:
        raise ConfigError(errors)

    T, X = config.processes()
    if T.dim != X.dim:
        raise ConfigError([f"subordinator dimension {T.dim} differs from "
                           f"subordinate dimension {X.dim}"])
    grid = config.theta_grid
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
