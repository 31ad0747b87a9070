"""weaksub benchmark: runs one workload (or all of them) in this process,
checks every operation's output and prints the metrics by name and unit.

    python3 bench/run.py --workload {verify,exponent,prm,all}
                         [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 the last line of stdout is a JSON object with the end-to-
end metrics; with --trace 1 it holds the per-layer metrics of a traced
run. See bench/README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from speed import SpeedMeter
from workloads import Op

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5      # set-up probes per run; setup_s is their median
SETUP_TIMEOUT_S = 120


@dataclass
class Round:
    wall_s: float = 0.0     # time inside the program's calls
    attempted: int = 0
    bytes_written: int = 0
    op_wall_s: dict[str, float] = field(default_factory=dict)
    op_speed: dict[str, float] = field(default_factory=dict)  # Timing.speed
    # user + system CPU time of this process and its children
    op_cpu_s: dict[str, float] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)


def run_round(ops: list[Op], index: int, meter: SpeedMeter,
              tracer=None) -> Round:
    """Run every operation once on the inputs of round `index`; only the
    calls into weaksub are timed, and a raised exception is a failed
    operation."""
    rnd = Round()
    for op in ops:
        if op.out is not None:
            shutil.rmtree(op.out, ignore_errors=True)
        args = op.inputs(index)
        rnd.attempted += 1
        error = None
        if tracer is not None:
            tracer.active = True
        with meter.timed() as timing:
            try:
                result = op.run(args)
            except Exception as exc:  # a crash is a failure, not an abort
                error = f"raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.active = False
        rnd.wall_s += timing.wall_s
        rnd.op_wall_s[op.name] = timing.wall_s
        rnd.op_cpu_s[op.name] = timing.cpu_s
        rnd.op_speed[op.name] = timing.speed
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"output check raised {type(exc).__name__}: {exc}"
        if op.out is not None:
            rnd.bytes_written += sum(p.stat().st_size
                                     for p in op.out.rglob("*") if p.is_file())
            shutil.rmtree(op.out, ignore_errors=True)
        if error is not None:
            rnd.failures.append((op.name, error))
    return rnd


def run_rounds(ops: list[Op], seconds: float, meter: SpeedMeter) -> list[Round]:
    """Whole rounds until `seconds` have passed; at least one."""
    rounds, start = [], perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(run_round(ops, len(rounds), meter))
    return rounds


def measure_setup(cfg_paths: dict[str, Path]) -> list[tuple[float, float]]:
    """Fresh interpreters running bench/probe.py, one at a time: the wall
    time of each, less the time of the speed samples it took, and the
    machine speed it measured."""
    argv = [sys.executable, str(Path(__file__).with_name("probe.py")),
            *map(str, cfg_paths.values())]
    runs = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        done = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        wall = perf_counter() - t0
        probe = json.loads(done.stdout.splitlines()[-1])
        runs.append((wall - probe["sampling_s"], probe["speed"]))
    return runs


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fp:
            libs = {line.split()[-1] for line in fp if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
            "git_commit": _git_commit()}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def lowest_decile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def end_to_end_metrics(ops: list[Op], rounds: list[Round],
                       setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Times are in reference seconds: each measured time is multiplied
    by the machine speed while it ran, as the speed of a shared machine
    swings 1.5-2x for stretches longer than a run. A round's time is the
    sum over its operations of each operation's lowest-decile time across
    the run's rounds: other tenants only ever add time (bench/README.md).
    Set-up time is the median probe, as each probe measures its speed
    from dozens of samples while it runs. The second dict holds the same
    figures in plain seconds."""
    def per_round(times: str, scaled: bool) -> float:
        return sum(lowest_decile([getattr(r, times)[op.name]
                                  * (r.op_speed[op.name] if scaled else 1.0)
                                  for r in rounds]) for op in ops)

    units = sum(op.units for op in ops)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(wall * speed for wall, speed in setup), "s"),
        "work_per_s": (units / per_round("op_wall_s", True), "1/s"),
        "cpu_s": (per_round("op_cpu_s", True), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    plain = {
        "setup_s": (statistics.median(wall for wall, _ in setup), "s"),
        "work_per_s": (units / per_round("op_wall_s", False), "1/s"),
        "cpu_s": (per_round("op_cpu_s", False), "s"),
    }
    return metrics, plain


def layer_metrics(tracer, traced: list[Round], untraced: list[Round]) -> dict:
    """Per-layer metrics of the traced rounds. Times, counts and bytes are
    per round; `_us` metrics are per call; rates are per second of the
    named function's inclusive time."""
    from spans import LAYERS

    k = len(traced)

    def named(*names):
        return tracer.total(lambda n: n in names)

    exponent = tracer.total(lambda n: n.startswith("levy.") and (
        n.endswith(".exponent") or n in ("levy.exponent_bm", "levy.exponent_cpp",
                                         "levy.kac_stack_exponent")))
    sample = tracer.total(lambda n: n.startswith("levy.") and n.endswith(".sample"))
    laplace = named("levy.laplace_exponent")
    vte = named("ordered_time.vector_time_exponent")
    ssa = named("ordered_time.sample_subordinate_at")
    subordinator = named("subordination.simulate_subordinator")
    strong = named("subordination.simulate_strong")
    weak = named("subordination.simulate_weak")
    weak_exp = named("subordination.weak_exponent")
    ecf_grid = named("verify.ecf_grid")
    marked = named("prm.marked_laplace_check")
    used = [tracer.by_parent.get((sim, "verify.joint_time_samples"), [0, 0.0])
            for sim in ("subordination.simulate_strong", "subordination.simulate_weak")]
    traced_s = sum(r.wall_s for r in traced)
    untraced_s = sum(r.wall_s for r in untraced)

    m = {
        "cli.parse_config_s": (named("cli.parse_config").incl_s / k, "s"),
        "cli.command_self_s": (named("cli.run_verify", "cli.run_simulate",
                                     "cli.run_exponent").self_s / k, "s"),
        "cli.bytes_written": (sum(r.bytes_written for r in traced) / k, "B"),
        "levy.exponent_calls": (exponent.outer_calls / k, "count"),
        "levy.exponent_self_us": (1e6 * _ratio(exponent.self_s, exponent.outer_calls), "us"),
        "levy.sample_calls": (sample.outer_calls / k, "count"),
        "levy.sample_rows_per_call": (_ratio(sample.rows, sample.outer_calls), "count"),
        "levy.sample_self_s": (sample.self_s / k, "s"),
        "levy.laplace_exponent_calls": (laplace.calls / k, "count"),
        "levy.laplace_exponent_us": (1e6 * _ratio(laplace.incl_s, laplace.calls), "us"),
        "ordered_time.vector_time_exponent_calls": (vte.calls / k, "count"),
        "ordered_time.vector_time_exponent_self_us": (1e6 * _ratio(vte.self_s, vte.calls), "us"),
        "ordered_time.sample_subordinate_at_calls": (ssa.calls / k, "count"),
        "ordered_time.sample_subordinate_at_rows_per_call": (_ratio(ssa.rows, ssa.outer_calls), "count"),
        "ordered_time.sample_subordinate_at_self_s": (ssa.self_s / k, "s"),
        "subordination.simulate_subordinator_calls": (subordinator.calls / k, "count"),
        "subordination.simulate_subordinator_self_s": (subordinator.self_s / k, "s"),
        "subordination.simulate_strong_self_s": (strong.self_s / k, "s"),
        "subordination.simulate_weak_self_s": (weak.self_s / k, "s"),
        "subordination.strong_paths_per_s": (_ratio(strong.calls, strong.incl_s), "1/s"),
        "subordination.weak_paths_per_s": (_ratio(weak.calls, weak.incl_s), "1/s"),
        "subordination.rows_used_frac": (_ratio(sum(c for c, _ in used),
                                                sum(r for _, r in used)), "frac"),
        "subordination.weak_exponent_calls": (weak_exp.calls / k, "count"),
        "subordination.weak_exponent_self_us": (1e6 * _ratio(weak_exp.self_s, weak_exp.calls), "us"),
        "verify.joint_time_samples_s": (named("verify.joint_time_samples").incl_s / k, "s"),
        "verify.ecf_grid_calls": (ecf_grid.calls / k, "count"),
        "verify.ecf_grid_s": (ecf_grid.incl_s / k, "s"),
        "verify.ecf_sample_thetas_per_s": (_ratio(ecf_grid.rows, ecf_grid.incl_s), "1/s"),
        "verify.cf_compare_self_s": (named("verify.cf_compare").self_s / k, "s"),
        "prm.laplace_functional_mc_s": (named("prm.laplace_functional_mc").incl_s / k, "s"),
        "prm.marked_laplace_check_s": (marked.incl_s / k, "s"),
        "prm.marked_reps_per_s": (_ratio(marked.rows, marked.incl_s), "1/s"),
    }
    for layer in LAYERS:
        st = tracer.total(lambda n: n.startswith(layer + "."))
        m[f"{layer}.self_s"] = (st.self_s / k, "s")
        m[f"{layer}.errors"] = (st.errors / k, "count")
    m["trace.spans"] = (tracer.n_spans / k, "count")
    m["trace.overhead_s"] = ((traced_s - untraced_s) / k, "s")
    m["trace.overhead_frac"] = (_ratio(traced_s - untraced_s, untraced_s), "frac")
    return m


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = OUT / "work" / f"{workload}-{os.getpid()}"
    # a traced run takes no samples inside the calls, so that none land
    # in a span
    with SpeedMeter(during=not trace) as meter:
        try:
            cfg_paths = workloads.write_configs(workload, seed, work_dir)
            setup = [] if trace else measure_setup(cfg_paths)
            plain = {}

            import weaksub

            if Path(weaksub.__file__).resolve().parent != SRC / "weaksub":
                raise RuntimeError(f"weaksub imported from {weaksub.__file__}, "
                                   f"not from {SRC}")
            ops = workloads.make_ops(workload, seed, cfg_paths, work_dir)
            if trace:
                from spans import Tracer

                untraced = run_rounds(ops, seconds / 2, meter)
                tracer = Tracer()
                tracer.install()
                try:
                    rounds = [run_round(ops, i, meter, tracer)
                              for i in range(len(untraced))]
                finally:
                    tracer.uninstall()
                metrics = layer_metrics(tracer, rounds, untraced)
                tracer.save(OUT / "traces" / f"{workload}.npz")
                rounds = untraced + rounds
            else:
                rounds = run_rounds(ops, seconds, meter)
                metrics, plain = end_to_end_metrics(ops, rounds, setup)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    op_walls = {op.name: [r.op_wall_s[op.name] for r in rounds] for op in ops}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "unit": workloads.UNITS[workload],
        "sizes": {"rounds": len(rounds), "ops_per_round": len(ops),
                  "units_per_round": sum(op.units for op in ops),
                  "ops": {op.name: op.units for op in ops}},
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": [{"op": name, "reason": reason} for name, reason in failures],
        "setup_runs": [{"wall_s": wall, "speed": speed} for wall, speed in setup],
        "machine_speed": [r.op_speed for r in rounds],
        "op_median_s": {name: statistics.median(v) for name, v in op_walls.items()},
        "round_wall_s": [r.wall_s for r in rounds],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "plain_seconds_metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in plain.items()},
        "environment": environment(),
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'}, "
          f"{result['sizes']['rounds']} rounds; work unit: {result['unit']})")
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    for name, metric in result["plain_seconds_metrics"].items():
        print(f"  {name + ' (plain seconds)':48s} {metric['value']:.6g} "
              f"{metric['unit']}")
    print(f"  {'fail_frac':48s} {result['fail_frac']:.6g} frac "
          f"({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"  FAILED {failure['op']}: {failure['reason']}")
    print("result " + json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weaksub" / "__init__.py").is_file():
        print(f"error: no weaksub package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        report(result)
        results_dir = OUT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1))

    single = len(results) == 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(k if single else f"{r['workload']}.{k}"): v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
