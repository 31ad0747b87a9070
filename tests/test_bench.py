"""The benchmark's workloads still run against the package: round 0 of
every operation of each workload passes its own output check, and the
set-up probe reads each workload's round-0 configs. The workload module
is imported from bench/ and only read."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SEED = 1  # bench/run.py's default seed
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    path = BENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", ["verify", "exponent", "prm"])
def test_round_0_passes_its_checks(tmp_path, workload):
    cfg_paths = workloads.write_configs(workload, SEED, tmp_path)
    ops = workloads.make_ops(workload, SEED, cfg_paths, tmp_path)
    assert ops
    for op in ops:
        assert op.check(op.run(op.inputs(0))) is None, op.name


@pytest.mark.parametrize("workload", ["verify", "exponent", "prm"])
def test_probe_prints_its_speed_record(tmp_path, workload):
    # as bench/run.py runs it: a fresh interpreter from the repository root
    cfg_paths = workloads.write_configs(workload, SEED, tmp_path)
    done = subprocess.run([sys.executable, str(BENCH / "probe.py"),
                           *map(str, cfg_paths.values())],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert set(record) == {"sampling_s", "speed"}
    assert record["sampling_s"] >= 0 and record["speed"] > 0
