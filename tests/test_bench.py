"""The benchmark's workloads still run against the package: round 0 of
every operation of each workload passes its own output check. The
workload module is imported from bench/ and only read."""
import importlib.util
import sys
from pathlib import Path

import pytest

SEED = 1  # bench/run.py's default seed


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
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
