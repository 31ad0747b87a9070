"""Golden outputs: SHA-256 digests of CLI outputs for small fixed configs
and of one `ecf_grid`, and the bits of two `weaksub.prm` estimates, which
no CLI command writes.

A change that moves a single draw or a single digit of any output fails
here, so it has to say so and record new digests. Generator streams are
promised only per numpy version, so the digests are checked only under
the numpy version they were recorded with. They also assume that
version's OpenBLAS running an FMA kernel (Haswell, SkylakeX or Zen):
under OPENBLAS_CORETYPE=Prescott the ECF bytes, the `verify` digests and
the `simulate` digests of C1, whose correlated Brownian draws go through
BLAS in BrownianMotion.sample, change.
"""
import hashlib
import json

import numpy as np
import pytest

import weaksub as ws
from weaksub import prm
from weaksub.cli import main

# CI runs the `bits` tests again on one OpenBLAS thread and on one CPU
pytestmark = pytest.mark.bits

NUMPY_VERSION = "2.4.6"

C1 = {"seed": 7, "scenario": "finite_activity_C1"}
# T has drift and jumps of unequal coordinates, so strong and weak draws
# differ; 9000 rows at three times: two sampler batches, from one stream
C3_TIMES = {"seed": 7, "scenario": "stacked_C3", "replicates": 9000,
            "times": [1.0, 2.0, 3.0]}

# name -> (argv after the config, config, output files under --out)
CASES = {
    "exponent": (["exponent"], {**C1, "theta_grid": {"size": 64}},
                 ["exponent.csv"]),
    # 9000 rows: two sampler batches, from one stream
    "time1_weak": (["simulate", "--kind", "weak"], {**C1, "replicates": 9000},
                   ["samples.csv"]),
    "time1_strong": (["simulate", "--kind", "strong"], {**C1, "replicates": 9000},
                     ["samples.csv"]),
    "times_weak": (["simulate", "--kind", "weak"], C3_TIMES, ["samples.csv"]),
    "times_strong": (["simulate", "--kind", "strong"], C3_TIMES, ["samples.csv"]),
    "verify_deterministic": (["verify"], {"seed": 7, "scenario": "deterministic",
                                          "replicates": 2000}, ["report.json"]),
    "verify_stacked_C3": (["verify"], {"seed": 7, "scenario": "stacked_C3",
                                       "replicates": 2000}, ["report.json"]),
    "verify_finite_activity_C1": (["verify"], {**C1, "replicates": 2000},
                                  ["report.json"]),
    # at 2000 replicates the expected mismatch is too small to show, so the
    # suite fails (exit 1); the report is pinned all the same
    "verify_negative_control": (["verify"], {"seed": 7, "scenario": "negative_control",
                                             "replicates": 2000}, ["report.json"]),
}

DIGESTS = {
    "exponent": "69411f933567c6674c8bdb18ed5e726086f240044b8a65ffd0c084f394704a87",
    "time1_strong": "e4e0aeeb66604c549348ae87dc1c85cd35ebee373071effc83243da94a70462e",
    "time1_weak": "133ecf2315ef415f7535d5cc4868b05a263a5684a62aaa4fe7d7aa73e2418382",
    "times_strong": "847c81c1a4e3e2cd34fdac3ad75e65393f1081096525eb675b1427987ecce79d",
    "times_weak": "62b91e52a7bb71768d67d8077dc33b89587c22b483c1e8be82a69d4877213f21",
    "verify_deterministic":
        "5f9518551a02639f7e47f28e1af6aa48a8f648779aff1ed88ac984d577da8f64",
    "verify_stacked_C3":
        "fa778cf45af71e13b64d9d42afb319d53c46d5215f05779687b5b789640008d7",
    "verify_finite_activity_C1":
        "70fc55ade0b45208f02dd561dc7704db721b76c332071925fe6fed464050a8d7",
    "verify_negative_control":
        "a796ed0de2768821bcc2522384bc7c41d10c694eeb4aaeaffa16cc04ba4615d4",
}


same_numpy = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests were recorded with numpy {NUMPY_VERSION}, "
           "and Generator streams are promised only per version")


@same_numpy
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_digest(tmp_path, case):
    argv, config, files = CASES[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    main([*argv, "--config", str(cfg), "--out", str(out), "--quiet"])
    digest = hashlib.sha256()
    for name in files:
        digest.update((out / name).read_bytes())
    assert digest.hexdigest() == DIGESTS[case]


@same_numpy
def test_ecf_grid_bytes():
    # 12000 rows on the default grid: three blocks of the cosine and sine
    # tables, the last one partial
    rng = np.random.default_rng(7)
    ecf = ws.ecf_grid(2.0 * rng.standard_normal((12_000, 4)), ws.ThetaGridSpec().build(4))
    assert hashlib.sha256(ecf.tobytes()).hexdigest() == (
        "8f41007aebe1e24ba70051bc3d99ae8cab63282a44df29bb330eea2efecb27ae")


@same_numpy
def test_prm_estimate_bits():
    # an A4-shaped Campbell estimate over 2e4 points (three blocks) and an
    # A5-shaped marked check over 1e4 jumps per side (two blocks)
    est, se = prm.laplace_functional_mc(2.0, prm.PointMassMark((0.0,)), 1.0,
                                        prm.ConstantFunctional(0.7), 10**4,
                                        np.random.default_rng(7))
    assert [est.hex(), se.hex()] == ["0x1.7600851a9553bp-2", "0x1.859a2ebf6c3e6p-9"]

    def f(time, jump, mark):
        return 0.9 if time <= 0.8 and np.all(np.abs(mark) <= 1.0) else 0.0

    T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
    X = ws.BrownianMotion([0, 0], [[1, 0.5], [0.5, 1]])
    r = prm.marked_laplace_check(T, X, f, horizon=1.0, reps=10**4,
                                 rng=np.random.default_rng(7), inner=2)
    assert [v.hex() for v in (r.lhs, r.lhs_se, r.rhs, r.rhs_se)] == [
        "0x1.93847d9b4bd00p-1", "0x1.928943cb100b4p-9",
        "0x1.93c24920d4539p-1", "0x1.599aea3e852fcp-9"]
