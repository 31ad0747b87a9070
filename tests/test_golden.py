"""Golden outputs: SHA-256 digests of CLI outputs for small fixed configs.

A change that moves a single draw or a single digit of any output fails
here, so it has to say so and record new digests. Generator streams are
promised only per numpy version, so the digests are checked only under
the numpy version they were recorded with.
"""
import hashlib
import json

import numpy as np
import pytest

from weaksub.cli import main

NUMPY_VERSION = "2.4.6"

C1 = {"seed": 7, "scenario": "finite_activity_C1"}
# T has drift and jumps of unequal coordinates, so strong and weak paths differ
C3_PATHS = {"seed": 7, "scenario": "stacked_C3", "replicates": 3, "horizon": 3.0,
            "mode": "paths"}

# name -> (argv after the config, config, output files under --out)
CASES = {
    "exponent": (["exponent"], {**C1, "theta_grid": {"size": 64}},
                 ["exponent.csv"]),
    # 9000 rows: two chunks, from streams 0 and 1
    "time1_weak": (["simulate", "--kind", "weak"], {**C1, "replicates": 9000},
                   ["samples.csv"]),
    "time1_strong": (["simulate", "--kind", "strong"], {**C1, "replicates": 9000},
                     ["samples.csv"]),
    "paths_weak": (["simulate", "--kind", "weak"], C3_PATHS,
                   [f"paths/rep_{r:06d}.csv" for r in range(3)]),
    "paths_strong": (["simulate", "--kind", "strong"], C3_PATHS,
                     [f"paths/rep_{r:06d}.csv" for r in range(3)]),
    "verify_deterministic": (["verify"], {"seed": 7, "scenario": "deterministic",
                                          "replicates": 2000}, ["report.json"]),
    "verify_stacked_C3": (["verify"], {"seed": 7, "scenario": "stacked_C3",
                                       "replicates": 2000}, ["report.json"]),
}

DIGESTS = {
    "exponent": "69411f933567c6674c8bdb18ed5e726086f240044b8a65ffd0c084f394704a87",
    "paths_strong": "51a64147f96282316a79b74609afeac6c64235d214f0b0848acc91550d5fc19d",
    "paths_weak": "a52dcb0b649c3801ff3a35e382e088a268ad67cc8cdacb615d521c7613416943",
    "time1_strong": "328377bfff75bddaacdc298669ea8d331d49dab7a34de423b2278d2e48fca273",
    "time1_weak": "31ed9895eeacadf0909c4790fce1f85433c298208c6bf69176e63b9f1b90bf68",
    "verify_deterministic":
        "091edf7b950dcd0e41271ed4d663cf9df4a4c02efef64fa30d02955557ea04c0",
    "verify_stacked_C3":
        "36545988004766e3ba3b27de360159bd3930b43e896a99c8d9572211b4abe18a",
}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests were recorded with numpy {NUMPY_VERSION}, "
                           "and Generator streams are promised only per version")
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
