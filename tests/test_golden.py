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
# T has drift and jumps of unequal coordinates, so strong and weak draws
# differ; 9000 rows at three times: two chunks, from streams 0 and 1
C3_TIMES = {"seed": 7, "scenario": "stacked_C3", "replicates": 9000, "horizon": 3.0,
            "times": [1.0, 2.0, 3.0]}

# name -> (argv after the config, config, output files under --out)
CASES = {
    "exponent": (["exponent"], {**C1, "theta_grid": {"size": 64}},
                 ["exponent.csv"]),
    # 9000 rows: two chunks, from streams 0 and 1
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
    "time1_strong": "328377bfff75bddaacdc298669ea8d331d49dab7a34de423b2278d2e48fca273",
    "time1_weak": "31ed9895eeacadf0909c4790fce1f85433c298208c6bf69176e63b9f1b90bf68",
    "times_strong": "1cbf95659749fe89368bb82fd2c347c3090839afb4d79d6f063816c8dc001314",
    "times_weak": "1c68a71e4c9a2661faedbc86446bdd6486358d64a95701fa05120f0829ec5863",
    "verify_deterministic":
        "6d1403868b9ca1aa24114adeef00f8007bcd5f524fb00ef7a098b593ecfcda31",
    "verify_stacked_C3":
        "e5718b5f3f3fbaf9043e476a801f8ca7731e2924110fe935feff2383eec86d1d",
    "verify_finite_activity_C1":
        "1f8f22a40237d08d2fcff9a781aba44fa0d952dea8d5410462bf1bd9d84700cf",
    "verify_negative_control":
        "c220ec8ae45f4e2df2c927c793ed799c16b0a56328927e197d2314e8e09336ed",
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
