import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

import weaksub
from weaksub.cli import (
    CONFIG_RULES,
    FAMILIES,
    GRID_RULES,
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    run_exponent,
    run_simulate,
)
from weaksub.subordination import TIME_T_CHUNK, weak_exponent
from weaksub.verify import SCENARIOS, ThetaGridSpec

SRC = str(Path(weaksub.__file__).resolve().parents[1])

MINIMAL = {"seed": 7, "scenario": "deterministic"}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL))
        assert cfg.seed == 7
        assert cfg.times == (1.0,)
        assert cfg.replicates == 100_000
        assert cfg.theta_grid.size == 16

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed required"):
            parse_config(json.dumps({"scenario": "deterministic"}))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(json.dumps({**MINIMAL, "typo_field": 1}))

    def test_negative_drift_orthant_violation(self):
        obj = {"seed": 1, "subordinator": {"drift": [-1.0, 0.0]},
               "subordinate": {"family": "brownian", "mu": [0, 0],
                               "sigma": [[1, 0], [0, 1]]}}
        with pytest.raises(ConfigError, match="orthant violation"):
            parse_config(json.dumps(obj))

    def test_full_custom_spec(self):
        obj = {"seed": 3,
               "subordinator": {"drift": [0.5, 0.5],
                                "atoms": [{"point": [1, 2], "rate": 1.0}]},
               "subordinate": {"family": "stack", "blocks": [
                   {"family": "brownian", "mu": [0], "sigma": [[1]]},
                   {"family": "compound_poisson",
                    "atoms": [{"point": [1], "rate": 0.5}]}]},
               "times": [2.0], "replicates": 500,
               "theta_grid": {"size": 8, "scale": 0.3}}
        cfg = parse_config(json.dumps(obj))
        T, X = cfg.processes()
        assert T.dim == 2 and X.dim == 2
        assert cfg.theta_grid.size == 8

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{seed: nope")

    def test_bad_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config(json.dumps({"seed": 1, "scenario": "mystery"}))

    # the parser fills the dataclasses from its tables, so a field without a
    # rule, or a rule without a field, would be a TypeError at run time
    @pytest.mark.parametrize("rules, cls", [(CONFIG_RULES, ExperimentConfig),
                                            (GRID_RULES, ThetaGridSpec)])
    def test_rule_tables_name_every_field(self, rules, cls):
        assert sorted(rules) == sorted(f.name for f in dataclasses.fields(cls))


class TestRunExponent:
    def test_theta_zero_row(self, tmp_path):
        obj = {**MINIMAL, "theta_grid": {"points": [[0, 0, 0, 0]]}}
        cfg = parse_config(json.dumps(obj))
        out = run_exponent(cfg, tmp_path, [])
        header, row = out.read_text().strip().split("\n")
        assert header.endswith("re,im,se")
        fields = row.split(",")
        assert float(fields[4]) == 0.0 and float(fields[5]) == 0.0
        assert fields[6] == ""  # exact value, no SE

    def test_single_atom_value(self, tmp_path):
        obj = {"seed": 1,
               "subordinator": {"drift": [0, 0],
                                "atoms": [{"point": [1, 1], "rate": 1.0}]},
               "subordinate": {"family": "brownian", "mu": [0, 0],
                               "sigma": [[1, 0], [0, 1]]},
               "theta_grid": {"points": [[0, 0, 1, 1]]}}
        cfg = parse_config(json.dumps(obj))
        out = run_exponent(cfg, tmp_path, [])
        row = out.read_text().strip().split("\n")[1].split(",")
        assert float(row[4]) == pytest.approx(np.exp(-1) - 1, abs=1e-12)
        assert float(row[5]) == pytest.approx(0.0, abs=1e-12)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(json.dumps(MINIMAL))
        a = run_exponent(cfg, tmp_path, []).read_bytes()
        b = run_exponent(cfg, tmp_path, []).read_bytes()
        assert a == b

    def test_non_finite_exponent_exit_2_without_table(self, tmp_path, capsys):
        # the first row is fine, the second overflows the exact exponent
        cfg = write_config(tmp_path, {**MINIMAL, "theta_grid": {
            "points": [[0, 0, 1, 1], [0, 0, 1e200, 1e200]]}})
        code = main(["exponent", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid config"
        assert "not finite at 1 of 2" in err["details"][0]
        assert not (tmp_path / "exponent.csv").exists()

    def test_blocks_write_the_whole_table(self, tmp_path):
        # three blocks of TIME_T_CHUNK rows, the last one partial, write the
        # lines of the whole table formatted at once
        size = 2 * TIME_T_CHUNK + 5
        cfg = parse_config(json.dumps({**MINIMAL, "theta_grid": {"size": size}}))
        T, X = cfg.processes()
        grid = cfg.theta_grid.build(2 * T.dim)
        values = weak_exponent(T, X, grid[:, :T.dim], grid[:, T.dim:])
        table = np.column_stack([grid, values.real, values.imag]).tolist()
        lines = run_exponent(cfg, tmp_path, []).read_text().splitlines()
        assert lines[1:] == [",".join(map(repr, row)) + "," for row in table]

    def test_memory_grows_with_the_grid_not_the_table(self, tmp_path):
        # the grid and its exponent values take 48 B per row on stacked_C3,
        # a whole table converted to Python lists about 300 B per row
        def peak(size):
            cfg = parse_config(json.dumps({"seed": 1, "scenario": "stacked_C3",
                                           "theta_grid": {"size": size}}))
            tracemalloc.start()
            try:
                run_exponent(cfg, tmp_path, [])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3 * 10**4) - peak(10**4) <= 128 * 2 * 10**4


class TestRunSimulate:
    def test_zero_subordinate_zero_columns(self, tmp_path):
        obj = {"seed": 2, "subordinator": {"drift": [1.0, 1.0]},
               "subordinate": {"family": "brownian", "mu": [0, 0],
                               "sigma": [[0, 0], [0, 0]]},
               "replicates": 50}
        cfg = parse_config(json.dumps(obj))
        out = run_simulate(cfg, tmp_path, [], kind="strong")
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 50
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            assert vals[2:] == [0.0, 0.0]

    def test_zero_replicates_header_only(self, tmp_path):
        cfg = parse_config(json.dumps({**MINIMAL, "replicates": 0}))
        out = run_simulate(cfg, tmp_path, [])
        assert out.read_text().strip() == "T_1,T_2,Z_1,Z_2"

    def test_identity_time_change_reproduces_subordinate(self, tmp_path):
        import weaksub as ws
        obj = {"seed": 4, "subordinator": {"drift": [1.0, 1.0]},
               "subordinate": {"family": "brownian", "mu": [0, 0],
                               "sigma": [[1, 0.5], [0.5, 1]]},
               "replicates": 4000}
        cfg = parse_config(json.dumps(obj))
        out = run_simulate(cfg, tmp_path, [], kind="strong")
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        grid = ws.ThetaGridSpec().build(2)
        rep = ws.cf_compare(
            data[:, 2:],
            np.exp(ws.BrownianMotion([0, 0], [[1, 0.5], [0.5, 1]]).exponent(grid)),
            grid)
        assert rep.passed, rep.summary()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(json.dumps({**MINIMAL, "replicates": 20}))
        a = run_simulate(cfg, tmp_path, []).read_bytes()
        b = run_simulate(cfg, tmp_path, []).read_bytes()
        assert a == b

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    @pytest.mark.parametrize("times", [[1.0], [0.5, 1.0, 2.0]], ids=["one", "three"])
    def test_samples_are_one_library_call(self, tmp_path, times, kind):
        # more rows than a sampler batch, all from the one simulate stream
        import weaksub as ws
        from weaksub.cli import stream
        from weaksub.subordination import TIME_T_CHUNK
        n = TIME_T_CHUNK + 5
        cfg = parse_config(json.dumps({"seed": 7, "scenario": "stacked_C3",
                                       "replicates": n, "times": times}))
        out = run_simulate(cfg, tmp_path, [], kind=kind)
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        T, X = cfg.processes()
        sample = {"weak": ws.simulate_weak_at, "strong": ws.simulate_strong_at}[kind]
        expected = sample(T, X, times, n, stream(7, "simulate"))
        assert np.array_equal(data, expected.reshape(n, -1))

    def test_times_columns(self, tmp_path):
        import weaksub as ws
        from weaksub.cli import stream
        cfg = parse_config(json.dumps({**MINIMAL, "replicates": 3,
                                       "times": [0.5, 2.0]}))
        out = run_simulate(cfg, tmp_path, [])
        header, *rows = out.read_text().strip().split("\n")
        assert header == "T_1,T_2,Z_1,Z_2,T_1@2,T_2@2,Z_1@2,Z_2@2"
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        T, X = cfg.processes()
        expected = ws.simulate_weak_at(T, X, [0.5, 2.0], 3, stream(7, "simulate"))
        assert np.array_equal(data, expected.reshape(3, 8))

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_times_rerun_byte_identical(self, tmp_path, kind):
        cfg = parse_config(json.dumps({"seed": 5, "scenario": "finite_activity_C1",
                                       "replicates": 4,
                                       "times": [1.0, 2.0, 3.0]}))
        a = run_simulate(cfg, tmp_path, [], kind).read_bytes()
        b = run_simulate(cfg, tmp_path, [], kind).read_bytes()
        assert len(a.splitlines()) == 5 and a == b


BROWNIAN_3D = {"family": "brownian", "mu": [0, 0, 0],
               "sigma": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
CPP_2D = {"family": "compound_poisson", "atoms": [{"point": [1.0, 0.0], "rate": 1.0}]}
BROWNIAN_1D = {"family": "brownian", "mu": [0], "sigma": [[1]]}
# a case's "horizon" is the last of its times
BAD_CONFIGS = {
    "seed_bool": {**MINIMAL, "seed": True},
    "seed_negative": {**MINIMAL, "seed": -1},
    "k_negative": {**MINIMAL, "k": -1},
    "k_text": {**MINIMAL, "k": "four"},
    # finite and > 0, but k sqrt(2 / replicates) is subnormal or 0
    "k_1e-310": {**MINIMAL, "k": 1e-310},
    "k_5e-324": {**MINIMAL, "k": 5e-324},
    "horizon_text": {**MINIMAL, "times": "abc"},
    "replicates_text": {**MINIMAL, "replicates": "many"},
    "size_text": {**MINIMAL, "theta_grid": {"size": "big"}},
    "scale_text": {**MINIMAL, "theta_grid": {"scale": "wide"}},
    "size_zero": {**MINIMAL, "theta_grid": {"size": 0}},
    "grid_not_object": {**MINIMAL, "theta_grid": 16},
    "points_wrong_columns": {**MINIMAL, "theta_grid": {"points": [[0, 0, 1]]}},
    "drift_text": {**MINIMAL, "subordinator": {"drift": "fast"}},
    "rate_not_scalar": {**MINIMAL, "subordinator": {
        "drift": [0, 0], "atoms": [{"point": [1, 1], "rate": [1, 2]}]}},
    "dimension_mismatch": {**MINIMAL, "subordinate": BROWNIAN_3D},
    # verify compares at t = 1 with a CLT bound that needs N >= 100
    "replicates_below_100": {**MINIMAL, "replicates": 99},
    "horizon_not_1": {**MINIMAL, "times": [5]},
    # the JSON literals NaN, Infinity and -Infinity are not numbers here
    "points_nan": {**MINIMAL, "theta_grid": {"points": [[0, float("nan"), 0, 0]]}},
    "drift_infinity": {**MINIMAL, "subordinator": {"drift": [float("inf"), 0.0]}},
    "sigma_nan": {**MINIMAL, "subordinate": {
        "family": "brownian", "mu": [0, 0], "sigma": [[1, float("nan")], [0, 1]]}},
    "mu_minus_infinity": {**MINIMAL, "subordinate": {
        "family": "brownian", "mu": [float("-inf"), 0], "sigma": [[1, 0], [0, 1]]}},
    # objects where numbers or lists of numbers belong
    "points_object": {**MINIMAL, "theta_grid": {"points": {}}},
    "mu_object": {**MINIMAL, "subordinate": {
        "family": "brownian", "mu": {}, "sigma": [[1, 0], [0, 1]]}},
    "point_object": {**MINIMAL, "subordinator": {
        "drift": [0, 0], "atoms": [{"point": {}, "rate": 1.0}]}},
    "points_unequal_length": {**MINIMAL, "subordinator": {
        "drift": [0, 0], "atoms": [{"point": [1, 0], "rate": 1.0},
                                   {"point": [1], "rate": 1.0}]}},
    # row counts above MAX_ROWS
    "size_too_large": {**MINIMAL, "theta_grid": {"size": 10**12}},
    "replicates_too_large": {**MINIMAL, "replicates": 10**12},
    # more than MAX_ROWS expected subordinator jumps per replicate
    "horizon_too_large": {"seed": 1, "scenario": "finite_activity_C1",
                          "times": [1e300], "replicates": 10},
    # more than MAX_ROWS expected subordinate jumps per replicate
    "subordinator_drift_too_large": {**MINIMAL, "subordinate": CPP_2D,
                                     "subordinator": {"drift": [1e300, 0.0]}},
    "subordinator_atom_too_large": {**MINIMAL, "subordinate": CPP_2D, "subordinator": {
        "drift": [0.0, 0.0], "atoms": [{"point": [1e300, 0.0], "rate": 1.0}]}},
    "subordinate_rate_1e300": {**MINIMAL, "subordinate": {
        "family": "compound_poisson", "atoms": [{"point": [1.0, 0.0], "rate": 1e300}]}},
    "subordinate_rate_1e9": {**MINIMAL, "subordinate": {
        "family": "compound_poisson", "atoms": [{"point": [1.0, 0.0], "rate": 1e9}]}},
    # the exact exponent overflows on this grid
    "grid_scale_1e200": {**MINIMAL, "theta_grid": {"scale": 1e200}},
    # atoms must be a list: only a missing key or [] means no atoms
    **{f"atoms_{name}": {**MINIMAL, "subordinator": {"drift": [1, 1], "atoms": atoms}}
       for name, atoms in [("0", 0), ("false", False), ("empty_text", ""),
                           ("empty_object", {}), ("null", None), ("5", 5)]},
    "sigma_ragged": {**MINIMAL, "subordinate": {
        "family": "brownian", "mu": [0, 0], "sigma": [[1, 0], [0]]}},
    # AtomicJumps and BrownianMotion reject these themselves
    "rate_negative": {**MINIMAL, "subordinator": {
        "drift": [0, 0], "atoms": [{"point": [1, 1], "rate": -1}]}},
    "point_zero": {**MINIMAL, "subordinator": {
        "drift": [0, 0], "atoms": [{"point": [0, 0], "rate": 1}]}},
    "sigma_2x3": {**MINIMAL, "subordinate": {
        "family": "brownian", "mu": [0, 0], "sigma": [[1, 0, 0], [0, 1, 0]]}},
    "sigma_not_psd": {**MINIMAL, "subordinate": {
        "family": "brownian", "mu": [0, 0], "sigma": [[1, 2], [2, 1]]}},
    # (sigma + sigma') / 2 is beyond the floating-point range
    "sigma_1e308": {**MINIMAL, "subordinate": {
        "family": "brownian", "mu": [0, 0], "sigma": [[1e308, 0], [0, 1e308]]}},
    # rates whose sum is beyond the floating-point range
    "atom_rates_sum_inf": {**MINIMAL, "subordinate": {
        "family": "compound_poisson", "atoms": [{"point": [1, 0], "rate": 1e308},
                                                {"point": [0, 1], "rate": 1e308}]}},
    # nested objects: a family, block, atom or subordinator that is wrong or
    # missing, and an unknown key at each level
    **{f"family_{name}": {**MINIMAL, "subordinate": {"family": family}}
       for name, family in [("unknown", "levy"), ("list", []), ("object", {})]},
    "brownian_no_sigma": {**MINIMAL, "subordinate": {"family": "brownian", "mu": [0, 0]}},
    **{f"stack_{name}": {**MINIMAL, "subordinate": {"family": "stack", **blocks}}
       for name, blocks in [("empty", {"blocks": []}), ("not_list", {"blocks": 5}),
                            ("no_blocks", {}),
                            ("bad_block", {"blocks": [BROWNIAN_1D, {"family": "levy"}]})]},
    "atom_not_obj": {**MINIMAL, "subordinator": {"drift": [0, 0], "atoms": [5]}},
    "atom_no_rate": {**MINIMAL, "subordinator": {"drift": [0, 0],
                                                 "atoms": [{"point": [1, 1]}]}},
    "sub_not_obj": {**MINIMAL, "subordinator": 5},
    "sub_no_drift": {**MINIMAL, "subordinator": {"atoms": [{"point": [1, 1], "rate": 1}]}},
    "unknown_in_config": {**MINIMAL, "typo_field": 1},
    "unknown_in_grid": {**MINIMAL, "theta_grid": {"sizes": 8}},
    "unknown_in_subordinator": {**MINIMAL, "subordinator": {"drift": [0, 0], "rates": 1}},
    "unknown_in_atom": {**MINIMAL, "subordinator": {
        "drift": [0, 0], "atoms": [{"point": [1, 1], "rate": 1, "mass": 2}]}},
    "unknown_in_brownian": {**MINIMAL, "subordinate": {
        "family": "brownian", "mu": [0, 0], "sigma": [[1, 0], [0, 1]], "atoms": []}},
    "unknown_in_compound_poisson": {**MINIMAL, "subordinate": {**CPP_2D, "mu": [0, 0]}},
    "unknown_in_stack": {**MINIMAL, "subordinate": {
        "family": "stack", "blocks": [BROWNIAN_1D, BROWNIAN_1D], "sigma": 1}},
    # every fault is listed, in the order of the schema's keys
    "many_faults": {"seed": -1, "extra": 1, "k": 0, "times": [2, 1], "replicates": -5,
                    "theta_grid": {"size": 0, "scale": "x", "grid_seed": -1,
                                   "points": 5, "extra": 1},
                    "subordinate": {"family": "brownian", "mu": "x", "sigma": "y"},
                    "subordinator": {"drift": "x", "x": 1}, "scenario": "mystery"},
}


FAMILY = "family must be brownian, compound_poisson or stack"
NOT_LIST = "must be a list of numbers"
NOT_MATRIX = "must be a list of lists of numbers"
SIZE = f"theta_grid.size must be an integer >= 1 and <= {10**7}"
REPLICATES = f"replicates must be an integer >= 0 and <= {10**7}"
SCENARIO = ("unknown scenario 'mystery'; expected one of deterministic, "
            "finite_activity_C1, stacked_C3, negative_control")
# The exact details of each BAD_CONFIGS case that parse_config rejects; the
# others parse, and fail only at run time.
PARSE_DETAILS = {
    "atom_no_rate": ["subordinator.atoms[0] needs point and rate"],
    "atom_not_obj": ["subordinator.atoms[0] must be a JSON object",
                     "subordinator.atoms[0] needs point and rate"],
    "atom_rates_sum_inf": ["subordinate: jump rates must sum to a finite total mass"],
    **{f"atoms_{name}": ["subordinator.atoms must be a list"]
       for name in ("0", "5", "empty_object", "empty_text", "false", "null")},
    "brownian_no_sigma": ["subordinate: brownian needs mu and sigma"],
    "dimension_mismatch": ["subordinator dimension 2 differs from subordinate dimension 3"],
    "drift_infinity": ["not valid JSON: Infinity is not a finite number"],
    "drift_text": [f"subordinator.drift {NOT_LIST}"],
    "family_list": [f"subordinate.{FAMILY}"],
    "family_object": [f"subordinate.{FAMILY}"],
    "family_unknown": [f"subordinate.{FAMILY}"],
    "grid_not_object": ["theta_grid must be a JSON object"],
    "horizon_text": [f"times {NOT_LIST}"],
    "k_negative": ["k must be a finite number > 0"],
    "k_text": ["k must be a finite number > 0"],
    "many_faults": ["unknown key 'extra' in config", "seed must be an integer >= 0",
                    SCENARIO, "unknown key 'x' in subordinator",
                    f"subordinator.drift {NOT_LIST}", f"subordinate.mu {NOT_LIST}",
                    f"subordinate.sigma {NOT_MATRIX}",
                    "unknown key 'extra' in theta_grid", SIZE,
                    "theta_grid.scale must be a finite number > 0",
                    "theta_grid.grid_seed must be an integer >= 0",
                    f"theta_grid.points {NOT_MATRIX}",
                    "times must be 1 to 16 strictly increasing numbers > 0",
                    REPLICATES, "k must be a finite number > 0"],
    "mu_minus_infinity": ["not valid JSON: -Infinity is not a finite number"],
    "mu_object": [f"subordinate.mu {NOT_LIST}"],
    "point_object": [f"subordinator.atoms[0].point {NOT_LIST}"],
    "point_zero": ["subordinator: jump points must be nonzero"],
    "points_nan": ["not valid JSON: NaN is not a finite number"],
    "points_object": [f"theta_grid.points {NOT_MATRIX}"],
    "points_unequal_length": [
        "subordinator: jump points must be rows of numbers, all of one length"],
    "points_wrong_columns": ["theta_grid: theta grid points must have 4 columns"],
    "rate_negative": ["subordinator: jump rates must be positive"],
    "rate_not_scalar": ["subordinator.atoms[0].rate must be a number"],
    "replicates_text": [REPLICATES],
    "replicates_too_large": [REPLICATES],
    "scale_text": ["theta_grid.scale must be a finite number > 0"],
    "seed_bool": ["seed must be an integer >= 0"],
    "seed_negative": ["seed must be an integer >= 0"],
    "sigma_1e308": ["subordinate: the symmetrised sigma is not finite at 2 of 2 rows: "
                    "beyond the floating-point range"],
    "sigma_2x3": ["subordinate: sigma must be square of order dim(mu)"],
    "sigma_nan": ["not valid JSON: NaN is not a finite number"],
    "sigma_not_psd": ["subordinate: covariance not PSD: min eigenvalue -1"],
    "sigma_ragged": [f"subordinate.sigma {NOT_MATRIX}"],
    "size_text": [SIZE],
    "size_too_large": [SIZE],
    "size_zero": [SIZE],
    "stack_bad_block": [f"subordinate.blocks[1].{FAMILY}"],
    "stack_empty": ["subordinate: stack needs blocks"],
    "stack_no_blocks": ["subordinate: stack needs blocks"],
    "stack_not_list": ["subordinate.blocks must be a list"],
    "sub_no_drift": ["subordinator.drift required"],
    "sub_not_obj": ["subordinator must be a JSON object", "subordinator.drift required"],
    "unknown_in_atom": ["unknown key 'mass' in subordinator.atoms[0]"],
    "unknown_in_brownian": ["unknown key 'atoms' in subordinate"],
    "unknown_in_compound_poisson": ["unknown key 'mu' in subordinate"],
    "unknown_in_config": ["unknown key 'typo_field' in config"],
    "unknown_in_grid": ["unknown key 'sizes' in theta_grid"],
    "unknown_in_stack": ["unknown key 'sigma' in subordinate"],
    "unknown_in_subordinator": ["unknown key 'rates' in subordinator"],
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_parse_time_details_are_pinned(case):
    try:
        parse_config(json.dumps(BAD_CONFIGS[case]))
    except ConfigError as exc:
        assert exc.errors == PARSE_DETAILS[case]
    else:
        assert case not in PARSE_DETAILS

# draws of (T, Z) beyond the floating-point range: t x drift, caught when the
# config is parsed, and two subordinator jumps of 1e308, caught in the draws
OVERFLOWING = {
    "drift_times_horizon": {"seed": 1, "scenario": "deterministic",
                            "times": [1e308], "replicates": 3},
    "atoms_1e308": {"seed": 1, "scenario": "finite_activity_C1", "replicates": 200,
                    "subordinator": {"drift": [0.0, 0.0], "atoms": [
                        {"point": [1e308, 1e308], "rate": 2.0}]}},
}


# a zero subordinator under subordinates of jump rate 1e308: rate x the
# last time overflows, but X never runs, so every draw is zero
ZERO_CLOCK = {"seed": 1, "times": [10], "replicates": 200,
              "subordinator": {"drift": [0, 0]}}
RATE_1e308 = {"family": "compound_poisson",
              "atoms": [{"point": [1], "rate": 1e308}]}
HUGE_RATES = {
    "one_atom": {**ZERO_CLOCK, "subordinate": {
        "family": "compound_poisson", "atoms": [{"point": [1, 0], "rate": 1e308}]}},
    "stack": {**ZERO_CLOCK, "subordinate": {
        "family": "stack", "blocks": [RATE_1e308, RATE_1e308]}},
}


class TestMain:
    def test_without_quiet_prints_the_summary_and_the_paths(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**MINIMAL, "replicates": 200})
        codes = [main([command, "--config", str(cfg), "--out", str(tmp_path / command)])
                 for command in ("verify", "exponent", "simulate")]
        assert codes == [0, 0, 0]
        assert capsys.readouterr().out == (
            (tmp_path / "verify" / "summary.txt").read_text()
            + f"{tmp_path / 'exponent' / 'exponent.csv'}\n"
            + f"{tmp_path / 'simulate' / 'samples.csv'}\n")

    @pytest.mark.parametrize("case", ["one_atom", "stack"])
    def test_zero_subordinator_over_a_huge_rate_draws_zeros(self, tmp_path, capsys,
                                                            case):
        cfg = write_config(tmp_path, HUGE_RATES[case])
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 0
        data = np.loadtxt(tmp_path / "out" / "samples.csv", delimiter=",", skiprows=1)
        assert data.shape == (200, 4) and np.all(data == 0)
        if case == "stack":
            cfg = write_config(tmp_path, {**HUGE_RATES[case], "scenario": "deterministic",
                                          "times": [1]})
            assert main(["verify", "--config", str(cfg), "--out",
                         str(tmp_path / "verify"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exit_2_with_json_error(self, tmp_path, capsys, case):
        cfg = write_config(tmp_path, BAD_CONFIGS[case])
        code = main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid config"
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command", ["exponent", "verify"])
    def test_overflowing_grid_scale_exit_2_under_warnings_as_errors(self, tmp_path,
                                                                   command):
        # in a fresh interpreter under -W error, as the installed command runs
        # in CI: scale 1e308 x a standard normal overflows, which is a config
        # error naming the grid points, not a RuntimeWarning and an exit 3
        cfg = write_config(tmp_path, {**MINIMAL, "replicates": 2000, "theta_grid": {
            "size": 100, "scale": 1e308}})
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "weaksub.cli", command,
             "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 2, done.stderr
        assert "Warning" not in done.stderr
        err = json.loads(done.stderr)
        assert err["error"] == "invalid config"
        assert "theta grid points" in err["details"][0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_overflowing_draw_exit_2_without_output(self, tmp_path, capsys,
                                                    case, command):
        cfg = write_config(tmp_path, OVERFLOWING[case])
        code = main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid config"
        assert "floating-point range" in err["details"][0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("times", [[], [1.0, 0.5], [0.5, 0.5], [0, 1.0],
                                       [i / 17 for i in range(1, 18)], [0.5, "1"]],
                             ids=["empty", "unsorted", "repeated", "zero",
                                  "17_times", "not_a_number"])
    def test_bad_times_exit_2_without_output(self, tmp_path, capsys, times):
        cfg = write_config(tmp_path, {**MINIMAL, "replicates": 10, "times": times})
        code = main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid config" and "times" in err["details"][0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("obj", [
        {**MINIMAL, "replicates": 50}, {**MINIMAL, "times": [5]},
        {"seed": 1, "subordinator": {"drift": [1.0, 1.0]},
         "subordinate": {"family": "brownian", "mu": [0, 0],
                         "sigma": [[1, 0], [0, 1]]}},
        {**MINIMAL, "replicates": 200, "times": [0.5, 1.0]}],
        ids=["replicates_50", "horizon_5", "no_scenario", "times"])
    def test_verify_rules_checked_before_out_is_made(self, tmp_path, capsys, obj):
        cfg = write_config(tmp_path, obj)
        code = main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid config"
        assert not (tmp_path / "out").exists()

    def test_unexpected_error_exit_3_with_json_error(self, tmp_path, capsys,
                                                      monkeypatch):
        import weaksub.cli as cli

        def fail(config, out_dir, written):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_exponent", fail)
        cfg = write_config(tmp_path, MINIMAL)
        code = main(["exponent", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "internal error"
        assert err["type"] == "RuntimeError" and err["details"] == "boom"

    @pytest.mark.parametrize("case", ["time1", "verify"])
    def test_exit_3_leaves_no_output(self, tmp_path, capsys, monkeypatch, case):
        # each run fails with part of its output written: time1 in its second
        # batch, verify in its summary, after report.json; --out and its
        # missing parent, made by the run, go too
        import weaksub.cli as cli
        import weaksub.verify as verify

        def fail(*args, **kwargs):
            raise MemoryError("no room")

        if case == "verify":
            monkeypatch.setattr(verify.SuiteReport, "summary", fail)
            command, obj = "verify", {**MINIMAL, "replicates": 200}
        else:
            draws = [cli._weak_z, fail]
            monkeypatch.setattr(cli, "_weak_z", lambda *a, **k: draws.pop(0)(*a, **k))
            command, obj = "simulate", {**MINIMAL, "replicates": 10_000}
        cfg = write_config(tmp_path, obj)
        out = tmp_path / "new" / "out"
        code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["type"] == "MemoryError"
        assert not (tmp_path / "new").exists()

    def test_interrupt_leaves_no_output(self, tmp_path, monkeypatch):
        # interrupted in its second batch, with the first batch's rows
        # written: samples.csv and --out go, and the interrupt goes on
        import weaksub.cli as cli

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        draws = [cli._weak_z, interrupt]
        monkeypatch.setattr(cli, "_weak_z", lambda *a, **k: draws.pop(0)(*a, **k))
        cfg = write_config(tmp_path, {"seed": 7, "scenario": "finite_activity_C1",
                                      "replicates": 9000})
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert not draws and not out.exists()

    def test_ecf_overflow_exit_2_without_output(self, tmp_path, capsys):
        # a compound Poisson CF is bounded, so the exact target is finite,
        # but the ECF phases at the first grid point overflow
        cfg = write_config(tmp_path, {
            "seed": 1, "scenario": "deterministic", "replicates": 200,
            "subordinate": {"family": "compound_poisson",
                            "atoms": [{"point": [1, 1], "rate": 1}]},
            "theta_grid": {"points": [[0, 0, 1e308, -1e308], [0.1, 0.1, 0.1, 0.1]]}})
        code = main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "invalid config"
        assert "empirical CF is not finite" in json.loads(err[0])["details"][0]
        assert not (tmp_path / "out").exists()

    def test_horizon_is_an_unknown_key(self, tmp_path, capsys):
        # {"horizon": h} is written {"times": [h]}
        cfg = write_config(tmp_path, {**MINIMAL, "horizon": 1.0})
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
        details = json.loads(capsys.readouterr().err)["details"]
        assert details == ["unknown key 'horizon' in config"]
        assert not (tmp_path / "out").exists()

    def test_verify_takes_times_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**MINIMAL, "replicates": 200, "times": [1.0]})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"]

    def test_failed_run_keeps_an_existing_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, OVERFLOWING["atoms_1e308"])
        (tmp_path / "out").mkdir()
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 2
        capsys.readouterr()
        assert list((tmp_path / "out").iterdir()) == []

    def test_verify_deterministic_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**MINIMAL, "replicates": 2000})
        code = main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True

    @pytest.mark.parametrize("n,code", [(100_000, 0), (2000, 1)])
    def test_verify_negative_control_exit_code(self, tmp_path, n, code):
        # exit 0 iff the expected mismatch was observed
        cfg = write_config(tmp_path, {"seed": 5, "scenario": "negative_control",
                                      "replicates": n})
        assert main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"]) == code
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is (code == 0)
        assert report["strong_ecf"]["expect"] == "differ"
        assert report["strong_ecf"]["met"] is (code == 0)

    def test_verify_rerun_report_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 9, "scenario": "stacked_C3",
                                      "replicates": 500})
        for out in ("a", "b"):
            main(["verify", "--config", str(cfg), "--out", str(tmp_path / out),
                  "--quiet"])
        report = (tmp_path / "a" / "report.json").read_bytes()
        assert json.loads(report)["scenario"] == "stacked_C3"
        assert report == (tmp_path / "b" / "report.json").read_bytes()

    def test_malformed_config_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "invalid config"

    @pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                             ids=["not_utf8", "nested_too_deep"])
    def test_unreadable_config_exit_2_without_output(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(text)
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "invalid config"
        assert not (tmp_path / "out").exists()

    # rates that AtomicJumps rejects, and atoms that are missing or empty
    @pytest.mark.parametrize("rates, detail", [
        ([1e308, 1e308], "rate"), ([-1], "rate"),
        (None, "compound_poisson needs atoms"), ([], "compound_poisson needs atoms")],
        ids=["sum_inf", "negative", "missing", "empty"])
    def test_bad_compound_poisson_atoms_are_one_detail(self, tmp_path, capsys, rates,
                                                      detail):
        subordinate = {"family": "compound_poisson"}
        if rates is not None:
            subordinate["atoms"] = [{"point": [1, i], "rate": rate}
                                    for i, rate in enumerate(rates)]
        obj = {**MINIMAL, "subordinate": subordinate}
        with pytest.raises(ConfigError, match=detail):
            parse_config(json.dumps(obj))
        cfg = write_config(tmp_path, obj)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        details = json.loads(capsys.readouterr().err)["details"]
        assert len(details) == 1 and detail in details[0]
        assert not out.exists()

    def test_unequal_atom_points_are_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BAD_CONFIGS["points_unequal_length"])
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["details"] == [
            "subordinator: jump points must be rows of numbers, all of one length"]

    def test_seed_flag_completes_a_seedless_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "deterministic", "replicates": 10})
        args = ["simulate", "--config", str(cfg), "--quiet"]
        assert main([*args, "--out", str(tmp_path / "a")]) == 2
        assert json.loads(capsys.readouterr().err)["details"] == ["seed required"]
        assert main([*args, "--out", str(tmp_path / "a"), "--seed", "7"]) == 0
        seeded = write_config(tmp_path, {**MINIMAL, "replicates": 10}, "seeded.json")
        assert main(["simulate", "--config", str(seeded), "--out", str(tmp_path / "b"),
                     "--quiet"]) == 0
        samples = [(tmp_path / out / "samples.csv").read_bytes() for out in "ab"]
        assert samples[0] == samples[1]

    def test_run_rules_list_every_violation(self, tmp_path, capsys):
        # T(10) overflows through the drift, and the atoms expect 2e8 jumps;
        # the drift's overflow makes X's expected jumps inf too, not a third fault
        cfg = write_config(tmp_path, {**MINIMAL, "times": [10], "subordinate": CPP_2D,
                                      "subordinator": {"drift": [1e308, 0], "atoms": [
                                          {"point": [1, 1], "rate": 2e7}]}})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        details = json.loads(capsys.readouterr().err)["details"]
        assert len(details) == 2
        assert "floating-point range" in details[0] and "per replicate" in details[1]
        assert not (tmp_path / "out").exists()

    def test_unknown_key_nonzero_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**MINIMAL, "bogus": True})
        code = main(["exponent", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_seed_and_replicates_override(self, tmp_path):
        cfg = write_config(tmp_path, {**MINIMAL, "replicates": 10})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--seed", "99", "--replicates", "5", "--quiet"])
        assert code == 0
        rows = (tmp_path / "samples.csv").read_text().strip().split("\n")
        assert len(rows) == 6  # header + 5 replicates
        # --kind is simulate's alone: with another command, a usage error
        bad = [("simulate", flag, "-1") for flag in ("--seed", "--replicates")]
        bad += [(command, "--kind", "strong") for command in ("exponent", "verify")]
        for command, flag, value in bad:
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg), "--out", str(tmp_path / "bad"),
                      flag, value])
            assert exc.value.code == 2
            assert not (tmp_path / "bad").exists()

    def test_replicates_flag_above_max_rows(self, tmp_path, capsys):
        from weaksub.cli import MAX_ROWS
        cfg = write_config(tmp_path, MINIMAL)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--replicates", str(MAX_ROWS + 1), "--quiet"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid config"
        assert not (tmp_path / "samples.csv").exists()

    def test_simulate_horizon_beyond_max_rows_jumps(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BAD_CONFIGS["horizon_too_large"])
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"])
        assert code == 2
        assert "times" in json.loads(capsys.readouterr().err)["details"][0]
        assert not (tmp_path / "samples.csv").exists()

    def test_simulate_subordinate_rate_1e6_draws_a_row_per_batch(self, tmp_path):
        # 2e6 expected subordinate jumps per replicate pass parse_config; a
        # batch of TIME_T_CHUNK such rows would ask for ~16e9 jumps at once
        import weaksub as ws
        from weaksub.cli import stream
        from weaksub.subordination import _batch_rows
        obj = {"seed": 7, "scenario": "deterministic", "replicates": 2,
               "subordinate": {"family": "compound_poisson",
                               "atoms": [{"point": [1.0, 0.0], "rate": 1e6}]}}
        T, X = parse_config(json.dumps(obj)).processes()
        assert _batch_rows(T, X, 1.0) == 1
        cfg = write_config(tmp_path, obj)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"])
        assert code == 0
        data = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1)
        assert data.shape == (2, 4)
        expected = ws.simulate_weak_at(T, X, [1.0], 2, stream(7, "simulate"))
        assert np.array_equal(data, expected.reshape(2, 4))

    def test_run_above_max_run_jumps_exit_2(self, tmp_path, capsys):
        # 2e6 expected subordinate jumps per replicate x 1000 replicates:
        # over an hour of sampling, rejected before any draw
        obj = {"seed": 7, "scenario": "deterministic", "replicates": 1000,
               "subordinate": {"family": "compound_poisson",
                               "atoms": [{"point": [1.0, 0.0], "rate": 1e6}]}}
        cfg = write_config(tmp_path, obj)
        for command in ("simulate", "verify"):
            code = main([command, "--config", str(cfg), "--out",
                         str(tmp_path / command), "--quiet"])
            assert code == 2
            err = json.loads(capsys.readouterr().err)
            assert err["details"][0].startswith("replicates: ")
        assert not (tmp_path / "simulate" / "samples.csv").exists()
        # exponent draws nothing
        assert main(["exponent", "--config", str(cfg), "--out",
                     str(tmp_path / "exponent"), "--quiet"]) == 0

    @pytest.mark.parametrize("subordinator, horizon, message", [
        ({"drift": [0.0, 0.0], "atoms": [{"point": [1.0, 1.0], "rate": 2e7}]}, 1.0,
         "jumps per replicate"),
        ({"drift": [0.0, 0.0], "atoms": [{"point": [1.0, 1.0], "rate": 2.0}]}, 1e7,
         "jumps per replicate"),
        ({"drift": [10.0, 0.0]}, 1e308, "floating-point range")],
        ids=["rate_2e7", "horizon_1e7", "drift_times_horizon"])
    def test_per_replicate_rules_bind_only_draws(self, tmp_path, capsys,
                                                  subordinator, horizon, message):
        cfg = write_config(tmp_path, {**MINIMAL, "subordinator": subordinator,
                                      "times": [horizon]})
        # exponent draws nothing and reads neither times nor replicates
        assert main(["exponent", "--config", str(cfg), "--out",
                     str(tmp_path / "exponent"), "--quiet"]) == 0
        assert (tmp_path / "exponent" / "exponent.csv").exists()
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "simulate"), "--quiet"]) == 2
        assert message in json.loads(capsys.readouterr().err)["details"][0]
        assert not (tmp_path / "simulate").exists()

    @pytest.mark.parametrize("replicates, size", [(100_000, 200_000), (100, 10**7)])
    def test_verify_above_max_ecf_terms_exit_2(self, tmp_path, capsys, monkeypatch,
                                                replicates, size):
        # 4e10 and 2e9 ECF terms, rejected before the suite draws anything
        # (and above MAX_REPORT_POINTS too)
        import weaksub.cli as cli

        def suite(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "equality_in_law_suite", suite)
        cfg = write_config(tmp_path, {"seed": 1, "scenario": "finite_activity_C1",
                                      "replicates": replicates,
                                      "theta_grid": {"size": size}})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
        assert "ECF terms" in json.loads(capsys.readouterr().err)["details"][0]
        assert not (tmp_path / "out").exists()

    def test_verify_above_max_report_points_exit_2(self, tmp_path, capsys, monkeypatch):
        # 2e6 ECF terms, but a report of 10 001 points
        import weaksub.cli as cli

        def suite(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "equality_in_law_suite", suite)
        cfg = write_config(tmp_path, {**MINIMAL, "replicates": 100,
                                      "theta_grid": {"size": 10_001}})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
        assert "at most 10000 points" in json.loads(capsys.readouterr().err)["details"][0]
        assert not (tmp_path / "out").exists()

    def test_max_ecf_terms_counts_explicit_points(self, tmp_path, capsys, monkeypatch):
        import weaksub.cli as cli
        monkeypatch.setattr(cli, "MAX_ECF_TERMS", 1000)
        points = [[0.1 * i, 0.0, 0.0, 0.1] for i in range(1, 6)]
        cfg = write_config(tmp_path, {**MINIMAL, "replicates": 100,
                                      "theta_grid": {"points": points}})
        args = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]
        assert main(args) in (0, 1)  # 2 x 100 x 5 = 1000 terms
        assert main([*args, "--replicates", "101"]) == 2
        assert "ECF terms" in json.loads(capsys.readouterr().err)["details"][0]

    def test_max_run_jumps_counts_the_replicates_flag_and_verify_twice(
            self, tmp_path, capsys, monkeypatch):
        import weaksub.cli as cli
        # 2 expected subordinate jumps per replicate, 100 replicates
        monkeypatch.setattr(cli, "MAX_RUN_JUMPS", 300)
        cfg = write_config(tmp_path, {**MINIMAL, "replicates": 100,
                                      "subordinate": CPP_2D})
        args = ["--config", str(cfg), "--out", str(tmp_path), "--quiet"]
        assert main(["simulate", *args]) == 0
        assert main(["simulate", *args, "--replicates", "151"]) == 2
        assert main(["verify", *args]) == 2
        capsys.readouterr()
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("out, command, obj", [
        ("a_file", "exponent", MINIMAL),
        ("a_file/below", "exponent", MINIMAL)])
    def test_unusable_out_exit_2_with_json_error(self, tmp_path, capsys, out,
                                                 command, obj):
        (tmp_path / "a_file").write_text("")
        cfg = write_config(tmp_path, obj)
        code = main([command, "--config", str(cfg), "--out",
                     str(tmp_path / out), "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid config"
        assert err["details"][0].startswith("--out: ")

    def test_verify_stacked_with_own_subordinator_skips_exact_check(self, tmp_path):
        # the stacked closed form belongs to the scenario's own processes;
        # with another subordinator only the ECF comparisons apply
        cfg = write_config(tmp_path, {
            "seed": 1, "scenario": "stacked_C3", "replicates": 4000,
            "subordinator": {"drift": [0.5, 0.5],
                             "atoms": [{"point": [2.0, 2.0], "rate": 1.0}]}})
        code = main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] and "exact_exponent" not in report

    def test_exponent_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        code = main(["exponent", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"])
        assert code == 0
        assert (tmp_path / "exponent.csv").exists()

    def test_simulate_defaults_to_weak_with_flags_on_either_side(self, tmp_path):
        cfg = write_config(tmp_path, {**MINIMAL, "replicates": 20})
        runs = {"kind_weak": (["simulate", "--kind", "weak"], []),
                "default": (["simulate"], []), "flags_first": ([], ["simulate"])}
        for name, (before, after) in runs.items():
            flags = ["--config", str(cfg), "--out", str(tmp_path / name), "--quiet"]
            assert main(before + flags + after) == 0
        samples = {(tmp_path / name / "samples.csv").read_bytes() for name in runs}
        assert len(samples) == 1

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in ("exponent", "simulate", "verify"))

    @pytest.mark.parametrize("argv", [["bogus", "--config", "config.json"],
                                      ["simulate", "--out", "out"]],
                             ids=["unknown_command", "no_config"])
    def test_usage_error_exit_2_without_output(self, tmp_path, capsys, monkeypatch,
                                               argv):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: weaksub")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# --- fuzzing: any JSON parses to a config or raises ConfigError -----------

def _json_values():
    scalars = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.text(max_size=4))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
        max_leaves=10)


def _config_like():
    """Mostly schema-shaped configs, with any JSON value in any field."""
    anything = _json_values()
    num = st.integers(-3, 4) | st.floats(-3, 3) | anything
    vec = st.lists(num, max_size=4) | anything
    mat = st.lists(vec, max_size=4) | anything

    def obj(fields):
        return st.fixed_dictionaries({}, optional=fields) | anything

    atoms = st.lists(obj({"point": vec, "rate": num}), max_size=3) | anything
    # every family of the parser's table, and each of its keys (any JSON
    # value for a key with no strategy of its own here)
    shaped = {"mu": vec, "sigma": mat, "atoms": atoms,
              "blocks": st.deferred(lambda: st.lists(law, max_size=2) | anything)}
    law = st.deferred(lambda: obj({
        "family": st.sampled_from(sorted(FAMILIES)) | anything,
        **{key: shaped.get(key, anything)
           for _, rules in FAMILIES.values() for key in rules}}))
    return obj({
        "seed": num, "scenario": st.sampled_from(SCENARIOS) | anything,
        "subordinator": obj({"drift": vec, "atoms": atoms}),
        "subordinate": law, "replicates": num, "k": num,
        "theta_grid": obj({"size": num, "scale": num, "grid_seed": num,
                           "points": mat}),
        "times": vec})


@settings(max_examples=400)
@given(_config_like())
# a family that is a list or an object cannot key a lookup
@example({"seed": 1, "subordinate": {"family": []}})
@example({"seed": 1, "subordinate": {"family": {}}})
@example({"seed": 1, "subordinate": {"family": "stack", "blocks": [{"family": []}]}})
def test_any_json_parses_or_raises_config_error(obj):
    try:
        cfg = parse_config(json.dumps(obj))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
