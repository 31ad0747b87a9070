import json

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weaksub.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    run_exponent,
    run_simulate,
)
from weaksub.verify import SCENARIOS


MINIMAL = {"seed": 7, "scenario": "deterministic"}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL))
        assert cfg.seed == 7
        assert cfg.horizon == 1.0
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
               "horizon": 2.0, "replicates": 500,
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


class TestRunExponent:
    def test_theta_zero_row(self, tmp_path):
        obj = {**MINIMAL, "theta_grid": {"points": [[0, 0, 0, 0]]}}
        cfg = parse_config(json.dumps(obj))
        out = run_exponent(cfg, tmp_path)
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
        out = run_exponent(cfg, tmp_path)
        row = out.read_text().strip().split("\n")[1].split(",")
        assert float(row[4]) == pytest.approx(np.exp(-1) - 1, abs=1e-12)
        assert float(row[5]) == pytest.approx(0.0, abs=1e-12)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(json.dumps(MINIMAL))
        a = run_exponent(cfg, tmp_path).read_bytes()
        b = run_exponent(cfg, tmp_path).read_bytes()
        assert a == b


class TestRunSimulate:
    def test_zero_subordinate_zero_columns(self, tmp_path):
        obj = {"seed": 2, "subordinator": {"drift": [1.0, 1.0]},
               "subordinate": {"family": "brownian", "mu": [0, 0],
                               "sigma": [[0, 0], [0, 0]]},
               "replicates": 50}
        cfg = parse_config(json.dumps(obj))
        out = run_simulate(cfg, tmp_path, kind="strong")
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 50
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            assert vals[2:] == [0.0, 0.0]

    def test_zero_replicates_header_only(self, tmp_path):
        cfg = parse_config(json.dumps({**MINIMAL, "replicates": 0}))
        out = run_simulate(cfg, tmp_path)
        assert out.read_text().strip() == "T_1,T_2,Z_1,Z_2"

    def test_identity_time_change_reproduces_subordinate(self, tmp_path):
        import weaksub as ws
        obj = {"seed": 4, "subordinator": {"drift": [1.0, 1.0]},
               "subordinate": {"family": "brownian", "mu": [0, 0],
                               "sigma": [[1, 0.5], [0.5, 1]]},
               "replicates": 4000}
        cfg = parse_config(json.dumps(obj))
        out = run_simulate(cfg, tmp_path, kind="strong")
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        grid = ws.default_theta_grid(2)
        rep = ws.cf_compare(
            data[:, 2:],
            lambda th: np.exp(ws.exponent_bm([0, 0], [[1, 0.5], [0.5, 1]], th)),
            grid)
        assert rep.passed, rep.summary()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(json.dumps({**MINIMAL, "replicates": 20}))
        a = run_simulate(cfg, tmp_path).read_bytes()
        b = run_simulate(cfg, tmp_path).read_bytes()
        assert a == b

    def test_time1_chunk_c_draws_from_stream_c(self, tmp_path):
        import weaksub as ws
        from weaksub.cli import stream
        from weaksub.subordination import TIME_T_CHUNK
        n = TIME_T_CHUNK + 5
        cfg = parse_config(json.dumps({**MINIMAL, "replicates": n}))
        out = run_simulate(cfg, tmp_path, kind="strong")
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        T, X = cfg.processes()
        expected = np.vstack([
            ws.simulate_strong_at(T, X, 1.0, TIME_T_CHUNK, stream(7, "simulate", 0)),
            ws.simulate_strong_at(T, X, 1.0, 5, stream(7, "simulate", 1))])
        assert np.array_equal(data, expected)

    def test_paths_mode(self, tmp_path):
        cfg = parse_config(json.dumps({**MINIMAL, "replicates": 3,
                                       "mode": "paths"}))
        out = run_simulate(cfg, tmp_path)
        files = sorted(out.glob("rep_*.csv"))
        assert len(files) == 3
        assert files[0].read_text().startswith("time,T_1,T_2,Z_1,Z_2")


BROWNIAN_3D = {"family": "brownian", "mu": [0, 0, 0],
               "sigma": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
BAD_CONFIGS = {
    "seed_bool": {**MINIMAL, "seed": True},
    "seed_negative": {**MINIMAL, "seed": -1},
    "k_negative": {**MINIMAL, "k": -1},
    "k_text": {**MINIMAL, "k": "four"},
    "horizon_text": {**MINIMAL, "horizon": "abc"},
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
    "horizon_not_1": {**MINIMAL, "horizon": 5},
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
    # row counts above MAX_ROWS
    "size_too_large": {**MINIMAL, "theta_grid": {"size": 10**12}},
    "replicates_too_large": {**MINIMAL, "replicates": 10**12},
    # more than MAX_ROWS expected subordinator jumps per replicate
    "horizon_too_large": {"seed": 1, "scenario": "finite_activity_C1",
                          "horizon": 1e300, "replicates": 10},
}


class TestMain:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exit_2_with_json_error(self, tmp_path, capsys, case):
        cfg = write_config(tmp_path, BAD_CONFIGS[case])
        code = main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid config"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_unexpected_error_exit_3_with_json_error(self, tmp_path, capsys,
                                                      monkeypatch):
        import weaksub.cli as cli

        def fail(config, out_dir):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_exponent", fail)
        cfg = write_config(tmp_path, MINIMAL)
        code = main(["exponent", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "internal error"
        assert err["type"] == "RuntimeError" and err["details"] == "boom"

    def test_verify_deterministic_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**MINIMAL, "replicates": 2000})
        code = main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True

    def test_malformed_config_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "invalid config"

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
        for flag in ("--seed", "--replicates"):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                      flag, "-1"])
            assert exc.value.code == 2

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
        assert "horizon" in json.loads(capsys.readouterr().err)["details"][0]
        assert not (tmp_path / "samples.csv").exists()

    def test_exponent_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        code = main(["exponent", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"])
        assert code == 0
        assert (tmp_path / "exponent.csv").exists()


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
    law = st.deferred(lambda: obj({
        "family": st.sampled_from(["brownian", "compound_poisson", "stack"])
        | anything,
        "mu": vec, "sigma": mat, "atoms": atoms,
        "blocks": st.lists(law, max_size=2) | anything}))
    return obj({
        "seed": num, "scenario": st.sampled_from(SCENARIOS) | anything,
        "subordinator": obj({"drift": vec, "atoms": atoms}),
        "subordinate": law, "horizon": num, "replicates": num, "k": num,
        "theta_grid": obj({"size": num, "scale": num, "grid_seed": num,
                           "points": mat}),
        "mode": st.sampled_from(["time1", "paths"]) | anything})


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_config_like())
def test_any_json_parses_or_raises_config_error(obj):
    try:
        cfg = parse_config(json.dumps(obj))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
