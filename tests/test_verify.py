import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaksub as ws
from weaksub import verify
from weaksub.verify import (
    equality_in_law_suite,
    scenario_processes,
    scenario_record,
)


class TestECF:
    def test_constant_samples(self):
        samples = np.tile([1.0, 2.0], (500, 1))
        theta = np.array([0.3, -0.7])
        assert ws.ecf(samples, theta) == pytest.approx(
            np.exp(1j * (0.3 - 1.4)))

    def test_theta_zero(self):
        rng = np.random.default_rng(0)
        assert ws.ecf(rng.standard_normal((100, 2)), [0, 0]) == pytest.approx(1.0)

    def test_gaussian_cf(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(10**6)
        assert abs(ws.ecf(x, [1.0]) - np.exp(-0.5)) <= 4 * np.sqrt(2 / 10**6)

    def test_blocked_sum_matches_one_block(self):
        # a 64-point grid sums blocks of 2048 sample rows
        rng = np.random.default_rng(19)
        samples, grid = rng.standard_normal((20_000, 4)), rng.standard_normal((64, 4))
        one_block = np.exp(1j * samples @ grid.T).mean(axis=0)
        assert np.max(np.abs(ws.ecf_grid(samples, grid) - one_block)) <= 1e-12

    def test_empty_sample_rejected(self):
        with pytest.raises(ws.LevySpecError):
            ws.ecf(np.zeros((0, 2)), [1, 1])

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((200, 2))
        theta = rng.standard_normal(2)
        assert ws.ecf(samples, -theta) == np.conj(ws.ecf(samples, theta))

    def test_ecf_is_a_row_of_ecf_grid(self):
        # more rows than one ECF block, so the blocked sum is exercised
        rng = np.random.default_rng(17)
        samples = rng.standard_normal((20_000, 3))
        grid = ws.default_theta_grid(3)
        row = ws.ecf_grid(samples, grid)
        reference = np.exp(1j * samples @ grid.T).mean(axis=0)
        assert np.all(np.abs(row - reference) <= 1e-12)
        for i in (0, 7, 15):
            assert abs(ws.ecf(samples, grid[i]) - row[i]) <= 1e-12

    def test_modulus_at_most_one(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((1000, 3)) * 5
        grid = ws.default_theta_grid(3)
        assert np.all(np.abs(ws.ecf_grid(samples, grid)) <= 1 + 1e-12)


class TestCFCompare:
    def test_matching_law_passes(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((50_000, 2))
        grid = ws.default_theta_grid(2)
        rep = ws.cf_compare(samples,
                            lambda th: np.exp(-0.5 * th @ th), grid)
        assert rep.passed, rep.summary()

    def test_shifted_target_fails_at_pi(self):
        rng = np.random.default_rng(4)
        scale = 0.1  # keep |CF| near 1 at theta = pi so the flip is visible
        samples = scale * rng.standard_normal((50_000, 2))
        grid = np.array([[np.pi, 0.0]])
        # target law shifted by 1 in coordinate 1: CF picks up e^{i pi} = -1
        rep = ws.cf_compare(
            samples,
            lambda th: np.exp(1j * th[0] - 0.5 * scale**2 * th @ th), grid)
        assert not rep.passed

    def test_self_comparison_passes(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((500, 2))
        grid = ws.default_theta_grid(2)
        rep = ws.cf_compare(samples, ws.ecf_grid(samples, grid), grid)
        assert rep.passed

    def test_invariant_under_reordering(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((1000, 2))
        grid = ws.default_theta_grid(2)
        rep_a = ws.cf_compare(samples, lambda th: np.exp(-0.5 * th @ th), grid)
        rep_b = ws.cf_compare(samples[::-1],
                              lambda th: np.exp(-0.5 * th @ th), grid[::-1])
        assert rep_a.passed == rep_b.passed
        assert np.allclose(sorted(rep_a.abs_diff), sorted(rep_b.abs_diff))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ws.LevySpecError):
            ws.cf_compare(np.zeros((50, 2)), lambda th: 1.0,
                          ws.default_theta_grid(2))

    @pytest.mark.parametrize("case", ["empty_grid", "few_samples",
                                      "column_mismatch", "one_d_grid"])
    @pytest.mark.parametrize("compare", ["one_sample", "two_sample"])
    def test_unusable_inputs_rejected(self, compare, case):
        samples = np.random.default_rng(8).standard_normal((1000, 2))
        grid = {"empty_grid": np.zeros((0, 2)), "few_samples": np.ones((4, 2)),
                "column_mismatch": np.ones((4, 3)),
                "one_d_grid": np.ones(2)}[case]
        if case == "few_samples":
            samples = samples[:3]
        with pytest.raises(ws.LevySpecError):
            if compare == "one_sample":
                ws.cf_compare(samples, lambda th: 1.0, grid)
            else:
                ws.ecf_two_sample_compare(samples, samples, grid)

    def test_report_serializes(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((1000, 2))
        rep = ws.cf_compare(samples, lambda th: np.exp(-0.5 * th @ th),
                            ws.default_theta_grid(2))
        d = rep.to_dict()
        assert d["n_samples"] == 1000
        assert len(d["points"]) == 16
        assert isinstance(rep.summary(), str)


class TestEqualityInLawSuite:
    # reduced N here; the full acceptance runs live in test_acceptance.py

    def test_deterministic_scenario_passes(self):
        rep = equality_in_law_suite("deterministic", np.random.default_rng(12),
                                    n_paths=10_000)
        assert rep.passed, rep.summary()

    def test_stacked_scenario_passes(self):
        rep = equality_in_law_suite("stacked_C3", np.random.default_rng(13),
                                    n_paths=10_000)
        assert rep.passed, rep.summary()
        assert rep.exact_exponent_max_diff <= 1e-10

    def test_negative_control_reports_mismatch(self):
        rep = equality_in_law_suite("negative_control", np.random.default_rng(14),
                                    n_paths=10_000)
        # at this N only the effect size is meaningful, not the verdict
        ratio = rep.to_dict()["negative_control_max_ratio"]
        assert ratio == rep.strong.max_ratio > 0.5
        assert rep.weak.passed
        assert rep.notes

    @pytest.mark.parametrize("n,passed", [(100_000, True), (2000, False)])
    def test_negative_control_verdict(self, n, passed):
        # the expected mismatch (max |diff|/bound > 2) shows at N = 1e5 and
        # not at N = 2000
        rep = equality_in_law_suite("negative_control", np.random.default_rng(5),
                                    n_paths=n)
        assert rep.passed == passed, rep.summary()
        assert (rep.to_dict()["negative_control_max_ratio"] > 2.0) == passed
        assert "expected mismatch effect size" in rep.summary()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ws.LevySpecError):
            equality_in_law_suite("bogus", np.random.default_rng(0), n_paths=1000)

    def test_report_serializes(self):
        rep = equality_in_law_suite("deterministic", np.random.default_rng(15),
                                    n_paths=2000)
        d = rep.to_dict()
        assert d["scenario"] == "deterministic"
        assert "strong_ecf" in d and "weak_ecf" in d
        assert d["negative_control_max_ratio"] is None

    @pytest.mark.parametrize("source", ["negative_control", "stacked_C3"])
    def test_suite_follows_the_record_not_the_name(self, monkeypatch, source):
        # a scenario under a new name behaves as its record says: the
        # expected-mismatch rule for a control, the A3 check for a stack
        record = scenario_record(source)
        monkeypatch.setitem(verify._SCENARIO_TABLE, "renamed", record)
        rep = equality_in_law_suite("renamed", np.random.default_rng(17), n_paths=2000)
        twin = equality_in_law_suite(source, np.random.default_rng(17), n_paths=2000)
        assert rep.to_dict() == {**twin.to_dict(), "scenario": "renamed"}
        assert rep.summary() == twin.summary().replace(source, "renamed", 1)
        d = rep.to_dict()
        assert (d["negative_control_max_ratio"] is None) == record.equal_in_law
        assert (d["exact_exponent_max_diff"] is None) == (record.stack is None)


class TestScenarioProcesses:
    @pytest.mark.parametrize("name", ["deterministic", "finite_activity_C1",
                                      "stacked_C3", "negative_control"])
    def test_specs_valid(self, name):
        T, X, _ = scenario_processes(name)
        # the constructor raises on an orthant violation
        ws.SubordinatorSpec(T.d, T.jumps)
        assert X.dim == T.dim

    def test_time1_ecf_modulus(self):
        T, X, _ = scenario_processes("finite_activity_C1")
        samples = ws.simulate_weak_at(T, X, 1.0, 2000, np.random.default_rng(16))
        grid = ws.default_theta_grid(4)
        assert np.all(np.abs(ws.ecf_grid(samples, grid)) <= 1 + 1e-12)
