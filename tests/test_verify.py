import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaksub as ws
from weaksub import verify
from weaksub.verify import (
    equality_in_law_suite,
    scenario_record,
)


class TestECF:
    def test_constant_samples(self):
        samples = np.tile([1.0, 2.0], (500, 1))
        theta = np.array([0.3, -0.7])
        assert ws.ecf_grid(samples, theta) == pytest.approx(
            np.exp(1j * (0.3 - 1.4)))

    def test_theta_zero(self):
        rng = np.random.default_rng(0)
        assert ws.ecf_grid(rng.standard_normal((100, 2)), [0, 0]) == pytest.approx(1.0)

    def test_gaussian_cf(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10**6, 1))
        assert abs(ws.ecf_grid(x, [1.0]) - np.exp(-0.5)) <= 4 * np.sqrt(2 / 10**6)

    def test_blocked_sum_matches_one_block(self):
        # a 64-point grid on 4 columns sums blocks of 256 sample rows
        rng = np.random.default_rng(19)
        samples, grid = rng.standard_normal((20_000, 4)), rng.standard_normal((64, 4))
        one_block = np.exp(1j * samples @ grid.T).mean(axis=0)
        assert np.max(np.abs(ws.ecf_grid(samples, grid) - one_block)) <= 1e-12

    def test_empty_sample_rejected(self):
        with pytest.raises(ws.LevySpecError):
            ws.ecf_grid(np.zeros((0, 2)), [1, 1])

    @pytest.mark.parametrize("d, n, points", [
        (d, n, points) for d, points in
        [(4, 16), (4, 64), (8, 16), (8, 64), (40, 16), (4, 300), (40, 300)]
        for n in [20_000, 9217, 1025, 1, 60_000]])
    def test_equals_blocked_complex_exponential_bit_for_bit(self, d, n, points):
        # blocks of max(2, 2**16 // grid size) rows, one phase product each:
        # 1024 to 5 rows here, so every n but 1 spans more than one block, and
        # 1025 and 9217 rows leave a 1-row tail on some grids. The block size
        # is a literal, so a change to PHASE_PRODUCT that moves the bits
        # fails here; the cosine and sine sums run on two threads
        rng = np.random.default_rng(23)
        samples = 3.0 * rng.standard_normal((n, d))
        grid = rng.standard_normal((points, d))
        rows = max(2, 2**16 // grid.size)
        total = np.zeros(points, dtype=complex)
        for start in range(0, len(samples), rows):
            total += np.exp(1j * (samples[start : start + rows] @ grid.T)).sum(axis=0)
        reference = total / len(samples)
        assert ws.ecf_grid(samples, grid).tobytes() == reference.tobytes()

    def test_independent_of_sampler_batch(self, monkeypatch):
        # the ECF's blocks follow PHASE_PRODUCT alone, so retuning the
        # samplers' TIME_T_CHUNK cannot move a bit
        rng = np.random.default_rng(31)
        samples, grid = rng.standard_normal((20_000, 4)), ws.ThetaGridSpec().build(4)
        before = ws.ecf_grid(samples, grid).tobytes()
        monkeypatch.setattr(verify, "TIME_T_CHUNK", 100)
        assert ws.ecf_grid(samples, grid).tobytes() == before

    @pytest.mark.parametrize("failing, raised", [(("cos",), "cos"), (("cos", "sin"), "sin")])
    def test_worker_error_reaches_caller(self, monkeypatch, failing, raised):
        # the worker sums the cosines and the calling thread the sines; when
        # both fail, the calling thread's own error is the one raised
        raised_on = {}

        def failing_trig(name):
            def trig(phase, out):
                raised_on[name] = threading.current_thread()
                raise FloatingPointError(f"{name} failed")
            return trig

        for name in failing:
            monkeypatch.setattr(np, name, failing_trig(name))
        threads = threading.active_count()
        rng = np.random.default_rng(37)
        with pytest.raises(FloatingPointError, match=f"{raised} failed"):
            ws.ecf_grid(rng.standard_normal((20_000, 4)), rng.standard_normal((16, 4)))
        assert raised_on["cos"] is not threading.main_thread()
        assert raised_on.get("sin", threading.main_thread()) is threading.main_thread()
        assert threading.active_count() == threads  # the worker was joined

    def test_overflowing_phase_rejected(self):
        # <theta, x> = 2e308 - 1e308 overflows to inf, and cos(inf) and
        # sin(inf) are NaN
        samples = np.array([[2.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ws.LevySpecError, match="not finite at 1 of 2"):
            ws.ecf_grid(samples, [[1e308, -1e308], [0.1, 0.1]])

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((200, 2))
        theta = rng.standard_normal(2)
        assert ws.ecf_grid(samples, -theta) == np.conj(ws.ecf_grid(samples, theta))

    def test_ecf_is_a_row_of_ecf_grid(self):
        # more rows than one ECF block, so the blocked sum is exercised
        rng = np.random.default_rng(17)
        samples = rng.standard_normal((20_000, 3))
        grid = ws.ThetaGridSpec().build(3)
        row = ws.ecf_grid(samples, grid)
        reference = np.exp(1j * samples @ grid.T).mean(axis=0)
        assert np.all(np.abs(row - reference) <= 1e-12)
        for i in (0, 7, 15):
            assert abs(ws.ecf_grid(samples, grid[i]) - row[i]) <= 1e-12

    @pytest.mark.parametrize("shape", [(3,), (16, 3), (2, 8, 3)],
                             ids=["d", "m_d", "a_b_d"])
    def test_shape_follows_theta(self, shape):
        # one frequency vector gives one complex scalar, not one per coordinate
        rng = np.random.default_rng(18)
        samples, theta = rng.standard_normal((500, 3)), rng.standard_normal(shape)
        value = ws.ecf_grid(samples, theta)
        assert np.shape(value) == shape[:-1]
        assert isinstance(value, complex) == (len(shape) == 1)
        reference = np.exp(1j * samples @ theta.reshape(-1, 3).T).mean(axis=0)
        assert np.max(np.abs(np.reshape(value, -1) - reference)) <= 1e-12

    def test_theta_width_checked(self):
        samples = np.zeros((10, 3))
        for theta in (np.ones(2), np.ones((4, 2)), 1.0):
            with pytest.raises(ws.LevySpecError):
                ws.ecf_grid(samples, theta)

    def test_modulus_at_most_one(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((1000, 3)) * 5
        grid = ws.ThetaGridSpec().build(3)
        assert np.all(np.abs(ws.ecf_grid(samples, grid)) <= 1 + 1e-12)


class TestCFCompare:
    def test_matching_law_passes(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((50_000, 2))
        grid = ws.ThetaGridSpec().build(2)
        rep = ws.cf_compare(samples, np.exp(-0.5 * np.sum(grid**2, axis=1)), grid)
        assert rep.passed, rep.summary()

    def test_shifted_target_fails_at_pi(self):
        rng = np.random.default_rng(4)
        scale = 0.1  # keep |CF| near 1 at theta = pi so the flip is visible
        samples = scale * rng.standard_normal((50_000, 2))
        grid = np.array([[np.pi, 0.0]])
        # target law shifted by 1 in coordinate 1: CF picks up e^{i pi} = -1
        rep = ws.cf_compare(
            samples,
            np.exp(1j * grid[:, 0] - 0.5 * scale**2 * np.sum(grid**2, axis=1)), grid)
        assert not rep.passed

    def test_self_comparison_passes(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((500, 2))
        grid = ws.ThetaGridSpec().build(2)
        rep = ws.cf_compare(samples, ws.ecf_grid(samples, grid), grid)
        assert rep.passed

    def test_invariant_under_reordering(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((1000, 2))
        grid = ws.ThetaGridSpec().build(2)
        rep_a = ws.cf_compare(samples, np.exp(-0.5 * np.sum(grid**2, axis=1)), grid)
        rep_b = ws.cf_compare(samples[::-1], np.exp(-0.5 * np.sum(grid**2, axis=1))[::-1], grid[::-1])
        assert rep_a.passed == rep_b.passed
        assert np.allclose(sorted(rep_a.abs_diff), sorted(rep_b.abs_diff))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ws.LevySpecError):
            ws.cf_compare(np.zeros((50, 2)), np.ones(16),
                          ws.ThetaGridSpec().build(2))

    @pytest.mark.parametrize("case", ["empty_grid", "few_samples",
                                      "column_mismatch", "one_d_grid"])
    @pytest.mark.parametrize("compare", ["one_sample"])  # keeps the test ids
    def test_unusable_inputs_rejected(self, compare, case):
        samples = np.random.default_rng(8).standard_normal((1000, 2))
        grid = {"empty_grid": np.zeros((0, 2)), "few_samples": np.ones((4, 2)),
                "column_mismatch": np.ones((4, 3)),
                "one_d_grid": np.ones(2)}[case]
        if case == "few_samples":
            samples = samples[:3]
        with pytest.raises(ws.LevySpecError):
            ws.cf_compare(samples, np.ones(len(grid)), grid)

    def test_target_needs_one_value_per_grid_point(self):
        samples = np.random.default_rng(8).standard_normal((1000, 2))
        grid = ws.ThetaGridSpec().build(2)
        for target in (np.ones(15), np.ones((16, 1)), 1.0):
            with pytest.raises(ws.LevySpecError, match="target"):
                ws.cf_compare(samples, target, grid)

    def test_report_serializes(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((1000, 2))
        grid = ws.ThetaGridSpec().build(2)
        rep = ws.cf_compare(samples, np.exp(-0.5 * np.sum(grid**2, axis=1)), grid)
        d = rep.to_dict()
        assert d["n_samples"] == 1000
        assert len(d["points"]) == 16
        assert isinstance(rep.summary(), str)


class TestCLTWidth:
    # 1e-310 to 5e-324 are finite and > 0, but make k sqrt(2 / N) subnormal
    # or 0, so |diff| / bound would not be finite
    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf, 1e-310, 1e-320, 5e-324])
    @pytest.mark.parametrize("call", ["clt_bound", "cf_compare", "suite"])
    def test_bad_k_rejected(self, monkeypatch, call, k):
        samples = np.random.default_rng(8).standard_normal((1000, 2))
        grid = ws.ThetaGridSpec().build(2)

        def no_simulation(*args):
            raise AssertionError("the suite simulated before checking k")

        monkeypatch.setattr(verify, "simulate_strong_at", no_simulation)
        with pytest.raises(ws.LevySpecError, match="CLT width k"):
            if call == "clt_bound":
                ws.clt_bound(200, k=k)
            elif call == "cf_compare":
                ws.cf_compare(samples, np.ones(len(grid)), grid, k)
            else:
                equality_in_law_suite("deterministic", np.random.default_rng(0),
                                      n_paths=1000, k=k)

    # k sqrt(2) and k sqrt(4) are beyond the floating-point range
    @pytest.mark.parametrize("sizes", [(1,), (1, 1)])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_bound_rejected(self, sizes):
        with pytest.raises(ws.LevySpecError, match="CLT width k .* outside the normal"):
            ws.clt_bound(*sizes, k=1.7e308)
        assert ws.clt_bound(*sizes, k=1e307) < np.inf

    def test_k_alone_has_no_bound_floor(self):
        # prm checks k with no sample sizes, and a bound of 0
        assert ws.clt_bound(k=5e-324) == 0.0

    @pytest.mark.parametrize("call,n", [("clt_bound", 0), ("clt_bound", -3),
                                        ("suite", -5), ("suite", 2.5), ("suite", 50)])
    def test_bad_sample_size_rejected(self, monkeypatch, call, n):
        def no_simulation(*args):
            raise AssertionError("the suite simulated before checking n_paths")

        monkeypatch.setattr(verify, "simulate_strong_at", no_simulation)
        if call == "clt_bound":
            with pytest.raises(ws.LevySpecError, match="each sample size >= 1"):
                ws.clt_bound(n)
        else:
            with pytest.raises(ws.LevySpecError, match="n_paths must be an integer"):
                equality_in_law_suite("deterministic", np.random.default_rng(0),
                                      n_paths=n)


class TestThetaGridSpec:
    @pytest.mark.parametrize("points", [[[np.nan] * 4], [[0.0, np.inf, 0.0, 1.0]],
                                        [[0.5] * 4, [0.0, 0.0, -np.inf, 0.0]]])
    def test_non_finite_points_rejected(self, points):
        with pytest.raises(ws.LevySpecError, match="points must be finite"):
            ws.ThetaGridSpec(points=points).build(4)

    @pytest.mark.parametrize("scale", [0.0, -0.5, np.nan, np.inf])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ws.LevySpecError, match="scale"):
            ws.ThetaGridSpec(scale=scale).build(4)

    @pytest.mark.parametrize("size", [0, -1, 2.5])
    def test_bad_size_rejected(self, size):
        with pytest.raises(ws.LevySpecError, match="size must be an integer >= 1"):
            ws.ThetaGridSpec(size=size).build(4)

    def test_suite_names_a_non_finite_grid(self):
        grid = ws.ThetaGridSpec(points=[[np.nan] * 4])
        with pytest.raises(ws.LevySpecError, match="points must be finite"):
            equality_in_law_suite("deterministic", np.random.default_rng(0),
                                  n_paths=1000, theta_grid=grid)


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
        assert _checks(rep)["exact_exponent"].compares <= 1e-10

    def test_negative_control_reports_mismatch(self):
        rep = equality_in_law_suite("negative_control", np.random.default_rng(14),
                                    n_paths=10_000)
        # at this N only the effect size is meaningful, not the verdict
        checks = _checks(rep)
        assert checks["strong_ecf"].expect == "differ"
        assert rep.to_dict()["strong_ecf"]["max_ratio"] == (
            checks["strong_ecf"].compares.max_ratio) > 0.5
        assert checks["weak_ecf"].met and checks["weak_ecf"].compares.passed
        assert checks["strong_vs_weak"].expect is None

    def test_strong_vs_weak_compares_the_two_ecfs(self):
        # the one two-sample comparison: the strong draw's ECF against the
        # weak draw's, with bound clt_bound(N, N, k=k)
        n, k = 2000, 3.0
        rep = equality_in_law_suite("finite_activity_C1", np.random.default_rng(18),
                                    n_paths=n, k=k)
        record, grid = scenario_record("finite_activity_C1"), ws.ThetaGridSpec().build(4)
        rng = np.random.default_rng(18)
        strong = ws.simulate_strong_at(record.T, record.X, 1.0, n, rng)
        weak = ws.simulate_weak_at(record.T, record.X, 1.0, n, rng)
        cross = _checks(rep)["strong_vs_weak"].compares
        assert np.array_equal(cross.theta_grid, grid)
        assert np.array_equal(cross.ecf, ws.ecf_grid(strong, grid))
        assert np.array_equal(cross.target, ws.ecf_grid(weak, grid))
        assert np.array_equal(cross.ecf, _checks(rep)["strong_ecf"].compares.ecf)
        assert np.array_equal(cross.target, _checks(rep)["weak_ecf"].compares.ecf)
        assert np.all(cross.bound == ws.clt_bound(n, n, k=k))
        assert (cross.n_samples, cross.k) == (n, k)

    @pytest.mark.parametrize("n,passed", [(100_000, True), (2000, False)])
    def test_negative_control_verdict(self, n, passed):
        # the expected mismatch (max |diff|/bound > 2) shows at N = 1e5 and
        # not at N = 2000
        rep = equality_in_law_suite("negative_control", np.random.default_rng(5),
                                    n_paths=n)
        assert rep.passed == passed, rep.summary()
        assert (rep.to_dict()["strong_ecf"]["max_ratio"] > 2.0) == passed
        assert f"strong_ecf: expect differ, {'met' if passed else 'NOT met'}" in (
            rep.summary())
        # strong vs weak is reported, not gated: at N = 1e5 the two differ
        # beyond their bound (max |diff|/bound about 2.3) and the control
        # passes all the same
        cross = _checks(rep)["strong_vs_weak"]
        assert cross.expect is None and cross.met
        assert cross.compares.passed != passed

    @pytest.mark.parametrize("name", verify.SCENARIOS)
    def test_passed_is_every_check_met(self, name):
        rep = equality_in_law_suite(name, np.random.default_rng(18), n_paths=2000)
        assert rep.passed == all(check.met for check in rep.checks)
        # the rule as it was written before the check list, branch by branch
        got = {c.name: c.compares for c in rep.checks}
        if scenario_record(name).equal_in_law:
            rule = (got["strong_ecf"].passed and got["weak_ecf"].passed
                    and got["strong_vs_weak"].passed
                    and got.get("exact_exponent", 0.0) <= 1e-10)
        else:
            rule = got["strong_ecf"].max_ratio > 2.0 and got["weak_ecf"].passed
        assert rep.passed == rule
        assert [c.name for c in rep.checks] == [
            "strong_ecf", "weak_ecf", "strong_vs_weak",
            *(["exact_exponent"] if scenario_record(name).stack else [])]
        d = rep.to_dict()
        assert d["passed"] == rep.passed
        assert all(d[c.name]["met"] == c.met and d[c.name]["expect"] == c.expect
                   for c in rep.checks)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ws.LevySpecError):
            equality_in_law_suite("bogus", np.random.default_rng(0), n_paths=1000)

    def test_report_serializes(self):
        rep = equality_in_law_suite("deterministic", np.random.default_rng(15),
                                    n_paths=2000)
        d = rep.to_dict()
        assert d["scenario"] == "deterministic"
        assert set(d) == {"scenario", "n_paths", "passed",
                          "strong_ecf", "weak_ecf", "strong_vs_weak"}
        assert all(d[name]["expect"] == "equal"
                   for name in ("strong_ecf", "weak_ecf", "strong_vs_weak"))

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
        assert (d["strong_ecf"]["expect"] == "differ") == (not record.equal_in_law)
        assert ("exact_exponent" in d) == (record.stack is not None)


def _checks(rep) -> dict:
    return {check.name: check for check in rep.checks}


class TestScenarioProcesses:
    @pytest.mark.parametrize("name", ["deterministic", "finite_activity_C1",
                                      "stacked_C3", "negative_control"])
    def test_specs_valid(self, name):
        T, X = scenario_record(name).T, scenario_record(name).X
        # the constructor raises on an orthant violation
        ws.SubordinatorSpec(T.d, T.jumps)
        assert X.dim == T.dim

    def test_time1_ecf_modulus(self):
        record = scenario_record("finite_activity_C1")
        samples = ws.simulate_weak_at(record.T, record.X, 1.0, 2000,
                                      np.random.default_rng(16))
        grid = ws.ThetaGridSpec().build(4)
        assert np.all(np.abs(ws.ecf_grid(samples, grid)) <= 1 + 1e-12)
