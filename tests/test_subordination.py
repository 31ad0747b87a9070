import io

import numpy as np
import pytest

import weaksub as ws
from weaksub import subordination
from weaksub.subordination import (TIME_T_CHUNK, _batch_rows, _jump_windows,
                                   expected_jumps)
from weaksub.verify import scenario_processes


def correlated_bm():
    return ws.BrownianMotion([0, 0], [[1, 0.5], [0.5, 1]])


def t_path(T, horizon, rng):
    """A path of T alone: the T block of a strong path with zero X."""
    path = ws.simulate_strong(T, ws.zero_process(T.dim), horizon, rng)
    path.values = path.values[:, :T.dim]
    path.drift_part = path.drift_part[:T.dim]
    return path


class TestWeakExponent:
    def test_origin(self):
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        assert ws.weak_exponent(T, correlated_bm(), [0, 0], [0, 0]) == 0

    def test_single_atom_closed_form(self):
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        bm = ws.BrownianMotion([0, 0], np.eye(2))
        val = ws.weak_exponent(T, bm, [0, 0], [1, 1])
        assert val == pytest.approx(np.exp(-1) - 1)
        # an atomic measure is integrated exactly whatever the rng
        assert ws.weak_exponent_mc(T, bm, [0, 0], [1, 1],
                                   np.random.default_rng(0)) == (val, 0.0)

    def test_pure_drift_reduction(self):
        T = ws.pure_drift([1, 2])
        bm = ws.BrownianMotion([0, 0], np.eye(2))
        assert ws.weak_exponent(T, bm, [0, 0], [1, 1]) == pytest.approx(-1.5)

    def test_deterministic_reduction_is_exact(self):
        # jump-free T: exponent is exactly i<d,theta1> + (d (*) Psi)(theta2)
        rng = np.random.default_rng(2)
        T = ws.pure_drift([0.3, 1.7])
        X = correlated_bm()
        for _ in range(50):
            th = rng.standard_normal(4)
            expected = (1j * T.d @ th[:2]
                        + ws.vector_time_exponent(X, T.d, th[2:]))
            assert ws.weak_exponent(T, X, th[:2], th[2:]) == pytest.approx(
                expected, abs=1e-14)

    def test_c1_reduction(self):
        # T = S * (1,...,1) with univariate atomic S:
        # weak exponent == -Lambda_S(-i<theta1, e> - Psi_X(theta2))
        rng = np.random.default_rng(3)
        S = ws.SubordinatorSpec(np.array([0.2]),
                                ws.AtomicJumps([[0.7], [1.4]], [1.0, 0.5]))
        emb = ws.StackEmbedding((2,))
        T = ws.stacked_subordinator(S, emb)
        X = correlated_bm()
        for _ in range(50):
            th = rng.standard_normal(4)
            z = -1j * th[:2].sum() - X.exponent(th[2:])
            expected = -ws.laplace_exponent(S, [z])
            got = ws.weak_exponent(T, X, th[:2], th[2:])
            assert abs(got - expected) <= 1e-12

    def test_real_part_nonpositive(self):
        rng = np.random.default_rng(4)
        T = ws.SubordinatorSpec(np.array([0.1, 0.2]),
                                ws.AtomicJumps([[1, 0], [0.5, 2]], [0.4, 0.9]))
        X = correlated_bm()
        for _ in range(100):
            th = rng.standard_normal(4) * 2
            assert ws.weak_exponent(T, X, th[:2], th[2:]).real <= 1e-10

    def test_samplable_needs_mc(self):
        jumps = ws.SamplableJumps(
            2, 1.0, lambda rng, size: rng.exponential(size=(size, 2)))
        T = ws.SubordinatorSpec(np.zeros(2), jumps)
        X = correlated_bm()
        with pytest.raises(ws.LevySpecError):
            ws.weak_exponent(T, X, [0, 0], [1, 1])
        est, se = ws.weak_exponent_mc(T, X, [0.0, 0.0], [1.0, 1.0],
                                      np.random.default_rng(5), samples=5000)
        assert se > 0
        # oracle: quadrature of the atomic integrand over the exponential
        # law. The integrand has a kink at t1 = t2 and is smooth on either
        # side; on the side t_a <= t_b write t_a = x / 2, t_b = t_a + y,
        # whose density is e^{-x} e^{-y} / 2, and use a tensor
        # Gauss-Laguerre rule in (x, y), all nodes in one array call.
        x, w = np.polynomial.laguerre.laggauss(60)
        lo = np.repeat(x / 2, x.size)
        hi = lo + np.tile(x, x.size)
        nodes = np.vstack([np.column_stack([lo, hi]), np.column_stack([hi, lo])])
        weights = np.tile(np.outer(w, w).ravel() / 2, 2)
        vals = np.exp(ws.vector_time_exponent(X, nodes, [1.0, 1.0])).real - 1.0
        exact = weights @ vals
        assert abs(est - exact) <= 4 * se


class TestStackEmbedding:
    def test_expand_repeats_each_block_clock(self):
        emb = ws.StackEmbedding((1, 2))
        np.testing.assert_array_equal(emb.expand([[0.5, 2.0], [np.inf, 1.0]]),
                                      [[0.5, 2.0, 2.0], [np.inf, 1.0, 1.0]])

    def test_samplable_clock_draws_equal_coordinates(self):
        # a sampler-only R: T's jumps are R's draws, repeated per block
        R = ws.truncated_gamma_subordinator(2.0, 1.5)
        T = ws.stacked_subordinator(R, ws.StackEmbedding((2,)))
        assert T.jumps.total_mass == R.jumps.total_mass
        np.testing.assert_array_equal(T.d, [R.d[0], R.d[0]])
        jumps = T.jumps.sample(np.random.default_rng(0), 100)
        r_jumps = R.jumps.sample(np.random.default_rng(0), 100)
        assert jumps.shape == (100, 2) and np.all(jumps > 0)
        np.testing.assert_array_equal(jumps, np.hstack([r_jumps, r_jumps]))


class TestStackedStrongExponent:
    def setup_method(self):
        self.emb = ws.StackEmbedding((1, 1))
        self.blocks = [ws.BrownianMotion([0.0], [[1.0]]),
                       ws.BrownianMotion([0.0], [[1.0]])]

    def test_origin(self):
        R = ws.SubordinatorSpec(np.array([1.0, 2.0]), ws.ZeroJumps(2))
        assert ws.stacked_strong_exponent(R, self.emb, self.blocks,
                                          [0, 0], [0, 0]) == 0

    def test_deterministic_stack(self):
        R = ws.SubordinatorSpec(np.array([1.0, 2.0]), ws.ZeroJumps(2))
        val = ws.stacked_strong_exponent(R, self.emb, self.blocks,
                                         [0, 0], [1, 1])
        assert val == pytest.approx(-1.5)

    def test_common_jump_stack(self):
        R = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 2]], [1.0]))
        val = ws.stacked_strong_exponent(R, self.emb, self.blocks,
                                         [0, 0], [1, 1])
        assert val == pytest.approx(-(1 - np.exp(-1.5)))

    def test_agrees_with_weak_exponent_randomized(self):
        # the computational content of the stacked equality-in-law theorem
        rng = np.random.default_rng(10)
        for trial in range(20):
            dims = tuple(rng.integers(1, 3, size=rng.integers(1, 4)))
            emb = ws.StackEmbedding(tuple(int(v) for v in dims))
            d = emb.d
            blocks = []
            for nm in dims:
                a = rng.standard_normal((nm, nm))
                blocks.append(ws.BrownianMotion(rng.standard_normal(nm),
                                                a @ a.T))
            atoms = rng.uniform(0, 2, size=(2, d))
            R = ws.SubordinatorSpec(rng.uniform(0, 1, d),
                                    ws.AtomicJumps(atoms, rng.uniform(0.1, 2, 2)))
            T = ws.stacked_subordinator(R, emb)
            X = ws.IndependentStack(blocks)
            n = emb.n
            for _ in range(5):
                th = rng.standard_normal(2 * n)
                a_val = ws.stacked_strong_exponent(R, emb, blocks, th[:n], th[n:])
                b_val = ws.weak_exponent(T, X, th[:n], th[n:])
                assert abs(a_val - b_val) <= 1e-10

    def test_dim_mismatch(self):
        R = ws.SubordinatorSpec(np.zeros(2), ws.ZeroJumps(2))
        with pytest.raises(ws.LevySpecError):
            ws.stacked_strong_exponent(R, self.emb, self.blocks, [0, 0, 0],
                                       [1, 1])


class TestSimulateSubordinator:
    def test_pure_drift(self):
        T = ws.pure_drift([1.0, 0.0])
        path = t_path(T, 5.0, np.random.default_rng(0))
        assert np.array_equal(path.event_times, [5.0])
        assert np.allclose(path.values_at([2.0]), [[2.0, 0.0]])

    def test_poisson_jump_count(self):
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [1.0]))
        reps = 10**4
        counts, _, _ = _jump_windows(T, 10.0, reps, np.random.default_rng(1))
        assert abs(np.mean(counts) - 10.0) <= 4 * np.sqrt(10) / np.sqrt(reps)

    def test_nondecreasing_path(self):
        T = ws.SubordinatorSpec(np.array([0.5, 0.0]),
                                ws.AtomicJumps([[1, 0], [0.2, 0.7]], [2.0, 1.0]))
        path = t_path(T, 3.0, np.random.default_rng(2))
        vals = path.values_at(np.linspace(0, 3, 50))
        assert np.all(np.diff(vals, axis=0) >= -1e-12)

    def test_times_sorted(self):
        # unit jumps, no drift: T is 1, 2, ... at the sorted jump times in
        # (0, 1] and keeps its count at the horizon
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [20.0]))
        path = t_path(T, 1.0, np.random.default_rng(2))
        times, m = path.event_times, len(path.event_times)
        assert m > 10 and times[-1] == 1.0
        assert np.all(np.diff(times) > 0) and times[0] > 0
        assert np.array_equal(path.values[:, 0],
                              np.minimum(np.arange(1, m + 1), m - 1))

    def test_disjoint_window_counts_uncorrelated(self):
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [3.0]))
        reps = 10**4
        counts, times, _ = _jump_windows(T, 1.0, reps, np.random.default_rng(3))
        window = np.repeat(np.arange(reps), counts)
        a = np.bincount(window[times <= 0.5], minlength=reps)
        b = np.bincount(window[times > 0.5], minlength=reps)
        prod = (a - a.mean()) * (b - b.mean())
        corr = prod.mean() / (a.std() * b.std())
        corr_se = prod.std(ddof=1) / (a.std() * b.std()) / np.sqrt(reps)
        assert abs(corr) <= 4 * corr_se


class TestSimulateStrong:
    def test_identity_time_change(self):
        # T = identity drift: X o T == X in law; ECF at t=1 vs CF of X(e)
        T = ws.pure_drift([1.0, 1.0])
        X = correlated_bm()
        rng = np.random.default_rng(3)
        samples = ws.simulate_strong_at(T, X, 1.0, 20_000, rng)
        grid = ws.default_theta_grid(2)
        report = ws.cf_compare(samples[:, 2:],
                               lambda th: np.exp(X.exponent(th)), grid)
        assert report.passed, report.summary()

    def test_zero_subordinate(self):
        T = ws.SubordinatorSpec(np.array([0.5, 0.5]),
                                ws.AtomicJumps([[1, 1]], [1.0]))
        path = ws.simulate_strong(T, ws.zero_process(2), 1.0,
                                  np.random.default_rng(4))
        assert np.all(path.values[:, 2:] == 0)

    def test_c1_conditional_variance(self):
        # T = common unit-rate Poisson clock: Var((X o T)_j(1)) =
        # Sigma_jj * E S(1) = 1
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        X = correlated_bm()
        rng = np.random.default_rng(5)
        n = 50_000
        samples = ws.simulate_strong_at(T, X, 1.0, n, rng)
        sq = samples[:, 2] ** 2
        assert abs(sq.mean() - 1.0) <= 4 * sq.std(ddof=1) / np.sqrt(n)

    def test_subordinator_marginal_preserved(self):
        T = ws.SubordinatorSpec(np.array([0.1, 0.3]),
                                ws.AtomicJumps([[1, 0], [0, 2]], [1.0, 0.5]))
        X = correlated_bm()
        rng = np.random.default_rng(6)
        samples = ws.simulate_strong_at(T, X, 1.0, 20_000, rng)
        direct = np.array([
            t_path(T, 1.0, rng).values_at([1.0])[0]
            for _ in range(20_000)])
        grid = ws.default_theta_grid(2)
        report = ws.ecf_two_sample_compare(samples[:, :2], direct, grid)
        assert report.passed, report.summary()


class TestSimulateWeak:
    def test_zero_subordinator_constant_path(self):
        T = ws.SubordinatorSpec(np.zeros(2), ws.ZeroJumps(2))
        path = ws.simulate_weak(T, correlated_bm(), 1.0,
                                np.random.default_rng(0))
        assert np.all(path.values == 0)

    def test_pure_drift_matches_deterministic_exponent(self):
        T = ws.pure_drift([1.0, 2.0])
        X = correlated_bm()
        rng = np.random.default_rng(7)
        samples = ws.simulate_weak_at(T, X, 1.0, 20_000, rng)
        grid = ws.default_theta_grid(4)
        report = ws.cf_compare(
            samples,
            lambda th: np.exp(ws.weak_exponent(T, X, th[:2], th[2:])), grid)
        assert report.passed, report.summary()

    def test_single_atom_cf_value(self):
        # atom (1,1) rate 1: CF at theta=(0,0,1,1) is exp(e^{-1} - 1)
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        X = ws.BrownianMotion([0, 0], np.eye(2))
        rng = np.random.default_rng(8)
        n = 30_000
        samples = ws.simulate_weak_at(T, X, 1.0, n, rng)
        emp = ws.ecf(samples, [0, 0, 1, 1])
        assert abs(emp - np.exp(np.exp(-1) - 1)) <= ws.clt_bound(n)

    def test_subordinator_marginal_preserved(self):
        T = ws.SubordinatorSpec(np.array([0.0, 0.2]),
                                ws.AtomicJumps([[1, 1], [0, 0.5]], [0.6, 0.9]))
        X = correlated_bm()
        rng = np.random.default_rng(9)
        samples = ws.simulate_weak_at(T, X, 1.0, 20_000, rng)
        direct = np.array([
            t_path(T, 1.0, rng).values_at([1.0])[0]
            for _ in range(20_000)])
        grid = ws.default_theta_grid(2)
        report = ws.ecf_two_sample_compare(samples[:, :2], direct, grid)
        assert report.passed, report.summary()


def time_t_cases():
    """(T, X) pairs for the batched-vs-per-path check: the four suite
    scenarios, a truncated gamma clock (samplable jumps) and a compound
    Poisson subordinate (one duration per row in its increments)."""
    cases = {name: scenario_processes(name)[:2]
             for name in ("deterministic", "finite_activity_C1", "stacked_C3",
                          "negative_control")}
    cases["truncated_gamma"] = (ws.truncated_gamma_subordinator(2.0, 1.5),
                                ws.BrownianMotion([0.3], [[1.0]]))
    cases["compound_poisson"] = (
        ws.SubordinatorSpec(np.array([0.4, 0.1]),
                            ws.AtomicJumps([[1, 0.5], [0.2, 1.5]], [0.7, 0.6])),
        ws.CompoundPoisson(ws.AtomicJumps([[1.0, -0.5], [0.3, 0.8]], [0.9, 1.1])))
    return cases


TIME_T_CASES = time_t_cases()


class TestTimeTSamplers:
    # the per-path simulators are the reference for the batched samplers
    N = 2000

    @pytest.mark.parametrize("kind", ["strong", "weak"])
    @pytest.mark.parametrize("case", sorted(TIME_T_CASES))
    def test_batched_matches_per_path(self, case, kind):
        T, X = TIME_T_CASES[case]
        simulate = {"strong": ws.simulate_strong, "weak": ws.simulate_weak}[kind]
        batched = {"strong": ws.simulate_strong_at, "weak": ws.simulate_weak_at}[kind]
        rng = np.random.default_rng(40)
        per_path = np.array([simulate(T, X, 1.0, rng).values[-1]
                             for _ in range(self.N)])
        rows = batched(T, X, 1.0, self.N, np.random.default_rng(41))
        assert rows.shape == (self.N, 2 * T.dim)
        report = ws.ecf_two_sample_compare(rows, per_path,
                                           ws.default_theta_grid(2 * T.dim), k=4)
        assert report.passed, report.summary()

    def test_chunks_and_edge_sizes(self):
        T, X = TIME_T_CASES["finite_activity_C1"]
        assert ws.simulate_weak_at(T, X, 1.0, 0, np.random.default_rng(0)).shape == (0, 4)
        for sample in (ws.simulate_strong_at, ws.simulate_weak_at):
            # rows come in chunks drawn one after another from the one rng
            rows = sample(T, X, 1.0, TIME_T_CHUNK + 3, np.random.default_rng(1))
            rng = np.random.default_rng(1)
            parts = [sample(T, X, 1.0, size, rng) for size in (TIME_T_CHUNK, 3)]
            assert np.array_equal(rows, np.vstack(parts))
        with pytest.raises(ws.LevySpecError):
            ws.simulate_strong_at(T, X, 0.0, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("simulate", [
        lambda T, X, rng: ws.simulate_strong_at(T, X, 1.0, 200, rng),
        lambda T, X, rng: ws.simulate_weak_at(T, X, 1.0, 200, rng),
        lambda T, X, rng: [ws.simulate_strong(T, X, 1.0, rng) for _ in range(20)],
        lambda T, X, rng: [ws.simulate_weak(T, X, 1.0, rng) for _ in range(20)]],
        ids=["strong_at", "weak_at", "strong", "weak"])
    def test_overflowing_draw_raises(self, simulate):
        # two jumps of 1e308 sum beyond the float range: an error, not a
        # RuntimeWarning (an error under this suite) and inf or NaN values
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1e308, 1e308]], [2.0]))
        with pytest.raises(ws.LevySpecError, match="floating-point range"):
            simulate(T, correlated_bm(), np.random.default_rng(3))

    def test_jump_rate_beyond_poisson_sampler_raises(self):
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1e300]))
        with pytest.raises(ws.LevySpecError, match="expect at most"):
            ws.simulate_weak_at(T, correlated_bm(), 1.0, 100, np.random.default_rng(3))


class TestBatchRows:
    # a subordinator with drift and one atom over a compound Poisson law
    T = ws.SubordinatorSpec(np.array([0.5, 1.0]), ws.AtomicJumps([[1.0, 2.0]], [1.0]))
    X = ws.CompoundPoisson(ws.AtomicJumps([[1.0, -0.5]], [50.0]))

    def test_expected_jumps(self):
        # T: mass 1 x t; X: rate 50 x t x (drift 1.0 + mass 1 x coordinate 2.0)
        assert expected_jumps(self.T, self.X, 2.0) == (2.0, 300.0)
        assert expected_jumps(self.T, correlated_bm(), 2.0) == (2.0, 0.0)
        gamma = ws.truncated_gamma_subordinator(2.0, 1.5)
        cpp = ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [1.0]))
        # a sampled jump measure: its largest jump is unknown
        assert expected_jumps(gamma, cpp, 1.0)[1] == np.inf
        assert _batch_rows(gamma, cpp, 1.0) == 1
        bm = ws.BrownianMotion([0.0], [[1.0]])
        assert _batch_rows(gamma, bm, 1.0) == TIME_T_CHUNK

    def test_suite_scenarios_keep_full_batches(self):
        for name in ("deterministic", "finite_activity_C1", "stacked_C3",
                     "negative_control"):
            assert _batch_rows(*scenario_processes(name)[:2], 1.0) == TIME_T_CHUNK

    @pytest.mark.parametrize("kind", ["strong", "weak"])
    def test_no_draw_exceeds_the_cap(self, monkeypatch, kind):
        sample = {"strong": ws.simulate_strong_at, "weak": ws.simulate_weak_at}[kind]
        assert _batch_rows(self.T, self.X, 1.0) >= 2000
        full = sample(self.T, self.X, 1.0, 2000, np.random.default_rng(13))
        # 151 expected jumps per row; a cap of 1510 makes batches of 10 rows
        cap = 1510
        monkeypatch.setattr(subordination, "MAX_BATCH_JUMPS", cap)
        assert _batch_rows(self.T, self.X, 1.0) == 10
        sizes = []  # points per jump draw of X; a law of its own records them
        X = ws.CompoundPoisson(ws.AtomicJumps([[1.0, -0.5]], [50.0]))
        draw = X.jumps.sample
        X.jumps.sample = lambda rng, k: (sizes.append(k), draw(rng, k))[1]
        rows = sample(self.T, X, 1.0, 2000, np.random.default_rng(12))
        assert rows.shape == (2000, 4)
        assert len(sizes) >= 200 and max(sizes) <= cap
        # smaller batches draw differently, from the same law as one batch
        report = ws.ecf_two_sample_compare(rows, full, ws.default_theta_grid(4))
        assert report.passed, report.summary()


class TestPathRecord:
    def _make_path(self):
        T = ws.SubordinatorSpec(np.array([0.5, 0.25]),
                                ws.AtomicJumps([[1, 1]], [2.0]))
        return ws.simulate_weak(T, correlated_bm(), 2.0,
                                np.random.default_rng(1),
                                sample_times=[0.5, 1.0, 1.5, 2.0])

    def test_event_times_sorted_within_horizon(self):
        path = self._make_path()
        assert np.all(np.diff(path.event_times) > 0)
        assert path.event_times[-1] <= path.horizon

    def test_subordinator_block_nondecreasing(self):
        path = self._make_path()
        vals = path.values_at(np.linspace(0, 2, 40))
        assert np.all(np.diff(vals[:, :2], axis=0) >= -1e-12)

    def test_csv_round_trip_floats(self):
        path = self._make_path()
        buf = io.StringIO()
        path.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "time,T_1,T_2,Z_1,Z_2"
        row = np.array([float(v) for v in lines[1].split(",")])
        assert row[0] == path.event_times[0]
        assert np.all(row[1:] == path.values[0])

    def test_values_at_hand_values(self):
        # before the first event: drift x t; at an event: its value;
        # between events: the last value plus drift x elapsed time
        path = ws.PathRecord(event_times=np.array([1.0, 3.0]),
                             values=np.array([[1.0, 1.0, 5.0, 6.0],
                                              [2.0, 4.0, 7.0, 8.0]]),
                             drift_part=np.array([0.5, 1.0, 0.0, 0.0]),
                             horizon=4.0)
        got = path.values_at([0.5, 1.0, 2.0, 3.0, 3.5])
        assert np.array_equal(got, [[0.25, 0.5, 0.0, 0.0],
                                    [1.0, 1.0, 5.0, 6.0],
                                    [1.5, 2.0, 5.0, 6.0],
                                    [2.0, 4.0, 7.0, 8.0],
                                    [2.25, 4.5, 7.0, 8.0]])


class TestTruncation:
    def test_gamma_truncation_mean_preserved(self):
        # E T(1) = c/b for the gamma subordinator; compensation keeps it
        b, c = 2.0, 1.5
        T = ws.truncated_gamma_subordinator(b, c, eps=0.01)
        rng = np.random.default_rng(11)
        reps = 4000
        vals = np.array([
            t_path(T, 1.0, rng).values_at([1.0])[0, 0]
            for _ in range(reps)])
        assert abs(vals.mean() - c / b) <= 4 * vals.std(ddof=1) / np.sqrt(reps)

    def test_choose_eps_controls_discarded_mass(self):
        from scipy import integrate
        b, c = 1.0, 1.0
        density = lambda t: c * np.exp(-b * t) / t
        eps = ws.choose_truncation_eps(density, target=1e-3)
        discarded, _ = integrate.quad(lambda t: t * density(t), 0, eps)
        assert discarded <= 1e-3 + 1e-9

    def test_infinite_total_mass_rejected(self):
        with pytest.raises(ws.LevySpecError):
            ws.SamplableJumps(1, np.inf, lambda rng, size: None)
