import io

import numpy as np
import pytest

import weaksub as ws
from weaksub.subordination import TIME_T_CHUNK
from weaksub.verify import scenario_processes


def correlated_bm():
    return ws.BrownianMotion([0, 0], [[1, 0.5], [0.5, 1]])


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


class TestWeakDriftComponent:
    def test_atom_outside_ball_is_zero(self):
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        m, se = ws.weak_drift_component(T, correlated_bm(), 1000,
                                        np.random.default_rng(0))
        assert np.all(m == 0)

    def test_zero_process_inside_ball(self):
        T = ws.SubordinatorSpec(np.zeros(2),
                                ws.AtomicJumps([[0.1, 0.1]], [1.0]))
        m, se = ws.weak_drift_component(T, ws.zero_process(2), 1000,
                                        np.random.default_rng(0))
        assert np.allclose(m, [0.1, 0.1, 0, 0])

    def test_empty_measure(self):
        T = ws.SubordinatorSpec(np.zeros(2), ws.ZeroJumps(2))
        m, se = ws.weak_drift_component(T, correlated_bm(), 100,
                                        np.random.default_rng(0))
        assert np.all(m == 0) and np.all(se == 0)

    def test_nonzero_drift_rejected(self):
        T = ws.pure_drift([1.0, 0.0])
        with pytest.raises(ws.LevySpecError):
            ws.weak_drift_component(T, correlated_bm(), 10,
                                    np.random.default_rng(0))

    def test_mc_matches_small_atom_oracle(self):
        # atom t0 = (0.09, 0.16), X standard 1d-stack BM: the mark is
        # N(0, diag(t0)); oracle by direct Gaussian integration (MC with
        # a different construction)
        T = ws.SubordinatorSpec(np.zeros(2),
                                ws.AtomicJumps([[0.09, 0.16]], [2.0]))
        X = ws.IndependentStack([ws.BrownianMotion([0.0], [[1.0]]),
                                 ws.BrownianMotion([0.0], [[1.0]])])
        m, se = ws.weak_drift_component(T, X, 200_000,
                                        np.random.default_rng(1))
        rng = np.random.default_rng(2)
        y = rng.standard_normal((200_000, 2)) * np.sqrt([0.09, 0.16])
        inside = 0.09**2 + 0.16**2 + (y**2).sum(axis=1) <= 1.0
        oracle_t = 2.0 * np.array([0.09, 0.16]) * inside.mean()
        oracle_y = 2.0 * (y * inside[:, None]).mean(axis=0)
        assert np.all(np.abs(m[:2] - oracle_t) <= 4 * (se[:2] + 1e-4))
        assert np.all(np.abs(m[2:] - oracle_y) <= 4 * (se[2:] + 1e-4))


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
        sub = ws.simulate_subordinator(T, 5.0, np.random.default_rng(0))
        assert len(sub.times) == 0
        assert np.allclose(sub.values_at([2.0]), [[2.0, 0.0]])

    def test_poisson_jump_count(self):
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [1.0]))
        reps = 10**4
        rng = np.random.default_rng(1)
        counts = [len(ws.simulate_subordinator(T, 10.0, rng).times)
                  for _ in range(reps)]
        assert abs(np.mean(counts) - 10.0) <= 4 * np.sqrt(10) / np.sqrt(reps)

    def test_nondecreasing_path(self):
        T = ws.SubordinatorSpec(np.array([0.5, 0.0]),
                                ws.AtomicJumps([[1, 0], [0.2, 0.7]], [2.0, 1.0]))
        sub = ws.simulate_subordinator(T, 3.0, np.random.default_rng(2))
        vals = sub.values_at(np.linspace(0, 3, 50))
        assert np.all(np.diff(vals, axis=0) >= -1e-12)

    def test_times_sorted(self):
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [20.0]))
        sub = ws.simulate_subordinator(T, 1.0, np.random.default_rng(2))
        assert np.all(np.diff(sub.times) >= 0)
        assert np.all((sub.times > 0) & (sub.times <= 1.0))

    def test_disjoint_window_counts_uncorrelated(self):
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [3.0]))
        rng = np.random.default_rng(3)
        reps = 10**4
        a = np.empty(reps)
        b = np.empty(reps)
        for r in range(reps):
            times = ws.simulate_subordinator(T, 1.0, rng).times
            a[r] = np.sum(times <= 0.5)
            b[r] = np.sum(times > 0.5)
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
            ws.simulate_subordinator(T, 1.0, rng).values_at([1.0])[0]
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
            ws.simulate_subordinator(T, 1.0, rng).values_at([1.0])[0]
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

    def test_jsonl_round_trip(self):
        path = self._make_path()
        buf = io.StringIO()
        path.to_jsonl(buf)
        buf.seek(0)
        back = ws.PathRecord.from_jsonl(buf)
        assert np.array_equal(back.event_times, path.event_times)
        assert np.array_equal(back.values, path.values)
        assert back.horizon == path.horizon


class TestTruncation:
    def test_gamma_truncation_mean_preserved(self):
        # E T(1) = c/b for the gamma subordinator; compensation keeps it
        b, c = 2.0, 1.5
        T = ws.truncated_gamma_subordinator(b, c, eps=0.01)
        rng = np.random.default_rng(11)
        reps = 4000
        vals = np.array([
            ws.simulate_subordinator(T, 1.0, rng).values_at([1.0])[0, 0]
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
