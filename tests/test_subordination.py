import itertools
import math
import tracemalloc

import numpy as np
import pytest

import weaksub as ws
from weaksub import subordination
from weaksub.subordination import TIME_T_CHUNK, _batch_rows, expected_jumps
from weaksub.verify import scenario_record


def correlated_bm():
    return ws.BrownianMotion([0, 0], [[1, 0.5], [0.5, 1]])


def zero_bm(n):
    """The constant-zero process in n dimensions."""
    return ws.BrownianMotion(np.zeros(n), np.zeros((n, n)))


def t_at(T, times, size, rng):
    """T alone at the times: the T block of strong draws with zero X,
    shape (size, len(times), n)."""
    rows = ws.simulate_strong_at(T, zero_bm(T.dim), times, size, rng)
    return rows[..., :T.dim]


def t_cf(T, t, theta):
    """Exact CF of T(t) at each row of theta: exp(-t Lambda_T(-i theta))."""
    return np.exp(-t * ws.laplace_exponent(T, -1j * np.asarray(theta)))


def strong_cf(T, X, t, grid):
    """Exact CF of (T(t), (X o T)(t)) for atomic T at each row (theta1,
    theta2) of grid: the expectation over independent Poisson(rate_j t)
    atom counts N_j of exp(i<theta1, tau> + Psi_X at the vector time tau)
    with tau = d t + sum_j N_j x_j, the lattice cut where the omitted
    mass is below 1e-13."""
    from scipy.stats import poisson
    means = T.jumps.rates * t
    tail = 1e-13 / max(len(means), 1)
    counts = np.array(list(itertools.product(  # shape (lattice points, atoms)
        *[range(int(poisson.isf(tail, mu)) + 1) for mu in means])), dtype=float)
    probs = np.prod(poisson.pmf(counts, means), axis=1)
    tau = t * T.d + counts @ T.jumps.points
    n = T.dim
    vals = np.exp(1j * grid[:, :n] @ tau.T
                  + ws.vector_time_exponent(X, tau[None], grid[:, None, n:]))
    return vals @ probs


class TestWeakExponent:
    def test_origin(self):
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        assert ws.weak_exponent(T, correlated_bm(), [0, 0], [0, 0]) == 0

    def test_single_atom_closed_form(self):
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        bm = ws.BrownianMotion([0, 0], np.eye(2))
        val = ws.weak_exponent(T, bm, [0, 0], [1, 1])
        assert val == pytest.approx(np.exp(-1) - 1)

    def test_pure_drift_reduction(self):
        T = ws.SubordinatorSpec([1, 2])
        bm = ws.BrownianMotion([0, 0], np.eye(2))
        assert ws.weak_exponent(T, bm, [0, 0], [1, 1]) == pytest.approx(-1.5)

    def test_deterministic_reduction_is_exact(self):
        # jump-free T: exponent is exactly i<d,theta1> + (d (*) Psi)(theta2)
        rng = np.random.default_rng(2)
        T = ws.SubordinatorSpec([0.3, 1.7])
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
        T = ws.stacked_subordinator(S, (2,))
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

    def test_gamma_ray_matches_quadrature(self):
        # a ray a with density c e^{-b r} / r: the jump term is the integral
        # of (exp(r u) - 1) c e^{-b r} / r dr with u = i<theta1, a> +
        # (a (*) Psi_X)(theta2); with x = b r, a 60-node Gauss-Laguerre rule
        # over x of c (exp(x u / b) - 1) / x, which is smooth at x = 0
        a, c, b = np.array([1.0, 0.5]), 1.5, 2.0
        T = ws.SubordinatorSpec(np.zeros(2), ws.GammaRays([a], [c], [b]))
        X = correlated_bm()
        x, w = np.polynomial.laguerre.laggauss(60)
        for th in np.random.default_rng(5).standard_normal((20, 4)) * 0.5:
            u = 1j * th[:2] @ a + ws.vector_time_exponent(X, a, th[2:])
            exact = w @ (c * np.expm1(x * u / b) / x)
            assert abs(ws.weak_exponent(T, X, th[:2], th[2:]) - exact) <= 1e-8

    def test_memory_bounded_by_a_block_of_rows(self):
        # 20 000 rows under a 100-atom clock: blocks of TIME_T_CHUNK // 100
        # rows peak near 1.4 MiB, where one call over every ray and row
        # held 183 MiB
        rng = np.random.default_rng(6)
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps(rng.random((100, 2)),
                                                            np.ones(100)))
        th = rng.standard_normal((20_000, 4))
        tracemalloc.start()
        try:
            ws.weak_exponent(T, correlated_bm(), th[:, :2], th[:, 2:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.bits
    def test_blocks_are_bit_for_bit_the_block_calls(self):
        # 3000 rows under a 6-atom clock are three blocks of
        # TIME_T_CHUNK // 6 rows, the last one partial
        rng = np.random.default_rng(7)
        T = ws.SubordinatorSpec([0.1, 0.2], ws.AtomicJumps(rng.random((6, 2)),
                                                           rng.random(6)))
        th, block = rng.standard_normal((3000, 4)), TIME_T_CHUNK // 6
        assert 2 * block < len(th) < 3 * block
        parts = [ws.weak_exponent(T, correlated_bm(), rows[:, :2], rows[:, 2:])
                 for rows in np.split(th, range(block, len(th), block))]
        whole = ws.weak_exponent(T, correlated_bm(), th[:, :2], th[:, 2:])
        assert whole.tobytes() == np.concatenate(parts).tobytes()

    def test_overflow_to_a_finite_value(self):
        # Psi_X(1e160, 1e160) overflows to -inf, so CF_X there is 0 and C1's
        # one atom makes the exponent exactly -1, with no RuntimeWarning
        # (an error under pytest)
        c1 = scenario_record("finite_activity_C1")
        assert ws.weak_exponent(c1.T, c1.X, [0, 0], [1e160, 1e160]) == -1


class TestStackedSubordinator:
    def test_repeats_each_block_clock(self):
        R = ws.SubordinatorSpec(np.array([0.5, 2.0]),
                                ws.AtomicJumps([[1.0, 0.5], [0.0, 3.0]], [1.0, 2.0]))
        T = ws.stacked_subordinator(R, (1, 2))
        np.testing.assert_array_equal(T.d, [0.5, 2.0, 2.0])
        np.testing.assert_array_equal(T.jumps.points, [[1.0, 0.5, 0.5], [0.0, 3.0, 3.0]])
        np.testing.assert_array_equal(T.jumps.rates, R.jumps.rates)

    @pytest.mark.parametrize("dims", [(1,), (1, 1, 1), (0, 2), (-1, 2), (1.5, 0.5),
                                      (True, 1)],
                             ids=["too_few", "too_many", "zero", "negative", "fractional",
                                  "bool"])
    def test_bad_block_sizes_rejected(self, dims):
        R = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1.0, 2.0]], [1.0]))
        blocks = [ws.BrownianMotion([0.0], [[1.0]])] * len(dims)
        with pytest.raises(ws.LevySpecError, match="block sizes"):
            ws.stacked_subordinator(R, dims)
        with pytest.raises(ws.LevySpecError, match="block sizes"):
            ws.stacked_strong_exponent(R, dims, blocks, np.zeros(2), np.zeros(2))

    def test_gamma_clock_draws_equal_coordinates(self):
        # a gamma-ray R: T's jumps are R's draws, repeated per block
        R = ws.SubordinatorSpec(np.array([0.3]), ws.GammaRays([[1.0]], [1.5], [2.0]))
        T = ws.stacked_subordinator(R, (2,))
        np.testing.assert_array_equal(T.d, [R.d[0], R.d[0]])
        steps = np.array([0.25, 0.5])
        window, jumps = T.jumps.window_draws(steps, 50, np.random.default_rng(0))
        r_window, r_jumps = R.jumps.window_draws(steps, 50, np.random.default_rng(0))
        assert np.array_equal(window, r_window)
        assert jumps.shape == (100, 2) and np.all(jumps > 0)
        np.testing.assert_array_equal(jumps, np.hstack([r_jumps, r_jumps]))


class TestStackedStrongExponent:
    def setup_method(self):
        self.dims = (1, 1)
        self.blocks = [ws.BrownianMotion([0.0], [[1.0]]),
                       ws.BrownianMotion([0.0], [[1.0]])]

    def test_origin(self):
        R = ws.SubordinatorSpec(np.array([1.0, 2.0]))
        assert ws.stacked_strong_exponent(R, self.dims, self.blocks,
                                          [0, 0], [0, 0]) == 0

    def test_deterministic_stack(self):
        R = ws.SubordinatorSpec(np.array([1.0, 2.0]))
        val = ws.stacked_strong_exponent(R, self.dims, self.blocks,
                                         [0, 0], [1, 1])
        assert val == pytest.approx(-1.5)

    def test_common_jump_stack(self):
        R = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 2]], [1.0]))
        val = ws.stacked_strong_exponent(R, self.dims, self.blocks,
                                         [0, 0], [1, 1])
        assert val == pytest.approx(-(1 - np.exp(-1.5)))

    def test_agrees_with_weak_exponent_randomized(self):
        # the computational content of the stacked equality-in-law theorem
        rng = np.random.default_rng(10)
        for trial in range(20):
            dims = tuple(rng.integers(1, 3, size=rng.integers(1, 4)))
            d = len(dims)
            blocks = []
            for nm in dims:
                a = rng.standard_normal((nm, nm))
                blocks.append(ws.BrownianMotion(rng.standard_normal(nm),
                                                a @ a.T))
            atoms = rng.uniform(0, 2, size=(2, d))
            R = ws.SubordinatorSpec(rng.uniform(0, 1, d),
                                    ws.AtomicJumps(atoms, rng.uniform(0.1, 2, 2)))
            T = ws.stacked_subordinator(R, dims)
            X = ws.IndependentStack(blocks)
            n = sum(dims)
            for _ in range(5):
                th = rng.standard_normal(2 * n)
                a_val = ws.stacked_strong_exponent(R, dims, blocks, th[:n], th[n:])
                b_val = ws.weak_exponent(T, X, th[:n], th[n:])
                assert abs(a_val - b_val) <= 1e-10

    def test_rank_deficient_block_agrees_with_weak_exponent(self):
        # sigma = 1e6 B B' of rank 2 in one 3-d block, theta2 on the null
        # direction of B': the Brownian exponent's real part is 0 or a
        # rounding below it, never above, so the closed form takes every stack
        R = ws.SubordinatorSpec([0.5], ws.AtomicJumps([[1.0]], [1.0]))
        T = ws.stacked_subordinator(R, (3,))
        rng = np.random.default_rng(4)
        for _ in range(20):
            b = rng.standard_normal((3, 2))
            bm = ws.BrownianMotion(np.zeros(3), 1e6 * b @ b.T)
            th1, th2 = rng.standard_normal(3), np.linalg.svd(b.T)[2][-1]
            psi = ws.weak_exponent(T, bm, th1, th2)
            exact = ws.stacked_strong_exponent(R, (3,), (bm,), th1, th2)
            assert abs(exact - psi) <= 1e-12 * max(1.0, abs(psi))

    def test_block_law_with_positive_real_part_rejected(self):
        # Re psi <= 0 is checked once, by laplace_exponent, for a law
        # the library does not build too
        class Growing(ws.LevyLaw):
            dim = 1

            def exponent(self, theta):
                return np.full(np.shape(theta)[:-1], 1e-3 + 0.5j)

        R = ws.SubordinatorSpec([0.5], ws.AtomicJumps([[1.0]], [1.0]))
        with pytest.raises(ws.LevySpecError, match="Re"):
            ws.stacked_strong_exponent(R, (1,), (Growing(),), [0.0], [1.0])

    def test_dim_mismatch(self):
        R = ws.SubordinatorSpec(np.zeros(2))
        with pytest.raises(ws.LevySpecError):
            ws.stacked_strong_exponent(R, self.dims, self.blocks, [0, 0, 0],
                                       [1, 1])
        # a block law whose dimension is not its block size
        blocks = [self.blocks[0], ws.BrownianMotion([0.0, 0.0], np.eye(2))]
        with pytest.raises(ws.LevySpecError, match="block laws"):
            ws.stacked_strong_exponent(R, self.dims, blocks, [0, 0], [1, 1])

    def test_stacked_gamma_agrees_with_weak_exponent(self):
        # A3 for the variance-gamma stack, on 100 frequencies
        R, dims, blocks = STACKED_GAMMA
        T, X = TIME_T_CASES["stacked_gamma"]
        n = sum(dims)
        th = np.random.default_rng(11).standard_normal((100, 2 * n))
        exact = ws.stacked_strong_exponent(R, dims, blocks, th[:, :n], th[:, n:])
        weak = ws.weak_exponent(T, X, th[:, :n], th[:, n:])
        assert np.max(np.abs(exact - weak)) <= 1e-10


class TestSimulateSubordinator:
    def test_pure_drift(self):
        T = ws.SubordinatorSpec([1.0, 0.0])
        rows = ws.simulate_strong_at(T, correlated_bm(), [2.0, 5.0], 3,
                                     np.random.default_rng(0))
        assert rows.shape == (3, 2, 4)
        assert np.array_equal(rows[..., :2],
                              np.tile([[2.0, 0.0], [5.0, 0.0]], (3, 1, 1)))

    def test_poisson_jump_count(self):
        # unit jumps, no drift: T(10) counts the jumps in (0, 10]
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [1.0]))
        reps = 10**4
        counts = t_at(T, [10.0], reps, np.random.default_rng(1))[:, 0, 0]
        assert abs(np.mean(counts) - 10.0) <= 4 * np.sqrt(10) / np.sqrt(reps)

    def test_nondecreasing_path(self):
        T = ws.SubordinatorSpec(np.array([0.5, 0.0]),
                                ws.AtomicJumps([[1, 0], [0.2, 0.7]], [2.0, 1.0]))
        vals = t_at(T, np.linspace(0, 3, 50)[1:], 200, np.random.default_rng(2))
        assert np.all(vals >= 0) and np.all(np.diff(vals, axis=1) >= 0)

    def test_times_sorted(self):
        # unit jumps, no drift: at sorted times T is a Poisson counting
        # path, with mean 20 t; times that are not strictly increasing,
        # positive and finite are rejected, also under a jump-free clock,
        # whose 0 expected jumps x inf would be NaN
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [20.0]))
        times = np.array([0.25, 0.5, 0.75, 1.0])
        reps = 10**4
        vals = t_at(T, times, reps, np.random.default_rng(2))[..., 0]
        assert np.array_equal(vals, np.round(vals))
        assert np.all(np.diff(vals, axis=1) >= 0)
        se = np.sqrt(20 * times / reps)
        assert np.all(np.abs(vals.mean(axis=0) - 20 * times) <= 4 * se)
        for bad in ([], [0.5, 0.25], [0.5, 0.5], [0.0, 1.0], [[0.5, 1.0]], [0.5, np.inf]):
            with pytest.raises(ws.LevySpecError, match="strictly increasing"):
                t_at(T, bad, 10, np.random.default_rng(2))
        with pytest.raises(ws.LevySpecError, match="strictly increasing"):
            ws.simulate_weak_at(ws.SubordinatorSpec([1.0]), ws.BrownianMotion([0.0], [[1.0]]),
                                np.inf, 10, np.random.default_rng(2))

    def test_disjoint_window_counts_uncorrelated(self):
        # unit jumps: the counts in (0, 0.5] and (0.5, 1] are T(0.5) and
        # T(1) - T(0.5)
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [3.0]))
        reps = 10**4
        vals = t_at(T, [0.5, 1.0], reps, np.random.default_rng(3))[..., 0]
        a, b = vals[:, 0], vals[:, 1] - vals[:, 0]
        prod = (a - a.mean()) * (b - b.mean())
        corr = prod.mean() / (a.std() * b.std())
        corr_se = prod.std(ddof=1) / (a.std() * b.std()) / np.sqrt(reps)
        assert abs(corr) <= 4 * corr_se


class TestSimulateStrong:
    def test_identity_time_change(self):
        # T = identity drift: X o T == X in law; ECF at t=1 vs CF of X(e)
        T = ws.SubordinatorSpec([1.0, 1.0])
        X = correlated_bm()
        rng = np.random.default_rng(3)
        samples = ws.simulate_strong_at(T, X, 1.0, 20_000, rng)
        grid = ws.ThetaGridSpec().build(2)
        report = ws.cf_compare(samples[:, 2:], np.exp(X.exponent(grid)), grid)
        assert report.passed, report.summary()

    def test_zero_subordinate(self):
        T = ws.SubordinatorSpec(np.array([0.5, 0.5]),
                                ws.AtomicJumps([[1, 1]], [1.0]))
        rows = ws.simulate_strong_at(T, zero_bm(2), [0.5, 1.0, 2.0], 100,
                                     np.random.default_rng(4))
        assert np.all(rows[..., 2:] == 0) and np.all(rows[:, -1, :2] >= 1.0)

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
        samples = ws.simulate_strong_at(T, correlated_bm(), [0.5, 1.0], 20_000,
                                        np.random.default_rng(6))
        grid = ws.ThetaGridSpec().build(2)
        for i, t in enumerate([0.5, 1.0]):
            report = ws.cf_compare(samples[:, i, :2], t_cf(T, t, grid), grid)
            assert report.passed, report.summary()


class TestSimulateWeak:
    def test_zero_subordinator_constant_path(self):
        T = ws.SubordinatorSpec(np.zeros(2))
        rows = ws.simulate_weak_at(T, correlated_bm(), [0.5, 1.0, 2.0], 100,
                                   np.random.default_rng(0))
        assert rows.shape == (100, 3, 4) and np.all(rows == 0)

    def test_pure_drift_matches_deterministic_exponent(self):
        T = ws.SubordinatorSpec([1.0, 2.0])
        X = correlated_bm()
        rng = np.random.default_rng(7)
        samples = ws.simulate_weak_at(T, X, 1.0, 20_000, rng)
        grid = ws.ThetaGridSpec().build(4)
        report = ws.cf_compare(
            samples,
            np.exp(ws.weak_exponent(T, X, grid[:, :2], grid[:, 2:])), grid)
        assert report.passed, report.summary()

    def test_single_atom_cf_value(self):
        # atom (1,1) rate 1: CF at theta=(0,0,1,1) is exp(e^{-1} - 1)
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        X = ws.BrownianMotion([0, 0], np.eye(2))
        rng = np.random.default_rng(8)
        n = 30_000
        samples = ws.simulate_weak_at(T, X, 1.0, n, rng)
        emp = ws.ecf_grid(samples, [0, 0, 1, 1])
        assert abs(emp - np.exp(np.exp(-1) - 1)) <= ws.clt_bound(n)

    def test_subordinator_marginal_preserved(self):
        T = ws.SubordinatorSpec(np.array([0.0, 0.2]),
                                ws.AtomicJumps([[1, 1], [0, 0.5]], [0.6, 0.9]))
        samples = ws.simulate_weak_at(T, correlated_bm(), [0.5, 1.0], 20_000,
                                      np.random.default_rng(9))
        grid = ws.ThetaGridSpec().build(2)
        for i, t in enumerate([0.5, 1.0]):
            report = ws.cf_compare(samples[:, i, :2], t_cf(T, t, grid), grid)
            assert report.passed, report.summary()


# a variance-gamma stack: R has gamma rays e_1, e_2 and (1, 1) and a drift;
# block 2 is a correlated BM on one clock
STACKED_GAMMA = (
    ws.SubordinatorSpec(np.array([0.2, 0.0]),
                        ws.GammaRays([[1, 0], [0, 1], [1, 1]], [1.0, 0.5, 1.5],
                                     [2.0, 1.0, 1.5])),
    (1, 2),
    [ws.BrownianMotion([0.3], [[1.0]]),
     ws.BrownianMotion([-0.2, 0.1], [[0.6, 0.3], [0.3, 1.0]])])


def time_t_cases():
    """(T, X) pairs for the exact-law checks: the four suite scenarios, a
    gamma-ray clock with drift that is not a stack, the variance-gamma
    stack and a compound Poisson subordinate (one duration per row in its
    increments)."""
    cases = {name: (scenario_record(name).T, scenario_record(name).X)
             for name in ("deterministic", "finite_activity_C1", "stacked_C3",
                          "negative_control")}
    cases["gamma_rays"] = (
        ws.SubordinatorSpec(np.array([0.2, 0.1]),
                            ws.GammaRays([[1, 0], [0, 1], [1, 1]], [1.5, 1.5, 0.5],
                                         [1.0, 1.0, 1.0])),
        ws.BrownianMotion([0.3, -0.2], [[1, 0.8], [0.8, 1]]))
    R, dims, blocks = STACKED_GAMMA
    cases["stacked_gamma"] = (ws.stacked_subordinator(R, dims),
                              ws.IndependentStack(blocks))
    cases["compound_poisson"] = (
        ws.SubordinatorSpec(np.array([0.4, 0.1]),
                            ws.AtomicJumps([[1, 0.5], [0.2, 1.5]], [0.7, 0.6])),
        ws.CompoundPoisson(ws.AtomicJumps([[1.0, -0.5], [0.3, 0.8]], [0.9, 1.1])))
    return cases


TIME_T_CASES = time_t_cases()


def weak_fdd_cf(T, X, times, grid):
    """Exact CF of the weak (T, Z) at times t1 < t2 on rows (theta_a,
    theta_b) of grid: exp(t1 Psi(theta_a + theta_b) + (t2 - t1) Psi(theta_b))
    with Psi the weak exponent, by independent stationary increments."""
    n = T.dim
    a, b = grid[:, : 2 * n], grid[:, 2 * n :]
    psi = lambda th: ws.weak_exponent(T, X, th[:, :n], th[:, n:])
    return np.exp(times[0] * psi(a + b) + (times[1] - times[0]) * psi(b))


FDD_TIMES = (0.5, 1.0)
# correlated BM along the deterministic clock T(t) = (t, t): the one clock
# meets the equality-in-law hypothesis, unlike the suite's (t, 2t)
FDD_CASES = {**TIME_T_CASES, "drift_11": (ws.SubordinatorSpec([1.0, 1.0]), correlated_bm())}


def strong_target(case, T, X, grid):
    """Exact CF of the strong (T(1), Z(1)) on the grid: the closed form of
    the variance-gamma stack, else `strong_cf` of an atomic clock."""
    if case == "stacked_gamma":
        R, dims, blocks = STACKED_GAMMA
        n = sum(dims)
        return np.exp(ws.stacked_strong_exponent(R, dims, blocks, grid[:, :n],
                                                 grid[:, n:]))
    return strong_cf(T, X, 1.0, grid)


class TestTimeTSamplers:
    # exact CFs are the reference for the batched samplers
    N = 100_000

    # the strong law of the gamma_rays clock has no closed form here;
    # test_gamma_rays_strong_misses_weak_target checks its draw
    @pytest.mark.parametrize("case,kind", [
        (case, kind) for case in sorted(TIME_T_CASES) for kind in ("strong", "weak")
        if (case, kind) != ("gamma_rays", "strong")])
    def test_time_t_law_is_exact(self, case, kind):
        T, X = TIME_T_CASES[case]
        sample = {"strong": ws.simulate_strong_at, "weak": ws.simulate_weak_at}
        rows = sample[kind](T, X, 1.0, self.N, np.random.default_rng(41))
        assert rows.shape == (self.N, 2 * T.dim)
        grid = ws.ThetaGridSpec().build(2 * T.dim)
        if kind == "weak":
            target = np.exp(ws.weak_exponent(T, X, grid[:, :T.dim], grid[:, T.dim:]))
        else:
            target = strong_target(case, T, X, grid)
        report = ws.cf_compare(rows, target, grid)
        assert report.passed, report.summary()

    def test_gamma_rays_strong_misses_weak_target(self):
        # not a stack: the strong draw, exact for its own law, is flagged
        # against the weak closed form (max ratio about 6.5)
        T, X = TIME_T_CASES["gamma_rays"]
        rows = ws.simulate_strong_at(T, X, 1.0, self.N, np.random.default_rng(42))
        grid = ws.ThetaGridSpec().build(4)
        report = ws.cf_compare(rows, np.exp(ws.weak_exponent(
            T, X, grid[:, :2], grid[:, 2:])), grid)
        assert report.max_ratio > 2, report.summary()

    @pytest.mark.parametrize("case", sorted(FDD_CASES))
    def test_weak_fdd_is_exact(self, case):
        T, X = FDD_CASES[case]
        rows = ws.simulate_weak_at(T, X, FDD_TIMES, self.N, np.random.default_rng(43))
        grid = ws.ThetaGridSpec().build(4 * T.dim)
        report = ws.cf_compare(rows.reshape(self.N, -1),
                               weak_fdd_cf(T, X, FDD_TIMES, grid), grid)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("case", ["drift_11", "finite_activity_C1", "stacked_C3",
                                      "stacked_gamma"])
    def test_strong_fdd_meets_weak_target(self, case):
        # the hypothesis holds, so the processes, not only the marginals,
        # are equal in law
        T, X = FDD_CASES[case]
        rows = ws.simulate_strong_at(T, X, FDD_TIMES, self.N, np.random.default_rng(44))
        grid = ws.ThetaGridSpec().build(4 * T.dim)
        report = ws.cf_compare(rows.reshape(self.N, -1),
                               weak_fdd_cf(T, X, FDD_TIMES, grid), grid)
        assert report.passed, report.summary()

    def test_deterministic_strong_fdd_is_its_lift(self):
        # T(t) = (t, 2t): the strong fdd at (t1, t2) is the lift (X, X) at
        # the vector time (T(t1), T(t2)), whose increments are dependent
        T, X = FDD_CASES["deterministic"]
        rows = ws.simulate_strong_at(T, X, FDD_TIMES, self.N, np.random.default_rng(47))
        grid = ws.ThetaGridSpec().build(8)
        tau = np.concatenate([t * T.d for t in FDD_TIMES])
        theta1 = np.concatenate([grid[:, :2], grid[:, 4:6]], axis=1)
        theta2 = np.concatenate([grid[:, 2:4], grid[:, 6:]], axis=1)
        target = np.exp(1j * theta1 @ tau
                        + ws.vector_time_exponent(ws.Lift(X, 2), tau, theta2))
        report = ws.cf_compare(rows.reshape(self.N, -1), target, grid)
        assert report.passed, report.summary()
        # Cov(Z_2(1/2), Z_1(1)) is Cov(X_2(1), X_1(1)) = 0.5 under strong
        # subordination and rho x min(T_1(1/2), T_2(1/2)) = 0.25 under weak
        weak = ws.simulate_weak_at(T, X, FDD_TIMES, self.N, np.random.default_rng(48))
        for draws, cov in ((rows, 0.5), (weak, 0.25)):
            prod = draws[:, 0, 3] * draws[:, 1, 2]
            assert abs(prod.mean() - cov) <= 4 * prod.std(ddof=1) / np.sqrt(self.N)

    def test_chunks_and_edge_sizes(self):
        T, X = TIME_T_CASES["finite_activity_C1"]
        for sample in (ws.simulate_strong_at, ws.simulate_weak_at):
            assert sample(T, X, 1.0, 0, np.random.default_rng(0)).shape == (0, 4)
            assert sample(T, X, [0.5, 1.0], 0, np.random.default_rng(0)).shape == (0, 2, 4)
            # rows come in chunks drawn one after another from the one rng
            rows = sample(T, X, 1.0, TIME_T_CHUNK + 3, np.random.default_rng(1))
            rng = np.random.default_rng(1)
            parts = [sample(T, X, 1.0, size, rng) for size in (TIME_T_CHUNK, 3)]
            assert np.array_equal(rows, np.vstack(parts))
            # one time in a list draws exactly as the scalar time
            one = sample(T, X, [1.0], TIME_T_CHUNK + 3, np.random.default_rng(1))
            assert one.shape == (TIME_T_CHUNK + 3, 1, 4)
            assert np.array_equal(one[:, 0], rows)
        with pytest.raises(ws.LevySpecError):
            ws.simulate_strong_at(T, X, 0.0, 10, np.random.default_rng(0))

    def test_batches_keep_the_time_axis(self):
        # a scalar time yields (k, 1, 2n) batches too, each the first k rows
        # of one buffer, and simulate_weak_at is their copies in order
        T, X = TIME_T_CASES["finite_activity_C1"]
        batches = subordination._draw_batches(T, X, 1.0, TIME_T_CHUNK + 3,
                                              np.random.default_rng(1), subordination._weak_z)
        copies, bases = zip(*((batch.copy(), batch.base) for batch in batches))
        assert [c.shape for c in copies] == [(TIME_T_CHUNK, 1, 4), (3, 1, 4)]
        assert bases[0] is bases[1]
        rows = ws.simulate_weak_at(T, X, 1.0, TIME_T_CHUNK + 3, np.random.default_rng(1))
        assert np.array_equal(np.concatenate(copies)[:, 0], rows)

    @pytest.mark.parametrize("size", [-1, 2.5])
    @pytest.mark.parametrize("kind", ["strong", "weak"])
    def test_bad_size_rejected(self, kind, size):
        T, X = TIME_T_CASES["finite_activity_C1"]
        sample = {"strong": ws.simulate_strong_at, "weak": ws.simulate_weak_at}[kind]
        with pytest.raises(ws.LevySpecError, match="size must be an integer >= 0"):
            sample(T, X, 1.0, size, np.random.default_rng(0))

    @pytest.mark.parametrize("simulate", [
        lambda T, X, rng: ws.simulate_strong_at(T, X, 1.0, 200, rng),
        lambda T, X, rng: ws.simulate_weak_at(T, X, 1.0, 200, rng)],
        ids=["strong_at", "weak_at"])
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


def strong_cf_one_atom(T, X, grid):
    """Exact CF of strong (T, X o T)(1) at each row of grid, for T = drift d
    plus one atom a of rate r: given the atom count p ~ Poisson(r), T(1) is
    d + p a and Z(1) is X at that vector time. Counts from 40 up are
    dropped: at rate 1 their mass is below 1e-40."""
    n, (a,), (r,) = T.dim, T.jumps.points, T.jumps.rates
    return sum(math.exp(-r) * r**p / math.factorial(p)
               * np.exp(1j * (grid[:, :n] @ (T.d + p * a))
                        + ws.vector_time_exponent(X, T.d + p * a, grid[:, n:]))
               for p in range(40))


class TestBatchRows:
    # a subordinator with drift and one atom over a compound Poisson law
    T = ws.SubordinatorSpec(np.array([0.5, 1.0]), ws.AtomicJumps([[1.0, 2.0]], [1.0]))
    X = ws.CompoundPoisson(ws.AtomicJumps([[1.0, -0.5]], [50.0]))

    def test_expected_jumps(self):
        # T: mass 1 x t; X: rate 50 x t x (drift 1.0 + mass 1 x coordinate 2.0)
        assert expected_jumps(self.T, self.X, 2.0) == (2.0, 300.0)
        assert expected_jumps(self.T, correlated_bm(), 2.0) == (2.0, 0.0)
        # gamma rays: one draw per ray, and X's along T's mean growth,
        # drift 0.5 + (1.5/2 + 1/4) x largest coordinate 2
        gamma = ws.SubordinatorSpec(np.array([0.5, 0.0]),
                                    ws.GammaRays([[1, 0], [1, 2]], [1.5, 1.0], [2.0, 4.0]))
        cpp = ws.CompoundPoisson(ws.AtomicJumps([[1.0, 0.0]], [1.0]))
        assert expected_jumps(gamma, cpp, 2.0) == (2.0, 5.0)
        assert _batch_rows(gamma, cpp, 1.0) == TIME_T_CHUNK
        # a zero subordinator never runs X, however large rate x time is
        huge = ws.CompoundPoisson(ws.AtomicJumps([[1.0, 0.0]], [1e308]))
        assert expected_jumps(ws.SubordinatorSpec([0, 0]), huge, 10.0) == (0.0, 0.0)
        assert _batch_rows(ws.SubordinatorSpec([0, 0]), huge, 10.0) == TIME_T_CHUNK

    def test_gamma_batches_count_a_draw_per_ray_and_step(self, monkeypatch):
        # a gamma ray draws one total per step, so a row at m times makes
        # k x m draws: 300 rays at 16 times expect 4800 per row
        def rays(k):
            return ws.SubordinatorSpec(np.zeros(2), ws.GammaRays(
                np.ones((k, 2)), np.ones(k), np.ones(k)))
        times, X = np.arange(1.0, 17.0), zero_bm(2)
        assert expected_jumps(rays(300), X, times) == (4800.0, 0.0)
        assert _batch_rows(rays(300), X, times) == subordination.MAX_BATCH_JUMPS // 4800
        # 10 rays: 160 draws per row, so a cap of 2000 makes batches of 12
        T, cap, sizes = rays(10), 2000, []
        monkeypatch.setattr(subordination, "MAX_BATCH_JUMPS", cap)
        draw = T.jumps.window_draws
        monkeypatch.setattr(T.jumps, "window_draws", lambda steps, rows, rng: (
            sizes.append(10 * rows * steps.size), draw(steps, rows, rng))[1])
        rows = ws.simulate_weak_at(T, X, times, 50, np.random.default_rng(14))
        assert rows.shape == (50, 16, 4)
        assert sum(sizes) == 50 * 160 and max(sizes) <= cap

    def test_suite_scenarios_keep_full_batches(self):
        for name in ("deterministic", "finite_activity_C1", "stacked_C3",
                     "negative_control"):
            record = scenario_record(name)
            assert _batch_rows(record.T, record.X, 1.0) == TIME_T_CHUNK

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
        window_draws = X.jumps.window_draws

        def draw(steps, rows, rng):
            window, jumps = window_draws(steps, rows, rng)
            sizes.append(len(jumps))
            return window, jumps

        X.jumps.window_draws = draw
        rows = sample(self.T, X, 1.0, 2000, np.random.default_rng(12))
        assert rows.shape == (2000, 4)
        assert len(sizes) >= 200 and max(sizes) <= cap
        # smaller batches draw differently, from the same law as one batch
        grid = ws.ThetaGridSpec().build(4)
        exact = (strong_cf_one_atom(self.T, self.X, grid) if kind == "strong" else
                 np.exp(ws.weak_exponent(self.T, self.X, grid[:, :2], grid[:, 2:])))
        for draw in (full, rows):
            report = ws.cf_compare(draw, exact, grid)
            assert report.passed, report.summary()


class TestGammaRays:
    def test_mean_growth(self):
        # E T(t) = t (d + sum_j c_j / b_j a_j), at three times of one path
        T, _ = TIME_T_CASES["gamma_rays"]
        times = np.array([0.5, 1.0, 2.0])
        reps = 4000
        vals = t_at(T, times, reps, np.random.default_rng(11))
        mean = T.d + (T.jumps.c / T.jumps.b) @ T.jumps.points
        se = vals.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(vals.mean(axis=0) - np.outer(times, mean)) <= 4 * se)
