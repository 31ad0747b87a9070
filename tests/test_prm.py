import numpy as np
import pytest

import weaksub as ws


def unit_mark():
    return ws.PointMassMark((0.0,))


def correlated_bm():
    return ws.BrownianMotion([0, 0], [[1, 0.5], [0.5, 1]])


class TestCampbellIdentity:
    def test_zero_functional_exact(self):
        est, se = ws.laplace_functional_mc(2.0, unit_mark(), 1.0,
                                           ws.ConstantFunctional(0.0), 1000,
                                           np.random.default_rng(0))
        assert est == 1.0

    def test_empty_intensity(self):
        est, _ = ws.laplace_functional_mc(0.0, unit_mark(), 1.0,
                                          ws.ConstantFunctional(3.0), 1000,
                                          np.random.default_rng(0))
        assert est == 1.0

    def test_reference_value(self):
        est, se = ws.laplace_functional_mc(2.0, unit_mark(), 1.0,
                                           ws.ConstantFunctional(1.0), 10**5,
                                           np.random.default_rng(1))
        assert abs(est - 0.28243) <= 4 * se

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_constant_functionals(self, seed):
        rng = np.random.default_rng(100 + seed)
        rate = rng.uniform(0.2, 4.0)
        c = rng.uniform(0.1, 3.0)
        horizon = rng.uniform(0.5, 2.0)
        f = ws.ConstantFunctional(c)
        target = np.exp(-rate * horizon * -np.expm1(-c))
        est, se = ws.laplace_functional_mc(rate, unit_mark(), horizon, f,
                                           4 * 10**4, rng)
        assert abs(est - target) <= 4 * max(se, 1e-12)

    def test_functional_of_time_and_mark(self):
        # marks uniform on [0, 1] and f = c on {time <= s, mark <= p}: the
        # points where f = c form a Poisson count of mean rate * s * p
        rate, c, s, p = 3.0, 0.8, 0.6, 0.4

        class UniformMark:
            def sample(self, rng, k):
                return rng.uniform(0.0, 1.0, size=(k, 1))

        class CornerFunctional:
            def evaluate(self, times, marks):
                return np.where((times <= s) & (marks[:, 0] <= p), c, 0.0)

        est, se = ws.laplace_functional_mc(rate, UniformMark(), 1.0,
                                           CornerFunctional(), 4 * 10**4,
                                           np.random.default_rng(7))
        assert abs(est - np.exp(-rate * s * p * -np.expm1(-c))) <= 4 * se

    @pytest.mark.parametrize("rate,horizon,reps", [
        (-1.0, 1.0, 100), (np.nan, 1.0, 100), (np.inf, 1.0, 100),
        (2.0, 0.0, 100), (2.0, -1.0, 100), (2.0, np.inf, 100), (2.0, 1.0, 1),
        (2.0, 1.0, 0),
        # reps that are not integers
        (2.0, 1.0, 2.5), (2.0, 1.0, np.float64(3)), (2.0, 1.0, "5"),
        # rate x horizon beyond numpy's Poisson sampler; 1e12 expected points
        (1e300, 1e10, 100), (1e10, 1.0, 100),
    ])
    def test_bad_arguments_raise(self, rate, horizon, reps):
        with pytest.raises(ws.LevySpecError):
            ws.laplace_functional_mc(rate, unit_mark(), horizon,
                                     ws.ConstantFunctional(1.0), reps,
                                     np.random.default_rng(0))

    @pytest.mark.parametrize("c", [np.nan, -1.0])
    def test_constant_functional_rejects_nan_and_negative(self, c):
        with pytest.raises(ws.LevySpecError):
            ws.ConstantFunctional(c)
        assert ws.ConstantFunctional(np.inf).c == np.inf


class TestMarkedLaplaceCheck:
    def test_weak_subordination_kernel_identity(self):
        # marked-point-process identity for the common-jump configuration
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        X = correlated_bm()

        def f(time, jump, mark):
            inside = (time <= 0.8) and np.all(np.abs(mark) <= 1.0)
            return 0.9 if inside else 0.0

        result = ws.marked_laplace_check(T, X, f, horizon=1.0, reps=6000,
                                         rng=np.random.default_rng(9))
        assert result.lhs_se > 0 and result.rhs_se > 0
        assert result.within(4.0), (result.lhs, result.rhs, result.combined_se)

    def test_pure_drift_has_no_jumps(self):
        # no rep has a jump, so both products are empty: exactly 1, se 0
        T = ws.pure_drift([1.0, 0.5])
        result = ws.marked_laplace_check(T, correlated_bm(), lambda *a: 1.0,
                                         horizon=1.0, reps=50,
                                         rng=np.random.default_rng(10))
        assert (result.lhs, result.lhs_se, result.rhs, result.rhs_se) == (1, 0, 1, 0)

    def test_infinite_functional_on_a_mark_box(self):
        # f = inf on the quadrant B = {mark > 0}: with inner = 2 an inner
        # mean is 0 whenever both inner marks land in B, and the product is
        # then 0. Both sides estimate P(no mark in B) = exp(-rate * p) with
        # p = P(X(1, 1) in B) = 1/4 + arcsin(1/2) / (2 pi) = 1/3.
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [3.0]))

        def f(time, jump, mark):
            return np.inf if mark[0] > 0 and mark[1] > 0 else 0.0

        result = ws.marked_laplace_check(T, correlated_bm(), f, horizon=1.0,
                                         reps=4000, rng=np.random.default_rng(11),
                                         inner=2)
        for est, se in ((result.lhs, result.lhs_se), (result.rhs, result.rhs_se)):
            assert abs(est - np.exp(-1.0)) <= 4 * se, (est, se)

        # with f = inf everywhere and 50 jumps expected, every product is 0
        result = ws.marked_laplace_check(
            ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [50.0])),
            correlated_bm(), lambda *a: np.inf, horizon=1.0, reps=20,
            rng=np.random.default_rng(12), inner=2)
        assert (result.lhs, result.lhs_se, result.rhs, result.rhs_se) == (0, 0, 0, 0)

    @pytest.mark.parametrize(
        "horizon,reps,inner",
        [(0.0, 100, 32), (-1.0, 100, 32), (np.inf, 100, 32), (1.0, 1, 32),
         (1.0, 100, 0), (1.0, 100, -1), (1.0, 100, 2.5),
         (1.0, 2.5, 32), (1.0, np.float64(3), 32), (1.0, "5", 32)],
        ids=["0.0-100", "-1.0-100", "inf-100", "1.0-1",
             "inner_0", "inner_-1", "inner_2.5",
             "reps_2.5", "reps_float64", "reps_text"])
    def test_bad_arguments_raise(self, horizon, reps, inner):
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        with pytest.raises(ws.LevySpecError):
            ws.marked_laplace_check(T, correlated_bm(), lambda *a: 0.0,
                                    horizon=horizon, reps=reps,
                                    rng=np.random.default_rng(0), inner=inner)

    def test_jump_rate_beyond_poisson_sampler_raises(self):
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1e300]))
        with pytest.raises(ws.LevySpecError, match="expect at most"):
            ws.marked_laplace_check(T, correlated_bm(), lambda *a: 0.0,
                                    horizon=1e10, reps=100,
                                    rng=np.random.default_rng(0))

    def test_gamma_rays_rejected(self):
        # gamma rays jump infinitely often in every window: no single jumps
        T = ws.SubordinatorSpec(np.zeros(2), ws.GammaRays([[1, 1]], [1.0], [1.0]))
        with pytest.raises(ws.LevySpecError, match="atomic"):
            ws.marked_laplace_check(T, correlated_bm(), lambda *a: 0.0,
                                    horizon=1.0, reps=100,
                                    rng=np.random.default_rng(0))
