import numpy as np
import pytest

import weaksub as ws


def unit_mark():
    return ws.PointMassMark((0.0,))


def correlated_bm():
    return ws.BrownianMotion([0, 0], [[1, 0.5], [0.5, 1]])


class TestLaplaceFunctionalAnalytic:
    def test_zero_functional(self):
        val = ws.laplace_functional_analytic(2.0, unit_mark(), 1.0,
                                             ws.ConstantFunctional(0.0))
        assert val == 1.0

    def test_constant_closed_form(self):
        val = ws.laplace_functional_analytic(2.0, unit_mark(), 1.0,
                                             ws.ConstantFunctional(1.0))
        assert val == pytest.approx(np.exp(-2 * (1 - np.exp(-1))))
        assert val == pytest.approx(0.28243, abs=5e-5)

    def test_infinite_functional(self):
        # the product of e^{-f} vanishes whenever any point lands, so the
        # functional equals the void probability; it tends to 0 with mass
        val = ws.laplace_functional_analytic(2.0, unit_mark(), 1.0,
                                             ws.ConstantFunctional(np.inf))
        assert val == pytest.approx(np.exp(-2.0))
        big = ws.laplace_functional_analytic(1e6, unit_mark(), 1.0,
                                             ws.ConstantFunctional(np.inf))
        assert big == pytest.approx(0.0, abs=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = ws.ConstantFunctional(rng.uniform(0, 5))
            val = ws.laplace_functional_analytic(rng.uniform(0, 5), unit_mark(),
                                                 rng.uniform(0.1, 3), f)
            assert 0.0 <= val <= 1.0


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
        target = ws.laplace_functional_analytic(rate, unit_mark(), horizon, f)
        est, se = ws.laplace_functional_mc(rate, unit_mark(), horizon, f,
                                           4 * 10**4, rng)
        assert abs(est - target) <= 4 * max(se, 1e-12)

    @pytest.mark.parametrize("mark,box", [
        (ws.UniformBoxMark((0.0, 0.0), (2.0, 1.0)), ((0.5, 0.0), (1.5, 0.5))),
        (ws.DiagonalGaussianMark((0.0,), (1.0,)), ((-1.0,), (0.5,))),
        (ws.PointMassMark((0.3,)), ((0.0,), (1.0,))),
    ])
    def test_box_indicator_functionals(self, mark, box):
        rng = np.random.default_rng(7)
        f = ws.BoxIndicatorFunctional(c=0.8, t_lo=0.2, t_hi=0.9,
                                      mark_lo=box[0], mark_hi=box[1])
        target = ws.laplace_functional_analytic(3.0, mark, 1.0, f)
        est, se = ws.laplace_functional_mc(3.0, mark, 1.0, f, 4 * 10**4, rng)
        assert abs(est - target) <= 4 * max(se, 1e-12)

    @pytest.mark.parametrize("rate,horizon,reps", [
        (-1.0, 1.0, 100), (np.nan, 1.0, 100), (np.inf, 1.0, 100),
        (2.0, 0.0, 100), (2.0, -1.0, 100), (2.0, 1.0, 1), (2.0, 1.0, 0),
    ])
    def test_bad_arguments_raise(self, rate, horizon, reps):
        with pytest.raises(ws.LevySpecError):
            ws.laplace_functional_mc(rate, unit_mark(), horizon,
                                     ws.ConstantFunctional(1.0), reps,
                                     np.random.default_rng(0))

    def test_separable_time_decay_quadrature(self):
        rng = np.random.default_rng(8)
        f = ws.ExpTimeDecayFunctional(c=1.2, alpha=0.7)
        target = ws.laplace_functional_analytic(2.5, unit_mark(), 1.5, f)
        est, se = ws.laplace_functional_mc(2.5, unit_mark(), 1.5, f,
                                           4 * 10**4, rng)
        assert abs(est - target) <= 4 * se


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

    @pytest.mark.parametrize("horizon,reps", [(0.0, 100), (-1.0, 100), (1.0, 1)])
    def test_bad_arguments_raise(self, horizon, reps):
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        with pytest.raises(ws.LevySpecError):
            ws.marked_laplace_check(T, correlated_bm(), lambda *a: 0.0,
                                    horizon=horizon, reps=reps,
                                    rng=np.random.default_rng(0))
