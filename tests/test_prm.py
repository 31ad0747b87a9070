import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

import weaksub as ws
from weaksub import prm
from weaksub.subordination import TIME_T_CHUNK


def unit_mark():
    return prm.PointMassMark((0.0,))


def correlated_bm():
    return ws.BrownianMotion([0, 0], [[1, 0.5], [0.5, 1]])


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class UniformMark:
    """Marks uniform on [0, 1]."""

    def sample(self, rng, k):
        return rng.uniform(0.0, 1.0, size=(k, 1))


class TestCampbellIdentity:
    def test_zero_functional_exact(self):
        for c in (0.0, -0.0):
            est, se = prm.laplace_functional_mc(2.0, unit_mark(), 1.0,
                                                prm.ConstantFunctional(c), 1000,
                                                np.random.default_rng(0))
            assert est == 1.0

    @pytest.mark.parametrize("point", [(0.5, -1.0, 2.0), 3.0], ids=["vector", "scalar"])
    def test_point_mass_marks_are_a_read_only_tile(self, point):
        sample = prm.PointMassMark(point).sample(np.random.default_rng(0), 5)
        tiled = np.tile(np.asarray(point, dtype=float), (5, 1))
        assert sample.shape == tiled.shape
        np.testing.assert_array_equal(sample, tiled)
        with pytest.raises(ValueError, match="read-only"):
            sample[0, 0] = 1.0

    def test_empty_intensity(self):
        est, _ = prm.laplace_functional_mc(0.0, unit_mark(), 1.0,
                                           prm.ConstantFunctional(3.0), 1000,
                                           np.random.default_rng(0))
        assert est == 1.0

    def test_reference_value(self):
        est, se = prm.laplace_functional_mc(2.0, unit_mark(), 1.0,
                                            prm.ConstantFunctional(1.0), 10**5,
                                            np.random.default_rng(1))
        assert abs(est - 0.28243) <= 4 * se

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_constant_functionals(self, seed):
        rng = np.random.default_rng(100 + seed)
        rate = rng.uniform(0.2, 4.0)
        c = rng.uniform(0.1, 3.0)
        horizon = rng.uniform(0.5, 2.0)
        f = prm.ConstantFunctional(c)
        target = np.exp(-rate * horizon * -np.expm1(-c))
        est, se = prm.laplace_functional_mc(rate, unit_mark(), horizon, f,
                                            4 * 10**4, rng)
        assert abs(est - target) <= 4 * max(se, 1e-12)

    def test_functional_of_time_and_mark(self):
        # marks uniform on [0, 1] and f = c on {time <= s, mark <= p}: the
        # points where f = c form a Poisson count of mean rate * s * p
        rate, c, s, p = 3.0, 0.8, 0.6, 0.4

        class CornerFunctional:
            def evaluate(self, times, marks):
                return np.where((times <= s) & (marks[:, 0] <= p), c, 0.0)

        est, se = prm.laplace_functional_mc(rate, UniformMark(), 1.0,
                                            CornerFunctional(), 4 * 10**4,
                                            np.random.default_rng(7))
        assert abs(est - np.exp(-rate * s * p * -np.expm1(-c))) <= 4 * se

    def test_functional_runs_after_every_draw_and_may_draw(self):
        # f draws one uniform per point, as _MarkAverage draws marks, and
        # is c where it is <= p: those points are a Poisson count of mean
        # rate x horizon x p. The points come in blocks of TIME_T_CHUNK:
        # f runs once per block, after the total and the block's times and
        # marks are drawn, and the block's window labels come after it
        # returns
        rate, horizon, c, p, reps, seed = 2.0, 1.5, 0.8, 0.3, 4 * 10**4, 8
        rng = np.random.default_rng(seed)
        states, block_times = [], []

        class DrawingFunctional:
            def evaluate(self, times, marks):
                states.append(rng.bit_generator.state)
                block_times.append(times)
                return np.where(rng.uniform(size=len(times)) <= p, c, 0.0)

        est, se = prm.laplace_functional_mc(rate, UniformMark(), horizon,
                                            DrawingFunctional(), reps, rng)
        assert abs(est - np.exp(-rate * horizon * p * -np.expm1(-c))) <= 4 * se
        twin = np.random.default_rng(seed)
        k = twin.poisson(rate * horizon * reps, size=1)[0]
        assert k > 3 * TIME_T_CHUNK and k % TIME_T_CHUNK  # a partial last block
        expected, expected_times = [], []
        for start in range(0, k, TIME_T_CHUNK):
            b = min(TIME_T_CHUNK, k - start)
            expected_times.append(twin.uniform(0.0, horizon, size=b))
            twin.uniform(0.0, 1.0, size=(b, 1))
            expected.append(twin.bit_generator.state)
            twin.uniform(size=b)
            twin.integers(0, reps, size=b)
        assert states == expected
        # each block's times are uniform(0, horizon)'s, bit for bit
        assert [t.tobytes() for t in block_times] == [t.tobytes() for t in expected_times]
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_whole_blocks_sum_as_one_bincount(self):
        # a total of exactly two blocks: f sees two full blocks and no empty
        # third, and the running sums equal one np.bincount over all points
        # bit for bit, as they add each point in the same order from 0.0
        reps, k = 2 * TIME_T_CHUNK, 2 * TIME_T_CHUNK
        seed = next(s for s in itertools.count()
                    if np.random.default_rng(s).poisson(reps, size=1)[0] == k)
        sizes = []

        class ProductFunctional:
            def evaluate(self, times, marks):
                sizes.append(len(times))
                return times * marks[:, 0]

        est, se = prm.laplace_functional_mc(1.0, UniformMark(), 1.0,
                                            ProductFunctional(), reps,
                                            np.random.default_rng(seed))
        assert sizes == [TIME_T_CHUNK, TIME_T_CHUNK]
        twin = np.random.default_rng(seed)
        twin.poisson(reps, size=1)
        values, labels = [], []
        for b in sizes:
            times = twin.uniform(0.0, 1.0, size=b)
            values.append(times * twin.uniform(0.0, 1.0, size=(b, 1))[:, 0])
            labels.append(twin.integers(0, reps, size=b))
        vals = np.exp(-np.bincount(np.concatenate(labels),
                                   weights=np.concatenate(values), minlength=reps))
        assert (est, se) == (vals.mean(), vals.std(ddof=1) / np.sqrt(reps))

    def test_memory_does_not_grow_with_the_points(self):
        # 5e5 and 5e6 expected points (61 and 611 blocks) into the same 1e5
        # windows: the call holds one block and the windows' sums, so the
        # tracemalloc peaks differ by less than 1 MiB (they were 12 and
        # 114 MiB when every point was held at once)
        def peak(rate):
            return traced_peak(lambda: prm.laplace_functional_mc(
                rate, unit_mark(), 1.0, prm.ConstantFunctional(1.0), 10**5,
                np.random.default_rng(3)))

        peak(5.0)  # first-call allocations are not the points'
        assert peak(50.0) <= peak(5.0) + 2**20

    @pytest.mark.parametrize("rate,horizon,reps", [
        (-1.0, 1.0, 100), (np.nan, 1.0, 100), (np.inf, 1.0, 100),
        (2.0, 0.0, 100), (2.0, -1.0, 100), (2.0, np.inf, 100), (2.0, 1.0, 1),
        (2.0, 1.0, 0),
        # reps that are not integers
        (2.0, 1.0, 2.5), (2.0, 1.0, np.float64(3)), (2.0, 1.0, "5"),
        # rate x horizon beyond numpy's Poisson sampler; 1e12 expected points
        (1e300, 1e10, 100), (1e10, 1.0, 100),
        # a numpy rate whose mean overflows only once multiplied by reps
        (np.float64(1e300), 1.0, 10**10),
    ])
    def test_bad_arguments_raise(self, rate, horizon, reps):
        with pytest.raises(ws.LevySpecError):
            prm.laplace_functional_mc(rate, unit_mark(), horizon,
                                      prm.ConstantFunctional(1.0), reps,
                                      np.random.default_rng(0))

    @pytest.mark.parametrize("c", [np.nan, -1.0, -np.inf])
    def test_constant_functional_rejects_nan_and_negative(self, c):
        with pytest.raises(ws.LevySpecError):
            prm.ConstantFunctional(c)
        for accepted in (np.inf, -0.0):
            assert prm.ConstantFunctional(accepted).c == accepted

    @pytest.mark.parametrize("value", [np.nan, -1.0, -np.inf])
    def test_bad_functional_values_raise(self, value):
        class BadFunctional:
            def evaluate(self, times, marks):
                return np.where(times < 0.5, value, 1.0)

        with pytest.raises(ws.LevySpecError, match="nonnegative"):
            prm.laplace_functional_mc(2.0, unit_mark(), 1.0, BadFunctional(), 100,
                                      np.random.default_rng(0))

    @pytest.mark.parametrize("values", [
        lambda t: 1.0, lambda t: np.ones(1), lambda t: np.ones(len(t) - 1),
        lambda t: np.ones((len(t), 2))], ids=["scalar", "one", "short", "columns"])
    def test_functional_values_of_another_shape_raise(self, values):
        # np.add.at would broadcast a scalar or a single value to every
        # point, and the columns were once summed and averaged as windows
        class Functional:
            def evaluate(self, times, marks):
                return values(times)

        with pytest.raises(ws.LevySpecError, match="one value per point"):
            prm.laplace_functional_mc(2.0, unit_mark(), 1.0, Functional(), 100,
                                      np.random.default_rng(0))

    @pytest.mark.parametrize("value", [np.nan, -1.0])
    def test_bad_values_past_the_first_block_raise(self, value):
        calls = []

        class LateBadFunctional:
            def evaluate(self, times, marks):
                calls.append(len(times))
                return np.full(len(times), value if len(calls) == 3 else 1.0)

        with pytest.raises(ws.LevySpecError, match="nonnegative"):
            prm.laplace_functional_mc(1.0, unit_mark(), 1.0, LateBadFunctional(),
                                      4 * TIME_T_CHUNK, np.random.default_rng(0))
        assert calls == [TIME_T_CHUNK] * 3


class TestMarkedLaplaceCheck:
    def test_weak_subordination_kernel_identity(self):
        # marked-point-process identity for the common-jump configuration
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        X = correlated_bm()

        def f(time, jump, mark):
            inside = (time <= 0.8) and np.all(np.abs(mark) <= 1.0)
            return 0.9 if inside else 0.0

        result = prm.marked_laplace_check(T, X, f, horizon=1.0, reps=6000,
                                          rng=np.random.default_rng(9))
        assert result.lhs_se > 0 and result.rhs_se > 0
        assert result.within(4.0), (result.lhs, result.rhs, result.combined_se)

    def test_f_runs_once_per_mark_point_by_point(self):
        # f gets a float time and read-only rows, and a point's inner marks
        # share its jump's row, so a write into it must raise rather than
        # reach the point's other marks. Each side is one block, replayed
        # from a twin stream: the calls follow the points, and each point's
        # marks in the order they were drawn
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1], [0.5, 2]], [1.0, 2.0]))
        X, seed, reps, inner = correlated_bm(), 13, 40, 3
        calls = []

        def f(time, jump, mark):
            calls.append((time, jump, mark))
            return 0.5

        prm.marked_laplace_check(T, X, f, horizon=1.0, reps=reps,
                                 rng=np.random.default_rng(seed), inner=inner)
        twin, points = np.random.default_rng(seed), []
        for k in (1, inner):
            n = twin.poisson(T.jumps.total_mass * reps)
            times, jumps = twin.uniform(0.0, 1.0, size=n), T.jumps.sample(twin, n)
            marks = ws.sample_subordinate_at(X, np.repeat(jumps, k, axis=0), twin)
            twin.integers(0, reps, size=n)
            points += zip(times, jumps, marks.reshape(n, k, 2))
        assert len(calls) == sum(len(m) for *_, m in points) > 300
        rows = iter(calls)
        for time, jump, marks in points:
            (t, row, mark), *rest = itertools.islice(rows, len(marks))
            assert type(t) is float and t == time
            assert not row.flags.writeable and row.tobytes() == jump.tobytes()
            assert all(other == t and other_row is row for other, other_row, _ in rest)
            got = np.array([mark] + [m for *_, m in rest])
            assert got.tobytes() == marks.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            calls[-1][1][0] = 9.0
        assert not calls[-1][2].flags.writeable

    def test_pure_drift_has_no_jumps(self):
        # no rep has a jump, so both products are empty: exactly 1, se 0
        T = ws.SubordinatorSpec([1.0, 0.5])
        result = prm.marked_laplace_check(T, correlated_bm(), lambda *a: 1.0,
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

        result = prm.marked_laplace_check(T, correlated_bm(), f, horizon=1.0,
                                          reps=4000, rng=np.random.default_rng(11),
                                          inner=2)
        for est, se in ((result.lhs, result.lhs_se), (result.rhs, result.rhs_se)):
            assert abs(est - np.exp(-1.0)) <= 4 * se, (est, se)

        # with f = inf everywhere and 50 jumps expected, every product is 0
        result = prm.marked_laplace_check(
            ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [50.0])),
            correlated_bm(), lambda *a: np.inf, horizon=1.0, reps=20,
            rng=np.random.default_rng(12), inner=2)
        assert (result.lhs, result.lhs_se, result.rhs, result.rhs_se) == (0, 0, 0, 0)

    def test_memory_does_not_grow_with_the_points(self):
        # about 7700 jumps per side (one block) and 40000 (five blocks):
        # each side holds one block x inner marks and the windows' sums, so
        # the tracemalloc peaks differ by less than 1 MiB (the second was
        # about 6 MiB more when every point was held at once)
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))

        def peak(reps):
            return traced_peak(lambda: prm.marked_laplace_check(
                T, correlated_bm(), lambda *a: 0.5, horizon=1.0, reps=reps,
                rng=np.random.default_rng(4), inner=2))

        peak(100)  # first-call allocations are not the points'
        assert peak(40000) <= peak(7700) + 2**20

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
            prm.marked_laplace_check(T, correlated_bm(), lambda *a: 0.0,
                                     horizon=horizon, reps=reps,
                                     rng=np.random.default_rng(0), inner=inner)

    @pytest.mark.parametrize("value", [np.nan, -1.0])
    def test_bad_mark_values_raise(self, value):
        # a negative f made estimates of 6.86 and 5.46 for a functional <= 1
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1.0]))
        with pytest.raises(ws.LevySpecError, match="nonnegative"):
            prm.marked_laplace_check(T, correlated_bm(), lambda *a: value,
                                     horizon=1.0, reps=200,
                                     rng=np.random.default_rng(0))

    def test_within_default_width_is_the_suites(self):
        within = inspect.signature(prm.MarkedCheckResult.within)
        assert within.parameters["k"].default is ws.verify.DEFAULT_K
        # 3.5 combined SE apart: within k = 4, not within k = 3
        result = prm.MarkedCheckResult(0.5, 0.1 / np.sqrt(2), 0.85, 0.1 / np.sqrt(2))
        assert result.within() and not result.within(3.0)

    @pytest.mark.parametrize("k", [np.inf, np.nan, 0.0, -1.0])
    def test_within_rejects_a_bad_width(self, k):
        # 28 SE apart: an infinite width must not call these equal, and a
        # NaN, zero or negative one must not call them different
        result = prm.MarkedCheckResult(0.5, 0.01, 0.9, 0.01)
        with pytest.raises(ws.LevySpecError, match="CLT width k must be finite"):
            result.within(k)

    def test_jump_rate_beyond_poisson_sampler_raises(self):
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 1]], [1e300]))
        with pytest.raises(ws.LevySpecError, match="expect at most"):
            prm.marked_laplace_check(T, correlated_bm(), lambda *a: 0.0,
                                     horizon=1e10, reps=100,
                                     rng=np.random.default_rng(0))

    def test_gamma_rays_rejected(self):
        # gamma rays jump infinitely often in every window: no single jumps
        T = ws.SubordinatorSpec(np.zeros(2), ws.GammaRays([[1, 1]], [1.0], [1.0]))
        with pytest.raises(ws.LevySpecError, match="atomic"):
            prm.marked_laplace_check(T, correlated_bm(), lambda *a: 0.0,
                                     horizon=1.0, reps=100,
                                     rng=np.random.default_rng(0))
