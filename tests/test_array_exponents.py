"""Array-valued exponents: theta of shape (m, n) gives one value per row,
equal to the stacked single-theta calls, and a single theta still gives a
Python complex."""
import numpy as np
import pytest

import weaksub as ws

TOL = 1e-13
N = 3
M = 7


def laws():
    return {
        "bm": ws.BrownianMotion([0.2, -0.1, 0.3],
                                [[1.0, 0.4, 0.1], [0.4, 0.8, -0.2],
                                 [0.1, -0.2, 0.6]]),
        "cpp": ws.CompoundPoisson(ws.AtomicJumps(
            [[1.0, -0.5, 0.2], [0.3, 0.8, -1.0]], [0.9, 1.1])),
        "stack": ws.IndependentStack([
            ws.BrownianMotion([0.1], [[0.7]]),
            ws.CompoundPoisson(ws.AtomicJumps([[0.5, -1.0], [1.5, 0.2]],
                                              [0.4, 0.8]))]),
        "zero": ws.zero_process(N),
    }


LAWS = laws()

# rows with ties, zeros and all-zero time vectors
TIMES = np.array([[1.0, 1.0, 0.5],
                  [0.0, 0.0, 0.0],
                  [0.3, 0.0, 0.3],
                  [2.0, 1.0, 0.0],
                  [0.7, 0.7, 0.7],
                  [0.0, 1.2, 0.4],
                  [1.5, 0.2, 0.9]])


def thetas(seed, shape=(M, N)):
    return np.random.default_rng(seed).standard_normal(shape)


def subordinator():
    return ws.SubordinatorSpec(np.array([0.2, 0.0, 0.5]),
                               ws.AtomicJumps([[1.0, 0.5, 0.0], [0.2, 1.5, 1.5],
                                               [0.7, 0.7, 0.1]],
                                              [0.6, 0.9, 0.3]))


def gamma_subordinator():
    return ws.SubordinatorSpec(np.array([0.1, 0.0, 0.3]),
                               ws.GammaRays([[1.0, 0.0, 0.5], [0.2, 1.5, 1.0]],
                                            [1.5, 0.7], [2.0, 1.0]))


def assert_rows(batched, scalars):
    assert batched.shape == (len(scalars),)
    assert np.max(np.abs(batched - np.array(scalars))) <= TOL


@pytest.mark.parametrize("name", sorted(LAWS))
class TestLawRows:
    def test_exponent(self, name):
        law = LAWS[name]
        th = thetas(1)
        single = [law.exponent(row) for row in th]
        assert all(type(v) is complex for v in single)
        assert_rows(law.exponent(th), single)
        # any leading shape
        block = thetas(2, (2, 3, N))
        assert law.exponent(block).shape == (2, 3)
        assert np.max(np.abs(law.exponent(block)[1]
                             - law.exponent(block[1]))) <= TOL

    def test_vector_time_exponent(self, name):
        law = LAWS[name]
        th = thetas(3)
        single = [ws.vector_time_exponent(law, t, row)
                  for t, row in zip(TIMES, th)]
        assert all(type(v) is complex for v in single)
        assert_rows(ws.vector_time_exponent(law, TIMES, th), single)
        # one time vector against many thetas, and many against one theta
        assert_rows(ws.vector_time_exponent(law, TIMES[0], th),
                    [ws.vector_time_exponent(law, TIMES[0], row) for row in th])
        assert_rows(ws.vector_time_exponent(law, TIMES, th[0]),
                    [ws.vector_time_exponent(law, t, th[0]) for t in TIMES])
        # (jumps, 1, n) against (rows, n) broadcasts to (jumps, rows)
        grid = ws.vector_time_exponent(law, TIMES[:, None, :], th[:4])
        assert grid.shape == (M, 4)
        assert abs(grid[2, 3] - ws.vector_time_exponent(law, TIMES[2], th[3])) <= TOL
        cf = ws.vector_time_cf(law, TIMES, th)
        assert np.max(np.abs(cf - np.exp(np.array(single)))) <= TOL

    def test_weak_exponent(self, name):
        X = LAWS[name]
        th1, th2 = thetas(4), thetas(5)
        for T in (subordinator(), gamma_subordinator(),
                  ws.pure_drift([0.3, 1.0, 0.6])):
            single = [ws.weak_exponent(T, X, a, b) for a, b in zip(th1, th2)]
            assert all(type(v) is complex for v in single)
            assert_rows(ws.weak_exponent(T, X, th1, th2), single)
            # theta1 and theta2 broadcast against each other
            assert_rows(ws.weak_exponent(T, X, th1[0], th2),
                        [ws.weak_exponent(T, X, th1[0], b) for b in th2])


class TestStackedAndLaplaceRows:
    def test_stacked_strong_exponent(self):
        dims = (1, 2)
        blocks = [LAWS["stack"].blocks[0], ws.BrownianMotion(
            [0.0, 0.1], [[1.0, 0.3], [0.3, 0.5]])]
        R = ws.SubordinatorSpec(np.array([0.4, 0.1]),
                                ws.AtomicJumps([[1.0, 2.0], [0.5, 0.1]], [1.0, 0.3]))
        th1, th2 = thetas(6), thetas(7)
        single = [ws.stacked_strong_exponent(R, dims, blocks, a, b)
                  for a, b in zip(th1, th2)]
        assert all(type(v) is complex for v in single)
        batched = ws.stacked_strong_exponent(R, dims, blocks, th1, th2)
        assert_rows(batched, single)
        # A3: the closed form equals the weak exponent row by row
        T = ws.stacked_subordinator(R, dims)
        X = ws.IndependentStack(blocks)
        assert np.max(np.abs(batched - ws.weak_exponent(T, X, th1, th2))) <= 1e-10

    def test_laplace_exponent(self):
        z = np.abs(thetas(8)) + 1j * thetas(9)
        for T in (subordinator(), gamma_subordinator()):
            single = [ws.laplace_exponent(T, row) for row in z]
            assert all(type(v) is complex for v in single)
            assert_rows(ws.laplace_exponent(T, z), single)

    def test_exponent_cpp_and_stack_free_functions(self):
        th = thetas(10)
        for law in (LAWS["cpp"], LAWS["stack"], LAWS["bm"]):
            assert_rows(law.exponent(th), [law.exponent(row) for row in th])


class TestShapeErrors:
    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_law_exponent_wrong_width(self, name):
        law = LAWS[name]
        for bad in (np.zeros((M, N + 1)), np.zeros(N - 1), 1.0):
            with pytest.raises(ws.LevySpecError):
                law.exponent(bad)

    def test_vector_time_rows_do_not_broadcast(self):
        with pytest.raises(ws.LevySpecError):
            ws.vector_time_exponent(LAWS["bm"], TIMES, thetas(0, (M - 1, N)))
        with pytest.raises(ws.LevySpecError):
            ws.vector_time_exponent(LAWS["bm"], TIMES[:, :2], thetas(0))

    def test_weak_theta_rows_do_not_broadcast(self):
        T, X = subordinator(), LAWS["bm"]
        with pytest.raises(ws.LevySpecError):
            ws.weak_exponent(T, X, thetas(0), thetas(1, (M + 1, N)))
        with pytest.raises(ws.LevySpecError):
            ws.weak_exponent(T, X, thetas(0), thetas(1, (M, N + 1)))

    def test_stacked_and_laplace_wrong_width(self):
        blocks = [ws.BrownianMotion([0.0], [[1.0]])] * 2
        R = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 2]], [1.0]))
        with pytest.raises(ws.LevySpecError):
            ws.stacked_strong_exponent(R, (1, 1), blocks, np.zeros((3, 2)),
                                       np.zeros((4, 2)))
        with pytest.raises(ws.LevySpecError):
            ws.laplace_exponent(R, np.ones((3, 3)))
        with pytest.raises(ws.LevySpecError):
            ws.CompoundPoisson(R.jumps).exponent(np.ones((3, 1)))
