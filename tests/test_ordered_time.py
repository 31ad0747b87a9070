import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import weaksub as ws
from weaksub.levy import BM_COLUMNWISE_MAX_DIM


def brute_force_bm_at(t, sigma, rng, size):
    """Oracle: (X_1(t_1), ..., X_n(t_n)) for driftless BM by direct
    increment accumulation over the sorted time grid, independent of the
    library sampler."""
    t = np.asarray(t, dtype=float)
    n = len(t)
    chol = np.linalg.cholesky(sigma)
    grid = np.unique(np.concatenate([[0.0], t]))
    out = np.zeros((size, n))
    state = np.zeros((size, n))
    for a, b in zip(grid[:-1], grid[1:]):
        state = state + np.sqrt(b - a) * rng.standard_normal((size, n)) @ chol.T
        for j in range(n):
            if t[j] >= b:
                out[:, j] = state[:, j]
    return out


class TestVectorTimeExponent:
    def test_equal_times_reduce_to_scaling(self):
        bm = ws.BrownianMotion([0, 0], np.eye(2))
        assert ws.vector_time_exponent(bm, [1, 1], [1, 1]) == pytest.approx(-1.0)

    def test_independent_bm_unequal_times(self):
        bm = ws.BrownianMotion([0, 0], np.eye(2))
        assert ws.vector_time_exponent(bm, [1, 2], [1, 1]) == pytest.approx(-1.5)

    def test_correlated_bm_unequal_times(self):
        bm = ws.BrownianMotion([0, 0], [[1, 0.5], [0.5, 1]])
        # Psi(1,1) = -1.5 over [0,1], Psi(0,1) = -0.5 over (1,2]
        assert ws.vector_time_exponent(bm, [1, 2], [1, 1]) == pytest.approx(-2.0)

    def test_correlated_bm_ecf_oracle(self):
        sigma = np.array([[1, 0.5], [0.5, 1]])
        rng = np.random.default_rng(11)
        x = brute_force_bm_at([1.0, 2.0], sigma, rng, 10**6)
        emp = np.exp(1j * x @ np.array([1.0, 1.0])).mean()
        assert abs(emp - np.exp(-2.0)) < 4 * np.sqrt(2 / 10**6)

    def test_monotone_restriction_1d(self):
        law = ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [1.5]))
        t, theta = 2.7, np.array([0.8])
        assert ws.vector_time_exponent(law, [t], theta) == pytest.approx(
            t * law.exponent(theta))

    def test_negative_time_rejected(self):
        bm = ws.BrownianMotion([0, 0], np.eye(2))
        with pytest.raises(ws.LevySpecError):
            ws.vector_time_exponent(bm, [-1, 2], [1, 1])

    @pytest.mark.parametrize("t", [[-1.0, 2.0], [np.nan, 1.0],
                                   [[1.0, 1.0], [0.5, -0.0001]],
                                   [[1.0, 1.0], [np.nan, 0.5]],
                                   [np.inf, 1.0], [[1.0, 1.0], [0.5, np.inf]]],
                             ids=["negative", "nan", "negative_row", "nan_row",
                                  "inf", "inf_row"])
    @pytest.mark.filterwarnings("error")
    def test_negative_or_nan_time_rejected_by_both(self, t):
        bm = ws.BrownianMotion([0, 0], np.eye(2))
        with pytest.raises(ws.LevySpecError, match=">= 0"):
            ws.vector_time_exponent(bm, t, [1, 1])
        with pytest.raises(ws.LevySpecError, match=">= 0"):
            ws.sample_subordinate_at(bm, t, np.random.default_rng(0))


def exponent_with_perm(law, t, theta, perm):
    """Oracle: the ordered-increment sum for one sort-consistent
    permutation of t, as in A7: gap k restricts theta to perm[k:]."""
    t = np.asarray(t, dtype=float)
    deltas = np.diff(t[perm], prepend=0.0)
    total = 0j
    for k in range(len(t)):
        proj = np.zeros(len(t))
        proj[perm[k:]] = theta[perm[k:]]
        total += deltas[k] * law.exponent(proj)
    return total


def draw_with_perm(law, t, rng, size, perm):
    """Oracle: the ordered-increment draw for one sort-consistent
    permutation of t: the increment over gap k goes to perm[k:]."""
    deltas = np.diff(t[perm], prepend=0.0)
    out = np.zeros((size, len(t)))
    for k, gap in enumerate(deltas):
        if gap:
            out[:, perm[k:]] += law.sample(np.full(size, gap), rng)[:, perm[k:]]
    return out


def tie_breaks(t):
    """The sort permutations of t that break ties by ascending and by
    descending index."""
    index = np.arange(len(t))
    return np.lexsort((index, t)), np.lexsort((-index, t))


def law_of_dim(n, kind):
    if kind == "bm":
        return ws.BrownianMotion(np.linspace(-0.2, 0.2, n),
                                 0.3 + 0.7 * np.eye(n))
    points = np.array([[1.0, -0.5, 0.2, 0.7], [0.2, 0.4, -1.0, 0.3]])[:, :n]
    return ws.CompoundPoisson(ws.AtomicJumps(points, [0.8, 1.2]))


@st.composite
def tied_times_and_thetas(draw):
    """(kind, t, theta): t of shape (n,) or (m, n) with every coordinate
    from a pool of at most three values, one of them 0, so that ties and
    zero times are common; theta of t's shape."""
    n = draw(st.integers(1, 4))
    m = draw(st.none() | st.integers(1, 4))
    shape = (n,) if m is None else (m, n)
    pool = [0.0, *draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=2))]
    t = draw(hnp.arrays(float, shape, elements=st.sampled_from(pool)))
    theta = draw(hnp.arrays(float, shape, elements=st.floats(-2.0, 2.0)))
    return draw(st.sampled_from(["bm", "cpp"])), t, theta


class TestTieBreakInvariance:
    def test_reversed_ties_exact(self):
        rng = np.random.default_rng(99)
        bm = ws.BrownianMotion(np.zeros(3), [[1, 0.3, 0], [0.3, 1, 0.2],
                                             [0, 0.2, 1]])
        for _ in range(100):
            base = rng.uniform(0, 3, size=2)
            t = np.array([base[0], base[0], base[1]])
            rng.shuffle(t)
            theta = rng.standard_normal(3)
            forward = np.lexsort((np.arange(3), t))
            backward = np.lexsort((-np.arange(3), t))
            a = exponent_with_perm(bm, t, theta, forward)
            b = exponent_with_perm(bm, t, theta, backward)
            lib = ws.vector_time_exponent(bm, t, theta)
            assert abs(a - b) <= 1e-12
            assert abs(lib - a) <= 1e-12

    @settings(max_examples=200)
    @given(tied_times_and_thetas())
    def test_exponent_matches_either_tie_break(self, case):
        kind, t, theta = case
        law = law_of_dim(t.shape[-1], kind)
        lib = np.atleast_1d(ws.vector_time_exponent(law, t, theta))
        for row, (t_i, theta_i) in enumerate(zip(np.atleast_2d(t),
                                                 np.atleast_2d(theta))):
            for perm in tie_breaks(t_i):
                reference = exponent_with_perm(law, t_i, theta_i, perm)
                assert abs(lib[row] - reference) <= 1e-12

    @pytest.mark.parametrize("kind", ["bm", "cpp"])
    @pytest.mark.parametrize("t", [[1.0, 0.0, 1.0], [0.4, 1.3, 0.4, 0.4],
                                   [2.0, 2.0, 2.0], [0.0, 0.7, 0.0, 0.7]])
    def test_tied_time_draws_are_either_tie_break(self, kind, t):
        # one tied time vector in m rows, and the draw along either sort
        # permutation: the same numbers
        t = np.array(t)
        law, m = law_of_dim(len(t), kind), 129
        a = ws.sample_subordinate_at(law, np.broadcast_to(t, (m, len(t))),
                                     np.random.default_rng(41))
        for perm in tie_breaks(t):
            assert np.array_equal(a, draw_with_perm(
                law, t, np.random.default_rng(41), m, perm))



class TestVectorTimeCF:
    def test_at_origin(self):
        bm = ws.BrownianMotion([0, 0], np.eye(2))
        assert np.exp(ws.vector_time_exponent(bm, [1, 2], [0, 0])) == pytest.approx(1.0)

    def test_exp_of_exponent(self):
        bm = ws.BrownianMotion([0, 0], np.eye(2))
        assert np.exp(ws.vector_time_exponent(bm, [1, 2], [1, 1])) == pytest.approx(
            np.exp(-1.5))

    def test_zero_time(self):
        bm = ws.BrownianMotion([0.5, 0.5], np.eye(2))
        assert np.exp(ws.vector_time_exponent(bm, [0, 0], [3, -2])) == pytest.approx(1.0)

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_modulus_at_most_one(self, seed):
        rng = np.random.default_rng(seed)
        bm = ws.BrownianMotion(rng.standard_normal(2), np.eye(2))
        t = rng.uniform(0, 5, 2)
        theta = rng.standard_normal(2)
        assert abs(np.exp(ws.vector_time_exponent(bm, t, theta))) <= 1 + 1e-12


class TestSampleSubordinateAt:
    def test_zero_time_gives_zero(self):
        bm = ws.BrownianMotion([1, 2], np.eye(2))
        rng = np.random.default_rng(0)
        assert np.all(ws.sample_subordinate_at(bm, [0, 0], rng) == 0)

    def test_bm_covariance_moments(self):
        rho, n = 0.5, 10**5
        bm = ws.BrownianMotion([0, 0], [[1, rho], [rho, 1]])
        rng = np.random.default_rng(5)
        x = ws.sample_subordinate_at(bm, np.broadcast_to([1.0, 2.0], (n, 2)), rng)
        # Cov(X1(1), X2(2)) = rho * min(1,2) = rho
        prods = x[:, 0] * x[:, 1]
        cov, cov_se = prods.mean(), prods.std(ddof=1) / np.sqrt(n)
        assert abs(cov - rho) <= 4 * cov_se
        sq = x[:, 1] ** 2
        var, var_se = sq.mean(), sq.std(ddof=1) / np.sqrt(n)
        assert abs(var - 2.0) <= 4 * var_se

    def test_common_time_covariance(self):
        s, n = 0.7, 10**5
        sigma = np.array([[1, 0.4], [0.4, 2]])
        bm = ws.BrownianMotion([0, 0], sigma)
        rng = np.random.default_rng(6)
        x = ws.sample_subordinate_at(bm, np.full((n, 2), s), rng)
        emp = (x[:, :, None] * x[:, None, :]).mean(axis=0)
        se = (x[:, :, None] * x[:, None, :]).std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(emp - s * sigma) <= 4 * se)

    def test_ecf_matches_vector_time_cf(self):
        bm = ws.BrownianMotion([0, 0], [[1, 0.5], [0.5, 1]])
        t = np.array([0.5, 1.5])
        rng = np.random.default_rng(7)
        n = 10**5
        x = ws.sample_subordinate_at(bm, np.broadcast_to(t, (n, 2)), rng)
        grid = ws.ThetaGridSpec().build(2)
        report = ws.cf_compare(x, np.exp(ws.vector_time_exponent(bm, t, grid)), grid)
        assert report.passed, report.summary()

    def test_cpp_ecf_matches(self):
        law = ws.CompoundPoisson(ws.AtomicJumps([[1.0, -0.5], [0.2, 0.4]],
                                                [0.8, 1.2]))
        t = np.array([2.0, 0.7])
        rng = np.random.default_rng(8)
        x = ws.sample_subordinate_at(law, np.broadcast_to(t, (4 * 10**4, 2)), rng)
        grid = ws.ThetaGridSpec().build(2)
        report = ws.cf_compare(x, np.exp(ws.vector_time_exponent(law, t, grid)), grid)
        assert report.passed, report.summary()


STACK_3D = ws.IndependentStack([
    ws.BrownianMotion([0.2, -0.1], [[1, 0.5], [0.5, 1]]),
    ws.CompoundPoisson(ws.AtomicJumps([[1.0], [-0.5]], [0.8, 1.2]))])
LAWS_3D = {
    "bm": ws.BrownianMotion([0.1, 0, -0.2], [[1, 0.3, 0.1], [0.3, 1, 0.2],
                                            [0.1, 0.2, 1]]),
    "cpp": ws.CompoundPoisson(ws.AtomicJumps([[1.0, -0.5, 0.2],
                                              [0.2, 0.4, -1.0]], [0.8, 1.2])),
    "stack": STACK_3D,
}


class TestSampleSubordinateAtRows:
    def test_rows_match_vector_time_cf(self):
        # each row has its own sort order, with ties and zero times
        patterns = np.array([[1.0, 1.0, 0.5], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0],
                             [1.5, 0.3, 1.5], [0.7, 0.7, 0.7]])
        n = 20_000
        rng = np.random.default_rng(21)
        which = np.repeat(np.arange(len(patterns)), n)
        rng.shuffle(which)
        x = ws.sample_subordinate_at(STACK_3D, patterns[which], rng)
        assert x.shape == (len(which), 3)
        grid = ws.ThetaGridSpec().build(3)
        for p, t in enumerate(patterns):
            report = ws.cf_compare(
                x[which == p], np.exp(ws.vector_time_exponent(STACK_3D, t, grid)), grid)
            assert report.passed, (t, report.summary())

    @pytest.mark.parametrize("name", sorted(LAWS_3D))
    def test_tiled_rows_use_the_same_draws(self, name):
        # the leading axes of t only shape the draw: rows of rows draw the
        # numbers of the flat rows
        law = LAWS_3D[name]
        for t in ([1.0, 0.0, 1.0], [0.5, 2.0, 1.2], [0.0, 0.0, 0.0]):
            a = ws.sample_subordinate_at(law, np.broadcast_to(t, (257, 3)),
                                         np.random.default_rng(31))
            b = ws.sample_subordinate_at(law, np.tile(t, (257, 1, 1)),
                                         np.random.default_rng(31))
            assert b.shape == (257, 1, 3)
            assert np.array_equal(a, b[:, 0])

    @pytest.mark.parametrize("name", sorted(LAWS_3D))
    @pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3)],
                             ids=["n", "m_n", "a_b_n"])
    def test_draw_has_the_shape_of_t(self, name, shape):
        law = LAWS_3D[name]
        t = np.random.default_rng(32).uniform(0.0, 2.0, shape)
        x = ws.sample_subordinate_at(law, t, np.random.default_rng(33))
        assert x.shape == shape
        flat = ws.sample_subordinate_at(law, t.reshape(-1, 3),
                                        np.random.default_rng(33))
        assert np.array_equal(x.reshape(-1, 3), flat)

    def test_shapes_checked(self):
        bm = LAWS_3D["bm"]
        rng = np.random.default_rng(0)
        with pytest.raises(ws.LevySpecError):
            bm.sample(np.ones((4, 3)), rng)
        with pytest.raises(ws.LevySpecError):
            bm.sample(np.array([1.0, -1.0]), rng)
        with pytest.raises(ws.LevySpecError):
            ws.sample_subordinate_at(bm, np.ones((3, 2)), rng)
        with pytest.raises(ws.LevySpecError):
            ws.sample_subordinate_at(bm, 1.0, rng)
        assert ws.sample_subordinate_at(bm, np.ones((0, 3)), rng).shape == (0, 3)


# The earlier forms of the vector-time kernels, kept as a bit-for-bit
# reference: np.sort for the order statistics, a masked np.add for the
# alive coordinates and Brownian motion's step as one (N, 1) x (d,)
# broadcast. OpenBLAS forms BM's product, so this also runs on one BLAS
# thread and one CPU in CI.
def reference_sample(law, dt, rng):
    if isinstance(law, ws.BrownianMotion):
        dt = dt[:, None]
        out = rng.standard_normal((len(dt), law.dim)) @ law._factor.T
        out *= np.sqrt(dt)
        return np.add(out, dt * law.mu, out=out)
    if isinstance(law, ws.IndependentStack):
        return np.hstack([reference_sample(b, dt, rng) for b in law.blocks])
    if isinstance(law, ws.Lift):
        return np.tile(reference_sample(law.x, dt, rng), law.m)
    return law.sample(dt, rng)


def reference_gaps(t):
    sorted_t = np.sort(t, axis=-1)
    for k in range(t.shape[-1]):
        gap = sorted_t[..., k] - (sorted_t[..., k - 1] if k else 0.0)
        if np.count_nonzero(gap):
            yield gap, t >= sorted_t[..., k, None]


def reference_sample_at(law, t, rng):
    rows = t.reshape(-1, law.dim)
    out = np.zeros(rows.shape)
    for gap, alive in reference_gaps(rows):
        np.add(out, reference_sample(law, gap, rng), out=out, where=alive)
    return out.reshape(t.shape)


def reference_exponent(law, t, theta):
    total = np.zeros(np.broadcast_shapes(t.shape, theta.shape)[:-1], dtype=complex)
    for gap, alive in reference_gaps(t):
        total += gap * law.exponent(np.where(alive, theta, 0.0))
    return total


def reference_laws(n):
    """BM with nonzero mu and a correlated sigma, compound Poisson, an
    independent stack and a lift, each of dimension n."""
    a = np.random.default_rng(n).standard_normal((n, n))
    bm = ws.BrownianMotion(np.linspace(-0.7, 1.3, n), a @ a.T + 0.1 * np.eye(n))
    cpp = ws.CompoundPoisson(ws.AtomicJumps(np.arange(1.0, 2 * n + 1).reshape(2, n)
                                            * [[1.0], [-0.5]], [0.8, 1.7]))
    bm1 = ws.BrownianMotion([0.4], [[2.0]])
    cpp1 = ws.CompoundPoisson(ws.AtomicJumps([[1.5]], [1.2]))
    stack = ws.IndependentStack([bm1] if n == 1 else
                                [ws.BrownianMotion(np.full(n - 1, -0.3), np.eye(n - 1)
                                                   + 0.5), cpp1])
    return {"bm": bm, "cpp": cpp, "stack": stack, "lift": ws.Lift(bm1, n)}


def reference_times(n, rows=3000):
    """Rows of n times: ties, zero gaps and signed zeros from a small
    pool, then continuous rows; every pairing of +0 and -0 is in it."""
    rng = np.random.default_rng(50 + n)
    pool = np.array([0.0, -0.0, 0.5, 0.5, 1.25, 2.0])
    t = np.concatenate([rng.choice(pool, (rows // 2, n)),
                        rng.uniform(0.0, 3.0, (rows - rows // 2, n))])
    signed = np.array(np.meshgrid(*[[0.0, -0.0, 1.0]] * n)).reshape(n, -1).T
    return np.concatenate([signed, t])


class TestSameBitsAsReferenceForms:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", ["bm", "cpp", "stack", "lift"])
    def test_draws(self, n, name):
        law, t = reference_laws(n)[name], reference_times(n)
        for times in (t, t[:7], np.zeros((5, n)), np.full((4, n), -0.0), t[None]):
            got = ws.sample_subordinate_at(law, times, np.random.default_rng(60))
            want = reference_sample_at(law, times, np.random.default_rng(60))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", ["bm", "cpp", "stack", "lift"])
    def test_exponent(self, n, name):
        law, t = reference_laws(n)[name], reference_times(n)
        theta = np.random.default_rng(70).uniform(-2.0, 2.0, t.shape)
        theta[::5] *= -0.0
        for times, thetas in ((t, theta), (t, theta[:1]), (t[:1], theta),
                              (np.full((3, n), -0.0), theta[:3])):
            got = ws.vector_time_exponent(law, times, thetas)
            assert got.tobytes() == reference_exponent(law, times, thetas).tobytes()

    @pytest.mark.parametrize("d", [1, 2, BM_COLUMNWISE_MAX_DIM, BM_COLUMNWISE_MAX_DIM + 1, 16])
    def test_brownian_step_either_side_of_the_column_cut(self, d):
        a = np.random.default_rng(d).standard_normal((d, d))
        law = ws.BrownianMotion(np.linspace(-1.1, 0.9, d), a @ a.T)
        dt = np.concatenate([[0.0, 0.5], np.random.default_rng(90).exponential(size=500)])
        got = law.sample(dt, np.random.default_rng(91))
        assert got.tobytes() == reference_sample(law, dt, np.random.default_rng(91)).tobytes()

    def test_dead_coordinate_keeps_its_value_beside_an_overflow(self):
        # over (0.5, 3] only coordinate 1 is alive; the increment overflows
        # in both, and coordinate 0 keeps its finite value
        law = ws.BrownianMotion([1e308, 1e308], np.eye(2))
        t = np.tile([0.5, 3.0], (64, 1))
        with np.errstate(over="ignore"):
            got = ws.sample_subordinate_at(law, t, np.random.default_rng(80))
            want = reference_sample_at(law, t, np.random.default_rng(80))
        assert np.all(np.isfinite(got[:, 0])) and np.all(got[:, 1] == np.inf)
        assert got.tobytes() == want.tobytes()
