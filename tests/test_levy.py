import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaksub as ws
from weaksub.levy import poisson_counts, window_sums
from weaksub.verify import scenario_processes


class TestExponentBM:
    def test_standard_bm(self):
        bm = ws.BrownianMotion([0, 0], np.eye(2))
        assert bm.exponent([1, 1]) == pytest.approx(-1.0)

    def test_origin(self):
        assert ws.BrownianMotion([1.5, -2], [[2, 1], [1, 2]]).exponent([0, 0]) == 0

    def test_correlated_with_drift(self):
        # theta Sigma theta' = 1 + 2*0.5 + 1 = 3 by hand
        val = ws.BrownianMotion([1, 0], [[1, 0.5], [0.5, 1]]).exponent([1, 1])
        assert val == pytest.approx(1j - 1.5)

    def test_correlated_with_drift_ecf_oracle(self):
        # brute-force oracle: ECF of 1e6 direct Gaussian draws
        rng = np.random.default_rng(42)
        chol = np.linalg.cholesky([[1, 0.5], [0.5, 1]])
        x = np.array([1.0, 0.0]) + rng.standard_normal((10**6, 2)) @ chol.T
        emp = np.exp(1j * x @ np.array([1.0, 1.0])).mean()
        assert abs(emp - np.exp(1j - 1.5)) < 4 * np.sqrt(2 / 10**6)

    def test_dimension_mismatch(self):
        with pytest.raises(ws.LevySpecError):
            ws.BrownianMotion([0, 0], np.eye(2)).exponent([1, 1, 1])

    def test_non_psd_sigma(self):
        with pytest.raises(ws.LevySpecError):
            ws.BrownianMotion([0, 0], [[1, 2], [2, 1]])

    @pytest.mark.parametrize("scale", [1e6, 1e12])
    def test_psd_tolerance_scales_with_sigma(self, scale):
        # a rank-2 L L' has a zero eigenvalue that rounding moves by about
        # 1e-16 x scale, below any absolute tolerance at a large scale
        rng = np.random.default_rng(0)
        for _ in range(200):
            chol = rng.standard_normal((3, 2))
            ws.BrownianMotion(np.zeros(3), scale * (chol @ chol.T))

    def test_small_indefinite_sigma_rejected(self):
        with pytest.raises(ws.LevySpecError, match="not PSD"):
            ws.BrownianMotion([0, 0], [[1e-12, 0], [0, -5e-11]])


class TestExponentCPP:
    def test_origin(self):
        assert ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [1.0])).exponent([0.0]) == 0

    def test_unit_jump_at_pi(self):
        val = ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [1.0])).exponent([np.pi])
        assert val == pytest.approx(-2.0 + 0j, abs=1e-12)

    def test_linear_in_rate(self):
        val = ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [2.0])).exponent([np.pi])
        assert val == pytest.approx(-4.0 + 0j, abs=1e-12)

    def test_zero_measure(self):
        zero = ws.AtomicJumps(np.zeros((0, 2)), [])
        assert np.array_equal(zero.laplace(np.ones((3, 0))), np.zeros(3))
        rng = np.random.default_rng(0)
        assert zero.sample(rng, 0).shape == (0, 2)
        with pytest.raises(ws.LevySpecError):
            zero.sample(rng, 1)


def atom_counts(jumps, steps, rows, seed):
    """Each (row, step, atom) count of one `window_draws` call, shape
    (rows, m, atoms), for atoms at the unit vectors."""
    m, k = steps.size, jumps.rates.size
    window, points = jumps.window_draws(steps, rows, np.random.default_rng(seed))
    atom = np.argmax(points, axis=1)
    return np.bincount(window * k + atom, minlength=rows * m * k).reshape(rows, m, k)


class TestPoissonDraws:
    def test_shapes_and_one_point_per_count(self):
        # total mass 4, so windows of length 0.625 expect 2.5 atoms each
        jumps = ws.AtomicJumps([[1.0, 0.0], [0.0, 2.0]], [1.0, 3.0])
        window, points = jumps.window_draws(np.array([0.625, 0.625]), 50,
                                            np.random.default_rng(0))
        assert window.shape == (len(points),) and points.shape[1] == 2
        assert len(points) > 0 and np.all((window >= 0) & (window < 100))
        # every point is an atom, and summing g(points) sums g over each window
        assert np.all(np.all(points == [1.0, 0.0], axis=1)
                      | np.all(points == [0.0, 2.0], axis=1))
        sums = window_sums(window, np.ones(len(points)), 100)
        assert np.array_equal(sums, np.bincount(window, minlength=100))

    def test_counts_have_the_poisson_law(self):
        # each (row, step, atom) count is Poisson(rate x step), and the
        # atoms' counts in a window are uncorrelated
        rates, steps, rows = np.array([0.5, 2.0]), np.array([0.25, 1.0, 1.5]), 20_000
        jumps = ws.AtomicJumps(np.eye(2), rates)
        counts = atom_counts(jumps, steps, rows, seed=5)
        for j, step in enumerate(steps):
            for a, rate in enumerate(rates):
                c, lam = counts[:, j, a], rate * step
                assert abs(c.mean() - lam) <= 4 * np.sqrt(lam / rows)
                var_se = np.sqrt((lam + 2 * lam**2) / rows)
                assert abs(c.var(ddof=1) - lam) <= 4 * var_se
                p0 = np.exp(-lam)
                assert abs(np.mean(c == 0) - p0) <= 4 * np.sqrt(p0 * (1 - p0) / rows)
            r = np.corrcoef(counts[:, j, 0], counts[:, j, 1])[0, 1]
            assert abs(r) <= 4 / np.sqrt(rows)

    def test_step_points_land_in_their_steps_windows(self):
        # step 1 has length 0, so no label row m + 1 is drawn; the others
        # expect rows x total mass x step points
        jumps = ws.AtomicJumps(np.eye(2), [1.0, 3.0])
        window, _ = jumps.window_draws(np.array([0.5, 0.0, 2.0]), 400,
                                       np.random.default_rng(6))
        step = window % 3
        assert np.all((window >= 0) & (window < 1200)) and not np.any(step == 1)
        for j, mean in ((0, 400 * 4 * 0.5), (2, 400 * 4 * 2.0)):
            assert abs(np.sum(step == j) - mean) <= 4 * np.sqrt(mean)
        # gamma rays: one total per ray in every window, labelled in order
        rays = ws.GammaRays([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0], [1.0, 1.0])
        window, points = rays.window_draws(np.array([0.5, 1.0]), 3,
                                           np.random.default_rng(6))
        assert np.array_equal(window, np.repeat(np.arange(6), 2))
        assert points.shape == (12, 2)

    def test_per_row_mean(self):
        mean = np.array([0.0, 5.0, 50.0])
        counts = poisson_counts(mean, np.random.default_rng(1))
        assert counts.shape == (3,)
        assert counts[0] == 0 and counts[2] > counts[1] > 0

    def test_zero_mean_draws_nothing(self):
        # the zero measure draws nothing and leaves the generator as it was
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        zero = ws.AtomicJumps(np.zeros((0, 3)), [])
        window, points = zero.window_draws(np.ones(10), 7, rng)
        assert window.shape == (0,) and points.shape == (0, 3)
        assert np.array_equal(window_sums(window, points, 70), np.zeros((70, 3)))
        assert np.array_equal(poisson_counts(np.zeros(10), rng), np.zeros(10))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("mean,size", [
        (np.nan, 2), (-1.0, 2), (np.array([0.5, np.nan]), 2),
        (np.array([-1.0, 5.0]), 2),
        # 10 rows expecting 2**27 / 10 + 1 points each: beyond MAX_POISSON_POINTS
        (2**27 / 10 + 1.0, 10)])
    def test_bad_or_too_large_mean_raises(self, mean, size):
        with pytest.raises(ws.LevySpecError, match="expect at most"):
            poisson_counts(np.full(size, mean), np.random.default_rng(3))

    def test_compound_poisson_rate_beyond_sampler_raises(self):
        X = ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [1e300]))
        with pytest.raises(ws.LevySpecError, match="expect at most"):
            X.sample(np.ones(10), np.random.default_rng(4))

    def test_compound_poisson_mean_overflow_raises_without_warning(self):
        # total mass x duration beyond the floating-point range
        X = ws.CompoundPoisson(ws.AtomicJumps([[1.0], [2.0]], [1e300, 1e300]))
        with pytest.raises(ws.LevySpecError, match="expect at most"):
            X.sample(np.array([1.0, 1e10]), np.random.default_rng(4))

    def test_compound_poisson_memory_grows_with_points_not_atoms(self):
        # 500 atoms of total mass 1e-3 over 4000 unequal windows expect 2
        # jumps: the draw needs a few arrays of one entry per window, where
        # one count per (window, atom) takes 2e6 entries, 16 MB an array
        X = ws.CompoundPoisson(ws.AtomicJumps(np.arange(1.0, 501.0)[:, None],
                                              np.full(500, 2e-6)))
        dt = np.random.default_rng(7).uniform(0.0, 1.0, 4000)
        tracemalloc.start()
        try:
            out = X.sample(dt, np.random.default_rng(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (4000, 1)
        assert peak < 2**20


def shuffled_labels(counts, rng):
    """counts[w] labels w per window, in a random order."""
    return rng.permutation(np.repeat(np.arange(len(counts)), counts))


def add_at_sums(window, values, windows):
    """The window sums by np.add.at: window_sums must equal them bit for bit."""
    out = np.zeros((windows,) + values.shape[1:])
    np.add.at(out, window, values)
    return out


class TestPoissonScatter:
    """window_sums scatters each point's value into its window."""

    @pytest.mark.parametrize("tail", [(), (2,), (3, 4)])
    def test_equals_add_at_bit_for_bit(self, tail):
        rng = np.random.default_rng(31)
        window = rng.integers(0, 500, size=750)
        values = rng.standard_normal((750,) + tail)
        out = window_sums(window, values, 500)
        assert out.shape == (500,) + tail
        assert out.tobytes() == add_at_sums(window, values, 500).tobytes()

    @pytest.mark.parametrize("counts,values", [
        # zero-jump batches draw (0, n) values: the reshape must not need -1
        (np.zeros(4, dtype=int), np.zeros((0, 2))),
        (np.zeros(0, dtype=int), np.zeros(0)),
        (np.zeros(0, dtype=int), np.zeros((0, 3))),
        # a window of -0.0 sums to 0.0, as adding to 0.0 does
        (np.array([2, 0, 1]), np.array([-0.0, -0.0, -0.0])),
        # prm sums log(means), and a mean can be 0
        (np.array([1, 2, 0, 1]), np.array([-np.inf, -np.inf, 1.0, 2.0])),
        (np.array([1, 1]), np.array([[-np.inf, -0.0], [np.inf, 3.0]])),
    ])
    def test_edge_cases_equal_add_at(self, counts, values):
        window = shuffled_labels(counts, np.random.default_rng(32))
        out = window_sums(window, values, len(counts))
        reference = add_at_sums(window, values, len(counts))
        assert out.shape == reference.shape
        assert out.tobytes() == reference.tobytes()


class TestKacStack:
    def test_two_standard_bms(self):
        stack = ws.IndependentStack([ws.BrownianMotion([0.0], [[1.0]])
                                     for _ in range(2)])
        assert stack.exponent([1, 1]) == pytest.approx(-1.0)
        assert stack.exponent([0, 0]) == 0

    def test_bm_plus_poisson(self):
        blocks = [ws.BrownianMotion([0.0], [[1.0]]),
                  ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [1.0]))]
        val = ws.IndependentStack(blocks).exponent([0.0, np.pi])
        assert val == pytest.approx(-2.0 + 0j, abs=1e-12)

    def test_single_block_identity(self):
        bm = ws.BrownianMotion([0.3, -1.0], [[2, 0.4], [0.4, 1]])
        theta = np.array([0.7, -0.2])
        assert ws.IndependentStack([bm]).exponent(theta) == bm.exponent(theta)

    def test_dim_mismatch(self):
        with pytest.raises(ws.LevySpecError):
            ws.IndependentStack([ws.BrownianMotion([0.0], [[1.0]])]).exponent([1, 1])

    def test_blocks_from_a_generator(self):
        # the blocks are counted from the tuple, not from the spent generator
        bm = ws.BrownianMotion([0.0], [[1.0]])
        stack = ws.IndependentStack(b for b in (bm, bm))
        assert stack.dim == 2 and stack.blocks == (bm, bm)
        assert stack.exponent([1, 1]) == pytest.approx(-1.0)


class TestLaplaceExponent:
    def test_at_zero(self):
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [1.0]))
        assert ws.laplace_exponent(T, [0.0]) == 0

    def test_unit_poisson(self):
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [1.0]))
        assert ws.laplace_exponent(T, [1.0]) == pytest.approx(1 - np.exp(-1))

    def test_unit_poisson_mc_oracle(self):
        # cross-check E exp(-T(1)) for a unit-rate Poisson directly
        rng = np.random.default_rng(0)
        emp = np.exp(-rng.poisson(1.0, size=10**6)).mean()
        assert emp == pytest.approx(np.exp(-(1 - np.exp(-1))), abs=4e-4)

    def test_pure_drift(self):
        T = ws.SubordinatorSpec([2.0])
        z = 0.7 + 0.3j
        assert ws.laplace_exponent(T, [z]) == pytest.approx(2 * z)

    def test_negative_real_part_rejected(self):
        with pytest.raises(ws.LevySpecError):
            ws.laplace_exponent(ws.SubordinatorSpec([1.0]), [-0.1])

    def test_imaginary_argument_matches_char_exponent(self):
        # Lambda(-i theta) == -Psi_T(theta) for atomic subordinators
        T = ws.SubordinatorSpec(np.array([0.4, 0.0]),
                                ws.AtomicJumps([[1, 2], [0.5, 0]], [0.7, 1.3]))
        cpp = ws.CompoundPoisson(T.jumps).exponent(np.array([0.9, -0.4]))
        psi = 1j * (T.d @ np.array([0.9, -0.4])) + cpp
        lam = ws.laplace_exponent(T, -1j * np.array([0.9, -0.4]))
        assert abs(lam + psi) < 1e-10

    def test_gamma_rays(self):
        # E exp(-z G) = (1 + z / b)^(-c) for G ~ Gamma(c, 1 / b): ray (1, 2)
        # at z gives c log1p(<z, (1, 2)> / b), plus the drift term
        T = ws.SubordinatorSpec(np.array([0.5, 0.0]),
                                ws.GammaRays([[1.0, 2.0]], [1.5], [2.0]))
        z = np.array([0.3 + 1j, 0.2 - 0.5j])
        expected = 0.5 * z[0] + 1.5 * np.log(1 + (z[0] + 2 * z[1]) / 2.0)
        assert abs(ws.laplace_exponent(T, z) - expected) <= 1e-14
        # against gamma draws: at z = (0, 0.5), <z, (1, 2)> = 1
        vals = np.exp(-np.random.default_rng(4).gamma(1.5, 0.5, 10**6))
        exact = np.exp(-ws.laplace_exponent(T, [0.0, 0.5]))
        assert abs(vals.mean() - exact) <= 4 * vals.std() / 1e3

    @pytest.mark.parametrize("z", [[np.nan, 0.5], [0.5, np.inf], [complex(0, np.nan), 0.5]],
                             ids=["nan", "inf", "nan_imag"])
    def test_non_finite_argument_rejected(self, z):
        T = ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1, 2]], [1.0]))
        with pytest.raises(ws.LevySpecError, match="finite"):
            ws.laplace_exponent(T, z)


class TestValidateTriplet:
    def test_subordinator_orthant_violation(self):
        with pytest.raises(ws.LevySpecError, match="orthant"):
            ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[-1.0]], [1.0]))

    def test_negative_drift_reported(self):
        with pytest.raises(ws.LevySpecError, match="orthant"):
            ws.SubordinatorSpec(np.array([-0.5]))

    @pytest.mark.parametrize("build", [
        lambda: ws.AtomicJumps([[np.nan, 1.0]], [1.0]),
        lambda: ws.AtomicJumps([[1.0, 1.0]], [np.inf]),
        lambda: ws.AtomicJumps([[1.0, 0.0], [0.0, 1.0]], [1e308, 1e308]),
        lambda: ws.SubordinatorSpec(np.array([np.nan, 1.0])),
        lambda: ws.BrownianMotion([np.nan, 0.0], np.eye(2)),
        lambda: ws.BrownianMotion([0.0, 0.0], [[1.0, np.inf], [0.0, 1.0]]),
        lambda: ws.BrownianMotion([0.0, 0.0], np.diag([1e308, 1e308])),
    ], ids=["atom_point_nan", "atom_rate_inf", "atom_rates_sum_inf", "drift_nan",
            "mu_nan", "sigma_inf", "sigma_sum_inf"])
    def test_non_finite_field_rejected(self, build):
        with pytest.raises(ws.LevySpecError, match="finite"):
            build()

    @pytest.mark.parametrize("field,value", [
        (f, v) for f in ("c", "b", "direction")
        for v in (0.0, -1.0, np.nan, np.inf) if (f, v) != ("direction", 0.0)]
        + [("direction", "zero_row")], ids=str)
    def test_bad_gamma_ray_rejected(self, field, value):
        # a direction may have zero entries, not be zero; c and b are > 0
        args = {"directions": [[1.0, 0.0], [0.5, 2.0]], "c": [1.0, 2.0],
                "b": [1.5, 0.5]}
        if value == "zero_row":
            args["directions"][1] = [0.0, 0.0]
        elif field == "direction":
            args["directions"][1][0] = value
        else:
            args[field][1] = value
        with pytest.raises(ws.LevySpecError):
            ws.GammaRays(**args)

    @pytest.mark.parametrize("d", [1.0, [[1.0, 2.0]]], ids=["scalar", "matrix"])
    def test_drift_not_a_vector_rejected(self, d):
        with pytest.raises(ws.LevySpecError, match="drift must be a vector"):
            ws.SubordinatorSpec(d)

    @pytest.mark.parametrize("build", [
        lambda: ws.AtomicJumps([[1.0, 0.0], [1.0]], [1.0, 1.0]),
        lambda: ws.GammaRays([[1.0, 0.0], [1.0]], [1.0, 1.0], [1.0, 1.0]),
    ], ids=["atoms", "gamma_rays"])
    def test_points_of_unequal_length_rejected(self, build):
        with pytest.raises(ws.LevySpecError, match="jump points must be rows of numbers"):
            build()

    @pytest.mark.parametrize("build, name", [
        (lambda: ws.AtomicJumps([[1, 0], [0, 1]], [[1.0], [1.0, 2.0]]), "jump rates"),
        (lambda: ws.GammaRays([[1, 0], [0, 1]], [[1.0], [1.0, 2.0]], [1.0, 1.0]),
         "jump c"),
        (lambda: ws.BrownianMotion([[0.0], [0.0, 1.0]], np.eye(2)), "mu"),
        (lambda: ws.BrownianMotion([0.0, 0.0], [[1.0, 0.0], [1.0]]), "sigma"),
        (lambda: ws.SubordinatorSpec([[1.0], [1.0, 2.0]]), "drift"),
        (lambda: ws.AtomicJumps([[1, 0]], ["a"]), "jump rates"),
    ], ids=["atom_rates", "gamma_c", "mu", "sigma", "drift", "rate_text"])
    def test_ragged_or_non_numeric_argument_named(self, build, name):
        # numpy's own ValueError would not say which argument is at fault
        with pytest.raises(ws.LevySpecError,
                           match=f"^{name} must be rows of numbers, all of one length$"):
            build()

    def test_compound_poisson_needs_atoms(self):
        # gamma rays have infinite activity: no compound Poisson law, so
        # valid rays are rejected too
        with pytest.raises(ws.LevySpecError, match="atomic"):
            ws.CompoundPoisson(ws.GammaRays([[1.0]], [1.0], [1.0]))

    @pytest.mark.parametrize("m", [0, 2.5, True])
    def test_bad_lift_copies_rejected(self, m):
        with pytest.raises(ws.LevySpecError, match="lift copies must be an integer >= 1"):
            ws.Lift(ws.BrownianMotion([0.0], [[1.0]]), m)

    @pytest.mark.parametrize("build, message", [
        (lambda: ws.AtomicJumps([[1, 0]], [1.0, 2.0]),
         "need one point per row and one each of rates per point"),
        (lambda: ws.BrownianMotion([[0, 0]], np.eye(2)), "mu must be a vector"),
        (lambda: ws.BrownianMotion(np.zeros(0), np.zeros((0, 0))),
         "mu must have one or more coordinates"),
        (lambda: ws.SubordinatorSpec(np.zeros(0)), "drift must have one or more coordinates"),
        (lambda: ws.CompoundPoisson(ws.AtomicJumps(np.zeros((0, 2)), [])),
         "compound Poisson needs a nonzero jump measure"),
        (lambda: ws.IndependentStack([]), "stack needs at least one block"),
        (lambda: ws.IndependentStack(iter([])), "stack needs at least one block"),
        (lambda: ws.SubordinatorSpec([1.0, 2.0], ws.AtomicJumps([[1.0, 1.0, 1.0]], [1.0])),
         "jump measure dimension differs from drift"),
        (lambda: ws.weak_exponent(ws.SubordinatorSpec([1.0, 1.0]),
                                  ws.BrownianMotion(np.zeros(3), np.eye(3)),
                                  np.zeros(2), np.zeros(3)),
         "theta1, theta2, T and X dimensions disagree"),
        # <theta1, a> = 2e308 overflows to inf in the second row
        (lambda: ws.weak_exponent(
            ws.SubordinatorSpec(np.zeros(2), ws.AtomicJumps([[1.0, 1.0]], [1.0])),
            ws.BrownianMotion(np.zeros(2), np.eye(2)), [[0, 0], [1e308, 1e308]], np.zeros(2)),
         "the exact exponent is not finite at 1 of 2 theta grid points: "
         "beyond the floating-point range"),
        # 2 x 1e308 overflows the drift term
        (lambda: ws.laplace_exponent(ws.SubordinatorSpec([2.0]), [[1.0], [1e308]]),
         "the exact exponent is not finite at 1 of 2 theta grid points: "
         "beyond the floating-point range"),
        # stacked_C3 at theta2 = (1e160, 1e160): its z is not finite
        (lambda: ws.stacked_strong_exponent(*scenario_processes("stacked_C3")[2].values(),
                                            [0, 0], [1e160, 1e160]),
         "the exact exponent is not finite at 1 of 1 theta grid points: "
         "beyond the floating-point range"),
        (lambda: ws.BrownianMotion([0.0, np.nan], np.eye(2)), "mu must be finite"),
        (lambda: ws.clt_bound(100, k=np.array([4.0, 4.0])),
         "the CLT width k must be a real number, not array([4., 4.])"),
        (lambda: ws.ThetaGridSpec(scale=np.array(np.inf)).build(2),
         "theta grid scale must be finite and > 0, not inf"),
        (lambda: ws.clt_bound(1.5), "sample size must be an integer >= 1, not 1.5"),
        (lambda: ws.cf_compare(np.zeros((200, 2)), [5.0], np.zeros((1, 2))),
         "the target CF values must have modulus at most 1 + 1e-12, as a CF's do"),
        (lambda: ws.ThetaGridSpec(points=np.zeros((1, 3))).build(2),
         "theta grid points must be in 2 columns and one or more rows"),
    ], ids=["rates_per_point", "mu_matrix", "empty_mu", "empty_drift",
            "zero_compound_poisson", "empty_stack",
            "empty_stack_iterator", "measure_dim", "weak_exponent_dims",
            "weak_exponent_not_finite", "laplace_exponent_not_finite",
            "stacked_strong_exponent_not_finite", "floats_not_finite", "not_a_real_number",
            "not_positive", "sample_size_not_an_integer", "target_not_a_cf",
            "grid_points_shape"])
    def test_spec_error_message(self, build, message):
        with pytest.raises(ws.LevySpecError, match=f"^{re.escape(message)}$"):
            build()


class TestLawAttributes:
    LAWS = {"gamma_rays": ws.GammaRays([[1.0, 0.0], [0.5, 2.0]], [1.0, 2.0], [1.5, 0.5]),
            "cpp": ws.CompoundPoisson(ws.AtomicJumps([[1.0], [-2.0]], [2.0, 0.5])),
            "lift": ws.Lift(ws.BrownianMotion([0.5], [[2.0]]), 3)}

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_repr_rebuilds_an_equal_repr(self, name):
        law = self.LAWS[name]
        again = eval(repr(law), {"array": np.array, **vars(ws)})
        assert type(again) is type(law) and repr(again) == repr(law)

    def test_lift_jump_rate_is_its_process_rate(self):
        X = ws.CompoundPoisson(ws.AtomicJumps([[1.0], [2.0]], [2.0, 0.5]))
        assert ws.Lift(X, 3).jump_rate == 2.5

    # (T, X) from fresh input arrays, one case per constructor that takes
    # arrays, and the values of those arrays
    POINTS = [[1.0, 0.0], [0.5, 1.0]]
    BUILDS = {
        "brownian": (lambda mu, sigma: (ws.SubordinatorSpec([1.0, 0.5]),
                                        ws.BrownianMotion(mu, sigma)),
                     [[0.0, 0.0], np.eye(2)]),
        "atoms": (lambda d, points, rates: (
            ws.SubordinatorSpec(d, ws.AtomicJumps(points, rates)),
            ws.BrownianMotion([0.0, 0.0], np.eye(2))), [[0.2, 0.1], POINTS, [1.0, 2.0]]),
        "compound_poisson": (lambda points, rates: (
            ws.SubordinatorSpec([1.0, 0.5]),
            ws.CompoundPoisson(ws.AtomicJumps(points, rates))), [POINTS, [1.0, 2.0]]),
        "gamma_rays": (lambda d, directions, c, b: (
            ws.SubordinatorSpec(d, ws.GammaRays(directions, c, b)),
            ws.BrownianMotion([0.0, 0.0], np.eye(2))),
            [[0.2, 0.1], POINTS, [1.5, 0.5], [1.0, 2.0]])}

    @staticmethod
    def outputs(T, X):
        theta = np.array([[1.0, 0.0], [0.3, -0.7]])
        draws = [sample(T, X, [0.5, 1.0], 50, np.random.default_rng(0))
                 for sample in (ws.simulate_strong_at, ws.simulate_weak_at)]
        return [X.exponent(theta), ws.laplace_exponent(T, np.abs(theta)),
                ws.weak_exponent(T, X, theta, theta), *draws]

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_edited_inputs_leave_the_law_as_built(self, name):
        build, values = self.BUILDS[name]
        inputs = [np.array(value, dtype=float) for value in values]
        T, X = build(*inputs)
        before = self.outputs(T, X)
        for a in inputs:
            a += 1.0  # a rate edited in place left total_mass stale
        for old, new in zip(before, self.outputs(T, X)):
            assert np.array_equal(old, new)
        held = [value for law in (T, T.jumps, X, getattr(X, "jumps", X))
                for key, value in vars(law).items()
                if isinstance(value, np.ndarray) and not key.startswith("_")]
        assert len(held) >= len(inputs)
        for value in held:
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0.0

    def test_subordinator_compares_and_hashes_by_identity(self):
        # its drift is an array, so field-wise == and hash raised
        T = ws.SubordinatorSpec([1.0, 2.0])
        assert T == T and T != ws.SubordinatorSpec([1.0, 2.0])
        assert len({T, T, ws.SubordinatorSpec([1.0, 2.0])}) == 2


class TestDurations:
    LAWS = {"bm": ws.BrownianMotion([0.0], [[1.0]]),
            "cpp": ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [2.0])),
            "stack": ws.IndependentStack([ws.BrownianMotion([0.0], [[1.0]]),
                                          ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [2.0]))]),
            "lift": ws.Lift(ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [2.0])), 2)}

    # a scalar or 2-d dt is rejected too: a draw takes one duration per row
    @pytest.mark.parametrize("dt", [[np.nan], [np.inf], [0.5, np.nan], [np.inf, 0.5],
                                    [0.5, -1.0], 0.5, [[0.5], [0.5]]],
                             ids=["nan", "inf", "row_nan", "row_inf", "row_negative",
                                  "scalar", "2d"])
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_bad_duration_rejected(self, law, dt):
        with pytest.raises(ws.LevySpecError, match="duration"):
            self.LAWS[law].sample(dt, np.random.default_rng(0))

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_one_row_per_duration(self, law):
        x = self.LAWS[law].sample(np.array([0.0, 0.5, 2.0]), np.random.default_rng(0))
        assert x.shape == (3, self.LAWS[law].dim)
        assert np.array_equal(x[0], np.zeros(self.LAWS[law].dim))


@st.composite
def levy_laws(draw):
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["bm", "cpp", "stack"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "bm":
        a = rng.standard_normal((dim, dim))
        return ws.BrownianMotion(rng.standard_normal(dim), a @ a.T)
    if kind == "cpp":
        m = draw(st.integers(1, 3))
        pts = rng.standard_normal((m, dim)) + 0.1
        return ws.CompoundPoisson(ws.AtomicJumps(pts, rng.uniform(0.1, 2.0, m)))
    return ws.IndependentStack(
        [ws.BrownianMotion(rng.standard_normal(1), [[rng.uniform(0.1, 2)]])
         for _ in range(dim)])


class TestExponentProperties:
    @settings(max_examples=60)
    @given(levy_laws(), st.integers(0, 2**32 - 1))
    def test_exponent_invariants(self, law, theta_seed):
        theta = np.random.default_rng(theta_seed).standard_normal(law.dim) * 2
        psi = law.exponent(theta)
        assert psi.real <= 0
        assert law.exponent(np.zeros(law.dim)) == 0
        assert law.exponent(-theta) == pytest.approx(np.conj(psi), abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
    def test_rank_deficient_brownian_real_part(self, scale):
        # sigma = scale B B' of rank 2 in 3 dimensions; on the null direction
        # of B' the quadratic form rounds to either sign, and Re psi stays <= 0
        rng = np.random.default_rng(3)
        for _ in range(50):
            b = rng.standard_normal((3, 2))
            theta = np.linalg.svd(b.T)[2][-1]
            bm = ws.BrownianMotion(rng.standard_normal(3), scale * b @ b.T)
            assert bm.exponent(np.stack([theta, 2 * theta])).real.max() <= 0
