import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaksub as ws


class TestExponentBM:
    def test_standard_bm(self):
        assert ws.exponent_bm([0, 0], np.eye(2), [1, 1]) == pytest.approx(-1.0)

    def test_origin(self):
        assert ws.exponent_bm([1.5, -2], [[2, 1], [1, 2]], [0, 0]) == 0

    def test_correlated_with_drift(self):
        # theta Sigma theta' = 1 + 2*0.5 + 1 = 3 by hand
        val = ws.exponent_bm([1, 0], [[1, 0.5], [0.5, 1]], [1, 1])
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
            ws.exponent_bm([0, 0], np.eye(2), [1, 1, 1])

    def test_non_psd_sigma(self):
        with pytest.raises(ws.LevySpecError):
            ws.exponent_bm([0, 0], [[1, 2], [2, 1]], [1, 1])


class TestExponentCPP:
    def test_origin(self):
        assert ws.exponent_cpp(ws.AtomicJumps([[1.0]], [1.0]), [0.0]) == 0

    def test_unit_jump_at_pi(self):
        val = ws.exponent_cpp(ws.AtomicJumps([[1.0]], [1.0]), [np.pi])
        assert val == pytest.approx(-2.0 + 0j, abs=1e-12)

    def test_linear_in_rate(self):
        val = ws.exponent_cpp(ws.AtomicJumps([[1.0]], [2.0]), [np.pi])
        assert val == pytest.approx(-4.0 + 0j, abs=1e-12)

    def test_zero_measure(self):
        assert ws.exponent_cpp(ws.ZeroJumps(2), [1.0, 2.0]) == 0
        assert ws.ZeroJumps(2).integrate(lambda x: x[:, 0] + 1.0) == (0, 0.0)
        rng = np.random.default_rng(0)
        assert ws.ZeroJumps(2).sample(rng, 0).shape == (0, 2)
        with pytest.raises(ws.LevySpecError):
            ws.ZeroJumps(2).sample(rng, 1)


class TestKacStack:
    def test_two_standard_bms(self):
        blocks = [ws.BrownianMotion([0.0], [[1.0]]) for _ in range(2)]
        assert ws.kac_stack_exponent(blocks, [1, 1]) == pytest.approx(-1.0)
        assert ws.kac_stack_exponent(blocks, [0, 0]) == 0

    def test_bm_plus_poisson(self):
        blocks = [ws.BrownianMotion([0.0], [[1.0]]),
                  ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [1.0]))]
        val = ws.kac_stack_exponent(blocks, [0.0, np.pi])
        assert val == pytest.approx(-2.0 + 0j, abs=1e-12)

    def test_single_block_identity(self):
        bm = ws.BrownianMotion([0.3, -1.0], [[2, 0.4], [0.4, 1]])
        theta = np.array([0.7, -0.2])
        assert ws.kac_stack_exponent([bm], theta) == bm.exponent(theta)

    def test_dim_mismatch(self):
        with pytest.raises(ws.LevySpecError):
            ws.kac_stack_exponent([ws.BrownianMotion([0.0], [[1.0]])], [1, 1])


class TestLaplaceExponent:
    def test_at_zero(self):
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [1.0]))
        assert ws.laplace_exponent(T, [0.0]) == 0

    def test_unit_poisson(self):
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[1.0]], [1.0]))
        assert ws.laplace_exponent(T, [1.0]) == pytest.approx(1 - np.exp(-1))
        # an atomic measure is integrated exactly whatever the rng
        assert ws.laplace_exponent_mc(T, [1.0], np.random.default_rng(0)) == (
            ws.laplace_exponent(T, [1.0]), 0.0)

    def test_unit_poisson_mc_oracle(self):
        # cross-check E exp(-T(1)) for a unit-rate Poisson directly
        rng = np.random.default_rng(0)
        emp = np.exp(-rng.poisson(1.0, size=10**6)).mean()
        assert emp == pytest.approx(np.exp(-(1 - np.exp(-1))), abs=4e-4)

    def test_pure_drift(self):
        T = ws.pure_drift([2.0])
        z = 0.7 + 0.3j
        assert ws.laplace_exponent(T, [z]) == pytest.approx(2 * z)

    def test_negative_real_part_rejected(self):
        with pytest.raises(ws.LevySpecError):
            ws.laplace_exponent(ws.pure_drift([1.0]), [-0.1])

    def test_imaginary_argument_matches_char_exponent(self):
        # Lambda(-i theta) == -Psi_T(theta) for atomic subordinators
        T = ws.SubordinatorSpec(np.array([0.4, 0.0]),
                                ws.AtomicJumps([[1, 2], [0.5, 0]], [0.7, 1.3]))
        cpp = ws.exponent_cpp(T.jumps, np.array([0.9, -0.4]))
        psi = 1j * (T.d @ np.array([0.9, -0.4])) + cpp
        lam = ws.laplace_exponent(T, -1j * np.array([0.9, -0.4]))
        assert abs(lam + psi) < 1e-10

    def test_samplable_requires_mc(self):
        jumps = ws.SamplableJumps(1, 2.0, lambda rng, size: rng.exponential(
            size=(size, 1)))
        T = ws.SubordinatorSpec(np.zeros(1), jumps)
        with pytest.raises(ws.LevySpecError):
            ws.laplace_exponent(T, [1.0])
        with pytest.raises(ws.LevySpecError):
            jumps.integrate(lambda t: t[:, 0])
        rng = np.random.default_rng(3)
        est, se = ws.laplace_exponent_mc(T, [1.0], rng, samples=200_000)
        # E jump ~ Exp(1): exact value 2*(1 - E e^{-t}) = 2*(1 - 1/2) = 1
        assert se > 0
        assert abs(est - 1.0) <= 4 * se


class TestValidateTriplet:
    def test_zero_triplet_valid(self):
        t = ws.CharTriplet(np.zeros(2), np.zeros((2, 2)), ws.ZeroJumps(2))
        assert ws.validate_triplet(t).valid

    def test_non_psd_sigma_reported(self):
        t = ws.CharTriplet(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                           ws.ZeroJumps(2))
        report = ws.validate_triplet(t)
        assert not report.valid
        assert any("positive semidefinite" in v for v in report)

    def test_subordinator_orthant_violation(self):
        T = ws.SubordinatorSpec(np.zeros(1), ws.AtomicJumps([[-1.0]], [1.0]))
        report = ws.validate_triplet(T)
        assert not report.valid
        assert any("orthant" in v for v in report)

    def test_negative_drift_reported(self):
        T = ws.SubordinatorSpec(np.array([-0.5]), ws.ZeroJumps(1))
        assert not ws.validate_triplet(T).valid


class TestTruncationConversion:
    def test_roundtrip(self):
        t = ws.CharTriplet(np.array([1.0, -1.0]), np.eye(2),
                           ws.AtomicJumps([[0.3, 0.4], [2, 2]], [1.0, 0.5]))
        back = ws.from_unit_ball_truncation(ws.to_unit_ball_truncation(t))
        assert np.allclose(back.mu, t.mu)

    def test_only_small_jumps_compensated(self):
        t = ws.CharTriplet(np.zeros(1), np.zeros((1, 1)),
                           ws.AtomicJumps([[0.5], [3.0]], [2.0, 1.0]))
        conv = ws.to_unit_ball_truncation(t)
        assert conv.mu[0] == pytest.approx(2.0 * 0.5)

    def test_exponent_invariant_under_convention(self):
        # both conventions must describe the same law
        jumps = ws.AtomicJumps([[0.3, -0.2], [1.5, 0.5]], [1.0, 0.8])
        t = ws.CharTriplet(np.array([0.2, 0.7]), np.eye(2), jumps)
        conv = ws.to_unit_ball_truncation(t)
        theta = np.array([0.9, -1.3])
        compensated = (ws.exponent_bm(conv.mu, conv.sigma, theta)
                       + ws.exponent_cpp(jumps, theta)
                       - 1j * theta @ (conv.mu - t.mu))
        assert abs(compensated - t.exponent(theta)) < 1e-12


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
    @settings(max_examples=60, deadline=None)
    @given(levy_laws(), st.integers(0, 2**32 - 1))
    def test_exponent_invariants(self, law, theta_seed):
        theta = np.random.default_rng(theta_seed).standard_normal(law.dim) * 2
        psi = law.exponent(theta)
        assert psi.real <= 1e-10
        assert law.exponent(np.zeros(law.dim)) == 0
        assert law.exponent(-theta) == pytest.approx(np.conj(psi), abs=1e-12)
