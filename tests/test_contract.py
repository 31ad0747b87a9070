"""The public API's contract, over generated arguments.

Every call of the 24 exports of `weaksub` and of the four names of
`weaksub.prm`, under warnings as errors, raises a LevySpecError or
returns finite values, and a report's JSON holds no NaN or inf. The one
exception is a law-level exponent (a law's `exponent` and
`vector_time_exponent`), which may have Re = -inf, its limit where the
CF is 0; those are drawn at finite frequencies up to 1e160 and times up
to 1e3. A number argument is drawn as a Python number, a numpy scalar, a
0-d or 2-element array, or a bool; a string, None or a complex number
where a real belongs is out of scope, and numpy's TypeError is
acceptable there. The abstract bases `LevyLaw` and `JumpMeasure` are
covered through their subclasses, `ECFReport` through `cf_compare` and
the suite, and `LevySpecError` as what is raised. Each `@example` pins a
fault that was found by hand.
"""
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cold_start import PRM_NAMES, SURFACE
from test_levy import levy_laws

import weaksub as ws
from weaksub import prm
from weaksub.verify import SCENARIOS, TARGET_TOL, scenario_processes, scenario_record

pytestmark = pytest.mark.filterwarnings("error")

# values a caller may pass where a number belongs
SPECIAL = (0, 1, 4, -1, 0.5, 2.5, 1e-300, 1e300, -1e300, 1e308, np.inf, -np.inf, np.nan)
LAW_THETA = (0.0, 0.5, -3.0, 1e160, -1e160)
EXACT_THETA = LAW_THETA + (1e300, 1e308, np.inf, np.nan)
C1 = scenario_record("finite_activity_C1")
BM = C1.X  # correlated Brownian motion in two dimensions
R3, DIMS3, BLOCKS3 = scenario_processes("stacked_C3")[2].values()
TWO = np.array([4.0, 4.0])  # a 2-element array where a number belongs
CALLED = {  # what the tests below call, directly or through subclasses and results
    "AtomicJumps", "BrownianMotion", "CompoundPoisson", "ECFReport", "GammaRays",
    "IndependentStack", "JumpMeasure", "LevyLaw", "LevySpecError", "Lift",
    "SubordinatorSpec", "ThetaGridSpec", "cf_compare", "clt_bound", "ecf_grid",
    "equality_in_law_suite", "laplace_exponent", "sample_subordinate_at",
    "simulate_strong_at", "simulate_weak_at", "stacked_strong_exponent",
    "stacked_subordinator", "vector_time_exponent", "weak_exponent",
    "ConstantFunctional", "PointMassMark", "laplace_functional_mc",
    "marked_laplace_check"}


def _kinds(value, pair=True):
    """value as a Python number, a numpy scalar, a 0-d array or (if `pair`)
    a 2-element array."""
    scalar = np.int64(value) if isinstance(value, int) else np.float64(value)
    return st.sampled_from([value, scalar, np.array(value)]
                           + [np.array([value, value])] * pair)


ANY_NUMBER = st.sampled_from(SPECIAL).flatmap(_kinds) | st.sampled_from([True, np.True_])


def _mostly(valid):
    """valid three times in four, else any number of any kind."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else ANY_NUMBER)


def numbers(*valid):
    """A number argument: mostly one of `valid` as a Python number, a numpy
    scalar or a 0-d array; else one of SPECIAL, a 2-element array of it, or
    a bool."""
    return _mostly(st.sampled_from(valid).flatmap(lambda v: _kinds(v, pair=False)))


def counts(low, high):
    """A count argument: mostly an integer in [low, high], Python or numpy."""
    return _mostly(st.integers(low, high).flatmap(lambda v: st.sampled_from([v, np.int64(v)])))


def arrays(shape, values=SPECIAL):
    size = int(np.prod(shape))
    return st.lists(st.sampled_from(values), min_size=size, max_size=size).map(
        lambda v: np.reshape(np.array(v, dtype=float), shape))


def holds(call):
    """call()'s result, checked finite (a report's JSON, with no NaN or
    inf, for a report), or None for a LevySpecError."""
    try:
        value = call()
    except ws.LevySpecError:
        return None
    if hasattr(value, "to_dict"):
        json.dumps(value.to_dict(), allow_nan=False)
    elif isinstance(value, (np.ndarray, np.generic, float, tuple)):
        assert np.all(np.isfinite(value)), value
    return value


def test_every_name_is_called():
    assert CALLED == set(SURFACE) | set(PRM_NAMES)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@st.composite
def subordinators(draw, dim, values=(0.0, 0.5, 2.0), weight_values=(0.5, 2.0)):
    """A SubordinatorSpec of `dim` coordinates, drift and points drawn from
    `values` and weights from `weight_values`, or None where its arguments
    are a LevySpecError."""
    drift = draw(arrays((dim,), values))
    kind = draw(st.sampled_from(["drift", "atoms", "gamma"]))
    rays = draw(st.integers(1, 2))
    points = draw(arrays((rays, dim), values))
    weights = [draw(arrays((rays,), weight_values)) for _ in range(2)]
    jumps = {"drift": lambda: None, "atoms": lambda: ws.AtomicJumps(points, weights[0]),
             "gamma": lambda: ws.GammaRays(points, *weights)}[kind]
    return holds(lambda: ws.SubordinatorSpec(drift, jumps()))


@st.composite
def processes(draw):
    """(T, X): a law and a subordinator of its dimension (None or valid)."""
    X = draw(levy_laws())
    return draw(subordinators(X.dim)), X


@settings(max_examples=60)
@given(st.integers(1, 3), st.data())
def test_constructors(dim, data):
    # entries that are not finite or are huge too, and any count of copies
    values = SPECIAL[3:] + (0.0, 1.0)
    mu, sigma = data.draw(arrays((dim,), values)), data.draw(arrays((dim, dim), values))
    holds(lambda: ws.BrownianMotion(mu, sigma))
    T = data.draw(subordinators(dim, values, values))
    if T is not None:
        assert np.all(np.isfinite(T.d)) and np.all(np.isfinite(T.jumps.points))
        holds(lambda: ws.CompoundPoisson(T.jumps))
        holds(lambda: ws.stacked_subordinator(T, [data.draw(counts(1, 2)) for _ in T.d]))
    law = data.draw(levy_laws())
    lift = holds(lambda: ws.Lift(law, data.draw(counts(1, 3))))
    if lift is not None:
        assert ws.IndependentStack([lift, law]).dim == (lift.m + 1) * law.dim


# ---------------------------------------------------------------------------
# Exponents
# ---------------------------------------------------------------------------


@st.composite
def law_calls(draw):
    law = draw(levy_laws())
    return (law, draw(arrays((draw(st.integers(1, 3)), law.dim), LAW_THETA)),
            draw(arrays((law.dim,), (0.0, 0.5, 1.0, 1e3))))


@settings(max_examples=60)
@given(law_calls())
# the quadratic form overflows: a RuntimeWarning, then terms of both signs
@example((BM, np.array([[1e160, 1e160]]), np.array([1.0, 2.0])))
@example((BM, np.array([[1e160, -1e159]]), np.array([1.0, 2.0])))
def test_law_exponents_finite_or_minus_inf(call):
    law, theta, t = call
    for psi in (law.exponent(theta), ws.vector_time_exponent(law, t, theta)):
        assert np.all(np.isfinite(psi) | (psi.real == -np.inf)), (theta, psi)


@settings(max_examples=60)
@given(processes(), arrays((2, 3), EXACT_THETA))
def test_weak_exponent(processes, values):
    T, X = processes
    if T is not None:
        holds(lambda: ws.weak_exponent(T, X, values[0, : T.dim], values[1, : T.dim]))


@st.composite
def laplace_calls(draw):
    T = draw(subordinators(draw(st.integers(1, 2))))
    z = np.abs(draw(arrays((2,), EXACT_THETA))).astype(complex)
    z.imag = draw(arrays((2,), EXACT_THETA))  # 1j * inf would be NaN + inf j
    return T, z[: 1 if T is None else T.dim]


@settings(max_examples=60)
@given(laplace_calls())
@example((C1.T, np.array([[1e308, 1e308]])))  # a RuntimeWarning
def test_laplace_exponent(call):
    T, z = call
    if T is not None:
        holds(lambda: ws.laplace_exponent(T, z))


@st.composite
def stacked_calls(draw):
    R = draw(subordinators(draw(st.integers(1, 2))))
    if R is None:
        return R3, DIMS3, BLOCKS3, np.zeros(2), np.zeros(2)
    dims = [draw(st.integers(1, 2)) for _ in R.d]
    blocks = [draw(st.sampled_from([
        ws.BrownianMotion(np.zeros(m), np.eye(m)),
        ws.CompoundPoisson(ws.AtomicJumps(np.ones((1, m)), [1.0]))])) for m in dims]
    theta = draw(arrays((2, sum(dims)), EXACT_THETA))
    return R, dims, blocks, theta[0], theta[1]


@settings(max_examples=60)
@given(stacked_calls())
# stacked_C3 at theta2 = (1e160, 1e160): a RuntimeWarning, and without
# warnings as errors laplace_exponent's message, not the exponent's
@example((R3, DIMS3, BLOCKS3, np.zeros((1, 2)), np.full((1, 2), 1e160)))
def test_stacked_strong_exponent(call):
    holds(lambda: ws.stacked_strong_exponent(*call))


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

TIMES = (0.5, 1.0, 2.0, 0, -1, np.inf, np.nan, 1e300)


@settings(max_examples=40)
@given(processes(), _mostly(st.sampled_from([0.5, [0.5, 1.0, 2.0], [1.0]])
                            | arrays((3,), TIMES)), counts(0, 100), arrays((3, 3), TIMES))
# inf - inf in the steps between times: a RuntimeWarning
@example((C1.T, BM), np.array([0.5, np.inf, np.inf]), 10, np.ones((3, 3)))
def test_samplers(processes, times, size, clock):
    T, X = processes
    rng = np.random.default_rng(0)
    if T is not None:
        holds(lambda: ws.simulate_strong_at(T, X, times, size, rng))
        holds(lambda: ws.simulate_weak_at(T, X, times, size, rng))
    holds(lambda: ws.sample_subordinate_at(X, clock[:, : X.dim], rng))
    holds(lambda: X.sample(clock[0], rng))


# ---------------------------------------------------------------------------
# ECF checks and reports
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(st.lists(counts(1, 300), max_size=3), numbers(4, 2.5))
@example([1.5], 4.0)  # returned a bound
@example([100], TWO)  # numpy's bare ValueError
@example([100], 10**400)  # beyond a float: an OverflowError
def test_clt_bound(sizes, k):
    if holds(lambda: ws.clt_bound(*sizes, k=k)) is not None:
        assert all(type(n) is int or isinstance(n, np.integer) for n in sizes), sizes


@settings(max_examples=60)
@given(counts(1, 100), numbers(0.5, 2), counts(0, 5), st.integers(1, 4),
       arrays((2, 2), EXACT_THETA))
@example(16, np.array([1.0, 2.0]), 0, 2, np.zeros((2, 2)))  # numpy's bare ValueError
def test_theta_grid(size, scale, grid_seed, dim, points):
    holds(lambda: ws.ThetaGridSpec(size, scale, grid_seed).build(dim))
    holds(lambda: ws.ThetaGridSpec(points=points).build(2))


TARGETS = (1.0, 0.5 + 0.5j, 1 + 1e-13, 1.5, 5.0, 1e308, np.inf, np.nan)


@settings(max_examples=60)
@given(st.sampled_from([0, 50, 100, 300]), st.sampled_from([1.0, 1e300]),
       st.sampled_from(SPECIAL), arrays((2, 2), LAW_THETA) | arrays((2, 2), EXACT_THETA),
       st.sampled_from(TARGETS), numbers(4, 2.5))
@example(200, 1.0, 0, np.zeros((2, 2)), 5.0, 4.0)  # not a CF: returned a report
@example(200, 1.0, 0, np.zeros((2, 2)), 1e308, 4.0)  # a RuntimeWarning, max_ratio inf
@example(200, 1.0, 0, np.zeros((2, 2)), 1.0, np.array(4.0))  # JSON's TypeError
@example(200, 1.0, 0, np.zeros((2, 2)), 1.0, TWO)  # numpy's bare ValueError
def test_ecf_and_cf_compare(n, scale, entry, grid, target, k):
    samples = np.random.default_rng(n).standard_normal((n, 2)) * scale
    if n:
        samples[-1, -1] = entry
    holds(lambda: ws.ecf_grid(samples, grid))
    if holds(lambda: ws.cf_compare(samples, [target, 1.0], grid, k=k)) is not None:
        assert abs(target) <= 1 + TARGET_TOL, target


@settings(max_examples=25)
@given(st.sampled_from(SCENARIOS), counts(100, 300), numbers(4, 2.5), numbers(0.5, 1),
       st.none() | processes())
@example("deterministic", 200, TWO, 0.5, None)  # numpy's bare ValueError
@example("deterministic", 200, np.array(4.0), 0.5, None)  # JSON's TypeError
def test_suite(name, n_paths, k, scale, processes):
    T, X = processes or (None, None)
    if processes is None or T is not None:
        holds(lambda: ws.equality_in_law_suite(
            name, np.random.default_rng(0), n_paths=n_paths, k=k,
            theta_grid=ws.ThetaGridSpec(4, scale), T=T, X=X))


# ---------------------------------------------------------------------------
# weaksub.prm
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(numbers(0, 0.5, 2), numbers(0.5, 1), numbers(0, 1, np.inf), counts(2, 300),
       arrays((2,), (0.0, 1.0, np.nan)))
@example(1.0, np.array([1.0]), 1.0, 10, np.zeros(2))  # a horizon array: a TypeError
@example(np.array([1.0]), 1.0, 1.0, 10, np.zeros(2))  # a rate array: a TypeError
@example(1.0, 1.0, np.array([1.0, 2.0]), 10, np.zeros(2))  # numpy's broadcast error
def test_laplace_functional_mc(rate, horizon, c, reps, point):
    holds(lambda: prm.laplace_functional_mc(
        rate, prm.PointMassMark(tuple(point)), horizon, prm.ConstantFunctional(c), reps,
        np.random.default_rng(0)))


@settings(max_examples=30)
@given(processes(), numbers(0.5, 1), counts(2, 100), counts(1, 4),
       st.sampled_from([0.0, 1.0, np.inf, np.nan, -1.0]), numbers(4, 2.5))
@example((C1.T, BM), 1.0, 100, 2, 0.0, TWO)  # within: numpy's bare ValueError
def test_marked_laplace_check(processes, horizon, reps, inner, value, k):
    T, X = processes
    result = T is not None and holds(lambda: prm.marked_laplace_check(
        T, X, lambda *args: value, horizon, reps, np.random.default_rng(0), inner))
    if result:
        assert np.all(np.isfinite([result.lhs, result.lhs_se, result.rhs, result.rhs_se]))
        holds(lambda: result.within(k))
