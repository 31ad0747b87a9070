"""Strong and weak subordination of multivariate Lévy processes.

Construction and evaluation of characteristic/Laplace exponents, exact
path simulation and batched exact time-t sampling for finite-activity
subordinators, Poisson random
measure checks, and Monte Carlo verification of the equality-in-law
results relating the two subordination operations.
"""

from .levy import (
    AtomicJumps,
    BrownianMotion,
    CharTriplet,
    CompoundPoisson,
    IndependentStack,
    JumpMeasure,
    LevyLaw,
    LevySpecError,
    SamplableJumps,
    SubordinatorSpec,
    ValidationReport,
    ZeroJumps,
    exponent_bm,
    exponent_cpp,
    from_unit_ball_truncation,
    kac_stack_exponent,
    laplace_exponent,
    laplace_exponent_mc,
    pure_drift,
    to_unit_ball_truncation,
    validate_triplet,
    zero_process,
)
from .ordered_time import (
    OrderedTime,
    order_times,
    sample_subordinate_at,
    vector_time_cf,
    vector_time_exponent,
)
from .prm import (
    BoxIndicatorFunctional,
    ConstantFunctional,
    DiagonalGaussianMark,
    ExpTimeDecayFunctional,
    PointMassMark,
    UniformBoxMark,
    laplace_functional_analytic,
    laplace_functional_mc,
    marked_laplace_check,
)
from .subordination import (
    PathRecord,
    StackEmbedding,
    choose_truncation_eps,
    simulate_strong,
    simulate_strong_at,
    simulate_subordinator,
    simulate_weak,
    simulate_weak_at,
    stacked_strong_exponent,
    stacked_subordinator,
    truncate_jump_density,
    truncated_gamma_subordinator,
    weak_drift_component,
    weak_exponent,
    weak_exponent_mc,
)
from .verify import (
    ECFReport,
    SuiteConfig,
    ThetaGridSpec,
    cf_compare,
    clt_bound,
    default_theta_grid,
    ecf,
    ecf_grid,
    ecf_two_sample_compare,
    equality_in_law_suite,
    increment_stationarity_check,
    scenario_processes,
)

__version__ = "0.1.0"
