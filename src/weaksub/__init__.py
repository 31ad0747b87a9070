"""Strong and weak subordination of multivariate Lévy processes.

Construction and evaluation of characteristic/Laplace exponents, exact
batched sampling of (T, Z) at any finite set of times for subordinators
with atomic or gamma-ray jumps, Poisson random measure checks, and Monte
Carlo verification of the equality-in-law results relating the two
subordination operations.
"""

from .levy import (
    AtomicJumps,
    BrownianMotion,
    CompoundPoisson,
    GammaRays,
    IndependentStack,
    JumpMeasure,
    LevyLaw,
    LevySpecError,
    Lift,
    SubordinatorSpec,
    ZeroJumps,
    laplace_exponent,
    pure_drift,
    zero_process,
)
from .ordered_time import (
    sample_subordinate_at,
    vector_time_cf,
    vector_time_exponent,
)
from .prm import (
    ConstantFunctional,
    PointMassMark,
    laplace_functional_mc,
    marked_laplace_check,
)
from .subordination import (
    simulate_strong_at,
    simulate_weak_at,
    stacked_strong_exponent,
    stacked_subordinator,
    weak_exponent,
)
from .verify import (
    ECFReport,
    ThetaGridSpec,
    cf_compare,
    clt_bound,
    default_theta_grid,
    ecf,
    ecf_grid,
    ecf_two_sample_compare,
    equality_in_law_suite,
    scenario_processes,
)

__version__ = "0.1.0"
