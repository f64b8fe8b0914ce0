"""Deformed logarithms, generalized entropies, divergences, and checked bounds.

The package is organized around one parameter, the entropic index q:

* ``qmath``       -- q-deformed log/exp pair
* ``dist``        -- validated probability vectors, partitions, refinements
* ``quasilinear`` -- generator means and the entropies they induce
* ``entropy``     -- power-sum entropy family on one distribution
* ``divergence``  -- relative entropies and convex-generator divergences
* ``bounds``      -- two-sided inequality chains as BoundReport values
* ``joint``       -- multi-axis distributions, chain rules, subset bounds
* ``verify``      -- seeded randomized checking of every registered claim
"""

from .bounds import (
    CHECK_TOL,
    BoundReport,
    SecondDerivativeRange,
    cartwright_field,
    cross_term_gap_sandwich,
    f_divergence_sandwich,
    jensen_gap,
    lagrange_identity,
    maxent_variance_bounds,
    pairwise_spread,
    quasilinear_vs_tsallis_bounds,
    ratio_sandwich,
    refined_maxent_bounds,
    smooth_jensen_sandwich,
    tightest_constants,
    tsallis_cross_entropy_sandwich,
)
from .dist import (
    IncompleteDist,
    NestedDist,
    Partition,
    ProbDist,
    coarsen,
    make_dist,
    power_sum,
)
from .divergence import (
    ConvexGenerator,
    complement_cross_entropy,
    dual_generator,
    f_by_label,
    f_divergence,
    incomplete_f_divergence,
    kl_divergence,
    neg_qlog_generator,
    neglog_generator,
    renyi_relative,
    renyi_tsallis_relative_bridge,
    tsallis_generator,
    tsallis_relative,
    xlogx_generator,
)
from .entropy import renyi_entropy, renyi_tsallis_bridge, shannon_entropy, tsallis_entropy
from .errors import (
    ConsistencyError,
    DegenerateRangeError,
    DimensionError,
    DomainError,
    GeneratorError,
    HypothesisError,
    LengthMismatchError,
    NormalizationError,
    PartitionError,
    PositivityError,
    QEntropyError,
    UndefinedValueError,
    UnknownCaseError,
)
from .joint import (
    JointDist,
    chain_rule_decomposition,
    conditioning_reduces_entropy_check,
    han_sandwich,
    marginal,
    tsallis_conditional_entropy,
    tsallis_joint_entropy,
)
from .qmath import EntropicIndex, q_exp, q_log
from .quasilinear import (
    CompatibleConvexity,
    GeneratorPsi,
    check_psi_convexity,
    identity_generator,
    lnq_generator,
    log_generator,
    power_generator,
    psi_by_label,
    quasilinear_entropy,
    quasilinear_mean,
    quasilinear_relative,
    tsallis_quasilinear_entropy,
    tsallis_quasilinear_relative,
)
from .verify import (
    DEFAULT_PROFILE,
    DEFAULT_Q_GRID,
    MIN_MASS,
    REGISTRY,
    STRESS_PROFILE,
    Profile,
    TheoremCase,
    VerifyReport,
    get_case,
    has_failures,
    run_case,
    run_registry,
    sample_simplex,
)

__version__ = "0.1.0"
