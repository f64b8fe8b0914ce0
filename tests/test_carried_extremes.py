"""Validated distributions carry their extremes; internal kernels trust them.

A ProbDist or JointDist records the min and max its validation found.  The
library's own ln_q callers check their domain in O(1) from those extremes
and then call the unchecked kernel, so a mass whose inverse overflows a
double (a subnormal) must raise the same typed error q_log would, before
numpy can warn about the overflowing division.
"""

import math
import warnings

import numpy as np
import pytest

from qentropy import (
    DomainError,
    JointDist,
    ProbDist,
    QEntropyError,
    cross_term_gap_sandwich,
    f_divergence_sandwich,
    lnq_generator,
    maxent_variance_bounds,
    q_exp,
    q_log,
    refined_maxent_bounds,
    renyi_tsallis_bridge,
    tightest_constants,
    tsallis_cross_entropy_sandwich,
    tsallis_entropy,
    tsallis_generator,
    tsallis_joint_entropy,
    tsallis_quasilinear_entropy,
    tsallis_relative,
)
from qentropy.qmath import _ln_q

TINY = ProbDist([1e-310, 1.0])  # sums to 1.0; 1/1e-310 overflows a double
HALF = ProbDist([0.5, 0.5])

SUBNORMAL_CASES = [
    ("tsallis_entropy", lambda: tsallis_entropy(TINY, 2.0)),
    ("tsallis_relative", lambda: tsallis_relative(TINY, HALF, 2.0)),
    ("refined_maxent_bounds", lambda: refined_maxent_bounds(TINY, 2.0)),
    ("maxent_variance_bounds", lambda: maxent_variance_bounds(TINY, 2.0, 0.1, 1.0)),
    ("cross_term_gap_sandwich", lambda: cross_term_gap_sandwich(HALF, TINY, 2.0, 0.1, 1.0)),
    (
        "tsallis_cross_entropy_sandwich",
        lambda: tsallis_cross_entropy_sandwich(TINY, HALF, 2.0, 0.1, 1.0),
    ),
    ("f_divergence_sandwich", lambda: f_divergence_sandwich(tsallis_generator(2.0), TINY, HALF)),
    ("f_divergence_sandwich-r", lambda: f_divergence_sandwich(tsallis_generator(2.0), HALF, TINY)),
    ("renyi_tsallis_bridge", lambda: renyi_tsallis_bridge(TINY, 2.0)),
    (
        "tsallis_joint_entropy",
        lambda: tsallis_joint_entropy(JointDist([[1e-310, 0.5], [0.25, 0.25]]), 2.0),
    ),
    (
        "tsallis_quasilinear_entropy",
        lambda: tsallis_quasilinear_entropy(lnq_generator(2.0), TINY, 2.0),
    ),
]


@pytest.mark.parametrize(
    "call", [c for _, c in SUBNORMAL_CASES], ids=[i for i, _ in SUBNORMAL_CASES]
)
def test_subnormal_mass_raises_typed_error_without_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QEntropyError):
            call()


def test_subnormal_mass_raises_the_q_log_domain_error():
    with pytest.raises(DomainError, match="q_log is defined only for finite x > 0"):
        tsallis_entropy(TINY, 2.0)


def test_finite_ratios_pass_when_the_extremes_bound_is_infinite():
    # r_max / p_min overflows, but every r_j / p_j is 1: one max reduction
    # over the ratios, with overflow ignored, lets this through
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert tsallis_relative(TINY, TINY, 2.0) == 0.0


def test_subnormal_mass_with_finite_inverse_still_computes():
    # 1/3e-308 is finite, so the carried minimum lets the entropy through
    p = ProbDist([3e-308, 1.0])
    assert tsallis_entropy(p, 2.0) == pytest.approx(0.0, abs=1e-300)
    assert tightest_constants(p, HALF, 2.0).interval[1] == 1.0 / 3e-308


@pytest.mark.parametrize(
    "make, values",
    [
        (ProbDist, [0.125, 0.5, 0.375]),
        (JointDist, [[0.125, 0.5], [0.25, 0.125]]),
    ],
)
def test_validated_objects_carry_their_extremes(make, values):
    obj = make(values)
    flat = np.ravel(values)
    assert (obj._lo, obj._hi) == (flat.min(), flat.max())
    assert type(obj._lo) is float and type(obj._hi) is float
    # the extremes are not dataclass fields
    assert "_lo" not in repr(obj) and "_hi" not in repr(obj)


def test_carried_extremes_do_not_change_equality():
    assert ProbDist([0.25, 0.75]) == ProbDist(np.array([0.25, 0.75]))
    assert ProbDist([0.25, 0.75]) != ProbDist([0.75, 0.25])


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0 - 1e-9, 1.0, 1.5, 2.0, 4.0])
def test_kernel_matches_checked_q_log_bitwise(q):
    x = 1.0 / np.random.default_rng(3).dirichlet(np.ones(9))
    assert np.array_equal(_ln_q(x, q), q_log(x, q))
    for v in (float(x[0]), np.float64(x[1])):
        assert _ln_q(v, q) == q_log(v, q)
        assert q_log(v, q) == q_log(np.asarray(v), q)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_scalar_q_exp_matches_array_q_exp_bitwise(q):
    for v in (0.3, -0.7, np.float64(0.25)):
        assert q_exp(v, q) == q_exp(np.asarray(v), q) == float(q_exp(np.array([v]), q)[0])
        assert type(q_exp(v, q)) is float

