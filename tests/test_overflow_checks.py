"""Overflows a legitimate input can reach surface as typed errors, never as warnings.

Every row runs with RuntimeWarning raised as an error, so a raw numpy
"overflow encountered in ..." fails the row.  Covered: ln_q and x^(1-q)
results too large for a double (q > 1 at tiny x), ln_q at a q so large that
(1-q) log x overflows although ln_q(x) tends to 1/(q-1), R_q(p||r) at a q so
large that q log p_j overflows although R_q tends to max log(p/r), ln_q(1/w)
at a huge q on a legal mass w just above 1, the public ratio kernels
on a mass whose ratio overflows, a mean of inverse probabilities whose sum
would overflow although the mean is finite, an exp R_q(p||r) past the
float maximum, the f-divergence sandwich's dual-generator factor,
spreads of points so far apart that their squared deviations overflow, and
Lagrange's identity on vectors whose squared norms' product passes half the
float maximum or is not finite, or whose a . a is subnormal.
"""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qentropy import (
    DomainError,
    GeneratorError,
    JointDist,
    PositivityError,
    ProbDist,
    cartwright_field,
    cross_term_gap_sandwich,
    f_divergence,
    f_divergence_sandwich,
    identity_generator,
    kl_divergence,
    lagrange_identity,
    lnq_generator,
    maxent_variance_bounds,
    neg_qlog_generator,
    neglog_generator,
    pairwise_spread,
    q_log,
    quasilinear_vs_tsallis_bounds,
    ratio_sandwich,
    refined_maxent_bounds,
    renyi_relative,
    renyi_tsallis_relative_bridge,
    tsallis_conditional_entropy,
    tsallis_entropy,
    tsallis_cross_entropy_sandwich,
    tsallis_generator,
    tsallis_joint_entropy,
    tsallis_quasilinear_relative,
    tsallis_relative,
    xlogx_generator,
)

SUBNORMAL = 5e-324
TINY = ProbDist([1e-310, 1.0])
HALF = ProbDist([0.5, 0.5])
FAR_APART = ProbDist([1e-160, 1.0])
ABOVE_ONE = ProbDist([1.0 + 1e-10])  # legal: |sum - 1| <= SUM_TOL
QLOG_MSG = "q_log is defined only for finite x > 0"
SANDWICH_MSG = "the f-divergence sandwich's dual-generator factor overflows a double"
WEIGHTS_MSG = "the f-divergence sandwich's weights p^2/r underflow to 0 or overflow a double"
LAGRANGE_MSG = "a and b must be finite, with (a . a)(b . b) <= half the float maximum"


def _over(q):
    return (DomainError, f"ln_q overflows a double for q={q!r}")


def _pow_over(q):
    return (DomainError, f"x^(1-q) overflows a double for q={q!r}")


def _spread_over(width):
    return (DomainError, f"the spread of points up to {width:.6g} apart overflows a double")


def _sq(x):
    return np.asarray(x) ** 2


# (id, call, expected): expected is None for an accepted input, else the
# exception class and its exact message.
CASES = [
    *[
        (f"q_log-{form}-{x:g}-q{q:g}", lambda x=x, q=q, wrap=wrap: q_log(wrap(x), q), exp)
        for form, wrap in (("scalar", float), ("array", lambda v: np.array([v, 0.5])))
        for x, q, exp in (
            (1e-310, 2.0, _over(2.0)),
            (1e-300, 4.0, _over(4.0)),
            (SUBNORMAL, 2.0, _over(2.0)),
            # expm1 is finite here, the division by q - 1 < 1 overflows
            (SUBNORMAL, 1.9534, _over(1.9534)),
            # near the edge, on either side of the O(1) bound
            (SUBNORMAL, 1.953, None),
            (SUBNORMAL, 1.95, None),
            (1e-300, 2.0, None),
            (SUBNORMAL, 0.0, None),
            (1.7e308, 0.0, None),
        )
    ],
    # (1 - q) log x past the float maximum: ln_q(x) tends to 1/(q - 1) for
    # x > 1, and overflows for x < 1
    *[
        (f"q_log-huge-q-{name}", lambda x=x: q_log(x, 1e308), exp)
        for name, x, exp in (
            ("scalar", 8.0, None),
            ("scalar-max", 1.7e308, None),
            ("array", np.array([8.0, 1.0, 1.7e308]), None),
            ("scalar-below-one", 0.5, _over(1e308)),
            ("array-below-one", np.array([8.0, 0.5]), _over(1e308)),
        )
    ],
    *[
        (f"tsallis_entropy-q{q:g}", lambda q=q: tsallis_entropy(ProbDist([1 / 8] * 8), q), None)
        for q in (1e308, sys.float_info.max)
    ],
    # q log p_j past the float maximum: R_q(p||r) tends to max log(p/r)
    *[
        (f"renyi_relative-q{q:g}", lambda q=q: renyi_relative(ProbDist([0.1, 0.9]), HALF, q), None)
        for q in (1e306, 1e308, sys.float_info.max)
    ],
    # a mass may exceed 1 by up to SUM_TOL, so 1/w < 1, where ln_q overflows at a huge q
    *[
        (f"{name}-mass-above-one", call, _over(1e300))
        for name, call in (
            ("tsallis_entropy", lambda: tsallis_entropy(ABOVE_ONE, 1e300)),
            ("refined_maxent_bounds", lambda: refined_maxent_bounds(ABOVE_ONE, 1e300)),
            (
                "quasilinear_vs_tsallis_bounds",
                lambda: quasilinear_vs_tsallis_bounds(identity_generator(), ABOVE_ONE, 1e300),
            ),
            ("maxent_variance_bounds", lambda: maxent_variance_bounds(ABOVE_ONE, 1e300, 0.0, 1.0)),
            (
                "cross_term_gap_sandwich",
                lambda: cross_term_gap_sandwich(ABOVE_ONE, ABOVE_ONE, 1e300, 0.0, 1.0),
            ),
            (
                "tsallis_cross_entropy_sandwich",
                lambda: tsallis_cross_entropy_sandwich(ABOVE_ONE, ABOVE_ONE, 1e300, 0.0, 1.0),
            ),
            ("tsallis_joint_entropy", lambda: tsallis_joint_entropy(JointDist([[1.0 + 1e-10]]), 1e300)),
        )
    ],
    (
        "tsallis_conditional_entropy",
        lambda: tsallis_conditional_entropy(JointDist([[1e-310, 0.5], [0.25, 0.25]]), (1,), (0,), 2.0),
        _over(2.0),
    ),
    (
        "tsallis_relative",
        lambda: tsallis_relative(HALF, ProbDist([1e-300, 1.0]), 4.0),
        _over(4.0),
    ),
    ("tsallis_relative-fits", lambda: tsallis_relative(HALF, ProbDist([1e-300, 1.0]), 2.0), None),
    # D_f of the ln_q family is D_q: its terms -p_j ln_q(r_j/p_j) stay
    # finite where f(p_j/r_j) overflows, but neglog's D_1(TINY||HALF) needs
    # the infinite ratio 0.5/1e-310
    ("f_divergence", lambda: f_divergence(xlogx_generator(), HALF, TINY), None),
    ("f_divergence-neglog", lambda: f_divergence(neglog_generator(), HALF, TINY), (DomainError, QLOG_MSG)),
    # the sandwich's dual-generator factor is about t^2 at t = p^2/r ~ 8e298
    (
        "f_divergence_sandwich-tsallis",
        lambda: f_divergence_sandwich(tsallis_generator(2.0), HALF, ProbDist([3e-300, 1.0])),
        (DomainError, SANDWICH_MSG),
    ),
    (
        "f_divergence_sandwich-neg_lnq",
        lambda: f_divergence_sandwich(neg_qlog_generator(2.0), ProbDist([1e-160, 1.0]), HALF),
        (DomainError, SANDWICH_MSG),
    ),
    # p^2/r underflows to 0 at p = 1e-170, under every library f
    (
        "f_divergence_sandwich-weights-underflow",
        lambda: f_divergence_sandwich(xlogx_generator(), ProbDist([1e-170, 1.0]), HALF),
        (PositivityError, WEIGHTS_MSG),
    ),
    ("f_divergence_sandwich-fits", lambda: f_divergence_sandwich(tsallis_generator(2.0), HALF, ProbDist([1e-150, 1.0])), None),
    (
        "ratio_sandwich",
        lambda: ratio_sandwich(_sq, identity_generator(), [1.0, 2.0], TINY, HALF),
        (DomainError, QLOG_MSG),
    ),
    ("ratio_sandwich-fits", lambda: ratio_sandwich(_sq, identity_generator(), [1.0, 2.0], HALF, TINY), None),
    # beyond |1-q| < 1/2 the ln_q family's forward is x^(1-q)
    *[
        (f"lnq-forward-{x:g}-q{q:g}", lambda x=x, q=q: lnq_generator(q).forward(np.array([x, 0.5])), exp)
        for x, q, exp in (
            (1e-310, 2.0, _pow_over(2.0)),
            (1e-300, 4.0, _pow_over(4.0)),
            # x^(1-q) fits where ln_q would not
            (SUBNORMAL, 1.9534, None),
            (1e-300, 2.0, None),
        )
    ],
    (
        "tsallis_quasilinear_relative-lnq",
        lambda: tsallis_quasilinear_relative(lnq_generator(2.0), HALF, TINY, 2.0),
        _pow_over(2.0),
    ),
    (
        "renyi_tsallis_relative_bridge",
        lambda: renyi_tsallis_relative_bridge(HALF, TINY, 2.0),
        (DomainError, "exp_q overflows a double for q=1.0"),
    ),
    ("renyi_tsallis_relative_bridge-fits", lambda: renyi_tsallis_relative_bridge(HALF, ProbDist([1e-300, 1.0]), 2.0), None),
    # squared deviations of points about 1e154 or more apart overflow
    ("maxent_variance_bounds", lambda: maxent_variance_bounds(FAR_APART, 2.0, 0.1, 1.0), _spread_over(1e160)),
    ("cross_term_gap_sandwich", lambda: cross_term_gap_sandwich(HALF, FAR_APART, 2.0, 0.1, 1.0), _spread_over(1e160)),
    (
        "tsallis_cross_entropy_sandwich",
        lambda: tsallis_cross_entropy_sandwich(FAR_APART, HALF, 2.0, 0.1, 1.0),
        _spread_over(1e160),
    ),
    ("pairwise_spread", lambda: pairwise_spread([1e160, 1.0], HALF), _spread_over(1e160)),
    ("pairwise_spread-inf-apart", lambda: pairwise_spread([-1e308, 1e308], HALF), _spread_over(math.inf)),
    ("cartwright_field", lambda: cartwright_field([1e160, 1.0], HALF), _spread_over(1e160)),
    ("maxent_variance_bounds-fits", lambda: maxent_variance_bounds(ProbDist([1e-150, 1.0]), 2.0, 0.1, 1.0), None),
    ("pairwise_spread-fits", lambda: pairwise_spread([1e150, 1.0], HALF), None),
    ("cartwright_field-fits", lambda: cartwright_field([1e150, 1.0], HALF), None),
    # (a . a)(b . b) past half the float maximum, where a dot, a . b squared
    # or their product would overflow, or not finite
    *[
        (f"lagrange_identity-{name}", lambda a=a, b=b: lagrange_identity(a, b), (DomainError, LAGRANGE_MSG))
        for name, a, b in (
            ("dot-overflows", [1e155, 1.0], [1.0, 1e155]),
            ("ab-squared-overflows", [1e100, 1e100], [1e110, 1.0]),
            ("nan", [math.nan, 1.0], [1.0, 2.0]),
            ("inf-against-zero", [math.inf, 1.0], [0.0, 0.0]),
        )
    ],
    ("lagrange_identity-fits", lambda: lagrange_identity([1e76, 1.0], [1.0, 1e76]), None),
    # a subnormal a . a, where b's projection coefficient a . b / a . a overflows
    ("lagrange_identity-tiny-a", lambda: lagrange_identity([1e-160], [1e150]), None),
    ("lagrange_identity-tiny-a-zero-entry", lambda: lagrange_identity([1e-160, 0.0], [1e150, 1.0]), None),
]


@pytest.mark.parametrize("call, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_overflow_table(call, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if expected is None:
            call()
        else:
            exc_type, message = expected
            with pytest.raises(exc_type) as info:
                call()
            assert type(info.value) is exc_type
            assert str(info.value) == message


def test_ln_q_at_a_huge_q_is_its_limit():
    # ln_q(x) -> 1/(q - 1) for x > 1 as q grows; (1 - q) log x has overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert q_log(8.0, 1e308) == 1.0 / (1e308 - 1.0)
        assert q_log(1.0, 1e308) == 0.0
        assert tsallis_entropy(ProbDist([1 / 8] * 8), 1e308) == pytest.approx(1e-308, rel=1e-14)


@pytest.mark.parametrize("q", [1e306, 1e308, sys.float_info.max])
def test_renyi_relative_at_a_huge_q_is_near_its_limit(q):
    # R_q(p||r) -> log max(p/r) as q grows: log 1.8 here, and log 5 reversed
    p = ProbDist([0.1, 0.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        forward, reverse = renyi_relative(p, HALF, q), renyi_relative(HALF, p, q)
        assert renyi_relative(p, p, q) == pytest.approx(0.0, abs=1e-300)
    assert forward == pytest.approx(math.log(1.8), rel=1e-15)
    assert reverse == pytest.approx(math.log(5.0), rel=1e-15)


def test_renyi_relative_keeps_its_log_space_sum_where_every_term_fits():
    # at q = 1e306, q log 0.1 still fits: the value is the log-space sum's, as at q = 1e300
    p = ProbDist([0.1, 0.9])
    for q in (1e300, 1e306):
        t = q * np.log(p.weights) + (1.0 - q) * np.log(HALF.weights)
        m = float(t.max())
        assert renyi_relative(p, HALF, q) == (m + math.log(float(np.exp(t - m).sum()))) / (q - 1.0)


def _exact_double_sum(a, b):
    """sum_{i<j} (a_i b_j - a_j b_i)^2 in exact arithmetic, rounded once."""
    fa, fb = [Fraction(x) for x in a], [Fraction(x) for x in b]
    n = len(fa)
    return float(sum((fa[i] * fb[j] - fa[j] * fb[i]) ** 2 for i in range(n) for j in range(i + 1, n)))


def _exact_norms_product(a, b):
    """(a . a)(b . b) in exact arithmetic, rounded once."""
    return float(sum(Fraction(x) ** 2 for x in a) * sum(Fraction(y) ** 2 for y in b))


@pytest.mark.parametrize(
    "a, b",
    [
        # one entry: b is parallel to a, and the double sum is exactly 0
        ([1e-160], [1e150]),
        ([1e-160, 0.0], [1e150, 1.0]),
        # a . a underflows to 0 although a does not vanish
        ([3e-170, -2e-165], [1e150, 4e152]),
        ([1e-155, 2e-155, -3e-156], [1.0, -1e150, 7e149]),
        # just below the smallest normal a . a
        ([1e-154, 1e-154], [1.0, 2.0]),
        ([1e-154, 1e-154], [1e153, -1e153]),
        ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
        ([0.0, 0.0], [1e150, 4e152]),
    ],
    ids=["parallel", "one-term", "a-dot-a-underflows", "three", "below-normal", "below-normal-huge-b", "normal", "zero-a"],
)
def test_lagrange_identity_right_side_against_exact_arithmetic(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lhs, rhs = lagrange_identity(a, b)
    exact = _exact_double_sum(a, b)
    assert rhs == pytest.approx(exact, rel=1e-13, abs=0.0)
    # the left side cancels: it holds to a few units of (a . a)(b . b), not of itself
    assert abs(lhs - exact) <= 4 * 2.0**-53 * _exact_norms_product(a, b)


@pytest.mark.parametrize("k", [0, 200, 400, 500, 510, 511, 512, 520, 530, 537, 540, 560, 600])
def test_lagrange_identity_right_side_scales_across_the_subnormal_edge(k):
    # the right side has degree 2 in a and in b: with a scaled by 2**-k and
    # b by 2**(k//2) it scales by 2**(2 (k//2 - k)), while a . a crosses
    # into the subnormals (k >= 512) and underflows to 0 (k >= 538)
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=5), rng.normal(size=5)
    j = k // 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rhs = lagrange_identity(np.ldexp(a, -k), np.ldexp(b, j))[1]
    assert rhs == pytest.approx(math.ldexp(lagrange_identity(a, b)[1], 2 * (j - k)), rel=1e-13, abs=0.0)


def test_f_divergence_of_xlogx_is_kl_where_p_over_r_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = f_divergence(xlogx_generator(), HALF, TINY)
    assert value == kl_divergence(HALF, TINY) == 356.2075422335172


@pytest.mark.parametrize("build", [tsallis_generator, neg_qlog_generator, lnq_generator])
def test_generators_whose_ln_q_overflows_the_grid_fail_validation(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(GeneratorError, match="overflows on the grid"):
            build(60.0)


HUGE_INVERSES = ProbDist([1e-308] * 4 + [1.0 - 4e-308])


@pytest.mark.parametrize(
    "bound",
    [
        lambda: refined_maxent_bounds(HUGE_INVERSES, 2.0),
        lambda: quasilinear_vs_tsallis_bounds(identity_generator(), HUGE_INVERSES, 2.0),
    ],
    ids=["refined_maxent_bounds", "quasilinear_vs_tsallis_bounds-identity"],
)
def test_mean_of_huge_inverses_is_finite(bound):
    # the mean of 1/r is about 8e307, finite, but its plain sum overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = bound()
    assert all(np.isfinite([rep.lower, rep.value, rep.upper]))
    assert rep.holds()
