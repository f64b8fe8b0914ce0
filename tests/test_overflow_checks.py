"""Overflows a legitimate input can reach surface as typed errors, never as warnings.

Every row runs with RuntimeWarning raised as an error, so a raw numpy
"overflow encountered in ..." fails the row.  Covered: ln_q and x^(1-q)
results too large for a double (q > 1 at tiny x), the public ratio kernels
on a mass whose ratio overflows, a mean of inverse probabilities whose sum
would overflow although the mean is finite, an exp R_q(p||r) past the
float maximum, the f-divergence sandwich's dual-generator factor, and
spreads of points so far apart that their squared deviations overflow.
"""

import math
import warnings

import numpy as np
import pytest

from qentropy import (
    DomainError,
    GeneratorError,
    JointDist,
    ProbDist,
    cartwright_field,
    cross_term_gap_sandwich,
    f_divergence,
    f_divergence_sandwich,
    identity_generator,
    kl_divergence,
    lnq_generator,
    maxent_variance_bounds,
    neg_qlog_generator,
    neglog_generator,
    pairwise_spread,
    power_generator,
    q_log,
    quasilinear_vs_tsallis_bounds,
    ratio_sandwich,
    refined_maxent_bounds,
    renyi_tsallis_relative_bridge,
    tsallis_conditional_entropy,
    tsallis_cross_entropy_sandwich,
    tsallis_generator,
    tsallis_quasilinear_relative,
    tsallis_relative,
    xlogx_generator,
)

SUBNORMAL = 5e-324
TINY = ProbDist([1e-310, 1.0])
HALF = ProbDist([0.5, 0.5])
FAR_APART = ProbDist([1e-160, 1.0])
QLOG_MSG = "q_log is defined only for finite x > 0"
SANDWICH_MSG = "the f-divergence sandwich's dual-generator factor overflows a double"


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
    ("f_divergence_sandwich-fits", lambda: f_divergence_sandwich(tsallis_generator(2.0), HALF, ProbDist([1e-150, 1.0])), None),
    (
        "ratio_sandwich",
        lambda: ratio_sandwich(_sq, identity_generator(), [1.0, 2.0], TINY, HALF),
        (DomainError, QLOG_MSG),
    ),
    ("ratio_sandwich-fits", lambda: ratio_sandwich(_sq, identity_generator(), [1.0, 2.0], HALF, TINY), None),
    # beyond |1-q| < 1/2 the ln_q family's forward is x^(1-q), under both labels
    *[
        (f"{name}-forward-{x:g}-q{q:g}", lambda b=build, x=x, q=q: b(q).forward(np.array([x, 0.5])), exp)
        for name, build in (("power", power_generator), ("lnq", lnq_generator))
        for x, q, exp in (
            (1e-310, 2.0, _pow_over(2.0)),
            (1e-300, 4.0, _pow_over(4.0)),
            # x^(1-q) fits where ln_q would not
            (SUBNORMAL, 1.9534, None),
            (1e-300, 2.0, None),
        )
    ],
    *[
        (
            f"tsallis_quasilinear_relative-{name}",
            lambda b=build: tsallis_quasilinear_relative(b(2.0), HALF, TINY, 2.0),
            _pow_over(2.0),
        )
        for name, build in (("power", power_generator), ("lnq", lnq_generator))
    ],
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
