"""The input checks accept and reject exactly the inputs they always have.

Each check is written as one or two array reductions.  The table below pins,
for every checked constructor and kernel, the exception class and message
(or acceptance) for the awkward values: NaN, both infinities, both zeros, a
negative, the smallest subnormal, a value near the float maximum, and 0-d
and 2-d arrays, and the intermediate overflows: a weight total or a
(1-q) x past the float maximum, and an exp_q result too large for a
double.  The property tests compare each check with the original
elementwise form ``not all(isfinite(a)) or any(a <= 0)`` on random arrays
seeded with the same awkward values.  No check may raise a RuntimeWarning.
"""

import fractions
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qentropy import (
    DimensionError,
    DomainError,
    JointDist,
    NormalizationError,
    PositivityError,
    Partition,
    PartitionError,
    ProbDist,
    QEntropyError,
    SecondDerivativeRange,
    check_psi_convexity,
    coarsen,
    UndefinedValueError,
    identity_generator,
    lnq_generator,
    make_dist,
    q_exp,
    q_log,
    run_case,
    smooth_jensen_sandwich,
)

NAN, INF = math.nan, math.inf
SUBNORMAL = 5e-324
HUGE = 1.7e308

QLOG_MSG = "q_log is defined only for finite x > 0"
QEXP_MSG = "q_exp requires finite arguments"
OVER_SUM = "more than 1.7976931348623157e+308"
PSI_MSG = "generator 'lnq[q=0.5]' requires strictly positive arguments"
NOT_INT = "blocks must be iterables of integers: 'float' object cannot be interpreted as an integer"
NOT_Q = "entropic index must be a finite real >= 0, got {!r}"


def _positivity(what):
    return (PositivityError, f"{what} entries must be finite and strictly positive")


def _as_0d(v):
    return np.array(v)


def _as_2d(v):
    return np.array([[0.5, v], [0.25, 1.0]])


def _check_domain(xs):
    lnq_generator(0.5).check_domain(np.asarray(xs, dtype=float))


# (id, call, expected): expected is None for an accepted input, else the
# exception class and its exact message.
CASES = [
    # q_log: finite and > 0, whatever the shape
    *[
        (f"q_log-{shape}-{name}", lambda v=v, wrap=wrap: q_log(wrap(v), 0.5), exp)
        for shape, wrap in (("scalar", float), ("0d", _as_0d), ("2d", _as_2d))
        for name, v, exp in (
            ("nan", NAN, (DomainError, QLOG_MSG)),
            ("+inf", INF, (DomainError, QLOG_MSG)),
            ("-inf", -INF, (DomainError, QLOG_MSG)),
            ("zero", 0.0, (DomainError, QLOG_MSG)),
            ("-zero", -0.0, (DomainError, QLOG_MSG)),
            ("minus-one", -1.0, (DomainError, QLOG_MSG)),
            ("subnormal", SUBNORMAL, None),
            ("huge", HUGE, None),
        )
    ],
    ("q_log-empty", lambda: q_log(np.array([]), 0.5), (DomainError, "q_log requires at least one value")),
    ("q_log-undeformed-zero", lambda: q_log(0.0, 1.0), (DomainError, QLOG_MSG)),
    # q_exp: finite, and (1-q) x > -1 in the deformed branch
    *[
        (f"q_exp-{shape}-{name}", lambda v=v, wrap=wrap: q_exp(wrap(v), 1.5), exp)
        for shape, wrap in (("scalar", float), ("0d", _as_0d), ("2d", _as_2d))
        for name, v, exp in (
            ("nan", NAN, (DomainError, QEXP_MSG)),
            ("+inf", INF, (DomainError, QEXP_MSG)),
            ("-inf", -INF, (DomainError, QEXP_MSG)),
            ("zero", 0.0, None),
            ("-zero", -0.0, None),
            ("minus-one", -1.0, None),
            ("subnormal", SUBNORMAL, None),
            ("huge", HUGE, (UndefinedValueError, "exp_q undefined: 1 + (1-q)x <= 0 for q=1.5")),
            ("at-minus-one", 2.0, (UndefinedValueError, "exp_q undefined: 1 + (1-q)x <= 0 for q=1.5")),
            ("below-minus-one", 3.0, (UndefinedValueError, "exp_q undefined: 1 + (1-q)x <= 0 for q=1.5")),
        )
    ],
    ("q_exp-empty", lambda: q_exp(np.array([]), 1.5), (DomainError, "q_exp requires at least one value")),
    ("q_exp-q<1-at-minus-one", lambda: q_exp(-2.0, 0.5), (UndefinedValueError, "exp_q undefined: 1 + (1-q)x <= 0 for q=0.5")),
    ("q_exp-q<1-2d-below", lambda: q_exp(_as_2d(-3.0), 0.5), (UndefinedValueError, "exp_q undefined: 1 + (1-q)x <= 0 for q=0.5")),
    ("q_exp-undeformed-nan", lambda: q_exp(NAN, 1.0), (DomainError, QEXP_MSG)),
    # (1-q) x overflows to -inf: still outside the domain, with no warning
    ("q_exp-q>2-huge", lambda: q_exp(HUGE, 4.0), (UndefinedValueError, "exp_q undefined: 1 + (1-q)x <= 0 for q=4.0")),
    # (1-q) x overflows to +inf: exp_q itself would be a small double, but
    # its log1p form cannot be evaluated
    ("q_exp-q>2-minus-huge", lambda: q_exp(np.array([-HUGE, 0.0, 0.25]), 4.0), (DomainError, "exp_q: (1-q)x overflows a double for q=4.0")),
    # the result does not fit in a double
    ("q_exp-overflow", lambda: q_exp(1e300, 0.5), (DomainError, "exp_q overflows a double for q=0.5")),
    ("q_exp-2d-overflow", lambda: q_exp(_as_2d(1e300), 0.5), (DomainError, "exp_q overflows a double for q=0.5")),
    ("q_exp-undeformed-overflow", lambda: q_exp(1000.0, 1.0), (DomainError, "exp_q overflows a double for q=1.0")),
    # q > 1: the result grows without bound as 1 + (1-q) x falls to 0
    ("q_exp-q>1-near-pole-overflow", lambda: q_exp(np.array([0.0, 999.99]), 1.001), (DomainError, "exp_q overflows a double for q=1.001")),
    # ProbDist: 1-d, positive and finite, then normalized
    *[
        (f"ProbDist-{name}", lambda v=v: ProbDist(np.array([0.5, 0.5, v])), exp)
        for name, v, exp in (
            ("nan", NAN, _positivity("probability weights")),
            ("+inf", INF, _positivity("probability weights")),
            ("-inf", -INF, _positivity("probability weights")),
            ("zero", 0.0, _positivity("probability weights")),
            ("-zero", -0.0, _positivity("probability weights")),
            ("minus-one", -1.0, _positivity("probability weights")),
            ("subnormal", SUBNORMAL, None),
            ("huge", HUGE, (NormalizationError, "weights sum to 1.7e+308; |sum - 1| must be <= 1e-09")),
        )
    ],
    ("ProbDist-0d-nan", lambda: ProbDist(_as_0d(NAN)), (DimensionError, "probability weights must be one-dimensional, got shape ()")),
    ("ProbDist-2d", lambda: ProbDist(_as_2d(0.25)), (DimensionError, "probability weights must be one-dimensional, got shape (2, 2)")),
    ("ProbDist-empty", lambda: ProbDist(np.array([])), (DimensionError, "probability weights must contain at least one entry")),
    ("ProbDist-sum-overflows", lambda: ProbDist(np.array([HUGE, HUGE])), (NormalizationError, f"weights sum to {OVER_SUM}; |sum - 1| must be <= 1e-09")),
    # a two-level refinement is a ProbDist with a Partition of its cells: every
    # index is taken exactly (never truncated), then coarsen checks the cover
    *[
        (f"Partition-{name}", lambda v=v: coarsen(ProbDist([0.25, 0.25, 0.5]), Partition(((0,), (1, v)))), exp)
        for name, v, exp in (
            ("nan", NAN, (PartitionError, NOT_INT)),
            ("+inf", INF, (PartitionError, NOT_INT)),
            ("-inf", -INF, (PartitionError, NOT_INT)),
            ("zero", 0, (PartitionError, "index 0 appears in more than one block")),
            ("-zero", -0.0, (PartitionError, NOT_INT)),
            ("minus-one", -1, (PartitionError, "negative index -1")),
            ("subnormal", SUBNORMAL, (PartitionError, NOT_INT)),
            ("huge", HUGE, (PartitionError, NOT_INT)),
            ("integral-float", 2.0, (PartitionError, NOT_INT)),
            ("numpy-int", np.int64(2), None),
            ("out-of-range", 3, (PartitionError, "blocks must cover exactly the indices 0..2")),
        )
    ],
    ("Partition-no-blocks", lambda: Partition(()), (PartitionError, "a partition needs at least one block")),
    ("Partition-empty-block", lambda: Partition(((0,), ())), (PartitionError, "empty block")),
    ("Partition-flat", lambda: Partition((0, 1, 2)), (PartitionError, "blocks must be iterables of integers: 'int' object is not iterable")),
    ("coarsen-misses-cell", lambda: coarsen(ProbDist([0.25, 0.25, 0.5]), Partition(((0, 1),))), (PartitionError, "blocks must cover exactly the indices 0..2")),
    # JointDist: any number of axes >= 1
    *[
        (f"JointDist-{name}", lambda v=v: JointDist(np.array([[0.25, 0.25], [0.5, v]])), exp)
        for name, v, exp in (
            ("nan", NAN, (PositivityError, "every cell must be finite and strictly positive")),
            ("+inf", INF, (PositivityError, "every cell must be finite and strictly positive")),
            ("-inf", -INF, (PositivityError, "every cell must be finite and strictly positive")),
            ("zero", 0.0, (PositivityError, "every cell must be finite and strictly positive")),
            ("-zero", -0.0, (PositivityError, "every cell must be finite and strictly positive")),
            ("minus-one", -1.0, (PositivityError, "every cell must be finite and strictly positive")),
            ("subnormal", SUBNORMAL, None),
            ("huge", HUGE, (NormalizationError, "cells sum to 1.7e+308; |sum - 1| must be <= 1e-09")),
        )
    ],
    ("JointDist-0d", lambda: JointDist(_as_0d(1.0)), (DimensionError, "cells must have at least one axis")),
    ("JointDist-empty", lambda: JointDist(np.zeros((2, 0))), (DimensionError, "cells must be non-empty")),
    ("JointDist-sum-overflows", lambda: JointDist(np.full((2, 2), 1e308)), (NormalizationError, f"cells sum to {OVER_SUM}; |sum - 1| must be <= 1e-09")),
    # GeneratorPsi.check_domain: only the sign; finiteness is the caller's check
    *[
        (f"check_domain-{name}", lambda v=v: _check_domain([0.5, v]), exp)
        for name, v, exp in (
            ("nan", NAN, None),
            ("+inf", INF, None),
            ("-inf", -INF, (DomainError, PSI_MSG)),
            ("zero", 0.0, (DomainError, PSI_MSG)),
            ("-zero", -0.0, (DomainError, PSI_MSG)),
            ("minus-one", -1.0, (DomainError, PSI_MSG)),
            ("subnormal", SUBNORMAL, None),
            ("huge", HUGE, None),
        )
    ],
    # a NaN must not hide a negative entry from the sign check
    ("check_domain-nan-then-negative", lambda: _check_domain([NAN, -1.0]), (DomainError, PSI_MSG)),
    ("check_domain-0d-zero", lambda: _check_domain(0.0), (DomainError, PSI_MSG)),
    ("check_domain-2d-negative", lambda: _check_domain(_as_2d(-1.0)), (DomainError, PSI_MSG)),
    ("check_domain-identity-negative", lambda: identity_generator().check_domain(np.array([-1.0, 0.0])), None),
    # an entropic index is a numbers.Real: never a string, None or a complex
    *[
        (f"q-{name}", lambda v=v: q_log(2.0, v), exp)
        for name, v, exp in (
            ("string", "x", (DomainError, NOT_Q.format("x"))),
            ("numeric-string", "2", (DomainError, NOT_Q.format("2"))),
            ("none", None, (DomainError, NOT_Q.format(None))),
            ("complex", 1j, (DomainError, NOT_Q.format(1j))),
            ("int-past-a-double", 10**400, (DomainError, NOT_Q.format(10**400))),
            ("numpy-float", np.float64(2.0), None),
            ("fraction", fractions.Fraction(1, 2), None),
        )
    ],
    # SecondDerivativeRange: m and M finite reals, the interval a pair of them
    ("SecondDerivativeRange-short-interval", lambda: SecondDerivativeRange(0.0, 1.0, (1.0,)), (DomainError, "invalid interval (1.0,)")),
    ("SecondDerivativeRange-no-interval", lambda: SecondDerivativeRange(0.0, 1.0, None), (DomainError, "invalid interval None")),
    ("SecondDerivativeRange-string-m", lambda: SecondDerivativeRange("0.1", 1.0, (0.0, 1.0)), (DomainError, "curvature bounds must be finite")),
    # arrays: a ragged or non-numeric input; a numeric string converts, as numpy converts it
    ("make_dist-string", lambda: make_dist(["a"]), (DomainError, "probability weights must be a rectangular array of real numbers")),
    ("make_dist-numeric-strings", lambda: make_dist(["0.5", "0.5"]), None),
    ("JointDist-ragged", lambda: JointDist([[0.5], [0.25, 0.25]]), (DomainError, "cells must be a rectangular array of real numbers")),
    ("xs-strings", lambda: smooth_jensen_sandwich(np.square, SecondDerivativeRange(2.0, 2.0, (0.0, 1.0)), ["a", "b"], ProbDist([0.5, 0.5])), (DomainError, "xs must be a rectangular array of real numbers")),
    ("q_grid-int-past-a-double", lambda: run_case("id14", 5, 1, q_grid=(2**1024,)), (DomainError, f"q_grid value {2**1024!r} is not a number in [0, inf)")),
    ("check_psi_convexity-string-lambda", lambda: check_psi_convexity(np.square, identity_generator(), [1.0, 2.0], ["a"]), (DomainError, "lambdas must lie in [0, 1]")),
]


@pytest.mark.parametrize("call, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_input_check_table(call, expected):
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


# ---------------------------------------------------------------------------
# equivalence with the elementwise form on random arrays
# ---------------------------------------------------------------------------

_AWKWARD = st.sampled_from([NAN, INF, -INF, 0.0, -0.0, -1.0, SUBNORMAL, HUGE, 1.0, 0.5])
_VALUES = st.one_of(_AWKWARD, st.floats(allow_nan=True, allow_infinity=True))
_ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
    elements=_VALUES,
)


def _elementwise_rejects(a):
    return not np.all(np.isfinite(a)) or np.any(a <= 0.0)


def _outcome(call):
    """The QEntropyError class a call raises, or None; warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            call()
        except QEntropyError as exc:
            return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(_ARRAYS)
def test_positivity_checks_match_elementwise_form(a):
    rejects = _elementwise_rejects(a)
    assert (_outcome(lambda: q_log(a, 0.5)) is DomainError) == rejects
    assert (_outcome(lambda: JointDist(a)) is PositivityError) == rejects
    assert (_outcome(lambda: _check_domain(a)) is DomainError) == bool(np.any(a <= 0.0))


def _q_exp_fits(x, q):
    """Whether (1-q) x and exp_q(x) are doubles, by scalar math."""
    try:
        if abs(q - 1.0) > 1e-8:
            if (1.0 - q) * x == math.inf:
                return False
            math.exp(math.log1p((1.0 - q) * x) / (1.0 - q))
        else:
            math.exp(x)
    except OverflowError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(_ARRAYS, st.sampled_from([0.0, 0.5, 1.0, 1.5, 4.0]))
def test_q_exp_checks_match_elementwise_form(a, q):
    # elementwise on Python floats, where (1-q) x overflows to +-inf silently
    xs = a.ravel().tolist()
    if not np.all(np.isfinite(a)):
        expected = DomainError
    elif abs(q - 1.0) > 1e-8 and any((1.0 - q) * x <= -1.0 for x in xs):
        expected = UndefinedValueError
    elif not all(_q_exp_fits(x, q) for x in xs):
        expected = DomainError
    else:
        expected = None
    assert _outcome(lambda: q_exp(a, q)) is expected
