import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import (
    DimensionError,
    HypothesisError,
    JointDist,
    NormalizationError,
    PositivityError,
    ProbDist,
    chain_rule_decomposition,
    conditioning_reduces_entropy_check,
    han_sandwich,
    make_dist,
    marginal,
    shannon_entropy,
    tsallis_conditional_entropy,
    tsallis_entropy,
    tsallis_joint_entropy,
)


@pytest.fixture
def uniform_2x2():
    return JointDist(np.full((2, 2), 0.25))


@pytest.fixture
def skew_2x2():
    return JointDist(np.array([[0.1, 0.2], [0.3, 0.4]]))


def test_joint_validation():
    with pytest.raises(PositivityError):
        JointDist(np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(NormalizationError):
        JointDist(np.array([[0.5, 0.4], [0.05, 0.01]]))
    with pytest.raises(DimensionError):
        JointDist(np.array(0.5))


def test_dims_and_ndim(skew_2x2):
    assert skew_2x2.dims == (2, 2)
    assert skew_2x2.ndim == 2


def test_equality_compares_shape_and_cells():
    # the dataclass == compared the cell arrays as a tuple and raised ValueError
    assert JointDist(np.full((2, 2), 0.25)) == JointDist(np.full((2, 2), 0.25))
    assert JointDist(np.full((2, 2), 0.25)) != JointDist(np.full(4, 0.25))
    assert JointDist(np.full((2, 2), 0.25)) != JointDist(np.array([[0.1, 0.4], [0.25, 0.25]]))
    assert JointDist(np.full(4, 0.25)) != ProbDist(np.full(4, 0.25))


def test_marginal_hand_values(skew_2x2):
    m0 = marginal(skew_2x2, (0,))
    np.testing.assert_allclose(m0.cells, [0.3, 0.7], atol=1e-15)
    m1 = marginal(skew_2x2, (1,))
    np.testing.assert_allclose(m1.cells, [0.4, 0.6], atol=1e-15)


def test_marginal_keeps_axis_order():
    j = JointDist(np.full((2, 3, 2), 1.0 / 12.0))
    m = marginal(j, (2, 0))  # listed out of order; original order (0, 2) kept
    assert m.dims == (2, 2)
    m2 = marginal(j, (0, 2))
    np.testing.assert_allclose(m.cells, m2.cells, atol=1e-15)


def test_marginal_validation(skew_2x2):
    with pytest.raises(DimensionError):
        marginal(skew_2x2, ())
    with pytest.raises(DimensionError):
        marginal(skew_2x2, (2,))
    with pytest.raises(DimensionError):
        marginal(skew_2x2, (0, 0))


def test_joint_entropy_uniform_hand_values(uniform_2x2):
    assert tsallis_joint_entropy(uniform_2x2, 2.0) == pytest.approx(0.75, abs=1e-15)
    assert tsallis_joint_entropy(uniform_2x2, 1.0) == pytest.approx(2 * math.log(2.0), rel=1e-14)


def test_conditional_entropy_uniform(uniform_2x2):
    assert tsallis_conditional_entropy(uniform_2x2, (1,), (0,), 2.0) == pytest.approx(
        0.25, abs=1e-15
    )


def test_chain_rule_uniform(uniform_2x2):
    terms = chain_rule_decomposition(uniform_2x2, (0, 1), 2.0)
    assert terms == pytest.approx((0.5, 0.25), abs=1e-15)
    assert sum(terms) == pytest.approx(tsallis_joint_entropy(uniform_2x2, 2.0), abs=1e-14)


def test_chain_rule_input_validation(uniform_2x2):
    with pytest.raises(DimensionError):
        chain_rule_decomposition(uniform_2x2, (0,), 2.0)
    with pytest.raises(DimensionError):
        chain_rule_decomposition(uniform_2x2, (0, 0), 2.0)
    with pytest.raises(DimensionError):
        chain_rule_decomposition(uniform_2x2, (0, 2), 2.0)


def test_conditional_given_nothing_is_marginal_entropy(skew_2x2):
    h = tsallis_conditional_entropy(skew_2x2, (0,), (), 2.0)
    assert h == pytest.approx(tsallis_joint_entropy(marginal(skew_2x2, (0,)), 2.0), rel=1e-13)


def test_conditional_disjointness_enforced(skew_2x2):
    with pytest.raises(DimensionError):
        tsallis_conditional_entropy(skew_2x2, (0,), (0,), 2.0)


def test_han_uniform(uniform_2x2):
    rep = han_sandwich(uniform_2x2, 2.0)
    assert rep.lower == 0.0
    assert rep.value == pytest.approx(0.75, abs=1e-15)
    assert rep.upper == pytest.approx(1.0, abs=1e-15)
    assert rep.holds()


def test_han_independent_bits_is_tight_at_q1():
    j = JointDist(np.full((2, 2), 0.25))
    rep = han_sandwich(j, 1.0)
    # for two independent fair bits the upper bound equals the joint entropy
    assert rep.value == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    assert rep.upper == pytest.approx(rep.value, rel=1e-14)


def test_han_requires_q_at_least_one(uniform_2x2):
    with pytest.raises(HypothesisError):
        han_sandwich(uniform_2x2, 0.5)


def test_han_requires_two_axes():
    j = JointDist(np.array([0.5, 0.5]))
    with pytest.raises(DimensionError):
        han_sandwich(j, 2.0)


def test_product_joint_conditional_scales_by_power_sum():
    # independence: H_q(X|Y) = H_q(X) sum_y p(y)^q, which collapses to
    # H_q(X) exactly at q = 1
    rng = np.random.default_rng(73)
    for q in (0.5, 1.0, 2.0, 3.0):
        a = rng.exponential(size=3)
        b = rng.exponential(size=4)
        pa, pb = a / a.sum(), b / b.sum()
        j = JointDist(np.outer(pa, pb))
        cond = tsallis_conditional_entropy(j, (0,), (1,), q)
        marg = tsallis_joint_entropy(marginal(j, (0,)), q)
        factor = float((pb**q).sum())
        assert cond == pytest.approx(marg * factor, rel=1e-12, abs=1e-13)
        if q == 1.0:
            assert cond == pytest.approx(marg, rel=1e-12)


def test_joint_entropy_equals_flat_entropy(skew_2x2):
    # the joint entropy is the entropy of the flattened cell distribution
    p = make_dist(skew_2x2.cells.ravel())
    for q in (0.0, 0.5, 1.0, 2.0):
        assert tsallis_joint_entropy(skew_2x2, q) == pytest.approx(
            tsallis_entropy(p, q), rel=1e-13, abs=1e-14
        )
    assert tsallis_joint_entropy(skew_2x2, 1.0) == pytest.approx(shannon_entropy(p), rel=1e-13)


def test_conditioning_check_shapes(skew_2x2):
    cond, marg = conditioning_reduces_entropy_check(skew_2x2, 2.0)
    assert cond <= marg + 1e-12
    j3 = JointDist(np.full((2, 2, 2), 0.125))
    cond3, marg3 = conditioning_reduces_entropy_check(j3, 1.5)
    assert cond3 <= marg3 + 1e-12


def test_axis_permutation_symmetry():
    rng = np.random.default_rng(79)
    cells = rng.exponential(size=(3, 2, 4))
    cells = cells / cells.sum()
    j = JointDist(cells)
    jt = JointDist(np.transpose(cells, (2, 0, 1)))
    for q in (0.5, 1.0, 2.0):
        assert tsallis_joint_entropy(j, q) == pytest.approx(
            tsallis_joint_entropy(jt, q), rel=1e-13
        )
        assert han_sandwich(j, max(q, 1.0)).upper == pytest.approx(
            han_sandwich(jt, max(q, 1.0)).upper, rel=1e-12
        )


@st.composite
def _joints(draw):
    k = draw(st.integers(2, 3))
    dims = tuple(draw(st.integers(2, 4)) for _ in range(k))
    seed = draw(st.integers(0, 100_000))
    rng = np.random.default_rng(seed)
    cells = rng.exponential(size=dims) + 1e-3
    return JointDist(cells / cells.sum())


@given(_joints(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=150, deadline=None)
def test_chain_rule_is_exact_for_all_q(j, q):
    h = tsallis_joint_entropy(j, q)
    for order in ([*range(j.ndim)], [*reversed(range(j.ndim))]):
        terms = chain_rule_decomposition(j, tuple(order), q)
        assert math.fsum(terms) == pytest.approx(h, rel=1e-10, abs=1e-10)


@given(_joints(), st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]))
@settings(max_examples=150, deadline=None)
def test_han_holds_at_and_above_one(j, q):
    assert han_sandwich(j, q).holds(tol_abs=1e-9, tol_rel=1e-9)


@given(_joints(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=100, deadline=None)
def test_conditioning_reduces_entropy_q_geq_1(j, q):
    cond, marg = conditioning_reduces_entropy_check(j, q)
    assert cond <= marg + 1e-9 * (1 + abs(marg))


# an axis argument that is not a sequence of integers is a DimensionError
# naming the argument, not a raw TypeError / ValueError
BAD_AXES = [
    ("marginal-int", lambda j: marginal(j, 0), "axes must be a sequence of integer axes, got 0"),
    ("marginal-str", lambda j: marginal(j, ("x",)), "axes must be a sequence of integer axes, got ('x',)"),
    (
        "conditional-target-int",
        lambda j: tsallis_conditional_entropy(j, 1, (0,), 2.0),
        "target_axes must be a sequence of integer axes, got 1",
    ),
    (
        "conditional-given-int",
        lambda j: tsallis_conditional_entropy(j, (1,), 0, 2.0),
        "given_axes must be a sequence of integer axes, got 0",
    ),
    (
        "conditional-given-none",
        lambda j: tsallis_conditional_entropy(j, (1,), None, 2.0),
        "given_axes must be a sequence of integer axes, got None",
    ),
    (
        "chain-order-int",
        lambda j: chain_rule_decomposition(j, 0, 2.0),
        "order must be a sequence of integer axes, got 0",
    ),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in BAD_AXES], ids=[c[0] for c in BAD_AXES])
def test_non_sequence_axes_raise_dimension_error(skew_2x2, call, message):
    with pytest.raises(DimensionError) as info:
        call(skew_2x2)
    assert str(info.value) == message
