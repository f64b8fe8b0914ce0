import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import (
    DimensionError,
    LengthMismatchError,
    NormalizationError,
    Partition,
    PartitionError,
    PositivityError,
    ProbDist,
    coarsen,
    make_dist,
    power_sum,
    tsallis_entropy,
)
from qentropy.dist import check_lengths


def test_valid_dist():
    p = make_dist([0.25, 0.75])
    assert p.n == 2
    np.testing.assert_array_equal(p.weights, [0.25, 0.75])


def test_tiny_positive_weight_is_valid():
    # strictly positive is enough; no minimum mass is imposed here
    p = make_dist([0.5, 0.5, 1e-17])
    assert p.n == 3


def test_normalization_rejected():
    with pytest.raises(NormalizationError):
        make_dist([0.3, 0.3])
    with pytest.raises(NormalizationError):
        make_dist([0.6, 0.6])


def test_positivity_rejected():
    with pytest.raises(PositivityError):
        make_dist([0.5, 0.5, 0.0])
    with pytest.raises(PositivityError):
        make_dist([1.5, -0.5])
    with pytest.raises(PositivityError):
        make_dist([0.5, math.nan])


def test_shape_rejected():
    with pytest.raises(DimensionError):
        make_dist([[0.5, 0.5]])
    with pytest.raises(DimensionError):
        make_dist([])


def test_weights_are_frozen():
    p = make_dist([0.5, 0.5])
    with pytest.raises(ValueError):
        p.weights[0] = 0.9


def test_dist_equality_by_value():
    assert make_dist([0.5, 0.5]) == make_dist([0.5, 0.5])
    assert make_dist([0.5, 0.5]) != make_dist([0.25, 0.75])


def test_partition_validation():
    part = Partition(((0, 2), (1, 3)))
    assert part.blocks == ((0, 2), (1, 3))
    assert Partition(((np.int64(0),), (np.int32(1),))).blocks == ((0,), (1,))
    with pytest.raises(PartitionError):
        Partition(((0, 1), (1, 2)))  # overlap
    with pytest.raises(PartitionError):
        Partition(((0, 1), ()))  # empty block
    with pytest.raises(PartitionError):
        Partition(((0, -1),))  # negative index
    with pytest.raises(PartitionError):
        Partition(())
    with pytest.raises(PartitionError, match="blocks must be iterables of integers"):
        Partition(((0, 1.7), (2.2,)))  # not truncated to ((0, 1), (2,))


def test_coarsen_hand_example():
    p = make_dist([0.1, 0.2, 0.3, 0.4])
    c = coarsen(p, Partition(((0, 2), (1, 3))))
    np.testing.assert_allclose(c.weights, [0.4, 0.6], atol=1e-15)


def test_coarsen_requires_exact_cover():
    p = make_dist([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(PartitionError):
        coarsen(p, Partition(((0, 1),)))  # misses 2, 3
    with pytest.raises(PartitionError):
        coarsen(p, Partition(((0, 1), (2, 4))))  # index out of range


def test_coarsen_block_order_is_preserved():
    p = make_dist([0.1, 0.2, 0.3, 0.4])
    c = coarsen(p, Partition(((3,), (0, 1, 2))))
    np.testing.assert_allclose(c.weights, [0.4, 0.6], atol=1e-15)


def test_power_sum_hand_example():
    p = make_dist([0.2, 0.3, 0.5])
    assert power_sum(p, 2.0) == pytest.approx(0.38, abs=1e-15)
    assert power_sum(p, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert power_sum(p, 0.0) == pytest.approx(3.0, abs=1e-12)


def test_check_lengths():
    check_lengths(make_dist([0.5, 0.5]), make_dist([0.25, 0.75]))
    with pytest.raises(LengthMismatchError):
        check_lengths(make_dist([0.5, 0.5]), make_dist([0.2, 0.3, 0.5]))


def test_nested_dist_structure():
    # a two-level refinement is its cells with a partition of them; the
    # coarse level is coarsen, and each block's cells give its row
    p = ProbDist([0.1, 0.2, 0.3, 0.4])
    part = Partition(((0, 1), (2, 3)))
    np.testing.assert_allclose(coarsen(p, part).weights, [0.3, 0.7], atol=1e-15)
    rows = [p.weights[list(block)] for block in part.blocks]
    np.testing.assert_allclose(np.concatenate(rows), [0.1, 0.2, 0.3, 0.4], atol=0.0)
    np.testing.assert_allclose([r.sum() for r in rows], [0.3, 0.7], atol=1e-15)


def test_nested_dist_validation():
    # the cells carry the grand total and positivity, the partition the cover
    with pytest.raises(NormalizationError):
        ProbDist([0.1, 0.2, 0.3])
    with pytest.raises(PositivityError):
        ProbDist([0.5, -0.1, 0.6])
    with pytest.raises(PartitionError):
        coarsen(ProbDist([0.1, 0.2, 0.3, 0.4]), Partition(((0, 1), (2,))))


@st.composite
def _dists(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    w = np.asarray(raw)
    return ProbDist(w / w.sum())


@st.composite
def _dist_with_partition(draw):
    p = draw(_dists())
    n = p.n
    k = draw(st.integers(1, n))
    perm = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1)))
    edges = [0, *cuts, n]
    blocks = tuple(tuple(perm[a:b]) for a, b in zip(edges[:-1], edges[1:]))
    return p, Partition(blocks)


@given(_dist_with_partition())
@settings(max_examples=200, deadline=None)
def test_coarsen_conserves_mass_and_counts(pair):
    p, part = pair
    c = coarsen(p, part)
    assert c.n == len(part.blocks)
    assert float(c.weights.sum()) == pytest.approx(1.0, abs=1e-12)


@given(_dist_with_partition(), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
@settings(max_examples=200, deadline=None)
def test_coarsening_never_raises_entropy(pair, q):
    p, part = pair
    c = coarsen(p, part)
    assert tsallis_entropy(c, q) <= tsallis_entropy(p, q) + 1e-10


@given(_dist_with_partition(), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
@settings(max_examples=100, deadline=None)
def test_two_level_additivity_oracle(pair, q):
    # the grouping identity over any partition, whose blocks need not be consecutive:
    # H_q(p) = H_q(coarsen(p)) + sum_i P_i^q H_q(block_i / P_i)
    p, part = pair
    coarse = coarsen(p, part)
    inner = sum(
        float(s) ** q * tsallis_entropy(ProbDist(p.weights[list(block)] / s), q)
        for s, block in zip(coarse.weights, part.blocks)
    )
    rhs = tsallis_entropy(coarse, q) + inner
    assert tsallis_entropy(p, q) == pytest.approx(rhs, abs=1e-10)
