import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import (
    DimensionError,
    LengthMismatchError,
    NestedDist,
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
    nd = NestedDist((np.array([0.1, 0.2]), np.array([0.3, 0.4])))
    np.testing.assert_allclose(nd.row_sums, [0.3, 0.7], atol=1e-15)
    np.testing.assert_allclose(nd.flatten().weights, [0.1, 0.2, 0.3, 0.4], atol=1e-15)
    np.testing.assert_allclose(nd.coarse().weights, [0.3, 0.7], atol=1e-15)


def test_nested_dist_validation():
    with pytest.raises(NormalizationError):
        NestedDist((np.array([0.1, 0.2]), np.array([0.3])))
    with pytest.raises(PositivityError):
        NestedDist((np.array([0.5, -0.1]), np.array([0.6])))


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


@given(st.integers(2, 6), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.randoms())
@settings(max_examples=100, deadline=None)
def test_two_level_additivity_oracle(rows, q, rnd):
    sizes = [rnd.randint(1, 4) for _ in range(rows)]
    raw = np.array([rnd.uniform(0.05, 1.0) for _ in range(sum(sizes))])
    raw = raw / raw.sum()
    chunks, start = [], 0
    for s in sizes:
        chunks.append(raw[start : start + s])
        start += s
    nd = NestedDist(tuple(chunks))
    lhs = tsallis_entropy(nd.flatten(), q)
    inner = sum(
        float(nd.row_sums[i]) ** q * tsallis_entropy(ProbDist(row / row.sum()), q)
        for i, row in enumerate(nd.rows)
    )
    rhs = tsallis_entropy(nd.coarse(), q) + inner
    assert lhs == pytest.approx(rhs, abs=1e-10)
