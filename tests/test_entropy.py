import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import (
    DomainError,
    Partition,
    ProbDist,
    coarsen,
    make_dist,
    q_exp,
    q_log,
    renyi_entropy,
    renyi_tsallis_bridge,
    shannon_entropy,
    tsallis_entropy,
)


def test_tsallis_hand_value():
    p = make_dist([0.25, 0.75])
    # 1 - sum p^2 = 1 - 0.625
    assert tsallis_entropy(p, 2.0) == pytest.approx(0.375, abs=1e-15)


def test_tsallis_independent_oracle():
    # H_q = (1 - sum p^q) / (q - 1) for deformed q
    rng = np.random.default_rng(11)
    for q in (0.0, 0.5, 2.0, 3.0):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            w = rng.exponential(size=n)
            p = ProbDist(w / w.sum())
            oracle = (1.0 - float((p.weights**q).sum())) / (q - 1.0) if q != 1.0 else None
            if oracle is not None:
                assert tsallis_entropy(p, q) == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_shannon_hand_value():
    p = make_dist([0.25, 0.75])
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert shannon_entropy(p) == pytest.approx(expected, rel=1e-15)
    assert shannon_entropy(p) == pytest.approx(0.5623351446188083, abs=1e-15)
    assert tsallis_entropy(p, 1.0) == pytest.approx(expected, rel=1e-15)


def test_renyi_hand_values():
    p = make_dist([0.25, 0.75])
    assert renyi_entropy(p, 2.0) == pytest.approx(-math.log(0.625), rel=1e-14)
    assert renyi_entropy(p, 2.0) == pytest.approx(0.4700036292457356, abs=1e-14)
    assert renyi_entropy(p, 1.0) == pytest.approx(shannon_entropy(p), rel=1e-14)
    # q = 0 counts support
    assert renyi_entropy(p, 0.0) == pytest.approx(math.log(2.0), rel=1e-14)


def test_entropy_of_certainty_is_zero():
    p = make_dist([1.0])
    for q in (0.0, 0.5, 1.0, 2.0):
        assert tsallis_entropy(p, q) == pytest.approx(0.0, abs=1e-15)
        assert renyi_entropy(p, q) == pytest.approx(0.0, abs=1e-15)


def test_uniform_reaches_q_log_n():
    for n in (2, 3, 5, 8):
        u = ProbDist(np.full(n, 1.0 / n))
        for q in (0.0, 0.5, 1.0, 2.0, 3.0):
            assert tsallis_entropy(u, q) == pytest.approx(q_log(float(n), q), rel=1e-12, abs=1e-12)
            assert renyi_entropy(u, q) == pytest.approx(math.log(n), rel=1e-12, abs=1e-12)


def test_support_size_entropy():
    # at q = 0 the deformed entropy is support size minus one
    for n in (2, 5, 11):
        w = np.random.default_rng(n).exponential(size=n)
        p = ProbDist(w / w.sum())
        assert tsallis_entropy(p, 0.0) == pytest.approx(n - 1.0, rel=1e-12)


def test_negative_q_rejected():
    p = make_dist([0.5, 0.5])
    with pytest.raises(DomainError):
        tsallis_entropy(p, -0.5)
    with pytest.raises(DomainError):
        renyi_entropy(p, -1.0)


def test_bridge_hand_value():
    p = make_dist([0.25, 0.75])
    lhs, rhs = renyi_tsallis_bridge(p, 2.0)
    assert lhs == pytest.approx(1.6, rel=1e-14)
    assert rhs == pytest.approx(1.6, rel=1e-14)


@given(
    q=st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 4.0]),
    seed=st.integers(0, 100_000),
)
@settings(max_examples=300, deadline=None)
def test_bridge_identity_random(q, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    w = rng.exponential(size=n) + 1e-3
    p = ProbDist(w / w.sum())
    lhs, rhs = renyi_tsallis_bridge(p, q)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    # and both equal exp_q(H_q) by direct composition
    assert rhs == pytest.approx(q_exp(tsallis_entropy(p, q), q), rel=1e-12)


@given(seed=st.integers(0, 100_000), q=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
@settings(max_examples=150, deadline=None)
def test_entropies_are_nonnegative(seed, q):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    w = rng.exponential(size=n) + 1e-6
    p = ProbDist(w / w.sum())
    assert tsallis_entropy(p, q) >= -1e-12
    assert renyi_entropy(p, q) >= -1e-12
    assert shannon_entropy(p) >= -1e-12


def test_coarsening_monotone_on_hand_case():
    p = make_dist([0.1, 0.2, 0.3, 0.4])
    c = coarsen(p, Partition(((0, 1), (2, 3))))
    for q in (0.0, 0.5, 1.0, 2.0, 3.0):
        assert tsallis_entropy(c, q) <= tsallis_entropy(p, q) + 1e-12
        assert renyi_entropy(c, q) <= renyi_entropy(p, q) + 1e-12


def test_renyi_q_limit_continuity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        w = rng.uniform(0.1, 1.0, n)
        p = ProbDist(w / w.sum())
        base = shannon_entropy(p)
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            assert renyi_entropy(p, q) == pytest.approx(base, abs=1e-5 * (1 + abs(base)))
            assert tsallis_entropy(p, q) == pytest.approx(base, abs=1e-5 * (1 + abs(base)))


@pytest.mark.parametrize("q", [1500.0, 1e6])
@pytest.mark.parametrize("n", [2, 3, 7, 16, 1000])
def test_renyi_uniform_at_large_q_is_log_n(n, q):
    # every p_j^q underflows to 0 here; the largest mass is factored out
    assert renyi_entropy(ProbDist(np.full(n, 1.0 / n)), q) == pytest.approx(
        math.log(n), rel=0.0, abs=1e-12
    )
