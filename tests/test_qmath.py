import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import DomainError, UndefinedValueError, q_exp, q_log


def test_q_log_matches_natural_log_at_one():
    for x in (0.5, 1.0, 2.0, 10.0):
        assert q_log(x, 1.0) == math.log(x)


def test_q_log_hand_values():
    # (x^(1-q) - 1)/(1-q) at q=2 is 1 - 1/x
    assert q_log(2.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert q_log(4.0, 0.5) == pytest.approx(2.0, abs=1e-15)  # (2 - 1)/(1/2)
    assert q_log(1.0, 3.0) == 0.0
    assert q_log(1.0, 0.0) == 0.0


def test_q_exp_hand_values():
    assert q_exp(0.5, 2.0) == pytest.approx(2.0, abs=1e-15)  # (1 - 0.5)^(-1)
    assert q_exp(1.0, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert q_exp(0.0, 3.0) == 1.0
    assert q_exp(1.0, 1.0) == pytest.approx(math.e, rel=1e-15)


def test_q_exp_undefined_region():
    with pytest.raises(UndefinedValueError):
        q_exp(-2.0, 0.0)  # 1 + (1-0)(-2) = -1
    with pytest.raises(UndefinedValueError):
        q_exp(-1.0, 0.0)  # boundary is excluded too


def test_domain_rejections():
    with pytest.raises(DomainError):
        q_log(0.0, 2.0)
    with pytest.raises(DomainError):
        q_log(-1.0, 0.5)
    with pytest.raises(DomainError):
        q_log(math.nan, 1.0)
    with pytest.raises(DomainError):
        q_log(2.0, -0.5)
    with pytest.raises(DomainError):
        q_log(2.0, math.inf)
    with pytest.raises(DomainError):
        q_log(np.array([]), 1.0)


def test_array_in_array_out():
    xs = np.array([0.5, 1.0, 2.0])
    out = q_log(xs, 2.0)
    assert isinstance(out, np.ndarray)
    assert out.shape == xs.shape
    np.testing.assert_allclose(out, 1.0 - 1.0 / xs, atol=1e-15)
    # scalar in, scalar out
    assert isinstance(q_log(2.0, 2.0), float)
    assert isinstance(q_exp(0.5, 2.0), float)


def test_q_log_monotonic_in_x():
    xs = np.linspace(0.01, 50.0, 400)
    for q in (0.0, 0.5, 1.0, 2.0, 3.5):
        ys = np.asarray(q_log(xs, q))
        assert np.all(np.diff(ys) > 0.0)


def test_near_one_limit_switch_is_continuous():
    # just off q = 1 the deformed form agrees with the natural log to
    # o(|1-q|)
    for x in (0.37, 1.0, 2.5, 40.0):
        lo = q_log(x, 1.0 - 2e-8)
        hi = q_log(x, 1.0 + 2e-8)
        mid = q_log(x, 1.0)
        assert lo == pytest.approx(mid, abs=1e-6 * (1 + abs(mid)))
        assert hi == pytest.approx(mid, abs=1e-6 * (1 + abs(mid)))


@given(
    x=st.floats(1e-3, 1e3),
    q=st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0]),
)
@settings(max_examples=300, deadline=None)
def test_roundtrip_exp_log(x, q):
    assert q_exp(q_log(x, q), q) == pytest.approx(x, rel=1e-12)


@given(
    x=st.floats(2.0**-10, 2.0**10),
    q=st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0]),
)
@settings(max_examples=300, deadline=None)
def test_roundtrip_log_exp(x, q):
    # start from u in the range of ln_q so exp_q(u) is defined
    u = q_log(x, q)
    assert q_log(q_exp(u, q), q) == pytest.approx(u, abs=1e-12 * (1 + abs(u)))


@given(x=st.floats(2.0**-4, 2.0**4), q=st.sampled_from([2.5, 3.0, 4.0]))
@settings(max_examples=200, deadline=None)
def test_roundtrip_large_q_narrow_grid(x, q):
    # for large q the map saturates quickly; on a narrow grid the round trip
    # is still well conditioned
    assert q_exp(q_log(x, q), q) == pytest.approx(x, rel=1e-12)


def test_continuity_across_q_equals_one():
    for x in (1e-3, 0.1, 1.0, 7.3, 1e3):
        base = q_log(x, 1.0)
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            assert abs(q_log(x, q) - base) <= 1e-5 * (1.0 + abs(base))

