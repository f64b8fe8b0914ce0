import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import (
    ConvexGenerator,
    DomainError,
    EntropicIndex,
    GeneratorError,
    IncompleteDist,
    LengthMismatchError,
    Partition,
    ProbDist,
    coarsen,
    complement_cross_entropy,
    dual_generator,
    f_by_label,
    f_divergence,
    f_divergence_sandwich,
    incomplete_f_divergence,
    kl_divergence,
    make_dist,
    neg_qlog_generator,
    neglog_generator,
    q_exp,
    renyi_relative,
    renyi_tsallis_relative_bridge,
    tsallis_generator,
    tsallis_relative,
    xlogx_generator,
)


@pytest.fixture
def p_half():
    return make_dist([0.5, 0.5])


@pytest.fixture
def r_quarter():
    return make_dist([0.25, 0.75])


def test_kl_hand_value(p_half, r_quarter):
    # 0.5 log(2) + 0.5 log(2/3) = 0.5 log(4/3)
    expected = 0.5 * math.log(4.0 / 3.0)
    assert kl_divergence(p_half, r_quarter) == pytest.approx(expected, rel=1e-15)
    assert kl_divergence(p_half, r_quarter) == pytest.approx(0.14384103622589045, abs=1e-16)


def test_tsallis_relative_hand_value(p_half, r_quarter):
    # D_2 = sum p^2/r - 1 = (0.25/0.25 + 0.25/0.75) - 1 = 1/3
    assert tsallis_relative(p_half, r_quarter, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert tsallis_relative(p_half, r_quarter, 1.0) == pytest.approx(
        kl_divergence(p_half, r_quarter), rel=1e-14
    )


def test_renyi_relative_hand_value(p_half, r_quarter):
    # log(sum p^2 r^{-1}) at q=2: log(4/3)
    assert renyi_relative(p_half, r_quarter, 2.0) == pytest.approx(math.log(4.0 / 3.0), rel=1e-14)
    assert renyi_relative(p_half, r_quarter, 2.0) == pytest.approx(0.2876820724517809, abs=1e-15)
    assert renyi_relative(p_half, r_quarter, 1.0) == pytest.approx(
        kl_divergence(p_half, r_quarter), rel=1e-14
    )


def test_divergence_zero_iff_equal(p_half):
    assert kl_divergence(p_half, p_half) == pytest.approx(0.0, abs=1e-15)
    for q in (0.0, 0.5, 2.0, 3.0):
        assert tsallis_relative(p_half, p_half, q) == pytest.approx(0.0, abs=1e-15)
        assert renyi_relative(p_half, p_half, q) == pytest.approx(0.0, abs=1e-15)


def test_divergences_nonnegative_random():
    rng = np.random.default_rng(23)
    for q in (0.0, 0.5, 1.0, 2.0, 3.0):
        for _ in range(40):
            n = int(rng.integers(2, 10))
            a, b = rng.exponential(size=n), rng.exponential(size=n)
            p, r = ProbDist(a / a.sum()), ProbDist(b / b.sum())
            assert tsallis_relative(p, r, q) >= -1e-12
            assert kl_divergence(p, r) >= -1e-12
            if q <= 2.0:
                assert renyi_relative(p, r, q) >= -1e-12


def test_length_mismatch(p_half):
    with pytest.raises(LengthMismatchError):
        kl_divergence(p_half, make_dist([0.2, 0.3, 0.5]))


def test_convex_generator_validation():
    # f(1) must vanish
    with pytest.raises(GeneratorError):
        ConvexGenerator(eval=lambda x: np.asarray(x) ** 2, label="square-unnormalized")
    # concave generators are rejected
    with pytest.raises(GeneratorError):
        ConvexGenerator(eval=lambda x: np.sqrt(np.asarray(x)) - 1.0, label="sqrt")
    # valid: x^2 - 1 is convex with f(1) = 0
    g = ConvexGenerator(eval=lambda x: np.asarray(x) ** 2 - 1.0, label="square")
    assert g.label == "square"


def test_f_by_label():
    assert f_by_label("tsallis", 2.0).label == "tsallis[q=2]"
    assert f_by_label("xlogx").label == "xlogx"
    assert f_by_label("neglog").label == "neglog"
    with pytest.raises(DomainError):
        f_by_label("tsallis")  # needs q
    with pytest.raises(DomainError):
        f_by_label("huber")


def test_f_divergence_recovers_named_divergences(p_half, r_quarter):
    assert f_divergence(xlogx_generator(), p_half, r_quarter) == pytest.approx(
        kl_divergence(p_half, r_quarter), rel=1e-14
    )
    assert f_divergence(tsallis_generator(2.0), p_half, r_quarter) == pytest.approx(
        tsallis_relative(p_half, r_quarter, 2.0), rel=1e-14
    )
    # -log generator gives the reversed KL
    assert f_divergence(neglog_generator(), p_half, r_quarter) == pytest.approx(
        kl_divergence(r_quarter, p_half), rel=1e-14
    )


def test_dual_generator_pointwise():
    f = xlogx_generator()
    fd = dual_generator(f)
    xs = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    # (x log x)* = x * (1/x) log(1/x) = -log x
    np.testing.assert_allclose(np.asarray(fd.eval(xs)), -np.log(xs), atol=1e-14)
    assert fd.label == "dual(xlogx)"


def test_dual_is_involution():
    xs = np.array([0.3, 0.7, 1.0, 1.9, 5.0])
    for f in (xlogx_generator(), neglog_generator(), tsallis_generator(2.0)):
        fdd = dual_generator(dual_generator(f))
        np.testing.assert_allclose(np.asarray(fdd.eval(xs)), np.asarray(f.eval(xs)), atol=1e-12)


def test_dual_swaps_arguments(p_half, r_quarter):
    # D_{f*}(p||r) = D_f(r||p)
    for f in (xlogx_generator(), tsallis_generator(2.0), tsallis_generator(0.5)):
        assert f_divergence(dual_generator(f), p_half, r_quarter) == pytest.approx(
            f_divergence(f, r_quarter, p_half), rel=1e-13
        )


def test_incomplete_f_divergence_hand_value():
    # a = (1/2, 1/2), b = (1/8, 1/8): sum a * f*(b/a) with f = xlogx
    # f*(t) = -log t, so value = -log(1/4) = 2 log 2
    a = IncompleteDist(np.array([0.5, 0.5]))
    b = IncompleteDist(np.array([0.125, 0.125]))
    val = incomplete_f_divergence(dual_generator(xlogx_generator()), a, b)
    assert val == pytest.approx(2.0 * math.log(2.0), rel=1e-14)


def test_incomplete_duality_bookkeeping(p_half, r_quarter):
    # sum_j p f(p/r) rewritten through t_j = p^2/r: sum_j t f*(p/t)
    for f in (xlogx_generator(), tsallis_generator(2.0), neglog_generator()):
        lhs = float(p_half.weights @ np.asarray(f.eval(p_half.weights / r_quarter.weights)))
        t = IncompleteDist(p_half.weights**2 / r_quarter.weights)
        rhs = incomplete_f_divergence(dual_generator(f), t, IncompleteDist(p_half.weights))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_neg_qlog_generator_values():
    g = neg_qlog_generator(2.0)
    xs = np.array([0.5, 1.0, 2.0])
    # -ln_2 x = 1/x - 1
    np.testing.assert_allclose(np.asarray(g.eval(xs)), 1.0 / xs - 1.0, atol=1e-14)


def test_relative_bridge_hand_value(p_half, r_quarter):
    lhs, rhs = renyi_tsallis_relative_bridge(p_half, r_quarter, 2.0)
    assert lhs == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert rhs == pytest.approx(4.0 / 3.0, rel=1e-14)


@given(
    q=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0]),
    seed=st.integers(0, 100_000),
)
@settings(max_examples=250, deadline=None)
def test_relative_bridge_random(q, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    a, b = rng.exponential(size=n) + 1e-3, rng.exponential(size=n) + 1e-3
    p, r = ProbDist(a / a.sum()), ProbDist(b / b.sum())
    lhs, rhs = renyi_tsallis_relative_bridge(p, r, q)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    assert rhs == pytest.approx(q_exp(tsallis_relative(p, r, q), 2.0 - q), rel=1e-12)


def test_coarsening_never_raises_divergences():
    rng = np.random.default_rng(31)
    for q in (0.0, 0.5, 1.0, 1.5, 2.0):
        for _ in range(30):
            n = int(rng.integers(3, 9))
            a, b = rng.exponential(size=n), rng.exponential(size=n)
            p, r = ProbDist(a / a.sum()), ProbDist(b / b.sum())
            cut = int(rng.integers(1, n))
            part = Partition((tuple(range(cut)), tuple(range(cut, n))))
            cp, cr = coarsen(p, part), coarsen(r, part)
            assert tsallis_relative(cp, cr, q) <= tsallis_relative(p, r, q) + 1e-10
            assert renyi_relative(cp, cr, q) <= renyi_relative(p, r, q) + 1e-10


def test_complement_cross_entropy_pair(p_half, r_quarter):
    self_term, cross_term = complement_cross_entropy(p_half, r_quarter)
    # sum (1-p) log(1/(1-p)) for p = (1/2, 1/2)
    assert self_term == pytest.approx(math.log(2.0), rel=1e-14)
    # sum (1-p) log(1/(1-r)): 0.5 log(1/0.75) + 0.5 log(4)
    expected = 0.5 * math.log(4.0 / 3.0) + 0.5 * math.log(4.0)
    assert cross_term == pytest.approx(expected, rel=1e-14)
    assert self_term <= cross_term


def test_complement_cross_entropy_requires_room():
    # every component must stay strictly below 1
    with pytest.raises(DomainError):
        complement_cross_entropy(make_dist([1.0]), make_dist([1.0]))


def test_complement_inequality_random():
    rng = np.random.default_rng(37)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        a, b = rng.exponential(size=n), rng.exponential(size=n)
        p, r = ProbDist(a / a.sum()), ProbDist(b / b.sum())
        self_term, cross_term = complement_cross_entropy(p, r)
        assert self_term <= cross_term + 1e-10 * (1 + abs(cross_term))


def _count_validations(monkeypatch):
    import qentropy.divergence as div

    calls = []
    real = div._validate_convex

    def counting(eval_fn, label):
        calls.append(label)
        real(eval_fn, label)

    monkeypatch.setattr(div, "_validate_convex", counting)
    return calls


def test_dual_is_built_and_validated_once(monkeypatch, p_half, r_quarter):
    calls = _count_validations(monkeypatch)
    f = ConvexGenerator(eval=lambda x: np.asarray(x) * np.log(x), label="xlogx-local")
    g = ConvexGenerator(eval=lambda x: -np.log(np.asarray(x)), label="neglog-local")
    assert calls == ["xlogx-local", "neglog-local"]
    assert dual_generator(f) is dual_generator(f)
    assert dual_generator(g) is not dual_generator(f)
    for _ in range(3):
        f_divergence_sandwich(f, p_half, r_quarter)
        f_divergence_sandwich(g, p_half, r_quarter)
    # one validation per distinct generator, its dual included
    assert calls == ["xlogx-local", "neglog-local", "dual(xlogx-local)", "dual(neglog-local)"]
    # the dual of the dual is its own generator, validated once too
    assert dual_generator(dual_generator(f)) is dual_generator(dual_generator(f))
    assert calls[-1] == "dual(dual(xlogx-local))"
    assert len(calls) == 5


def test_factories_share_one_validated_generator(monkeypatch):
    calls = _count_validations(monkeypatch)
    q = 2.718281828  # a q no other test builds
    f = tsallis_generator(q)
    assert calls == [f"tsallis[q={q:g}]"]
    assert tsallis_generator(np.float64(q)) is f
    assert tsallis_generator(EntropicIndex(q)) is f
    assert f_by_label("tsallis", q) is f
    assert neg_qlog_generator(q) is neg_qlog_generator(EntropicIndex(q))
    assert xlogx_generator() is f_by_label("xlogx")
    assert neglog_generator() is neglog_generator()
    assert calls == [f"tsallis[q={q:g}]", f"neg_lnq[q={q:g}]"]
    # -0.0 and 0.0 are one key with one label
    assert tsallis_generator(-0.0) is tsallis_generator(0.0)
    assert tsallis_generator(-0.0).label == "tsallis[q=0]"


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, "x"])
def test_cached_factories_still_reject_bad_q(bad):
    exc = ValueError if isinstance(bad, str) else DomainError
    for factory in (tsallis_generator, neg_qlog_generator):
        with pytest.raises(exc):
            factory(bad)
    with pytest.raises(exc):
        f_by_label("tsallis", bad)


def _renyi_relative_oracle(p, r, q):
    """R_q(p||r) from the exact decimal values of the weights, to 50 digits."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        qd = Decimal(q)
        s = sum(
            Decimal(a) ** qd * Decimal(b) ** (1 - qd)
            for a, b in zip(p.weights.tolist(), r.weights.tolist())
        )
        return float(s.ln() / (qd - 1))


@pytest.mark.parametrize(
    "p, r, q",
    [
        ([0.5, 0.5], [0.25, 0.75], 2000.0),
        ([0.5, 0.3, 0.2], [0.25, 0.35, 0.4], 2000.0),
        ([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], 1e5),
        ([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], 0.5),
        ([0.6, 0.4], [0.5, 0.5], 1200.0),
        # near-disjoint supports near q = 1: sum p expm1((1-q) log(r/p))
        # rounds to -1, where log1p would give -inf
        ([1e-300, 1.0], [1.0, 1e-300], 0.6),
    ],
)
def test_renyi_relative_large_q_matches_decimal_oracle(p, r, q):
    pd, rd = make_dist(p), make_dist(r)
    got = renyi_relative(pd, rd, q)
    assert math.isfinite(got)
    assert got == pytest.approx(_renyi_relative_oracle(pd, rd, q), rel=1e-12)
