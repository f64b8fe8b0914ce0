import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import (
    DomainError,
    EntropicIndex,
    GeneratorError,
    GeneratorPsi,
    LengthMismatchError,
    ProbDist,
    check_psi_convexity,
    identity_generator,
    kl_divergence,
    lnq_generator,
    log_generator,
    make_dist,
    power_generator,
    psi_by_label,
    quasilinear_entropy,
    quasilinear_mean,
    quasilinear_relative,
    renyi_entropy,
    renyi_relative,
    shannon_entropy,
    tsallis_entropy,
    tsallis_quasilinear_entropy,
    tsallis_quasilinear_relative,
    tsallis_relative,
)

HALF = None  # set in fixtures below


@pytest.fixture
def p_quarter():
    return make_dist([0.25, 0.75])


@pytest.fixture
def p_half():
    return make_dist([0.5, 0.5])


def test_log_mean_is_geometric_mean(p_half):
    assert quasilinear_mean(log_generator(), [1.0, 4.0], p_half) == pytest.approx(2.0, rel=1e-14)


def test_identity_mean_is_arithmetic_mean(p_quarter):
    m = quasilinear_mean(identity_generator(), [1.0, 5.0], p_quarter)
    assert m == pytest.approx(4.0, rel=1e-14)


def test_mean_between_extremes():
    rng = np.random.default_rng(7)
    for psi in (identity_generator(), log_generator(), power_generator(2.0), lnq_generator(0.5)):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            xs = rng.uniform(0.1, 10.0, n)
            w = rng.exponential(size=n)
            p = ProbDist(w / w.sum())
            m = quasilinear_mean(psi, xs, p)
            assert xs.min() - 1e-12 <= m <= xs.max() + 1e-12


def test_mean_input_validation(p_half):
    with pytest.raises(LengthMismatchError):
        quasilinear_mean(log_generator(), [1.0, 2.0, 3.0], p_half)
    with pytest.raises(DomainError):
        quasilinear_mean(log_generator(), [1.0, -2.0], p_half)  # positive domain
    with pytest.raises(DomainError):
        quasilinear_mean(log_generator(), [1.0, math.inf], p_half)
    # the identity generator accepts any sign
    assert quasilinear_mean(identity_generator(), [-3.0, 1.0], p_half) == pytest.approx(-1.0)


def test_power_entropy_hand_value(p_quarter):
    # psi(x) = x^(1-2): sum p psi(1/p) = sum p^2 = 0.625, inverse -> 1.6,
    # ln_2(1.6) = 0.375 = 1 - sum p^2
    val = tsallis_quasilinear_entropy(power_generator(2.0), p_quarter, 2.0)
    assert val == pytest.approx(0.375, abs=1e-14)
    assert val == pytest.approx(1.0 - float(p_quarter.weights @ p_quarter.weights), abs=1e-14)


def test_undeformed_power_entropy_is_renyi(p_quarter):
    val = quasilinear_entropy(power_generator(2.0), p_quarter)
    assert val == pytest.approx(-math.log(0.625), rel=1e-14)
    assert val == pytest.approx(renyi_entropy(p_quarter, 2.0), rel=1e-14)


def test_lnq_relative_hand_value(p_half):
    r = make_dist([0.25, 0.75])
    val = tsallis_quasilinear_relative(lnq_generator(2.0), p_half, r, 2.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-14)


def _random_pair(rng, n):
    a = rng.exponential(size=n)
    b = rng.exponential(size=n)
    return ProbDist(a / a.sum()), ProbDist(b / b.sum())


def test_family_collapses_random():
    rng = np.random.default_rng(20240817)
    qs = [0.0, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0]
    for i in range(200):
        n = int(rng.integers(2, 10))
        q = qs[i % len(qs)]
        p, r = _random_pair(rng, n)
        h = tsallis_entropy(p, q)
        tol = 1e-10 * (1.0 + abs(h))
        assert abs(tsallis_quasilinear_entropy(lnq_generator(q), p, q) - h) <= tol
        assert abs(tsallis_quasilinear_entropy(power_generator(q), p, q) - h) <= tol
        d = tsallis_relative(p, r, q)
        tol_d = 1e-10 * (1.0 + abs(d))
        assert abs(tsallis_quasilinear_relative(lnq_generator(q), p, r, q) - d) <= tol_d
        assert abs(tsallis_quasilinear_relative(power_generator(q), p, r, q) - d) <= tol_d
        # undeformed outer index: power generator reproduces the collision family
        rq = renyi_entropy(p, q)
        assert abs(quasilinear_entropy(power_generator(q), p) - rq) <= 1e-10 * (1.0 + abs(rq))
        rr = renyi_relative(p, r, q)
        assert abs(quasilinear_relative(power_generator(q), p, r) - rr) <= 1e-10 * (1.0 + abs(rr))
        kl = kl_divergence(p, r)
        assert abs(quasilinear_relative(log_generator(), p, r) - kl) <= 1e-10 * (1.0 + abs(kl))


def test_undeformed_log_entropy_is_shannon():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        w = rng.exponential(size=n)
        p = ProbDist(w / w.sum())
        h = shannon_entropy(p)
        assert quasilinear_entropy(log_generator(), p) == pytest.approx(h, rel=1e-10, abs=1e-12)


def test_power_generator_q1_limit_is_log():
    psi = power_generator(1.0)
    assert psi.label.startswith("power")
    xs = np.array([0.5, 1.0, 2.0, 10.0])
    np.testing.assert_allclose(psi.forward(xs), np.log(xs), atol=1e-15)


def test_generator_labels_and_lookup():
    assert psi_by_label("identity").label == "identity"
    assert psi_by_label("log").label == "log"
    assert psi_by_label("power", 2.0).label == "power[q=2]"
    assert psi_by_label("lnq", 0.5).label == "lnq[q=0.5]"
    with pytest.raises(DomainError):
        psi_by_label("power")
    with pytest.raises(DomainError):
        psi_by_label("lnq")
    with pytest.raises(DomainError):
        psi_by_label("sqrt")


def test_generator_factories_are_memoized_on_q():
    q = 0.3183098862  # a q no other test builds
    for factory, label in ((lnq_generator, "lnq"), (power_generator, "power")):
        psi = factory(q)
        assert factory(np.float64(q)) is psi
        assert factory(EntropicIndex(q)) is psi
        assert psi_by_label(label, q) is psi
        assert factory(1.5) is not psi
    assert identity_generator() is psi_by_label("identity")
    assert log_generator() is psi_by_label("log")
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            lnq_generator(bad)
        with pytest.raises(DomainError):
            psi_by_label("power", bad)


def test_relative_nonneg_hypothesis_flag():
    assert identity_generator().relative_nonneg_hypothesis
    assert log_generator().relative_nonneg_hypothesis
    assert lnq_generator(3.0).relative_nonneg_hypothesis
    assert power_generator(0.5).relative_nonneg_hypothesis  # concave increasing
    assert power_generator(2.0).relative_nonneg_hypothesis  # convex decreasing
    bad = GeneratorPsi(
        forward=np.square, inverse=np.sqrt, direction="increasing", shape="convex", label="square"
    )
    assert not bad.relative_nonneg_hypothesis


def test_generator_validation_rejects_non_monotone():
    with pytest.raises(GeneratorError):
        GeneratorPsi(forward=np.cos, inverse=np.arccos, direction="increasing", label="cos")


def test_generator_validation_rejects_wrong_direction():
    with pytest.raises(GeneratorError):
        GeneratorPsi(forward=np.log, inverse=np.exp, direction="decreasing", label="log-flipped")


def test_generator_validation_rejects_bad_inverse():
    with pytest.raises(GeneratorError):
        GeneratorPsi(forward=np.log, inverse=lambda y: np.exp(y) + 1.0,
                     direction="increasing", label="shifted")


def test_generator_validation_rejects_overflow():
    with pytest.raises(GeneratorError):
        GeneratorPsi(
            forward=lambda x: np.exp(np.asarray(x, dtype=float) ** 8),
            inverse=lambda y: np.log(y) ** 0.125,
            direction="increasing",
            label="blow-up",
        )


def test_check_psi_convexity_square_holds():
    res = check_psi_convexity(lambda x: np.asarray(x) ** 2, identity_generator(),
                              grid=np.linspace(0.0, 3.0, 7), lambdas=(0.0, 0.25, 0.5, 0.75, 1.0))
    assert res.holds
    assert res.worst_violation <= 1e-12


def test_check_psi_convexity_concave_fails_with_witness():
    res = check_psi_convexity(lambda x: -np.asarray(x) ** 2, identity_generator(),
                              grid=np.array([0.0, 1.0]), lambdas=(0.0, 0.5, 1.0))
    assert not res.holds
    assert res.worst_violation == pytest.approx(0.25, abs=1e-14)
    a, b, lam = res.witness
    assert sorted((a, b)) == [0.0, 1.0]
    assert lam == 0.5


def test_check_psi_convexity_exp_under_log_is_borderline():
    # f = exp under psi = log: f(psi^{-1}(u)) = e^(e^u)? no: exp(exp(u)) is
    # convex in u, so the hypothesis holds
    res = check_psi_convexity(np.exp, log_generator(),
                              grid=np.linspace(0.5, 2.0, 6), lambdas=(0.25, 0.5, 0.75))
    assert res.holds


def test_check_psi_convexity_input_validation():
    with pytest.raises(DomainError):
        check_psi_convexity(np.exp, log_generator(), grid=[], lambdas=(0.5,))
    with pytest.raises(DomainError):
        check_psi_convexity(np.exp, log_generator(), grid=[1.0, 2.0], lambdas=())
    with pytest.raises(DomainError):
        check_psi_convexity(np.exp, log_generator(), grid=[1.0, 2.0], lambdas=(1.5,))
    with pytest.raises(DomainError):
        check_psi_convexity(np.exp, log_generator(), grid=[-1.0, 2.0], lambdas=(0.5,))


@given(
    q=st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0, 3.0]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=120, deadline=None)
def test_entropy_continuity_in_q(q, seed):
    # I_q^psi through the deformed-log generator stays close to H_q through
    # the direct formula even straddling the q = 1 switch
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    w = rng.uniform(0.1, 1.0, n)
    p = ProbDist(w / w.sum())
    h = tsallis_entropy(p, q)
    val = tsallis_quasilinear_entropy(lnq_generator(q), p, q)
    assert val == pytest.approx(h, rel=1e-9, abs=1e-9)
