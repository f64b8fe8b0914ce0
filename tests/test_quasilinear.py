import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import (
    ConvexGenerator,
    DomainError,
    GeneratorError,
    GeneratorPsi,
    LengthMismatchError,
    ProbDist,
    check_psi_convexity,
    dual_generator,
    identity_generator,
    kl_divergence,
    lnq_generator,
    log_generator,
    make_dist,
    neg_qlog_generator,
    neglog_generator,
    psi_by_label,
    quasilinear_mean,
    renyi_entropy,
    renyi_relative,
    renyi_tsallis_bridge,
    renyi_tsallis_relative_bridge,
    shannon_entropy,
    tsallis_entropy,
    tsallis_quasilinear_entropy,
    tsallis_quasilinear_relative,
    tsallis_relative,
)
from qentropy import qmath

import oracle

HALF = None  # set in fixtures below


@pytest.fixture
def p_quarter():
    return make_dist([0.25, 0.75])


@pytest.fixture
def p_half():
    return make_dist([0.5, 0.5])


def test_log_mean_is_geometric_mean(p_half):
    assert quasilinear_mean(log_generator(), [1.0, 4.0], p_half) == pytest.approx(2.0, rel=1e-14)


def test_reciprocal_mean_is_harmonic_mean(p_half):
    # psi = 1/x decreases, which validation reads off the forward: nothing declares it
    psi = GeneratorPsi(forward=lambda x: 1.0 / x, inverse=lambda y: 1.0 / y, label="reciprocal")
    assert quasilinear_mean(psi, [1.0, 4.0], p_half) == pytest.approx(1.6, rel=1e-14)


def test_identity_mean_is_arithmetic_mean(p_quarter):
    m = quasilinear_mean(identity_generator(), [1.0, 5.0], p_quarter)
    assert m == pytest.approx(4.0, rel=1e-14)


def test_mean_between_extremes():
    rng = np.random.default_rng(7)
    for psi in (identity_generator(), log_generator(), lnq_generator(2.0), lnq_generator(0.5)):
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
    val = tsallis_quasilinear_entropy(lnq_generator(2.0), p_quarter, 2.0)
    assert val == pytest.approx(0.375, abs=1e-14)
    assert val == pytest.approx(1.0 - float(p_quarter.weights @ p_quarter.weights), abs=1e-14)


def test_undeformed_power_entropy_is_renyi(p_quarter):
    val = tsallis_quasilinear_entropy(lnq_generator(2.0), p_quarter, 1.0)
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
        d = tsallis_relative(p, r, q)
        tol_d = 1e-10 * (1.0 + abs(d))
        assert abs(tsallis_quasilinear_relative(lnq_generator(q), p, r, q) - d) <= tol_d
        # undeformed outer index: the ln_q generator reproduces the collision family
        rq = renyi_entropy(p, q)
        assert abs(tsallis_quasilinear_entropy(lnq_generator(q), p, 1.0) - rq) <= 1e-10 * (1.0 + abs(rq))
        rr = renyi_relative(p, r, q)
        assert abs(tsallis_quasilinear_relative(lnq_generator(q), p, r, 1.0) - rr) <= 1e-10 * (1.0 + abs(rr))
        kl = kl_divergence(p, r)
        assert abs(tsallis_quasilinear_relative(log_generator(), p, r, 1.0) - kl) <= 1e-10 * (1.0 + abs(kl))


def test_undeformed_log_entropy_is_shannon():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        w = rng.exponential(size=n)
        p = ProbDist(w / w.sum())
        h = shannon_entropy(p)
        assert tsallis_quasilinear_entropy(log_generator(), p, 1.0) == pytest.approx(h, rel=1e-10, abs=1e-12)


def test_lnq_generator_q1_limit_is_log():
    psi = lnq_generator(1.0)
    assert psi.label == "lnq[q=1]"
    xs = np.array([0.5, 1.0, 2.0, 10.0])
    np.testing.assert_allclose(psi.forward(xs), np.log(xs), atol=1e-15)


def test_generator_labels_and_lookup():
    assert psi_by_label("identity").label == "identity"
    assert psi_by_label("log").label == "log"
    assert psi_by_label("lnq", 2.0).label == "lnq[q=2]"
    assert psi_by_label("lnq", 0.5).label == "lnq[q=0.5]"
    with pytest.raises(DomainError):
        psi_by_label("lnq")
    with pytest.raises(DomainError):
        psi_by_label("sqrt")
    # x^(1-q) is the ln_q family's forward, not a generator of its own
    with pytest.raises(DomainError, match=r"^unknown generator label 'power' \(use identity, log, lnq\)$"):
        psi_by_label("power", 2.0)
    # log and neglog are ln_q-family generators under their own labels; a
    # bad q is reported under the label that was asked for
    for build in (lambda: lnq_generator(60), lambda: psi_by_label("lnq", 60)):
        with pytest.raises(GeneratorError, match=r"'lnq\[q=60\]'"):
            build()
    assert lnq_generator(0.9).label == "lnq[q=0.9]"
    assert neglog_generator().label == "neglog"
    assert dual_generator(neglog_generator()).label == "xlogx"


def test_generator_factories_are_memoized_on_q():
    q = 0.3183098862  # a q no other test builds
    psi = lnq_generator(q)
    assert lnq_generator(np.float64(q)) is psi
    assert psi_by_label("lnq", q) is psi
    assert lnq_generator(1.5) is not psi
    assert identity_generator() is psi_by_label("identity")
    assert log_generator() is psi_by_label("log")
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            lnq_generator(bad)
        with pytest.raises(DomainError):
            psi_by_label("lnq", bad)


def test_generator_validation_rejects_non_monotone():
    with pytest.raises(GeneratorError):
        GeneratorPsi(forward=np.cos, inverse=np.arccos, label="cos")
    with pytest.raises(GeneratorError):
        GeneratorPsi(forward=lambda x: np.ones_like(x), inverse=lambda y: y, label="flat")


def test_generator_validation_rejects_wrong_direction():
    # the direction is the forward's own, read between the grid's ends; one step
    # against it is rejected, whichever way the forward runs
    for sign in (1.0, -1.0):
        with pytest.raises(GeneratorError, match="not strictly monotonic"):
            GeneratorPsi(
                forward=lambda x, s=sign: s * (np.log(x) - (x >= 1.0)),
                inverse=lambda y, s=sign: np.exp(s * y),
                label="stepped",
            )


def test_generator_validation_rejects_bad_inverse():
    with pytest.raises(GeneratorError):
        GeneratorPsi(forward=np.log, inverse=lambda y: np.exp(y) + 1.0, label="shifted")


def test_generator_validation_rejects_overflow():
    with pytest.raises(GeneratorError):
        GeneratorPsi(
            forward=lambda x: np.exp(np.asarray(x, dtype=float) ** 8),
            inverse=lambda y: np.log(y) ** 0.125,
            label="blow-up",
        )


def _square_in_place(x):
    x *= x
    return np.zeros_like(x)


# one row per generator kind; each builds lnq at a q no other test builds
WRITERS = {
    "psi-forward": (
        lambda: GeneratorPsi(forward=lambda x: np.log(x, out=x), inverse=np.exp, label="writes"),
        0.37,
    ),
    "convex-eval": (lambda: ConvexGenerator(eval=_square_in_place, label="writes"), 0.41),
}


@pytest.mark.parametrize("build, fresh_q", WRITERS.values(), ids=WRITERS.keys())
def test_generator_that_writes_into_its_argument_is_rejected(build, fresh_q):
    # the grid is read-only: such a generator is refused by name, with no raw
    # warning, and leaves the grid as it was for every later generator
    grid = qmath._GENERATOR_GRID.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(GeneratorError, match=r"^generator 'writes' writes into the grid: .*read-only"):
            build()
    assert not qmath._GENERATOR_GRID.flags.writeable
    assert np.array_equal(qmath._GENERATOR_GRID, grid)
    assert lnq_generator(fresh_q).label == f"lnq[q={fresh_q:g}]"


def _own_value_error(x):
    raise ValueError("a reason of its own")


# a ValueError that is not the read-only grid's is the generator's to report
OWN_ERRORS = {
    "psi-forward": lambda: GeneratorPsi(forward=_own_value_error, inverse=np.exp, label="own"),
    "convex-eval": lambda: ConvexGenerator(eval=_own_value_error, label="own"),
}


@pytest.mark.parametrize("build", OWN_ERRORS.values(), ids=OWN_ERRORS.keys())
def test_generator_value_error_of_its_own_propagates(build):
    with pytest.raises(ValueError, match="^a reason of its own$") as info:
        build()
    assert not isinstance(info.value, GeneratorError)


@pytest.mark.parametrize("factory", [lnq_generator, neg_qlog_generator])
def test_generator_validation_raises_no_raw_warning(factory):
    # At large q the slope of the generator near the bottom of the
    # validation grid exceeds a double; validation must either build the
    # generator or reject it with a GeneratorError, never emit a numpy
    # RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for q in np.arange(0.0, 60.25, 0.5):
            try:
                factory(float(q))
            except GeneratorError:
                pass


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
    # a NaN would make the violations NaN, and an incompatible pair "hold"
    with pytest.raises(DomainError, match="lambdas must lie in"):
        check_psi_convexity(np.exp, log_generator(), grid=[1.0, 2.0], lambdas=(math.nan,))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite points"):
            check_psi_convexity(np.exp, log_generator(), grid=[1.0, 2.0, bad], lambdas=(0.5,))


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


def _dyadic_simplex(rng, n, spread):
    # weights k / 2^40 with integer k summing to 2^40: exact doubles summing
    # to exactly 1, so the x^(1-q) and ln_q forms of the mean are one number.
    # Masses differ by up to a factor e^spread.  Near a point mass H_q -> 0,
    # and rounding the mean exp_q(H_q) ~ 1 + H_q to a double alone costs
    # eps/H_q relative, so small n keep the spread small.
    g = np.exp(rng.uniform(-spread, 0.0, n))
    k = np.floor(g / g.sum() * 2.0**40) + 1.0
    k[np.argmax(k)] += 2.0**40 - k.sum()
    return ProbDist(k / 2.0**40)


# q near 1, where the ln_q family is ln_q / exp_q, and far from it, where it
# is x^(1-q); the far q see larger n with more spread-out masses
NEAR_ONE = [1 + s * e for e in (1e-2, 1e-4, 1e-6, 2e-8) for s in (-1, 1)]
FAR = [0.25, 1.5, 3.0, 10.0, 30.0]


@pytest.mark.parametrize("q", NEAR_ONE + FAR)
def test_power_mean_matches_decimal_oracle(q):
    rng = np.random.default_rng(20261018)
    shapes = [(n, math.log(10.0)) for n in (2, 3, 5, 8, 16) for _ in range(4)]
    if q in FAR:
        shapes += [(1024, 8.0)] * 2
    psi = lnq_generator(q)
    for n, spread in shapes:
        p, r = _dyadic_simplex(rng, n, spread), _dyadic_simplex(rng, n, spread)
        h, rh, d, rd = oracle.entropies(p, r, q)
        assert abs(tsallis_quasilinear_entropy(psi, p, q) - h) <= 1e-13 * abs(h)
        assert abs(tsallis_quasilinear_entropy(psi, p, 1.0) - rh) <= 1e-13 * abs(rh)
        assert abs(tsallis_quasilinear_relative(psi, p, r, q) - d) <= 1e-13 * (1.0 + abs(d))
        assert abs(tsallis_quasilinear_relative(psi, p, r, 1.0) - rd) <= 1e-13 * (1.0 + abs(rd))


# 1 - q from 1e-10 out to 9, for the direct forms and both bridges
EXACT_NEAR_ONE = [1 + s * e for e in (1e-4, 1e-6, 1e-8, 2e-8, 1e-10) for s in (-1, 1)]
EXACT_FAR = [0.25, 1.5, 3.0, 10.0]


@pytest.mark.parametrize("q", EXACT_NEAR_ONE + EXACT_FAR)
def test_entropies_and_bridges_match_decimal_oracle(q):
    rng = np.random.default_rng(20261019)
    shapes = [(n, math.log(10.0)) for n in (2, 3, 5, 8, 16) for _ in range(4)]
    if q in EXACT_FAR:
        shapes += [(1024, 8.0)] * 2
    # far from one R_q(p||r) is a log-space sum, whose rounding is absolute
    # rather than relative: at q = 0.25, for a p near r, 2.2e-13 relative
    rd_scale = 0.0 if abs(1.0 - q) < 0.5 else 1.0
    for n, spread in shapes:
        p, r = _dyadic_simplex(rng, n, spread), _dyadic_simplex(rng, n, spread)
        h, rh, d, rd = oracle.entropies(p, r, q)
        assert abs(tsallis_entropy(p, q) - h) <= 1e-13 * abs(h)
        assert abs(renyi_entropy(p, q) - rh) <= 1e-13 * abs(rh)
        assert abs(tsallis_relative(p, r, q) - d) <= 1e-13 * abs(d)
        assert abs(renyi_relative(p, r, q) - rd) <= 1e-13 * (rd_scale + abs(rd))
        # exp_q of an H_q near its supremum 1/(q-1) multiplies the rounding
        # of H_q by 1/sum p^q: 6.5e-13 relative at q = 3 for n = 1024, and
        # 4e-10 at q = 10, in whatever form H_q is computed
        if n <= 16 and q <= 3.0:
            for side in renyi_tsallis_bridge(p, q):
                assert abs(side - math.exp(rh)) <= 1e-13 * math.exp(rh)
        # exp R_q(p||r) = exp_{2-q} D_q(p||r) needs 2 - q >= 0
        if q <= 2.0:
            for side in renyi_tsallis_relative_bridge(p, r, q):
                assert abs(side - math.exp(rd)) <= 1e-13 * math.exp(rd)


def test_power_mean_is_exact_where_ln_q_saturates():
    # ln_q(128) at q = 10 rounds onto its supremum 1/9, where exp_q is
    # undefined; x^(1-q) = 2^-63 keeps the whole value
    uniform = ProbDist(np.full(128, 1 / 128))
    assert tsallis_quasilinear_entropy(lnq_generator(10.0), uniform, 1.0) == math.log(128)
    # through ln_q, exp_q would multiply the rounding by M^(q-1) ~ 5e6 here
    w = np.exp(np.random.default_rng(3).uniform(-8.0, 0.0, 10_000))
    p = ProbDist(w / w.sum())
    renyi = renyi_entropy(p, 3.0)
    assert tsallis_quasilinear_entropy(lnq_generator(3.0), p, 1.0) == pytest.approx(renyi, rel=1e-13)
