import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import (
    BoundReport,
    ConsistencyError,
    DegenerateRangeError,
    DomainError,
    HypothesisError,
    ProbDist,
    SecondDerivativeRange,
    cartwright_field,
    cross_term_gap_sandwich,
    f_divergence_sandwich,
    identity_generator,
    jensen_gap,
    kl_divergence,
    lagrange_identity,
    lnq_generator,
    log_generator,
    make_dist,
    maxent_variance_bounds,
    neglog_generator,
    pairwise_spread,
    q_log,
    quasilinear_vs_tsallis_bounds,
    ratio_sandwich,
    refined_maxent_bounds,
    shannon_entropy,
    smooth_jensen_sandwich,
    tightest_constants,
    tsallis_cross_entropy_sandwich,
    tsallis_entropy,
    tsallis_generator,
)


def _sq(x):
    return np.asarray(x) ** 2


def _exact_spread(xs, w) -> float:
    # sum_{i<j} w_i w_j (x_j - x_i)^2 in exact rational arithmetic
    x = [Fraction(v) for v in xs]
    f = [Fraction(v) for v in w]
    n = len(x)
    return float(sum(f[i] * f[j] * (x[j] - x[i]) ** 2 for i in range(n) for j in range(i + 1, n)))


def _exact_lagrange(a, b) -> float:
    # sum_{i<j} (a_i b_j - a_j b_i)^2 in exact rational arithmetic
    fa = [Fraction(v) for v in a]
    fb = [Fraction(v) for v in b]
    n = len(fa)
    return float(
        sum((fa[i] * fb[j] - fa[j] * fb[i]) ** 2 for i in range(n) for j in range(i + 1, n))
    )


# --- BoundReport -----------------------------------------------------------


def test_bound_report_slacks_and_violation():
    rep = BoundReport(lower=1.0, value=2.0, upper=4.0)
    assert rep.lower_slack == pytest.approx(1.0)
    assert rep.upper_slack == pytest.approx(2.0)
    assert rep.violation() == pytest.approx(-1.0)
    assert rep.holds()
    broken = BoundReport(lower=3.0, value=2.0, upper=4.0)
    assert broken.violation() == pytest.approx(1.0)
    assert not broken.holds()
    d = rep.as_dict()
    assert list(d) == ["lower", "value", "upper", "lower_slack", "upper_slack"]


def test_bound_report_tolerance_is_abs_plus_rel():
    # violation just under tol_abs + tol_rel * scale still holds
    rep = BoundReport(lower=100.0 + 5e-8, value=100.0, upper=200.0)
    assert rep.holds(tol_abs=1e-9, tol_rel=1e-9)
    rep2 = BoundReport(lower=100.0 + 3e-7, value=100.0, upper=200.0)
    assert not rep2.holds(tol_abs=1e-9, tol_rel=1e-9)


def test_second_derivative_range_validation():
    SecondDerivativeRange(0.25, 1.0, (1.0, 2.0))
    SecondDerivativeRange(2.0, 2.0, (3.0, 3.0))  # uniform curvature is fine
    with pytest.raises(DomainError):
        SecondDerivativeRange(2.0, 1.0, (1.0, 2.0))  # m > M
    with pytest.raises(DomainError):
        SecondDerivativeRange(-1.0, 1.0, (1.0, 2.0))
    with pytest.raises(DomainError):
        SecondDerivativeRange(0.5, 1.0, (2.0, 1.0))  # reversed interval
    with pytest.raises(DomainError):
        SecondDerivativeRange(math.nan, 1.0, (1.0, 2.0))


# --- Jensen gaps and the ratio sandwich -------------------------------------


def test_jensen_gap_hand_value():
    p = make_dist([0.5, 0.5])
    gap = jensen_gap(_sq, identity_generator(), [1.0, 3.0], p)
    assert gap == pytest.approx(1.0, abs=1e-14)  # (1+9)/2 - 2^2


def test_jensen_gap_nonnegative_for_convex():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        xs = rng.uniform(0.1, 10.0, n)
        w = rng.exponential(size=n)
        p = ProbDist(w / w.sum())
        assert jensen_gap(_sq, identity_generator(), xs, p) >= -1e-12
        assert jensen_gap(np.exp, log_generator(), xs, p) >= -1e-12


def test_jensen_gap_hypothesis_validation():
    p = make_dist([0.5, 0.5])
    with pytest.raises(HypothesisError):
        jensen_gap(lambda x: -np.asarray(x) ** 2, identity_generator(), [1.0, 3.0], p,
                   validate_hypothesis=True)
    # compatible pair passes with validation on
    gap = jensen_gap(_sq, identity_generator(), [1.0, 3.0], p, validate_hypothesis=True)
    assert gap == pytest.approx(1.0, abs=1e-14)


def test_ratio_sandwich_hand_value():
    p = make_dist([0.5, 0.5])
    r = make_dist([0.25, 0.75])
    rep = ratio_sandwich(_sq, identity_generator(), [1.0, 2.0], p, r)
    assert rep.lower == pytest.approx(0.125, abs=1e-14)
    assert rep.value == pytest.approx(0.1875, abs=1e-14)
    assert rep.upper == pytest.approx(0.375, abs=1e-14)
    assert rep.holds()


def test_ratio_sandwich_equal_dists_collapses():
    p = make_dist([0.3, 0.7])
    rep = ratio_sandwich(_sq, identity_generator(), [1.0, 4.0], p, p)
    assert rep.lower == pytest.approx(rep.value, rel=1e-12)
    assert rep.upper == pytest.approx(rep.value, rel=1e-12)


# --- quasilinear vs deformed entropy ----------------------------------------


def test_refined_maxent_hand_value():
    r = make_dist([0.25, 0.75])
    rep = refined_maxent_bounds(r, 2.0)
    assert rep.lower == pytest.approx(0.0625, abs=1e-14)
    assert rep.value == pytest.approx(0.125, abs=1e-13)
    assert rep.upper == pytest.approx(0.1875, abs=1e-14)
    assert rep.holds()
    assert rep.lower >= 0.0


def test_refined_maxent_q1_oracle():
    r = make_dist([0.2, 0.3, 0.5])
    rep = refined_maxent_bounds(r, 1.0)
    inv = 1.0 / r.weights
    braced = math.log(float(np.mean(inv))) - float(np.mean(np.log(inv)))
    assert rep.value == pytest.approx(math.log(3.0) - shannon_entropy(r), rel=1e-13)
    assert rep.lower == pytest.approx(3 * 0.2 * braced, rel=1e-13)
    assert rep.upper == pytest.approx(3 * 0.5 * braced, rel=1e-13)


def test_refined_maxent_matches_identity_generator():
    rng = np.random.default_rng(43)
    for q in (0.0, 0.5, 1.0, 2.0, 3.0):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            w = rng.exponential(size=n) + 0.01
            r = ProbDist(w / w.sum())
            a = refined_maxent_bounds(r, q)
            b = quasilinear_vs_tsallis_bounds(identity_generator(), r, q)
            assert a.lower == pytest.approx(b.lower, rel=1e-10, abs=1e-12)
            assert a.value == pytest.approx(b.value, rel=1e-10, abs=1e-12)
            assert a.upper == pytest.approx(b.upper, rel=1e-10, abs=1e-12)


def test_uniform_r_pins_the_gap_to_zero():
    u = make_dist([0.25, 0.25, 0.25, 0.25])
    rep = refined_maxent_bounds(u, 2.0)
    assert rep.lower == pytest.approx(0.0, abs=1e-14)
    assert rep.value == pytest.approx(0.0, abs=1e-14)
    assert rep.upper == pytest.approx(0.0, abs=1e-14)


def test_quasilinear_gap_validates_hypothesis():
    r = make_dist([0.25, 0.75])
    # psi = log against -ln_q with q < 1 is incompatible
    with pytest.raises(HypothesisError):
        quasilinear_vs_tsallis_bounds(log_generator(), r, 0.5, validate_hypothesis=True)
    rep = quasilinear_vs_tsallis_bounds(log_generator(), r, 2.0, validate_hypothesis=True)
    assert rep.holds()


def test_quasilinear_gap_with_lnq_generator_is_zero():
    r = make_dist([0.2, 0.8])
    rep = quasilinear_vs_tsallis_bounds(lnq_generator(2.0), r, 2.0)
    assert rep.value == pytest.approx(0.0, abs=1e-13)


# --- f-divergence sandwich ---------------------------------------------------


def test_f_divergence_sandwich_hand_value():
    p = make_dist([0.5, 0.5])
    r = make_dist([0.25, 0.75])
    rep = f_divergence_sandwich(tsallis_generator(2.0), p, r)
    assert rep.lower == pytest.approx(2.0 / 9.0, rel=1e-13)
    assert rep.value == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert rep.upper == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert rep.holds()
    assert rep.lower >= 0.0


def test_f_divergence_sandwich_factor_oracle():
    # the scaled factor must equal sum_j p_j f(p_j/r_j) - f(sum_j p_j^2/r_j)
    rng = np.random.default_rng(47)
    for f in (tsallis_generator(2.0), tsallis_generator(0.5), neglog_generator()):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            a, b = rng.exponential(size=n), rng.exponential(size=n)
            p, r = ProbDist(a / a.sum()), ProbDist(b / b.sum())
            rep = f_divergence_sandwich(f, p, r)
            t_sum = float((p.weights**2 / r.weights).sum())
            factor = float(p.weights @ np.asarray(f.eval(p.weights / r.weights))) - float(
                np.asarray(f.eval(np.asarray(t_sum)))
            )
            ratios = r.weights / p.weights
            assert rep.lower == pytest.approx(float(ratios.min()) * factor, rel=1e-10, abs=1e-12)
            assert rep.upper == pytest.approx(float(ratios.max()) * factor, rel=1e-10, abs=1e-12)
            assert factor >= -1e-12


def test_reversed_kl_sandwich():
    p = make_dist([0.5, 0.5])
    r = make_dist([0.25, 0.75])
    rep = f_divergence_sandwich(neglog_generator(), p, r)
    assert rep.value == pytest.approx(kl_divergence(r, p), rel=1e-13)
    assert rep.holds()


# --- spread, Lagrange, smooth Jensen ----------------------------------------


def test_pairwise_spread_hand_value():
    p = make_dist([0.5, 0.5])
    assert pairwise_spread([0.0, 1.0], p) == pytest.approx(0.25, abs=1e-15)
    q = make_dist([0.25, 0.75])
    # variance of x under q: E x = 0.75, E x^2 = 0.75 -> var = 0.1875
    assert pairwise_spread([0.0, 1.0], q) == pytest.approx(0.1875, abs=1e-15)


def test_pairwise_spread_matches_variance_form():
    rng = np.random.default_rng(53)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        xs = rng.normal(0.0, 3.0, n)
        w = rng.exponential(size=n)
        p = ProbDist(w / w.sum())
        mean = float(p.weights @ xs)
        var = float(p.weights @ (xs - mean) ** 2)
        assert pairwise_spread(xs, p) == pytest.approx(var, rel=1e-10, abs=1e-13)


def test_lagrange_identity_hand_value():
    lhs, rhs = lagrange_identity([1.0, 2.0], [3.0, 4.0])
    assert lhs == pytest.approx(4.0, abs=1e-12)
    assert rhs == pytest.approx(4.0, abs=1e-12)


def test_lagrange_identity_random():
    rng = np.random.default_rng(59)
    for _ in range(60):
        n = int(rng.integers(2, 32))
        a, b = rng.normal(size=n), rng.normal(size=n)
        lhs, rhs = lagrange_identity(a, b)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
        assert rhs >= -1e-12  # Cauchy-Schwarz residual form


def test_spread_and_lagrange_match_exact_double_sum():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(2, 65))
        xs = rng.normal(0.0, 3.0, n)
        w = rng.exponential(size=n)
        p = ProbDist(w / w.sum())
        assert pairwise_spread(xs, p) == pytest.approx(_exact_spread(xs, p.weights), rel=1e-12)
        a, b = rng.normal(size=n), rng.normal(size=n)
        exact = _exact_lagrange(a, b)
        lhs, rhs = lagrange_identity(a, b)
        assert lhs == pytest.approx(exact, rel=1e-10)
        assert rhs == pytest.approx(exact, rel=1e-12)


def test_lagrange_rhs_accurate_for_nearly_parallel_vectors():
    # lhs cancels catastrophically here; the projection route must not
    rng = np.random.default_rng(67)
    for _ in range(40):
        n = int(rng.integers(2, 65))
        a = rng.normal(size=n)
        b = 3.0 * a + 1e-5 * rng.normal(size=n)
        _, rhs = lagrange_identity(a, b)
        assert rhs >= 0.0
        assert rhs == pytest.approx(_exact_lagrange(a, b), rel=1e-8)


def test_lagrange_identity_zero_vector():
    assert lagrange_identity([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]) == (0.0, 0.0)


def test_smooth_jensen_hand_value():
    p = make_dist([0.5, 0.5])
    rep = smooth_jensen_sandwich(
        lambda x: -np.log(np.asarray(x)),
        SecondDerivativeRange(0.25, 1.0, (1.0, 2.0)),
        [1.0, 2.0],
        p,
    )
    assert rep.lower == pytest.approx(0.03125, abs=1e-15)
    assert rep.value == pytest.approx(math.log(1.5) - 0.5 * math.log(2.0), rel=1e-13)
    assert rep.upper == pytest.approx(0.125, abs=1e-15)
    assert rep.holds()


def test_smooth_jensen_rejects_points_outside_interval():
    p = make_dist([0.5, 0.5])
    with pytest.raises(DomainError):
        smooth_jensen_sandwich(_sq, SecondDerivativeRange(2.0, 2.0, (0.0, 1.0)), [0.5, 3.0], p)


def test_cartwright_field_hand_value():
    p = make_dist([0.5, 0.5])
    rep = cartwright_field([1.0, 4.0], p)
    assert rep.lower == pytest.approx(0.28125, abs=1e-14)  # 2.25 / (2*4)
    assert rep.value == pytest.approx(0.5, abs=1e-14)  # 2.5 - 2
    assert rep.upper == pytest.approx(1.125, abs=1e-14)  # 2.25 / (2*1)
    assert rep.holds()


def test_cartwright_field_requires_positive_points():
    p = make_dist([0.5, 0.5])
    with pytest.raises(DomainError):
        cartwright_field([-1.0, 4.0], p)


def test_cartwright_field_equal_points_collapse():
    p = make_dist([0.3, 0.7])
    rep = cartwright_field([2.0, 2.0], p)
    assert rep.lower == pytest.approx(0.0, abs=1e-15)
    assert rep.value == pytest.approx(0.0, abs=1e-14)
    assert rep.upper == pytest.approx(0.0, abs=1e-15)


# --- tightest constants and the cross-entropy chain -------------------------


def test_tightest_constants_hand_values():
    p = make_dist([0.25, 0.75])
    r = make_dist([0.5, 0.5])
    dr = tightest_constants(p, r, 1.0)
    assert dr.m == pytest.approx(0.0625, abs=1e-15)  # 1 * 0.25^2
    assert dr.M == pytest.approx(0.5625, abs=1e-15)  # 1 * 0.75^2
    assert dr.interval[0] == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert dr.interval[1] == pytest.approx(4.0, rel=1e-14)


def test_tightest_constants_uniform():
    u = make_dist([0.5, 0.5])
    dr = tightest_constants(u, u, 2.0)
    assert dr.m == pytest.approx(0.25, abs=1e-15)  # 2 * 0.5^3
    assert dr.M == pytest.approx(0.25, abs=1e-15)
    assert dr.interval == (2.0, 2.0)


def test_tightest_constants_degenerate_at_q_zero():
    p = make_dist([0.5, 0.5])
    with pytest.raises(DegenerateRangeError):
        tightest_constants(p, p, 0.0)


def test_tightest_constants_bound_the_curvature():
    # q x^(-q-1) over the hull really is within [m, M]
    rng = np.random.default_rng(61)
    for q in (0.5, 1.0, 2.0, 3.0):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a, b = rng.exponential(size=n) + 0.05, rng.exponential(size=n) + 0.05
            p, r = ProbDist(a / a.sum()), ProbDist(b / b.sum())
            dr = tightest_constants(p, r, q)
            xs = np.linspace(dr.interval[0], dr.interval[1], 41)
            curv = q * xs ** (-q - 1.0)
            assert np.all(curv >= dr.m - 1e-12 * (1 + dr.m))
            assert np.all(curv <= dr.M + 1e-12 * (1 + dr.M))


def test_cross_entropy_sandwich_term_oracle():
    p = make_dist([0.25, 0.75])
    r = make_dist([0.5, 0.5])
    q = 2.0
    dr = tightest_constants(p, r, q)
    rep = tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M)
    w = p.weights
    base = q_log(float(np.sum(w / r.weights)), q) - q_log(2.0, q)
    spread_p = pairwise_spread(1.0 / w, p)
    spread_r = pairwise_spread(1.0 / r.weights, p)
    cross = float(w @ np.asarray(q_log(1.0 / r.weights, q)))
    assert rep.value == pytest.approx(cross - tsallis_entropy(p, q), rel=1e-13)
    assert rep.lower == pytest.approx(base + 0.5 * dr.m * spread_p - 0.5 * dr.M * spread_r,
                                      rel=1e-13)
    assert rep.upper == pytest.approx(base + 0.5 * dr.M * spread_p - 0.5 * dr.m * spread_r,
                                      rel=1e-13)
    assert rep.holds()


def test_intermediate_sandwiches_hold():
    rng = np.random.default_rng(67)
    for q in (0.5, 1.0, 2.0, 3.0):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            a, b = rng.exponential(size=n) + 0.1, rng.exponential(size=n) + 0.1
            p, r = ProbDist(a / a.sum()), ProbDist(b / b.sum())
            dr = tightest_constants(p, r, q)
            assert maxent_variance_bounds(p, q, dr.m, dr.M).holds()
            assert cross_term_gap_sandwich(p, r, q, dr.m, dr.M).holds()
            assert tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M).holds()


def test_cross_entropy_chain_equal_dists_straddles_zero():
    p = make_dist([0.3, 0.7])
    dr = tightest_constants(p, p, 2.0)
    rep = tsallis_cross_entropy_sandwich(p, p, 2.0, dr.m, dr.M)
    assert rep.value == pytest.approx(0.0, abs=1e-14)
    assert rep.lower <= 0.0 <= rep.upper


def test_cross_entropy_chain_continuity_at_q1():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a, b = rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n)
        p, r = ProbDist(a / a.sum()), ProbDist(b / b.sum())
        dr1 = tightest_constants(p, r, 1.0)
        base_rep = tsallis_cross_entropy_sandwich(p, r, 1.0, dr1.m, dr1.M)
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            dr = tightest_constants(p, r, q)
            rep = tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M)
            for got, want in zip(
                (rep.lower, rep.value, rep.upper),
                (base_rep.lower, base_rep.value, base_rep.upper),
            ):
                assert got == pytest.approx(want, abs=1e-5 * (1 + abs(want)))


def test_pairwise_spread_consistency_guard():
    # the two internal routes agree on ordinary data; the guard exists for
    # pathological cancellation and must not fire here
    p = make_dist([0.5, 0.5])
    assert pairwise_spread([1e8, 1e8 + 1.0], p) == pytest.approx(0.25, rel=1e-6)
    # at 1e16 the rounded mean is off by an ulp (2.0), so the variance form
    # reads 8/3 where the true spread is 8/9; the second route sees it
    with pytest.raises(ConsistencyError, match="disagree"):
        pairwise_spread([1e16, 1e16 + 2.0], make_dist([1 / 3, 2 / 3]))


def _fsum_guard_fires(xs, w) -> bool:
    # The earlier guard, kept as a reference: the corrected two-pass form
    # with both sums correctly rounded by math.fsum.
    d = xs - float(w @ xs)
    s_var = float(w @ d**2)
    wd = w * d
    s_two = math.fsum((wd * d).tolist()) - math.fsum(wd.tolist()) ** 2
    return abs(s_two - s_var) > 1e-10 * (1.0 + max(abs(s_two), abs(s_var)))


def test_pairwise_spread_guard_matches_fsum_reference():
    # Huge offsets with small spreads make the rounded mean wrong and the
    # guard fire; the dot-product guard must decide exactly as the fsum
    # reference does, and the returned variance form must be untouched.
    rng = np.random.default_rng(79)
    fired = kept = 0
    for n in (2, 3, 16, 1024, 4096):
        for offset in 10.0 ** np.arange(0, 18):
            for spread in 10.0 ** np.arange(-10, 9):
                w = rng.exponential(size=n)
                p = ProbDist(w / w.sum())
                xs = offset + spread * rng.normal(size=n)
                if _fsum_guard_fires(xs, p.weights):
                    fired += 1
                    with pytest.raises(ConsistencyError, match="disagree"):
                        pairwise_spread(xs, p)
                else:
                    kept += 1
                    want = float(p.weights @ (xs - float(p.weights @ xs)) ** 2)
                    assert pairwise_spread(xs, p) == want
    # the grid exercises both sides of the guard
    assert fired > 100 and kept > 100


def test_spread_kernels_run_in_linear_memory():
    # One n x n float64 temporary is 128 MiB at n = 4096 and 32 GiB at
    # n = 65536; the small size runs first so that a quadratic kernel fails
    # the assertion before it can ask for the large one.
    rng = np.random.default_rng(71)
    for n in (4096, 65536):
        a, b = rng.exponential(size=n) + 1e-3, rng.exponential(size=n) + 1e-3
        p, r = ProbDist(a / a.sum()), ProbDist(b / b.sum())
        xs = rng.normal(size=n)
        tracemalloc.start()
        try:
            pairwise_spread(xs, p)
            lagrange_identity(a, b)
            dr = tightest_constants(p, r, 2.0)
            rep = tsallis_cross_entropy_sandwich(p, r, 2.0, dr.m, dr.M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"n={n}: peak {peak} bytes"
        assert rep.holds()


@given(seed=st.integers(0, 100_000), q=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=200, deadline=None)
def test_chain_property_random(seed, q):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    a, b = rng.exponential(size=n) + 1e-3, rng.exponential(size=n) + 1e-3
    p, r = ProbDist(a / a.sum()), ProbDist(b / b.sum())
    dr = tightest_constants(p, r, q)
    rep = tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M)
    assert rep.holds(tol_abs=1e-9, tol_rel=1e-9)
