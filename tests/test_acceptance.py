"""Shipping gate: the eight acceptance criteria, one test per criterion.

The pytest -v status line is the pass/fail record for each criterion; run
with -s to also see the per-criterion summary lines (counts, worst
residuals, the strictness fraction).
"""

import math

import numpy as np
import pytest

from qentropy import (
    JointDist,
    Partition,
    ProbDist,
    cartwright_field,
    chain_rule_decomposition,
    coarsen,
    f_divergence,
    han_sandwich,
    kl_divergence,
    lnq_generator,
    log_generator,
    make_dist,
    refined_maxent_bounds,
    renyi_entropy,
    renyi_relative,
    renyi_tsallis_bridge,
    renyi_tsallis_relative_bridge,
    run_case,
    run_registry,
    sample_simplex,
    shannon_entropy,
    tightest_constants,
    tsallis_cross_entropy_sandwich,
    tsallis_entropy,
    tsallis_generator,
    tsallis_joint_entropy,
    tsallis_quasilinear_entropy,
    tsallis_quasilinear_relative,
    tsallis_relative,
    verify,
)

TRIALS = 10_000
SEED = 42


def _summary(label: str, detail: str) -> None:
    print(f"[acceptance] {label}: PASS ({detail})")


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def _by_case(reports):
    return {r.case: r for r in reports}


@pytest.fixture(scope="module")
def registry_run_a():
    return run_registry(trials=TRIALS, seed=SEED)


@pytest.fixture(scope="module")
def registry_run_b():
    # three trial ranges, where registry_run_a takes one per usable CPU
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "_usable_cpus", lambda: 3)
        return run_registry(trials=TRIALS, seed=SEED)


def test_criterion_01_inequality_registry_clean(registry_run_a):
    bad = [r for r in registry_run_a if r.in_hypothesis and r.violations]
    assert not bad, "cases with violations: " + ", ".join(
        f"{r.case} ({r.violations}, worst {r.worst_violation:.3e})" for r in bad
    )
    assert all(r.trials == TRIALS and r.seed == SEED for r in registry_run_a)
    worst = max(r.worst_violation for r in registry_run_a)
    _summary(
        "1 inequality registry",
        f"{len(registry_run_a)} cases x {TRIALS} trials, worst residual {worst:.3e}",
    )


def test_criterion_02_bridge_identities(registry_run_a):
    by = _by_case(registry_run_a)
    for cid in ("id14", "id16"):
        rep = by[cid]
        assert rep.trials == TRIALS
        assert rep.violations == 0, f"{cid}: worst {rep.worst_violation:.3e}"
    # spot check both identities directly against the deformed exponential
    rng = np.random.default_rng(SEED)
    for t in range(100):
        n = int(rng.integers(2, 17))
        p = sample_simplex(n, rng)
        r = sample_simplex(n, rng)
        q = (0.0, 0.5, 1.0, 1.5, 2.0)[t % 5]
        lhs, rhs = renyi_tsallis_bridge(p, q)
        assert _close(lhs, rhs, 1e-10)
        lhs, rhs = renyi_tsallis_relative_bridge(p, r, q)
        assert _close(lhs, rhs, 1e-10)
    _summary(
        "2 bridge identities",
        f"id14 worst {by['id14'].worst_violation:.3e}, "
        f"id16 worst {by['id16'].worst_violation:.3e}",
    )


def test_criterion_03_algebraic_identities(registry_run_a):
    lag = run_case("lem4.1", trials=TRIALS, seed=SEED, n_range=(2, 32))
    spread = run_case("lem4.2", trials=TRIALS, seed=SEED, n_range=(2, 32))
    # no trial scores above 1e-10 exactly when the worst score is at most 1e-10
    assert lag.worst_violation <= 1e-10, f"lagrange worst {lag.worst_violation:.3e}"
    assert spread.worst_violation <= 1e-10, f"spread worst {spread.worst_violation:.3e}"
    qadd = _by_case(registry_run_a)["qadd"]
    assert qadd.trials == TRIALS
    assert qadd.violations == 0, f"additivity worst {qadd.worst_violation:.3e}"
    # direct residual on a fixed two-level layout
    p = ProbDist([0.1, 0.2, 0.3, 0.4])
    part = Partition(((0, 1), (2, 3)))
    coarse = coarsen(p, part)
    for q in (0.5, 1.0, 2.0):
        inner = math.fsum(
            float(s) ** q * tsallis_entropy(ProbDist(p.weights[list(block)] / s), q)
            for s, block in zip(coarse.weights, part.blocks)
        )
        assert abs(tsallis_entropy(p, q) - (tsallis_entropy(coarse, q) + inner)) <= 1e-10
    _summary(
        "3 algebraic identities",
        f"lagrange worst {lag.worst_violation:.3e}, spread worst "
        f"{spread.worst_violation:.3e}, additivity worst {qadd.worst_violation:.3e}",
    )


def test_criterion_04_family_collapses():
    rng = np.random.default_rng(SEED)
    qs = (0.0, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0)
    cases = 1000
    for t in range(cases):
        n = int(rng.integers(2, 13))
        q = qs[t % len(qs)]
        p = sample_simplex(n, rng, min_mass=1e-4)
        r = sample_simplex(n, rng, min_mass=1e-4)
        h = tsallis_entropy(p, q)
        d = tsallis_relative(p, r, q)
        pairs = (
            ("lnq mean -> deformed entropy",
             tsallis_quasilinear_entropy(lnq_generator(q), p, q), h),
            ("lnq mean -> deformed relative",
             tsallis_quasilinear_relative(lnq_generator(q), p, r, q), d),
            ("log mean -> kl",
             tsallis_quasilinear_relative(log_generator(), p, r, 1.0), kl_divergence(p, r)),
            ("lnq mean, plain log -> collision relative",
             tsallis_quasilinear_relative(lnq_generator(q), p, r, 1.0), renyi_relative(p, r, q)),
            ("f generator -> deformed relative",
             f_divergence(tsallis_generator(q), p, r), d),
        )
        for name, got, want in pairs:
            assert _close(got, want, 1e-10), (
                f"{name} at q={q}, n={n}: {got!r} vs {want!r}"
            )
    _summary("4 family collapses", f"5 collapses x {cases} cases, tol 1e-10")


def test_criterion_05_undeformed_limits():
    rng = np.random.default_rng(117)
    eps = 1e-6
    lim = 1e-5
    for _ in range(200):
        n = int(rng.integers(2, 9))
        p = sample_simplex(n, rng, min_mass=0.05)
        r = sample_simplex(n, rng, min_mass=0.05)
        h, d = shannon_entropy(p), kl_divergence(p, r)
        for q in (1.0 - eps, 1.0 + eps):
            assert _close(tsallis_entropy(p, q), h, lim)
            assert _close(tsallis_relative(p, r, q), d, lim)
            assert _close(renyi_entropy(p, q), h, lim)
    # cross-entropy sandwich fields approach the undeformed report
    for _ in range(50):
        n = int(rng.integers(2, 5))
        p = sample_simplex(n, rng, min_mass=0.2)
        r = sample_simplex(n, rng, min_mass=0.2)
        base = tightest_constants(p, r, 1.0)
        ref = tsallis_cross_entropy_sandwich(p, r, 1.0, base.m, base.M)
        for q in (1.0 - eps, 1.0 + eps):
            dr = tightest_constants(p, r, q)
            rep = tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M)
            for got, want in (
                (rep.lower, ref.lower), (rep.value, ref.value), (rep.upper, ref.upper),
            ):
                assert _close(got, want, lim)
    # the joint-entropy sandwich is only claimed above 1; approach from above
    for _ in range(50):
        k = int(rng.integers(2, 4))
        dims = tuple(int(rng.integers(2, 4)) for _ in range(k))
        cells = rng.exponential(size=dims) + 0.1
        j = JointDist(cells / cells.sum())
        ref = han_sandwich(j, 1.0)
        rep = han_sandwich(j, 1.0 + eps)
        for got, want in (
            (rep.lower, ref.lower), (rep.value, ref.value), (rep.upper, ref.upper),
        ):
            assert _close(got, want, lim)
    _summary("5 undeformed limits", f"q = 1 +/- {eps:g}, tol {lim:g}")


def test_criterion_06_hand_values():
    tol = 1e-12
    p2 = make_dist([0.25, 0.75])
    # entropy at index 2: 1 - sum of squares
    oracle = 1.0 - (0.25**2 + 0.75**2)
    assert abs(oracle - 0.375) <= tol
    assert abs(tsallis_entropy(p2, 2.0) - 0.375) <= tol
    # collision entropy: -log of the sum of squares
    assert abs(renyi_entropy(p2, 2.0) - (-math.log(0.625))) <= tol
    # deformed relative entropy: sum p^2/r minus one
    ph, rh = make_dist([0.5, 0.5]), make_dist([0.25, 0.75])
    oracle = (0.25 / 0.25 + 0.25 / 0.75) - 1.0
    assert abs(oracle - 1.0 / 3.0) <= tol
    assert abs(tsallis_relative(ph, rh, 2.0) - 1.0 / 3.0) <= tol
    # bridge pair: both exponentials equal 1/0.625
    lhs, rhs = renyi_tsallis_bridge(p2, 2.0)
    assert abs(lhs - 1.6) <= tol and abs(rhs - 1.6) <= tol
    # refined maxent report; braced term by hand: ln_2(8/3) - mean ln_2(1/r)
    rep = refined_maxent_bounds(p2, 2.0)
    braced = (1.0 - 3.0 / 8.0) - 0.5 * ((1.0 - 1.0 / 4.0) + (1.0 - 3.0 / 4.0))
    assert abs(braced - 0.125) <= tol
    for got, want in ((rep.lower, 2 * 0.25 * braced), (rep.value, 0.125),
                      (rep.upper, 2 * 0.75 * braced)):
        assert abs(got - want) <= tol
    assert (rep.lower, rep.value, rep.upper) == pytest.approx(
        (0.0625, 0.125, 0.1875), abs=tol
    )
    # arithmetic-geometric gap: variance over twice the extreme points
    xs, ph2 = [1.0, 4.0], make_dist([0.5, 0.5])
    mean = 0.5 * 1.0 + 0.5 * 4.0
    var = 0.5 * (1.0 - mean) ** 2 + 0.5 * (4.0 - mean) ** 2
    cf = cartwright_field(xs, ph2)
    assert abs(cf.lower - var / (2 * 4.0)) <= tol
    assert abs(cf.value - (mean - 2.0)) <= tol
    assert abs(cf.upper - var / (2 * 1.0)) <= tol
    assert (cf.lower, cf.value, cf.upper) == pytest.approx(
        (0.28125, 0.5, 1.125), abs=tol
    )
    # uniform 2x2 chain at index 2 splits 0.75 into 0.5 + 0.25
    j = JointDist(np.full((2, 2), 0.25))
    terms = chain_rule_decomposition(j, (0, 1), 2.0)
    assert terms == pytest.approx((0.5, 0.25), abs=tol)
    joint = tsallis_joint_entropy(j, 2.0)
    assert abs(joint - 0.75) <= tol
    assert abs(math.fsum(terms) - joint) <= tol
    # leave-one-out average bounds the joint entropy: 0.75 <= 1.0
    han = han_sandwich(j, 2.0)
    assert abs(han.value - 0.75) <= tol
    assert abs(han.upper - 1.0) <= tol
    assert han.value <= han.upper
    _summary("6 hand values", "8 golden values reproduced to 1e-12")


def test_criterion_07_refined_lower_bound_strict():
    rng = np.random.default_rng(SEED)
    qs = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    total = 10_000
    strict = 0
    for t in range(total):
        n = int(rng.integers(2, 17))
        r = sample_simplex(n, rng)
        rep = refined_maxent_bounds(r, qs[t % len(qs)])
        assert rep.lower >= 0.0
        if rep.lower > 0.0:
            strict += 1
    frac = strict / total
    assert frac >= 0.99, f"strictly positive fraction only {frac:.4f}"
    _summary("7 refinement strictness", f"strictly positive fraction {frac:.4%}")


def test_criterion_08_deterministic_reports(registry_run_a, registry_run_b):
    blob_a = "\n".join(r.to_json_line() for r in registry_run_a).encode()
    blob_b = "\n".join(r.to_json_line() for r in registry_run_b).encode()
    assert blob_a == blob_b
    _summary("8 determinism", f"{len(blob_a)} report bytes identical across two splits")
