import json
import math

import numpy as np
import pytest

from qentropy import (
    DomainError,
    HypothesisError,
    REGISTRY,
    STRESS_PROFILE,
    MIN_MASS,
    Profile,
    UnknownCaseError,
    has_failures,
    run_case,
    sample_simplex,
)
from qentropy.verify import get_case


REQUIRED_CASES = [
    "prop2.1", "prop2.2", "prop2.3", "prop2.4",
    "prop3.1", "thm3.1", "cor3.1", "thm3.2", "cor_dra",
    "lem4.1", "thm4.1", "lem4.2", "cor4.1", "cf", "thm4.2", "cor4", "prop4.1",
    "prop5.1", "prop5.2", "prop5.3", "thm5.1",
    "id14", "id16", "qadd",
]


def test_registry_contains_every_required_case():
    for cid in REQUIRED_CASES:
        assert cid in REGISTRY
    assert list(REGISTRY) == REQUIRED_CASES  # definition order is the seed order


def test_case_descriptions_are_informative():
    for case in REGISTRY.values():
        assert case.description
        assert case.id


def test_sample_simplex_determinism():
    a = sample_simplex(6, np.random.default_rng(123))
    b = sample_simplex(6, np.random.default_rng(123))
    np.testing.assert_array_equal(a.weights, b.weights)


def test_sample_simplex_properties():
    rng = np.random.default_rng(0)
    one = sample_simplex(1, rng)
    assert one.weights.tolist() == [1.0]
    total = np.zeros(4)
    for _ in range(2000):
        p = sample_simplex(4, rng)
        assert float(p.weights.sum()) == pytest.approx(1.0, abs=1e-12)
        assert float(p.weights.min()) >= 0.99 * MIN_MASS
        total += p.weights
    np.testing.assert_allclose(total / 2000, np.full(4, 0.25), atol=0.02)


def test_sample_simplex_respects_profile_floor():
    rng = np.random.default_rng(1)
    p = sample_simplex(5, rng, min_mass=0.05)
    # flooring then renormalizing can shrink the floor by at most 1 + n*floor
    assert float(p.weights.min()) >= 0.05 / (1 + 5 * 0.05)


def test_run_case_is_deterministic():
    a = run_case("id14", trials=50, seed=7)
    b = run_case("id14", trials=50, seed=7)
    assert a.to_json_line() == b.to_json_line()
    c = run_case("id14", trials=50, seed=8)
    assert c.to_json_line() != a.to_json_line()


def test_run_case_trials_prefix_stability():
    # per-trial seeding: the first 20 trials of a 50-trial run see the same
    # draws as a 20-trial run, so the worst witness's trial index is stable
    short = run_case("lem4.1", trials=20, seed=3)
    long = run_case("lem4.1", trials=50, seed=3)
    if long.worst_witness["trial"] < 20:
        assert long.worst_witness == short.worst_witness


def test_report_json_shape():
    rep = run_case("qadd", trials=10, seed=5)
    doc = json.loads(rep.to_json_line())
    assert list(doc) == [
        "schema", "case", "trials", "violations", "worst_violation",
        "worst_witness", "seed", "in_hypothesis",
    ]
    assert doc["schema"] == "qentropy/4"
    assert doc["case"] == "qadd"
    assert doc["trials"] == 10
    assert doc["in_hypothesis"] is True
    assert math.isfinite(doc["worst_violation"])


def test_unknown_case_rejected():
    with pytest.raises(UnknownCaseError):
        run_case("nosuch", trials=5, seed=1)
    with pytest.raises(UnknownCaseError):
        get_case("prop9.9")


def test_bad_arguments_rejected():
    with pytest.raises(DomainError):
        run_case("id14", trials=0, seed=1)
    with pytest.raises(DomainError):
        run_case("id14", trials=5, seed=-1)
    with pytest.raises(DomainError):
        run_case("id14", trials=5, seed=1, n_range=(4, 2))
    with pytest.raises(DomainError):
        run_case("id14", trials=5, seed=1, q_grid=())
    with pytest.raises(DomainError):
        run_case("id14", trials=5, seed=1, q_grid=(-1.0,))


def test_hypothesis_gate():
    with pytest.raises(HypothesisError):
        run_case("thm5.1", trials=5, seed=1, q_grid=(0.5,))
    rep = run_case("thm5.1", trials=5, seed=1, q_grid=(0.5,), override_hypothesis=True)
    assert rep.in_hypothesis is False
    # out-of-hypothesis violations are informational, not failures
    assert not has_failures([rep])


def test_override_with_admissible_grid_stays_in_hypothesis():
    rep = run_case("thm5.1", trials=5, seed=1, q_grid=(1.5, 2.0), override_hypothesis=True)
    assert rep.in_hypothesis is True


def test_q_free_case_ignores_grid():
    a = run_case("lem4.1", trials=10, seed=2, q_grid=(0.5,))
    b = run_case("lem4.1", trials=10, seed=2, q_grid=(3.0,))
    assert a.to_json_line() == b.to_json_line()
    assert "q" not in a.worst_witness


def test_thm42_excludes_q_zero():
    case = get_case("thm4.2")
    assert not case.admits(0.0)
    assert case.admits(0.25)
    rep = run_case("thm4.2", trials=11, seed=4)  # default grid drops q=0 silently
    assert rep.violations == 0


def test_small_runs_are_clean():
    for cid in REQUIRED_CASES:
        rep = run_case(cid, trials=30, seed=11)
        assert rep.violations == 0, f"{cid}: worst={rep.worst_violation}"
        assert rep.in_hypothesis


def test_stress_profile_smoke():
    for cid in ("id14", "lem4.2", "cor3.1"):
        rep = run_case(cid, trials=50, seed=13, profile=STRESS_PROFILE, tol=1e-6)
        assert rep.violations == 0, f"{cid}: worst={rep.worst_violation}"


def test_custom_tol_overrides_case_tol():
    # an absurdly tight threshold flags float noise as violations
    rep = run_case("cor3.1", trials=40, seed=17, tol=1e-30)
    assert rep.violations > 0
    assert not has_failures([])  # empty is clean


def test_profile_fields():
    prof = Profile(min_mass=1e-4, tol=1e-8)
    assert prof.min_mass == 1e-4
    assert prof.tol == 1e-8


BAD_TOLS = [math.nan, math.inf, -math.inf, -1e-12]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_run_case_rejects_bad_tol(tol):
    # a NaN threshold would pass every trial, a negative one fail them all
    with pytest.raises(DomainError, match=r"tol must be finite and >= 0, got"):
        run_case("id14", trials=5, seed=1, tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_profile_rejects_bad_tol(tol):
    with pytest.raises(DomainError, match=r"tol must be finite and >= 0, got"):
        Profile(tol=tol)


@pytest.mark.parametrize("min_mass", [math.nan, math.inf, -math.inf, -1e-12, 1.0, 2.0])
def test_profile_rejects_bad_min_mass(min_mass):
    with pytest.raises(DomainError, match=r"min_mass must be finite and in \[0, 1\), got"):
        Profile(min_mass=min_mass)


def test_boundary_tol_and_min_mass_are_accepted():
    assert Profile(min_mass=0.0, tol=0.0).tol == 0.0
    rep = run_case("id14", trials=5, seed=1, tol=0.0)
    assert rep.trials == 5


NEAR_ONE_GRID = (1 - 1e-8, 1 - 2e-8, 1 + 2e-8, 0.99999, 1.00001)


@pytest.mark.parametrize("cid", [c.id for c in REGISTRY.values() if c.q_lo is not None])
def test_psi_cases_clean_near_one(cid):
    # every case that takes q, at each q it admits from 1e-8 to 1e-5 off
    # q = 1.  x^(1-q) inverted as y^(1/(1-q)) once gave thm3.1 56
    # violations here, and an undeformed window of +-1e-8 around q = 1
    # gave id14 and id16 about 300 each
    case = get_case(cid)
    grid = tuple(q for q in NEAR_ONE_GRID if case.admits(q))
    rep = run_case(cid, trials=500, seed=7, q_grid=grid)
    assert rep.violations == 0, f"{cid}: worst={rep.worst_violation} at {rep.worst_witness}"
