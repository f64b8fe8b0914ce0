import itertools
import json
import math
import struct

import numpy as np
import pytest

from qentropy import (
    DEFAULT_PROFILE,
    DomainError,
    HypothesisError,
    REGISTRY,
    STRESS_PROFILE,
    MIN_MASS,
    Profile,
    UnknownCaseError,
    has_failures,
    run_case,
    run_registry,
    sample_simplex,
)
from qentropy import verify
from qentropy.bounds import BoundReport
from qentropy.serialize import dumps
from qentropy.verify import Eq, FromZero, Le, get_case


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
    assert doc["schema"] == "qentropy/5"
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


# ---------------------------------------------------------------------------
# trials return their claims; the harness scores them
# ---------------------------------------------------------------------------


def _trial_rng(cid, seed, t):
    """Trial t's generator: the case's spawned stream, jumped t times."""
    key = (list(REGISTRY).index(cid),)
    stream = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
    return np.random.Generator(stream.jumped(t))


def _replay(cid, seed, t, q):
    """Trial t of run_case(cid, seed=seed, q_grid=(q,)), with the default n_range."""
    rng = _trial_rng(cid, seed, t)
    n = int(rng.integers(2, 17))
    case = REGISTRY[cid]
    return n, case.trial(rng, n, q if case.q_lo is not None else None, DEFAULT_PROFILE)


@pytest.mark.parametrize("cid", list(REGISTRY))
def test_trial_returns_claims_and_inputs(cid):
    # 1.5 lies inside every case's hypothesis
    n, (claims, inputs) = _replay(cid, 5, 0, 1.5)
    assert isinstance(claims, list) and claims
    for c in claims:
        assert isinstance(c, (BoundReport, Le, Eq, FromZero, float)), type(c)
    assert isinstance(inputs, dict) and inputs
    witness = {k: verify._render(x) for k, x in inputs.items()}
    json.loads(dumps(witness))
    # the report of that one trial is its top score and its rendered inputs
    rep = run_case(cid, trials=1, seed=5, q_grid=(1.5,))
    assert rep.worst_violation == max(verify._score(c) for c in claims)
    head = {"trial": 0, "n": n, **({"q": 1.5} if REGISTRY[cid].q_lo is not None else {})}
    assert rep.worst_witness == {**head, **witness}


@pytest.mark.parametrize("cid", ["thm4.2", "id14"])
def test_witness_trial_alone_replays_the_worst_violation(cid):
    # a chain case and an identity case: only the witness trial is re-run,
    # from (seed, case, trial), and gives the report's worst bit for bit
    rep = run_case(cid, trials=200, seed=42)
    witness = dict(rep.worst_witness)
    t, n, q = witness.pop("trial"), witness.pop("n"), witness.pop("q")
    assert t > 0
    n_replayed, (claims, inputs) = _replay(cid, 42, t, q)
    assert n_replayed == n
    assert {k: verify._render(x) for k, x in inputs.items()} == witness
    assert _bits(max(verify._score(c) for c in claims)) == _bits(rep.worst_violation)


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _old_ineq(lhs, rhs):
    return (lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))


def _old_eq(lhs, rhs):
    return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))


def _old_chain(rep):
    return rep.violation() / (1.0 + rep.scale())


def _old_zero_floor(rep):
    return max(_old_chain(rep), -rep.lower / (1.0 + rep.scale()))


_VALUES = (0.0, -0.0, 1.0, -1.0, 0.3, 0.1 + 0.2, 5e-324, -2.5, 1e300, -1e300,
           np.nextafter(1e300, 2e300), 1.7e308, -1.7e308)
_CHAIN_VALUES = (0.0, -0.0, 1.0, -1.0, 0.1 + 0.2, -2.5, 1e300, -1e300)


def test_score_is_the_old_formula_bit_for_bit():
    rows = []
    for lhs, rhs in itertools.product(_VALUES, repeat=2):
        rows.append((Le(lhs, rhs), _old_ineq(lhs, rhs)))
        rows.append((Eq(lhs, rhs), _old_eq(lhs, rhs)))
    for x in _VALUES:
        # 0 <= x was scored -x / (1 + |x|); Le(0.0, x) would turn the -0 of
        # an n = 1 prop2.1 trial into 0
        rows.append((Le(-0.0, x), -x / (1.0 + abs(x))))
        rows.append((x, x))
    for lo, val, hi in itertools.product(_CHAIN_VALUES, repeat=3):
        rep = BoundReport(lo, val, hi)
        rows.append((rep, _old_chain(rep)))
        rows.append((FromZero(rep), _old_zero_floor(rep)))
    bad = [(c, verify._score(c), old) for c, old in rows if _bits(verify._score(c)) != _bits(old)]
    assert not bad, bad[:5]


def test_identity_is_not_the_degenerate_chain_at_signed_zeros():
    # why Eq is a claim kind of its own
    assert _bits(verify._score(BoundReport(-0.0, 0.0, -0.0))) == _bits(-0.0)
    assert _bits(verify._score(Eq(0.0, -0.0))) == _bits(_old_eq(0.0, -0.0)) == _bits(0.0)


def test_witness_is_rendered_only_for_a_new_worst(monkeypatch):
    trials, seed, q = 60, 2, 0.5
    scores = [max(verify._score(c) for c in _replay("prop2.3", seed, t, q)[1][0])
              for t in range(trials)]
    new_worst = sum(1 for t, v in enumerate(scores) if v > max(scores[:t], default=-math.inf))
    rendered = []
    monkeypatch.setattr(verify, "_render", lambda x: rendered.append(x) or [])
    run_case("prop2.3", trials=trials, seed=seed, q_grid=(q,))
    assert 1 <= new_worst < trials
    assert len(rendered) == 3 * new_worst  # psi, p and r per new worst


def test_run_registry_forwards_options_to_run_case():
    opts = dict(n_range=(1, 4), q_grid=(0.5,), override_hypothesis=True,
                profile=STRESS_PROFILE, tol=1e-3)
    got = [r.to_json_line() for r in run_registry(4, 9, **opts)]
    assert got == [run_case(c, 4, 9, **opts).to_json_line() for c in REGISTRY.values()]
    with pytest.raises(TypeError):
        run_registry(4, 9, q_gird=(0.5,))


def test_id16_beyond_q_two_raises_hypothesis_error():
    with pytest.raises(HypothesisError, match=r"needs q <= 2"):
        run_case("id16", trials=5, q_grid=(5.0,), override_hypothesis=True)
