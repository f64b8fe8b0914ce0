import dataclasses
import hashlib
import itertools
import json
import math
import os
import struct
import sys
import threading

import numpy as np
import pytest

from qentropy import (
    DomainError,
    HypothesisError,
    REGISTRY,
    MIN_MASS,
    UndefinedValueError,
    UnknownCaseError,
    has_failures,
    run_case,
    run_registry,
    sample_simplex,
)
from qentropy import verify
from qentropy.bounds import BoundReport
from qentropy.serialize import dumps, loads, parse_witness, render
from qentropy.verify import Eq, FromZero, Le, get_case
from test_registry_pinned import REGISTRY_DIGEST


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


@pytest.mark.parametrize("draw", [
    lambda rng: verify._draw_joint(rng, None, None)["cells"],
    lambda rng: np.concatenate(verify._draw_rows(rng, None, None)["rows"]),
], ids=["joint", "nested"])
def test_joint_and_nested_samplers_floor_at_min_mass(monkeypatch, draw):
    # a floor far above float noise shows itself: every floored cell is the
    # same renormalized value, a tie that unfloored draws never make
    monkeypatch.setattr(verify, "MIN_MASS", 0.05)
    rng = np.random.default_rng(2)
    ties = 0
    for _ in range(50):
        w = draw(rng)
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)
        assert float(w.min()) >= 0.05 / (1 + w.size * 0.05)
        ties += int(np.count_nonzero(w == w.min()) > 1)
    assert ties > 0


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
    assert doc["schema"] == "qentropy/7"
    assert doc["case"] == "qadd"
    assert doc["trials"] == 10
    assert doc["in_hypothesis"] is True
    assert math.isfinite(doc["worst_violation"])


def test_unknown_case_rejected():
    with pytest.raises(UnknownCaseError):
        run_case("nosuch", trials=5, seed=1)
    with pytest.raises(UnknownCaseError):
        get_case("prop9.9")
    # a case's streams are keyed by its position in REGISTRY: an unregistered id has none
    mine = verify.TheoremCase(
        "mine", "custom", lambda rng, n, q: {}, lambda inputs, q: [0.0], q_range=None
    )
    with pytest.raises(UnknownCaseError, match="'mine' is not registered.*position in REGISTRY"):
        run_case(mine, trials=3)
    # a registered id keeps its streams under dataclasses.replace
    renamed = dataclasses.replace(REGISTRY["id14"], description="changed")
    assert run_case(renamed, trials=5, seed=1) == run_case("id14", trials=5, seed=1)


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
    # malformed arguments raise a DomainError that names them, never a raw error
    for bad in (("abc",), (None,)):
        with pytest.raises(DomainError, match=r"q_grid value .* is not a number in \[0, inf\)"):
            run_case("id14", trials=5, seed=1, q_grid=bad)
    with pytest.raises(DomainError, match="q_grid must be an iterable"):
        run_case("id14", trials=5, seed=1, q_grid=0.5)
    for bad in ((2,), (2, 16, 99), 16):
        with pytest.raises(DomainError, match="n_range must be a pair"):
            run_case("id14", trials=5, seed=1, n_range=bad)
    # integer arguments are taken exactly, never truncated
    with pytest.raises(DomainError, match="seed must be an integer"):
        run_case("id14", trials=5, seed=1.9)
    with pytest.raises(DomainError, match=r"n_range\[0\] must be an integer"):
        run_case("id14", trials=5, seed=1, n_range=(2.7, 16))
    with pytest.raises(DomainError, match=r"n_range\[1\] must be an integer"):
        run_case("id14", trials=5, seed=1, n_range=(2, 16.9))
    with pytest.raises(DomainError, match="trials must be an integer"):
        run_case("id14", trials=5.0, seed=1)
    with pytest.raises(DomainError, match="n must be an integer"):
        sample_simplex(2.5, np.random.default_rng(0))
    # NumPy ints and multi-word seeds still pass
    rep = run_case("id14", trials=np.int64(5), seed=np.uint64(1), n_range=(np.int32(2), 16))
    assert rep.to_json_line() == run_case("id14", trials=5, seed=1).to_json_line()
    assert run_case("id14", trials=5, seed=2**64 + 5).seed == 2**64 + 5


def test_hypothesis_gate():
    with pytest.raises(HypothesisError):
        run_case("thm5.1", trials=5, seed=1, q_grid=(0.5,))
    rep = run_case("thm5.1", trials=5, seed=1, q_grid=(0.5,), override_hypothesis=True)
    assert rep.in_hypothesis is False
    # out-of-hypothesis violations are informational, not failures
    assert not has_failures([rep])
    assert not has_failures([])  # empty is clean


def test_override_with_admissible_grid_stays_in_hypothesis():
    rep = run_case("thm5.1", trials=5, seed=1, q_grid=(1.5, 2.0), override_hypothesis=True)
    assert rep.in_hypothesis is True


def test_q_free_case_ignores_grid():
    a = run_case("lem4.1", trials=10, seed=2, q_grid=(0.5,))
    b = run_case("lem4.1", trials=10, seed=2, q_grid=(3.0,))
    assert a.to_json_line() == b.to_json_line()
    assert "q" not in a.worst_witness


@pytest.mark.parametrize("grid", [(), (-1.0,), (math.nan,), (math.inf,)], ids=repr)
@pytest.mark.parametrize("cid", [c.id for c in REGISTRY.values() if c.q_range is None])
def test_q_free_case_rejects_bad_grid(cid, grid):
    # the grid is checked for every case, whether or not its trials read q
    with pytest.raises(DomainError, match=r"q_grid is empty|q_grid value .* is not a number"):
        run_case(cid, trials=5, seed=1, q_grid=grid)


# Each case's admitted q at the edges of its range, one character per q in
# ADMITS_QS ("1" admitted): 0, the smallest positive double, 1 and its
# lower neighbour, and 2 and 4 with their upper neighbours.  Widening a
# case's range is a change to its row here.
ADMITS_QS = (
    0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0, 2.0, math.nextafter(2.0, 3.0), 4.0,
    math.nextafter(4.0, 5.0),
)
ADMITS = {
    "prop2.1": "111111110",
    "prop2.2": "111111110",
    "prop2.3": "111111110",
    "prop2.4": "111111000",
    "prop3.1": "111111110",
    "thm3.1": "111111110",
    "cor3.1": "111111110",
    "thm3.2": "111111110",
    "cor_dra": "111111111",
    "lem4.1": "111111111",
    "thm4.1": "111111110",
    "lem4.2": "111111111",
    "cor4.1": "111111110",
    "cf": "111111111",
    "thm4.2": "011111110",
    "cor4": "111111111",
    "prop4.1": "111111111",
    "prop5.1": "111111110",
    "prop5.2": "111111110",
    "prop5.3": "000011110",
    "thm5.1": "000011110",
    "id14": "111111110",
    "id16": "111111000",
    "qadd": "111111110",
}


def test_thm42_excludes_q_zero():
    assert list(ADMITS) == list(REGISTRY)
    for cid, want in ADMITS.items():
        got = "".join("1" if REGISTRY[cid].admits(q) else "0" for q in ADMITS_QS)
        assert got == want, cid
    rep = run_case("thm4.2", trials=11, seed=4)  # default grid drops q=0 silently
    assert rep.violations == 0


def test_small_runs_are_clean():
    for cid in REQUIRED_CASES:
        rep = run_case(cid, trials=30, seed=11)
        assert rep.violations == 0, f"{cid}: worst={rep.worst_violation}"
        assert rep.in_hypothesis


def test_threshold_is_the_case_tol_alone():
    with pytest.raises(TypeError):
        run_case("cor3.1", 5, 1, tol=1e-30)
    with pytest.raises(TypeError):
        run_registry(5, 1, tol=1e-30)
    assert "tol" not in verify._Plan._fields
    # a stricter run is a case with a tighter tol: float noise becomes violations
    strict = dataclasses.replace(get_case("cor3.1"), tol=1e-30)
    assert run_case(strict, trials=40, seed=17).violations > 0
    assert run_case("cor3.1", trials=40, seed=17).violations == 0


# a string, None and an int past a double are rejected by type, not by a raw TypeError
BAD_TOLS = [math.nan, math.inf, -math.inf, -1e-12, "1e-9", None, 2**1100]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_theorem_case_rejects_bad_tol(tol):
    with pytest.raises(DomainError, match=r"tol must be finite and >= 0, got"):
        dataclasses.replace(REGISTRY["id14"], tol=tol)


@pytest.mark.parametrize("min_mass", [math.nan, math.inf, -math.inf, -1e-12, 1.0, 2.0, "0.1"])
def test_sample_simplex_rejects_bad_min_mass(min_mass):
    with pytest.raises(DomainError, match=r"min_mass must be finite and in \[0, 1\), got"):
        sample_simplex(4, np.random.default_rng(0), min_mass=min_mass)


def test_boundary_tol_and_min_mass_are_accepted():
    assert sample_simplex(4, np.random.default_rng(0), min_mass=0.0).weights.size == 4
    rep = run_case(dataclasses.replace(REGISTRY["id14"], tol=0.0), trials=5, seed=1)
    assert rep.trials == 5


NEAR_ONE_GRID = (1 - 1e-8, 1 - 2e-8, 1 + 2e-8, 0.99999, 1.00001)


@pytest.mark.parametrize("cid", [c.id for c in REGISTRY.values() if c.q_range is not None])
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
# checks return their claims; the harness scores them
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cid", list(REGISTRY))
def test_check_returns_the_claims_of_the_drawn_inputs(cid):
    # 1.5 lies inside every case's hypothesis
    rep = run_case(cid, trials=1, seed=5, q_grid=(1.5,))
    q = 1.5 if REGISTRY[cid].q_range is not None else None
    inputs = parse_witness(loads(dumps(rep.worst_witness)))
    claims = REGISTRY[cid].check(inputs, q)
    assert isinstance(claims, list) and claims
    for c in claims:
        assert isinstance(c, (BoundReport, Le, Eq, FromZero, float)), type(c)
    # the report of that one trial is its top score and its drawn inputs;
    # trial 0 draws from the stream's start, after the harness's draw of n
    assert rep.worst_violation == max(verify._score(c) for c in claims)
    (plan,) = verify._plans([cid], 1, 5, q_grid=(1.5,))
    n = int(plan.rng.integers(2, 17))
    drawn = REGISTRY[cid].draw(plan.rng, n, q)
    head = {"trial": 0, "n": n, **({} if q is None else {"q": q})}
    assert rep.worst_witness == {**head, **{k: render(x) for k, x in drawn.items()}}


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


def test_witness_is_rendered_only_for_a_new_worst(monkeypatch, split_into):
    trials, seed, q = 60, 2, 0.5
    (plan,) = verify._plans(["prop2.3"], trials, seed, q_grid=(q,))
    scores = [verify._run_trials(plan, t, t + 1)[1] for t in range(trials)]
    new_worst = sum(1 for t, v in enumerate(scores) if v > max(scores[:t], default=-math.inf))
    rendered = []
    monkeypatch.setattr(verify, "render", lambda x: rendered.append(x) or [])
    split_into(1)  # a forked child's renders would not reach this process
    run_case("prop2.3", trials=trials, seed=seed, q_grid=(q,))
    assert 1 <= new_worst < trials
    assert len(rendered) == 3 * new_worst  # psi, p and r per new worst


def test_run_registry_forwards_options_to_run_case(split_into):
    opts = dict(n_range=(1, 4), q_grid=(0.5,), override_hypothesis=True)
    want = [run_case(c, 4, 9, **opts).to_json_line() for c in REGISTRY.values()]
    for k in (1, 2):
        split_into(k)
        assert [r.to_json_line() for r in run_registry(4, 9, **opts)] == want
        with pytest.raises(TypeError):
            run_registry(4, 9, q_gird=(0.5,))
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# run_registry's trial ranges in forked children
# ---------------------------------------------------------------------------


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_fork():
    raise AssertionError("os.fork called")


@pytest.fixture
def split_into(monkeypatch):
    """split_into(k): a run of k or more trials of the registry, or 24k or more
    of one case, splits into k ranges (one trial of every case per range)."""

    def split(k):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: k)
        monkeypatch.setattr(verify, "_MIN_RANGE", 1)

    return split


@pytest.mark.parametrize("k", [1, 2, 3])
def test_run_registry_bytes_do_not_depend_on_the_split(k, split_into):
    split_into(k)
    h = hashlib.sha256()
    for seed in (1, 42, 7):
        for r in run_registry(trials=300, seed=seed):
            h.update(r.to_json_line().encode())
    assert h.hexdigest() == REGISTRY_DIGEST
    _assert_no_child_left()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_run_case_bytes_do_not_depend_on_the_split(k, split_into, monkeypatch):
    cases = ("prop2.3", "thm4.2", "prop5.2", "id16", "qadd")

    def lines():
        return [run_case(c, trials=75, seed=seed).to_json_line() for c in cases for seed in (1, 42)]

    split_into(1)
    want = lines()
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    split_into(k)
    assert lines() == want
    assert len(forks) == (k - 1) * len(cases) * 2
    _assert_no_child_left()


def test_run_registry_checks_every_hypothesis_before_any_trial(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(verify, "_run_trials", no_trial)
    monkeypatch.setattr(os, "fork", _no_fork)
    # prop5.3 (case 19) is the first case that admits no q = 0.5
    with pytest.raises(HypothesisError, match=r"^case prop5\.3 admits no q in \[0\.5\]"):
        run_registry(2000, 7, q_grid=(0.5,))
    # the arguments come before any hypothesis
    with pytest.raises(DomainError, match=r"^need trials >= 1, got 0$"):
        run_registry(0, 7, q_grid=(0.5,))


def test_run_registry_gives_each_range_min_range_trials(monkeypatch):
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(verify, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(os, "fork", counting_fork)
    want = [run_case(c, 49, 9).to_json_line() for c in REGISTRY.values()]
    assert [r.to_json_line() for r in run_registry(49, 9)] == want
    assert forks == []
    # 50 trials make two ranges of 25 on any number of CPUs
    run_registry(2 * verify._MIN_RANGE, 9)
    assert len(forks) == 1
    _assert_no_child_left()


def test_run_registry_with_one_trial_runs_serially(monkeypatch, split_into):
    split_into(2)
    monkeypatch.setattr(os, "fork", _no_fork)
    got = [r.to_json_line() for r in run_registry(1, 9)]
    assert got == [run_case(c, 1, 9).to_json_line() for c in REGISTRY.values()]


def test_run_registry_runs_serially_beside_threads_profilers_and_without_fork(
    monkeypatch, split_into
):
    split_into(2)
    want = [run_case(c, 4, 9).to_json_line() for c in REGISTRY.values()]

    def lines():
        return [r.to_json_line() for r in run_registry(4, 9)]

    monkeypatch.setattr(os, "fork", _no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert lines() == want
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        got = lines()
    finally:
        sys.setprofile(previous)
    assert got == want
    monkeypatch.delattr(os, "fork")
    assert lines() == want


@pytest.mark.parametrize(
    "opts, error",
    [
        # fails while planning, before any trial
        (dict(q_grid=(20.0,)), HypothesisError),
        # id16's bridge refuses q > 2 inside a trial
        (dict(q_grid=(5.0,), override_hypothesis=True), HypothesisError),
        (dict(q_grid=(40.0,), override_hypothesis=True), UndefinedValueError),
    ],
    ids=["planning", "id16_q5", "id14_q40"],
)
def test_run_registry_raises_what_a_serial_run_raises(opts, error, split_into):
    raised = []
    for k in (1, 2, 3):
        split_into(k)
        with pytest.raises(error) as info:
            run_registry(30, 7, **opts)
        _assert_no_child_left()
        raised.append((type(info.value), str(info.value)))
    assert raised[1:] == raised[:1] * 2


def _failing_at(real: verify.TheoremCase, bad_qs) -> verify.TheoremCase:
    def check(inputs, q):
        if q in bad_qs:
            raise DomainError(f"{real.id} fails at q={q}")
        return real.check(inputs, q)

    return dataclasses.replace(real, check=check)


def test_run_registry_raises_the_first_failure_in_serial_order(monkeypatch, split_into):
    # q of trial t is t / 10: in three ranges the ranges are trials
    # [0, 10), [10, 20) and [20, 30).  prop2.3 (case 2) fails at trials 12
    # and 25, in the second and third ranges; thm3.1 (case 5) fails at trial
    # 0, in the first, which a serial run never reaches.
    monkeypatch.setitem(REGISTRY, "prop2.3", _failing_at(REGISTRY["prop2.3"], (1.2, 2.5)))
    monkeypatch.setitem(REGISTRY, "thm3.1", _failing_at(REGISTRY["thm3.1"], (0.0,)))
    opts = dict(q_grid=tuple(t / 10 for t in range(30)), override_hypothesis=True)
    for k in (1, 3):
        split_into(k)
        with pytest.raises(DomainError, match=r"^prop2\.3 fails at q=1\.2$"):
            run_registry(30, 7, **opts)
        _assert_no_child_left()
        # prop2.4 (case 3) admits no q above 2: every hypothesis is checked before any trial
        with pytest.raises(HypothesisError, match=r"^case prop2\.4 admits no q in \[2\.5\]"):
            run_registry(30, 7, q_grid=(2.5,))
        _assert_no_child_left()


def test_run_registry_runs_a_range_no_child_delivered(monkeypatch, split_into):
    parent = os.getpid()
    real = REGISTRY["prop2.2"]

    def check(inputs, q):
        if os.getpid() != parent:
            os._exit(3)
        return real.check(inputs, q)

    def lines():
        return [r.to_json_line() for r in run_registry(12, 5)]

    split_into(1)
    want = lines()
    split_into(3)
    with monkeypatch.context() as m:
        m.setitem(REGISTRY, "prop2.2", dataclasses.replace(real, check=check))
        assert lines() == want
    _assert_no_child_left()

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    assert lines() == want


def test_id16_beyond_q_two_raises_hypothesis_error():
    with pytest.raises(HypothesisError, match=r"needs q <= 2"):
        run_case("id16", trials=5, q_grid=(5.0,), override_hypothesis=True)


# ---------------------------------------------------------------------------
# the identity cases check the library's kernels, not a copy of them
# ---------------------------------------------------------------------------


def test_lem42_checks_the_library_spread(monkeypatch):
    real = verify.pairwise_spread
    monkeypatch.setattr(verify, "pairwise_spread", lambda xs, p: 1.01 * real(xs, p))
    rep = run_case("lem4.2", trials=50, seed=3)
    assert rep.violations > 0


def test_lem41_checks_the_library_right_side(monkeypatch):
    real = verify.lagrange_identity

    def planted(a, b):
        lhs, rhs = real(a, b)
        return lhs, 1.01 * rhs

    monkeypatch.setattr(verify, "lagrange_identity", planted)
    rep = run_case("lem4.1", trials=50, seed=3)
    assert rep.violations > 0


# ---------------------------------------------------------------------------
# beyond the q caps: groundwork for widening them
# ---------------------------------------------------------------------------

# Every case that takes q except two, whose failures past q = 4 are measured
# (300 trials, seed 7): id14 has 29 violations at q = 10 (worst 8.5e-9) and
# raises UndefinedValueError at q = 20 and 40; id16 raises HypothesisError
# for every q > 2, where exp_(2-q) is not defined.
WIDE_Q_CASES = [
    c.id for c in REGISTRY.values() if c.q_range is not None and c.id not in ("id14", "id16")
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cid", WIDE_Q_CASES)
def test_cases_clean_far_beyond_their_q_cap(cid):
    for q in (6.0, 10.0, 20.0, 40.0):
        rep = run_case(cid, trials=300, seed=7, q_grid=(q,), override_hypothesis=True)
        assert rep.violations == 0, f"{cid} at q={q}: worst={rep.worst_violation}"
