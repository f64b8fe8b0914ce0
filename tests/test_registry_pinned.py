"""Pinned registry outcomes for run_registry(trials=200, seed=42), and one
digest over the report bytes of three seeds.

Comparing two runs inside one process cannot show that a refactor kept the
same random draws and the same arithmetic; these values can.  Counts and
witness trials are exact; worst violations hold to 1e-9 relative, which
leaves room for last-ulp differences in the noise-level cases.

Report bytes are the same for the same seed, configuration, NumPy build and
CPU dispatch level.  The digests and rows here were pinned under numpy 2.4.6
on x86-64 with its X86_V4 (AVX-512) loops dispatched and OpenBLAS 0.3.31
running its SkylakeX kernel; NumPy's exp/log/power loops and OpenBLAS's dot
products give other last bits under other dispatch levels (AVX2, say), so
there the digests and some rows differ while no verdict does.
"""

import hashlib

import pytest

from qentropy import REGISTRY, QEntropyError, run_case, run_registry

# (case, violations, worst_witness["trial"], worst_violation)
PINNED = [
    ('prop2.1', 0, 6, -0.16088256954138838),
    ('prop2.2', 0, 2, 2.1631139202570764e-16),
    ('prop2.3', 0, 77, 2.2204460492503126e-16),
    ('prop2.4', 0, 108, 4.2267744914470326e-16),
    ('prop3.1', 0, 22, 4.049072791781365e-14),
    ('thm3.1', 0, 144, 5.886642824641544e-14),
    ('cor3.1', 0, 55, 9.973727653156676e-14),
    ('thm3.2', 0, 154, 5.4088516306372625e-14),
    ('cor_dra', 0, 136, 8.379309823808427e-16),
    ('lem4.1', 0, 48, 2.4354926829543002e-15),
    ('thm4.1', 0, 23, 6.307152723167945e-15),
    ('lem4.2', 0, 46, 4.502570148105106e-16),
    ('cor4.1', 0, 173, 5.801481867202614e-15),
    ('cf', 0, 108, -1.5757392169967475e-09),
    ('thm4.2', 0, 19, -1.7512480254655864e-09),
    ('cor4', 0, 33, -4.5857560618586885e-07),
    ('prop4.1', 0, 3, -0.008808787276472087),
    ('prop5.1', 0, 149, 2.770528002310173e-16),
    ('prop5.2', 0, 67, 3.583029975359103e-16),
    ('prop5.3', 0, 187, -0.000244514495874643),
    ('thm5.1', 0, 192, -0.0007391674848199407),
    ('id14', 0, 65, 1.8334176748970423e-14),
    ('id16', 0, 157, 7.819095404390346e-16),
    ('qadd', 0, 132, 7.105427357601002e-15),
]


@pytest.fixture(scope="module")
def reports():
    return {r.case: r for r in run_registry(trials=200, seed=42)}


def test_pinned_cases_cover_the_registry(reports):
    assert list(reports) == [case for case, *_ in PINNED]


@pytest.mark.parametrize("case, violations, trial, worst", PINNED, ids=[c for c, *_ in PINNED])
def test_registry_pinned(reports, case, violations, trial, worst):
    rep = reports[case]
    assert rep.violations == violations
    assert rep.worst_witness["trial"] == trial
    assert rep.worst_violation == pytest.approx(worst, rel=1e-9, abs=0.0)


# sha256 over the JSON lines of run_registry(trials=300, seed=s) for s = 1,
# 42, 7, in registry order: any change to a draw, a rounding or a report
# field changes it (under the build the module docstring names).
REGISTRY_DIGEST = "161719d31709ea5165f52a361086a88cb101f287a1f87dcf2fe46a2095c87e68"


def test_registry_report_bytes_digest():
    h = hashlib.sha256()
    for seed in (1, 42, 7):
        for r in run_registry(trials=300, seed=seed):
            h.update(r.to_json_line().encode())
    assert h.hexdigest() == REGISTRY_DIGEST


# sha256 over run_case(c, trials=100, seed=3, n_range=(1, 12), q_grid=(q,),
# override_hypothesis=True) for every case c and q in (0.5, 5.0), in that
# nesting order; a case that raises contributes "ClassName: message" instead
# of its JSON line (only id16 at q = 5: the relative bridge's HypothesisError
# for q > 2).  Off the default grid and down to n = 1, it sees what
# REGISTRY_DIGEST cannot: a -0.0 that becomes 0.0, a q the hypothesis
# excludes, a single-mass draw.  Pinned under the build the module
# docstring names.
OFF_DEFAULT_DIGEST = "975d204d713775a4afc2a81f6cbfb9c0a3486a889d5b542537a51e6139d42e53"


def test_off_default_report_bytes_digest():
    h = hashlib.sha256()
    for case in REGISTRY.values():
        for q in (0.5, 5.0):
            try:
                line = run_case(
                    case, trials=100, seed=3, n_range=(1, 12), q_grid=(q,),
                    override_hypothesis=True,
                ).to_json_line()
            except QEntropyError as exc:
                line = f"{type(exc).__name__}: {exc}"
            h.update(line.encode())
    assert h.hexdigest() == OFF_DEFAULT_DIGEST


# sha256 over the JSON lines of run_registry(trials=100, seed=s) for
# s = 2**32 + 3 and 2**64 + 5, seeds of 2 and 3 words: a spawned
# SeedSequence pads them to the pool's 4 and appends the case's spawn key,
# so its hash takes the extra mixing loop past the pool.  Taken with a
# generator built per trial from PCG64(SeedSequence(s, spawn_key=(case,))).jumped(t),
# under the build the module docstring names.
MULTI_WORD_SEED_DIGEST = "028d85fe6a6da10a530635ccd921d9680f32976ca6eb83efed0e1b3bb54758c3"


def test_multi_word_seed_report_bytes_digest():
    h = hashlib.sha256()
    for seed in (2**32 + 3, 2**64 + 5):
        for r in run_registry(trials=100, seed=seed):
            h.update(r.to_json_line().encode())
    assert h.hexdigest() == MULTI_WORD_SEED_DIGEST


# Negative controls: just outside a real hypothesis (q >= 1) the sampler
# finds violations.  The counts and worst trials also pin the streams.
@pytest.mark.parametrize(
    "case, violations, trial",
    [("prop5.3", 297, 113), ("thm5.1", 299, 146)],
)
def test_negative_control_finds_violations_below_q_one(case, violations, trial):
    rep = run_case(case, trials=300, seed=7, q_grid=(0.5,), override_hypothesis=True)
    assert rep.in_hypothesis is False
    assert rep.violations == violations
    assert rep.worst_witness["trial"] == trial
