"""Pinned registry outcomes for run_registry(trials=200, seed=42), and one
digest over the report bytes of three seeds.

Comparing two runs inside one process cannot show that a refactor kept the
same random draws and the same arithmetic; these values can.  Counts and
witness trials are exact; worst violations hold to 1e-9 relative, which
leaves room for last-ulp differences in the noise-level cases.
"""

import hashlib

import pytest

from qentropy import (
    DEFAULT_PROFILE,
    REGISTRY,
    STRESS_PROFILE,
    QEntropyError,
    run_case,
    run_registry,
)

# (case, violations, worst_witness["trial"], worst_violation)
PINNED = [
    ('prop2.1', 0, 17, -0.151033509560249),
    ('prop2.2', 0, 50, 1.667282622536577e-16),
    ('prop2.3', 0, 34, 2.2204460492503126e-16),
    ('prop2.4', 0, 38, 2.740925458637524e-16),
    ('prop3.1', 0, 110, 5.5491980314401444e-14),
    ('thm3.1', 0, 12, 3.859403378847278e-13),
    ('cor3.1', 0, 132, 7.067843932278171e-13),
    ('thm3.2', 0, 154, 1.0466049844654847e-14),
    ('cor_dra', 0, 50, 4.776045714686535e-15),
    ('lem4.1', 0, 80, 1.050104580355953e-15),
    ('thm4.1', 0, 172, 6.078790733994155e-15),
    ('lem4.2', 0, 68, 5.780129184792451e-16),
    ('cor4.1', 0, 119, 7.176720775412868e-15),
    ('cf', 0, 177, -3.1556615715152495e-05),
    ('thm4.2', 0, 149, -1.3404536766919583e-07),
    ('cor4', 0, 75, -1.8546488087850797e-06),
    ('prop4.1', 0, 165, -5.265614627445093e-08),
    ('prop5.1', 0, 178, 2.056426911904609e-16),
    ('prop5.2', 0, 44, 2.631639762074444e-16),
    ('prop5.3', 0, 114, -2.9507039640878447e-05),
    ('thm5.1', 0, 121, -0.0001320496337835424),
    ('id14', 0, 65, 4.445456618809449e-14),
    ('id16', 0, 179, 9.011569289586596e-16),
    ('qadd', 0, 11, 3.552713678800501e-15),
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
# field changes it (numpy 2.4).
REGISTRY_DIGEST = "5b3c5b9fe0fe56ca778ac3bf129774b33d7147b195cadf85f163d34c10ae4121"


def test_registry_report_bytes_digest():
    h = hashlib.sha256()
    for seed in (1, 42, 7):
        for r in run_registry(trials=300, seed=seed):
            h.update(r.to_json_line().encode())
    assert h.hexdigest() == REGISTRY_DIGEST


# sha256 over run_case(c, trials=100, seed=3, n_range=(1, 12), q_grid=(q,),
# override_hypothesis=True, profile=pr) for every case c, q in (0.5, 5.0) and
# pr in (DEFAULT_PROFILE, STRESS_PROFILE), in that nesting order; a case that
# raises contributes "ClassName: message" instead of its JSON line (only id16
# at q = 5, twice: the relative bridge's HypothesisError for q > 2).  Off the
# default grid and down to n = 1, it sees what REGISTRY_DIGEST cannot: a
# -0.0 that becomes 0.0, a q the hypothesis excludes, a single-mass draw.
OFF_DEFAULT_DIGEST = "6c18f1a78caae622ce4ebc39a4d0fd245b370cb669281d332ff697bed30a933c"


def test_off_default_report_bytes_digest():
    h = hashlib.sha256()
    for case in REGISTRY.values():
        for q in (0.5, 5.0):
            for profile in (DEFAULT_PROFILE, STRESS_PROFILE):
                try:
                    line = run_case(
                        case, trials=100, seed=3, n_range=(1, 12), q_grid=(q,),
                        override_hypothesis=True, profile=profile,
                    ).to_json_line()
                except QEntropyError as exc:
                    line = f"{type(exc).__name__}: {exc}"
                h.update(line.encode())
    assert h.hexdigest() == OFF_DEFAULT_DIGEST
