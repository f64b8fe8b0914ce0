"""Each bound chain evaluates its shared vectors once, with the same bits.

The refined max-entropy bound, the psi-mean gap bound and the thm4.2
sandwiches all evaluate ln_q and psi at the inverse probabilities.  Each
public bound computes 1/r, ln_q(1/r) and psi(1/r) once and derives every
reported quantity from them, using the exact expressions of the helpers it
used to call.  These tests pin every returned float with ``==`` against the
composition of the public helpers (and ``np.mean`` for the braced gaps), so
a bit that moves is a failure, not a tolerance question.
"""

import numpy as np
import pytest

from qentropy import (
    DomainError,
    GeneratorPsi,
    IncompleteDist,
    ProbDist,
    SecondDerivativeRange,
    cross_term_gap_sandwich,
    dual_generator,
    f_divergence,
    f_divergence_sandwich,
    identity_generator,
    incomplete_f_divergence,
    lnq_generator,
    log_generator,
    maxent_variance_bounds,
    neg_qlog_generator,
    neglog_generator,
    pairwise_spread,
    power_generator,
    q_exp,
    q_log,
    quasilinear_vs_tsallis_bounds,
    refined_maxent_bounds,
    smooth_jensen_sandwich,
    tsallis_cross_entropy_sandwich,
    tsallis_entropy,
    tsallis_generator,
    tsallis_quasilinear_entropy,
    xlogx_generator,
)
from qentropy import divergence
from qentropy.qmath import _ln_q
from qentropy.verify import DEFAULT_Q_GRID

SIZES = (2, 16, 1024)
MQ, BIG_MQ = 0.25, 3.0


def _dist(rng, n):
    w = rng.exponential(size=n) + 1e-3
    return ProbDist(w / w.sum())


def _pair(n, q):
    rng = np.random.default_rng([n, int(q * 1000)])
    return _dist(rng, n), _dist(rng, n)


GRID = [(n, q) for n in SIZES for q in DEFAULT_Q_GRID]
IDS = [f"n{n}-q{q:g}" for n, q in GRID]


def _psis(q):
    return {
        "identity": identity_generator(),
        "log": log_generator(),
        "lnq": lnq_generator(q),
        "power": power_generator(q),
    }


@pytest.mark.parametrize("n, q", GRID, ids=IDS)
def test_refined_maxent_bits(n, q):
    _, r = _pair(n, q)
    rep = refined_maxent_bounds(r, q)
    inv = 1.0 / r.weights
    braced = q_log(float(np.mean(inv)), q) - float(np.mean(_ln_q(inv, q)))
    assert rep.value == q_log(float(n), q) - tsallis_entropy(r, q)
    assert rep.lower == n * r._lo * braced
    assert rep.upper == n * r._hi * braced


@pytest.mark.parametrize("n, q", GRID, ids=IDS)
def test_quasilinear_vs_tsallis_bits(n, q):
    _, r = _pair(n, q)
    inv = 1.0 / r.weights
    for name, psi in _psis(q).items():
        rep = quasilinear_vs_tsallis_bounds(psi, r, q)
        braced = q_log(
            float(psi.inverse(np.asarray(np.mean(psi.forward(inv))))), q
        ) - float(np.mean(_ln_q(inv, q)))
        assert rep.value == tsallis_quasilinear_entropy(psi, r, q) - tsallis_entropy(r, q), name
        assert rep.lower == n * r._lo * braced, name
        assert rep.upper == n * r._hi * braced, name


@pytest.mark.parametrize("n, q", GRID, ids=IDS)
def test_spread_bounds_bits(n, q):
    p, r = _pair(n, q)
    w = p.weights
    spread_p = pairwise_spread(1.0 / w, p)
    spread_r = pairwise_spread(1.0 / r.weights, p)

    rep = maxent_variance_bounds(p, q, MQ, BIG_MQ)
    assert (rep.lower, rep.value, rep.upper) == (
        0.5 * MQ * spread_p,
        q_log(float(n), q) - tsallis_entropy(p, q),
        0.5 * BIG_MQ * spread_p,
    )

    rep = cross_term_gap_sandwich(p, r, q, MQ, BIG_MQ)
    assert (rep.lower, rep.upper) == (0.5 * MQ * spread_r, 0.5 * BIG_MQ * spread_r)

    rep = tsallis_cross_entropy_sandwich(p, r, q, MQ, BIG_MQ)
    base = q_log(float((w / r.weights).sum()), q) - q_log(float(n), q)
    assert rep.value == float(w @ _ln_q(1.0 / r.weights, q)) - float(w @ _ln_q(1.0 / w, q))
    assert rep.lower == base + 0.5 * MQ * spread_p - 0.5 * BIG_MQ * spread_r
    assert rep.upper == base + 0.5 * BIG_MQ * spread_p - 0.5 * MQ * spread_r


def _family(q):
    return (xlogx_generator(), neglog_generator(), tsallis_generator(q), neg_qlog_generator(q))


@pytest.mark.parametrize("n, q", GRID, ids=IDS)
def test_f_divergence_sandwich_bits(n, q):
    # the reference is the checked route: IncompleteDist and q_log evals
    p, r = _pair(n, q)
    for f in _family(q):
        rep = f_divergence_sandwich(f, p, r)
        t = IncompleteDist(p.weights**2 / r.weights)
        factor = incomplete_f_divergence(dual_generator(f), t, IncompleteDist(p.weights)) - float(
            np.asarray(f.eval(np.asarray(float(t.weights.sum()))))
        )
        ratios = r.weights / p.weights
        assert rep.value == f_divergence(f, p, r), f.label
        assert rep.lower == float(ratios.min()) * factor, f.label
        assert rep.upper == float(ratios.max()) * factor, f.label


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0, 4.0])
def test_f_divergence_sandwich_of_the_family_calls_no_checked_q_log(q, monkeypatch):
    p, r = _pair(16, q)
    reports = [f_divergence_sandwich(f, p, r) for f in _family(q)]

    def checked(*args):
        raise AssertionError("q_log called")

    monkeypatch.setattr(divergence, "q_log", checked)
    monkeypatch.setattr(divergence, "IncompleteDist", checked)
    assert [f_divergence_sandwich(f, p, r) for f in _family(q)] == reports


def test_eval_within_falls_back_to_the_checked_eval():
    # bounds that prove nothing leave the checks, and their errors, to eval
    g = neg_qlog_generator(4.0)
    x = np.array([0.5, 2.0])
    assert divergence._eval_within(g, x, 0.0, 2.0).tolist() == g.eval(x).tolist()
    assert divergence._eval_within(g, x, 0.5, np.inf).tolist() == g.eval(x).tolist()
    f = tsallis_generator(4.0)
    assert divergence._eval_within(f, x, 0.5, 2.0).tolist() == f.eval(x).tolist()
    with pytest.raises(DomainError, match="overflows"):
        divergence._eval_within(g, np.array([1e-300]), 1e-300, 1e-300)
    with pytest.raises(DomainError, match="finite x > 0"):
        divergence._eval_within(f, np.array([np.inf]), 1.0, np.inf)


def test_quasilinear_vs_tsallis_evaluates_psi_once():
    calls = []

    def forward(x):
        calls.append(1)
        return q_log(x, 0.5)

    psi = GeneratorPsi(
        forward=forward,
        inverse=lambda y: q_exp(y, 0.5),
        direction="increasing",
        shape="concave",
        label="counting-lnq",
    )
    calls.clear()
    _, r = _pair(16, 0.5)
    quasilinear_vs_tsallis_bounds(psi, r, 0.5)
    assert len(calls) == 1


def test_smooth_jensen_rejects_nan_points():
    # the interval check skips a NaN; the spread's finiteness check catches it
    p = ProbDist([0.5, 0.5])
    drange = SecondDerivativeRange(0.0, 2.0, (0.0, 1.0))
    with pytest.raises(DomainError, match="xs must be finite"):
        smooth_jensen_sandwich(np.square, drange, [0.5, np.nan], p)


def test_quasilinear_vs_tsallis_accepts_an_array_like_forward():
    # validation accepts a forward that returns a list; the chain must too
    psi = GeneratorPsi(
        forward=lambda x: list(np.log(x)),
        inverse=np.exp,
        direction="increasing",
        shape="concave",
        label="list-log",
    )
    r = ProbDist([0.25, 0.75])
    assert quasilinear_vs_tsallis_bounds(psi, r, 0.5) == quasilinear_vs_tsallis_bounds(
        log_generator(), r, 0.5
    )
