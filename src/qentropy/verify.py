"""Randomized verification harness.

Every inequality and identity exposed by the library is registered here as a
named case. A case draws random instances, evaluates the claim, and reports a
normalized violation

    v = raw_violation / (1 + scale)

where ``scale`` is the magnitude of the quantities being compared, so a single
threshold acts as a combined absolute and relative tolerance. Exact identities
use a tighter default threshold; the deformed-additivity residual is compared
in absolute terms.

Trial t of case c under seed s draws from ``SeedSequence((s, index(c), t))``,
so every trial has its own stream and results do not depend on execution
order or batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import (
    BoundReport,
    SecondDerivativeRange,
    cartwright_field,
    cross_term_gap_sandwich,
    f_divergence_sandwich,
    maxent_variance_bounds,
    ratio_sandwich,
    refined_maxent_bounds,
    quasilinear_vs_tsallis_bounds,
    lagrange_identity,
    smooth_jensen_sandwich,
    tightest_constants,
    tsallis_cross_entropy_sandwich,
)
from .dist import IncompleteDist, NestedDist, Partition, ProbDist, coarsen, power_sum
from .divergence import (
    complement_cross_entropy,
    f_by_label,
    kl_divergence,
    neg_qlog_generator,
    neglog_generator,
    renyi_relative,
    renyi_tsallis_relative_bridge,
    tsallis_relative,
    xlogx_generator,
)
from .entropy import renyi_entropy, renyi_tsallis_bridge, tsallis_entropy
from .errors import DomainError, HypothesisError, UnknownCaseError
from .joint import (
    JointDist,
    chain_rule_decomposition,
    conditioning_reduces_entropy_check,
    han_sandwich,
    marginal,
    tsallis_conditional_entropy,
    tsallis_joint_entropy,
)
from .quasilinear import (
    GeneratorPsi,
    identity_generator,
    log_generator,
    psi_by_label,
    tsallis_quasilinear_entropy,
    tsallis_quasilinear_relative,
)
from .serialize import SCHEMA, dumps

__all__ = [
    "MIN_MASS",
    "DEFAULT_Q_GRID",
    "Profile",
    "DEFAULT_PROFILE",
    "STRESS_PROFILE",
    "TheoremCase",
    "VerifyReport",
    "REGISTRY",
    "get_case",
    "sample_simplex",
    "run_case",
    "run_registry",
    "has_failures",
]

MIN_MASS = 1e-6

# q values every parameterized case cycles through, clipped to its hypothesis.
DEFAULT_Q_GRID = (0.0, 0.25, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0, 4.0)

IDENTITY_TOL = 1e-10


def _check_tol(tol) -> None:
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")


@dataclass(frozen=True)
class Profile:
    """Sampling floor and violation threshold for a verification run.

    ``min_mass`` must lie in [0, 1) and ``tol`` must be finite and >= 0: a
    NaN threshold would pass every trial and a negative one fail them all.
    """

    min_mass: float = MIN_MASS
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_mass < 1.0:
            raise DomainError(
                f"min_mass must be finite and in [0, 1), got {self.min_mass!r}"
            )
        _check_tol(self.tol)


DEFAULT_PROFILE = Profile()
# Tiny masses make the float error of the bound chains themselves the story;
# the stress profile pushes the floor down and loosens the threshold to match.
STRESS_PROFILE = Profile(min_mass=1e-9, tol=1e-6)


def sample_simplex(n: int, rng: np.random.Generator, min_mass: float = MIN_MASS) -> ProbDist:
    """Draw a point of the n-simplex with every mass at least ~min_mass."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if n == 1:
        return ProbDist(np.asarray([1.0]))
    g = rng.exponential(size=n)
    w = g / g.sum()
    w = np.maximum(w, min_mass)
    return ProbDist(w / w.sum())


def _sample_partition(n: int, rng: np.random.Generator) -> Partition:
    k = int(rng.integers(1, n + 1))
    perm = [int(i) for i in rng.permutation(n)]
    if k == 1:
        return Partition((tuple(perm),))
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=k - 1, replace=False))
    edges = [0, *cuts, n]
    blocks = tuple(tuple(perm[a:b]) for a, b in zip(edges[:-1], edges[1:]))
    return Partition(blocks)


def _sample_joint(rng: np.random.Generator, profile: Profile, k: int | None = None) -> JointDist:
    if k is None:
        k = int(rng.integers(2, 5))
    dims = tuple(int(d) for d in rng.integers(2, 5, size=k))
    g = rng.exponential(size=int(np.prod(dims)))
    c = g / g.sum()
    c = np.maximum(c, profile.min_mass)
    c = c / c.sum()
    return JointDist(c.reshape(dims))


def _sample_nested(rng: np.random.Generator, profile: Profile) -> NestedDist:
    sizes = [int(s) for s in rng.integers(1, 5, size=int(rng.integers(2, 7)))]
    g = rng.exponential(size=sum(sizes))
    c = g / g.sum()
    c = np.maximum(c, profile.min_mass)
    c = c / c.sum()
    rows = []
    start = 0
    for s in sizes:
        rows.append(c[start : start + s])
        start += s
    return NestedDist(tuple(rows))


def _lst(arr) -> list:
    return np.asarray(arr, dtype=float).ravel().tolist()


def _ineq(lhs: float, rhs: float) -> float:
    """Normalized violation of lhs <= rhs."""
    return (lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))


def _eq(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))


def _chain(report: BoundReport) -> float:
    return report.violation() / (1.0 + report.scale())


# The generator factories memoize on q, so a trial that draws a generator
# gets the instance whose construction-time self checks already ran.
def _pick_entropy_psi(rng: np.random.Generator, q: float) -> GeneratorPsi:
    kind = ("identity", "log", "lnq", "power")[int(rng.integers(4))]
    return psi_by_label(kind, q)


# ---------------------------------------------------------------------------
# trial runners
# ---------------------------------------------------------------------------


def _trial_entropy_nonneg(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    psi = _pick_entropy_psi(rng, q)
    val = tsallis_quasilinear_entropy(psi, p, q)
    return -val / (1.0 + abs(val)), {"psi": psi.label, "p": _lst(p.weights)}


def _trial_coarsen_entropy(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    part = _sample_partition(n, rng)
    c = coarsen(p, part)
    s_fine = power_sum(p, q)
    s_coarse = power_sum(c, q)
    # coarsening pushes the power sum toward 1 from either side
    if q < 1.0:
        raw = s_coarse - s_fine
    elif q > 1.0:
        raw = s_fine - s_coarse
    else:
        raw = abs(s_fine - s_coarse)
    v = raw / (1.0 + max(s_fine, s_coarse))
    v = max(v, _ineq(tsallis_entropy(c, q), tsallis_entropy(p, q)))
    v = max(v, _ineq(renyi_entropy(c, q), renyi_entropy(p, q)))
    return v, {"p": _lst(p.weights), "blocks": [list(b) for b in part.blocks]}


def _trial_relative_nonneg(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    psi = _pick_entropy_psi(rng, q)
    val = tsallis_quasilinear_relative(psi, p, r, q)
    return -val / (1.0 + abs(val)), {
        "psi": psi.label,
        "p": _lst(p.weights),
        "r": _lst(r.weights),
    }


def _trial_coarsen_relative(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    part = _sample_partition(n, rng)
    cp, cr = coarsen(p, part), coarsen(r, part)
    v = _ineq(renyi_relative(cp, cr, q), renyi_relative(p, r, q))
    v = max(v, _ineq(tsallis_relative(cp, cr, q), tsallis_relative(p, r, q)))
    return v, {
        "p": _lst(p.weights),
        "r": _lst(r.weights),
        "blocks": [list(b) for b in part.blocks],
    }


def _square(x):
    return np.square(x)


def _pick_sandwich_pair(rng, q):
    # (f, psi) with f convex and f(psi^{-1}) convex; psi=log only pairs with
    # the deformed log generator when q >= 1, where exp stays convex under it
    n_opts = 4 if q >= 1.0 else 3
    k = int(rng.integers(n_opts))
    if k == 0:
        return _square, "square", identity_generator()
    if k == 1:
        return neg_qlog_generator(q), "neg_qlog", identity_generator()
    if k == 2:
        return xlogx_generator(), "xlogx", identity_generator()
    return neg_qlog_generator(q), "neg_qlog", log_generator()


def _trial_ratio_sandwich(rng, n, q, profile):
    xs = rng.uniform(0.1, 10.0, n)
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    f, f_label, psi = _pick_sandwich_pair(rng, q)
    rep = ratio_sandwich(f, psi, xs, p, r)
    return _chain(rep), {
        "f": f_label,
        "psi": psi.label,
        "xs": _lst(xs),
        "p": _lst(p.weights),
        "r": _lst(r.weights),
    }


def _pick_maxent_psi(rng, q):
    kinds = ("identity", "lnq", "power", "log") if q >= 1.0 else ("identity", "lnq", "power")
    return psi_by_label(kinds[int(rng.integers(len(kinds)))], q)


def _trial_quasilinear_gap(rng, n, q, profile):
    r = sample_simplex(n, rng, profile.min_mass)
    psi = _pick_maxent_psi(rng, q)
    rep = quasilinear_vs_tsallis_bounds(psi, r, q)
    v = max(_chain(rep), -rep.lower / (1.0 + rep.scale()))
    return v, {"psi": psi.label, "r": _lst(r.weights)}


def _trial_refined_maxent(rng, n, q, profile):
    r = sample_simplex(n, rng, profile.min_mass)
    rep = refined_maxent_bounds(r, q)
    v = max(_chain(rep), -rep.lower / (1.0 + rep.scale()))
    return v, {"r": _lst(r.weights)}


def _trial_fdiv_sandwich(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    kind = ("tsallis", "xlogx", "neglog")[int(rng.integers(3))]
    f = f_by_label(kind, q)
    rep = f_divergence_sandwich(f, p, r)
    v = max(_chain(rep), -rep.lower / (1.0 + rep.scale()))
    return v, {"f": f.label, "p": _lst(p.weights), "r": _lst(r.weights)}


def _trial_reversed_kl(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    rep = f_divergence_sandwich(neglog_generator(), p, r)
    # independent route to the same chain
    t = p.weights**2 / r.weights
    factor = float(np.log(t.sum())) - kl_divergence(p, r)
    ratios = r.weights / p.weights
    rev = kl_divergence(r, p)
    v = max(
        _chain(rep),
        _eq(rep.value, rev),
        _eq(rep.lower, float(ratios.min()) * factor),
        _eq(rep.upper, float(ratios.max()) * factor),
        -factor / (1.0 + abs(factor)),
    )
    return v, {"p": _lst(p.weights), "r": _lst(r.weights)}


def _trial_lagrange(rng, n, q, profile):
    a = rng.normal(0.0, 1.0, n)
    b = rng.normal(0.0, 1.0, n)
    lhs, _ = lagrange_identity(a, b)
    # the identity as the paper states it: the literal double sum over i < j
    cross = a[:, None] * b[None, :] - a[None, :] * b[:, None]
    rhs = 0.5 * float(np.sum(cross**2))
    return _eq(lhs, rhs), {"a": _lst(a), "b": _lst(b)}


def _quartic(x):
    return np.asarray(x) ** 4


def _pick_smooth_f(rng, q, lo, hi):
    k = int(rng.integers(4))
    if k == 0:
        return _square, "square", 2.0, 2.0
    if k == 1:
        return np.exp, "exp", math.exp(lo), math.exp(hi)
    if k == 2:
        return _quartic, "quartic", 12.0 * lo * lo, 12.0 * hi * hi
    f = neg_qlog_generator(q)
    return f, f.label, q * hi ** (-q - 1.0), q * lo ** (-q - 1.0)


def _trial_smooth_jensen(rng, n, q, profile):
    xs = rng.uniform(0.1, 10.0, n)
    p = sample_simplex(n, rng, profile.min_mass)
    lo, hi = float(xs.min()), float(xs.max())
    f, label, m, big_m = _pick_smooth_f(rng, q, lo, hi)
    rep = smooth_jensen_sandwich(f, SecondDerivativeRange(m, big_m, (lo, hi)), xs, p)
    return _chain(rep), {"f": label, "xs": _lst(xs), "p": _lst(p.weights)}


def _trial_spread_identity(rng, n, q, profile):
    xs = rng.uniform(-5.0, 5.0, n)
    p = sample_simplex(n, rng, profile.min_mass)
    w = p.weights
    mean = float(w @ xs)
    s_var = float(w @ (xs - mean) ** 2)
    diffs = xs[None, :] - xs[:, None]
    s_pair = 0.5 * float((w[:, None] * w[None, :] * diffs * diffs).sum())
    return _eq(s_pair, s_var), {"xs": _lst(xs), "p": _lst(w)}


def _trial_variance_jensen(rng, n, q, profile):
    xs = rng.uniform(0.1, 10.0, n)
    p = sample_simplex(n, rng, profile.min_mass)
    lo, hi = float(xs.min()), float(xs.max())
    f, label, m, big_m = _pick_smooth_f(rng, q, lo, hi)
    fe = getattr(f, "eval", f)
    w = p.weights
    mean = float(w @ xs)
    gap = float(w @ np.asarray(fe(xs), dtype=float)) - float(np.asarray(fe(mean), dtype=float))
    spread = float(w @ (xs - mean) ** 2)
    rep = BoundReport(0.5 * m * spread, gap, 0.5 * big_m * spread)
    return _chain(rep), {"f": label, "xs": _lst(xs), "p": _lst(w)}


def _trial_am_gm(rng, n, q, profile):
    xs = rng.uniform(0.1, 10.0, n)
    p = sample_simplex(n, rng, profile.min_mass)
    rep = cartwright_field(xs, p)
    return _chain(rep), {"xs": _lst(xs), "p": _lst(p.weights)}


def _cross_entropy_chain_v(p, r, q):
    dr = tightest_constants(p, r, q)
    main = tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M)
    cross = cross_term_gap_sandwich(p, r, q, dr.m, dr.M)
    maxent = maxent_variance_bounds(p, q, dr.m, dr.M)
    return max(_chain(main), _chain(cross), _chain(maxent))


def _trial_cross_entropy_chain(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    return _cross_entropy_chain_v(p, r, q), {"p": _lst(p.weights), "r": _lst(r.weights)}


def _trial_cross_entropy_chain_q1(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    return _cross_entropy_chain_v(p, r, 1.0), {"p": _lst(p.weights), "r": _lst(r.weights)}


def _trial_complement(rng, n, q, profile):
    n = max(n, 2)  # components must stay below 1
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    self_term, cross_term = complement_cross_entropy(p, r)
    return _ineq(self_term, cross_term), {"p": _lst(p.weights), "r": _lst(r.weights)}


def _trial_chain_rule_pair(rng, n, q, profile):
    j = _sample_joint(rng, profile, k=2)
    h_joint = tsallis_joint_entropy(j, q)
    h_first = tsallis_joint_entropy(marginal(j, (0,)), q)
    h_cond = tsallis_conditional_entropy(j, (1,), (0,), q)
    return _eq(h_joint, h_first + h_cond), {"dims": list(j.dims), "cells": _lst(j.cells)}


def _trial_chain_rule_multi(rng, n, q, profile):
    j = _sample_joint(rng, profile)
    order = tuple(int(a) for a in rng.permutation(j.ndim))
    terms = chain_rule_decomposition(j, order, q)
    return _eq(tsallis_joint_entropy(j, q), math.fsum(terms)), {
        "dims": list(j.dims),
        "order": list(order),
        "cells": _lst(j.cells),
    }


def _trial_conditioning(rng, n, q, profile):
    j = _sample_joint(rng, profile, k=2)
    cond, marg = conditioning_reduces_entropy_check(j, q)
    return _ineq(cond, marg), {"dims": list(j.dims), "cells": _lst(j.cells)}


def _trial_han(rng, n, q, profile):
    j = _sample_joint(rng, profile)
    if q >= 1.0:
        rep = han_sandwich(j, q)
    else:
        # only reachable when probing outside the hypothesis: build the same
        # chain without the library's q guard so the violation is measurable
        k = j.ndim
        loo = math.fsum(
            tsallis_joint_entropy(marginal(j, tuple(a for a in range(k) if a != i)), q)
            for i in range(k)
        )
        rep = BoundReport(0.0, tsallis_joint_entropy(j, q), loo / (k - 1))
    return _chain(rep), {"dims": list(j.dims), "cells": _lst(j.cells)}


def _trial_entropy_bridge(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    lhs, rhs = renyi_tsallis_bridge(p, q)
    return _eq(lhs, rhs), {"p": _lst(p.weights)}


def _trial_relative_bridge(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    lhs, rhs = renyi_tsallis_relative_bridge(p, r, q)
    return _eq(lhs, rhs), {"p": _lst(p.weights), "r": _lst(r.weights)}


def _trial_deformed_additivity(rng, n, q, profile):
    nd = _sample_nested(rng, profile)
    h_flat = tsallis_entropy(nd.flatten(), q)
    h_coarse = tsallis_entropy(nd.coarse(), q)
    sums = nd.row_sums
    inner = math.fsum(
        float(sums[i]) ** q * tsallis_entropy(ProbDist(row / row.sum()), q)
        for i, row in enumerate(nd.rows)
    )
    # absolute residual: the identity is exact, scales here are O(ln_q n)
    raw = abs(h_flat - (h_coarse + inner))
    return raw, {"rows": [_lst(row) for row in nd.rows]}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremCase:
    """One registered claim with its admissible q range."""

    id: str
    description: str
    trial: Callable
    q_lo: float | None = 0.0
    q_hi: float | None = 4.0
    q_lo_strict: bool = False
    tol: float | None = None

    def admits(self, q: float) -> bool:
        if self.q_lo is None:
            return True
        if self.q_lo_strict:
            if not q > self.q_lo:
                return False
        elif q < self.q_lo:
            return False
        return q <= self.q_hi


def _case(*args, **kwargs) -> tuple[str, TheoremCase]:
    c = TheoremCase(*args, **kwargs)
    return c.id, c


# Definition order is load-bearing: the position of a case in this dict feeds
# the per-trial seed derivation. Append new cases at the end only.
REGISTRY: dict[str, TheoremCase] = dict(
    [
        _case("prop2.1", "generator entropy is nonnegative", _trial_entropy_nonneg),
        _case(
            "prop2.2",
            "coarsening pulls power sums toward 1 and never raises entropy",
            _trial_coarsen_entropy,
        ),
        _case(
            "prop2.3",
            "generator relative entropy is nonnegative for compatible generators",
            _trial_relative_nonneg,
        ),
        _case(
            "prop2.4",
            "coarsening never raises relative entropies",
            _trial_coarsen_relative,
            q_hi=2.0,
        ),
        _case("prop3.1", "weighted Jensen gaps obey the ratio sandwich", _trial_ratio_sandwich),
        _case(
            "thm3.1",
            "generator-mean entropy gap obeys scaled uniform-gap bounds",
            _trial_quasilinear_gap,
        ),
        _case("cor3.1", "refined two-sided bounds on the max-entropy gap", _trial_refined_maxent),
        _case("thm3.2", "f-divergence obeys the dual-generator ratio sandwich", _trial_fdiv_sandwich),
        _case(
            "cor_dra",
            "reversed KL sandwich from the negative-log generator",
            _trial_reversed_kl,
            q_lo=None,
            q_hi=None,
        ),
        _case("lem4.1", "Lagrange identity on random vectors", _trial_lagrange, q_lo=None, q_hi=None),
        _case(
            "thm4.1",
            "smooth Jensen gap bounded by curvature times half the spread",
            _trial_smooth_jensen,
        ),
        _case(
            "lem4.2",
            "pairwise spread equals weighted variance",
            _trial_spread_identity,
            q_lo=None,
            q_hi=None,
        ),
        _case("cor4.1", "variance form of the smooth Jensen sandwich", _trial_variance_jensen),
        _case(
            "cf",
            "variance bounds on the arithmetic-geometric mean gap",
            _trial_am_gm,
            q_lo=None,
            q_hi=None,
        ),
        _case(
            "thm4.2",
            "deformed cross-entropy gap two-sided chain",
            _trial_cross_entropy_chain,
            q_lo=0.0,
            q_lo_strict=True,
        ),
        _case(
            "cor4",
            "cross-entropy gap chain at the undeformed point",
            _trial_cross_entropy_chain_q1,
            q_lo=None,
            q_hi=None,
        ),
        _case(
            "prop4.1",
            "complement self term is bounded by the complement cross term",
            _trial_complement,
            q_lo=None,
            q_hi=None,
        ),
        _case("prop5.1", "two-axis chain rule is exact", _trial_chain_rule_pair),
        _case("prop5.2", "multi-axis chain rule is exact", _trial_chain_rule_multi),
        _case(
            "prop5.3",
            "conditioning does not raise entropy above the undeformed point",
            _trial_conditioning,
            q_lo=1.0,
        ),
        _case(
            "thm5.1",
            "joint entropy bounded by scaled leave-one-out sum",
            _trial_han,
            q_lo=1.0,
        ),
        _case(
            "id14",
            "exp of collision-family entropy equals deformed exp of its power mate",
            _trial_entropy_bridge,
            tol=IDENTITY_TOL,
        ),
        _case(
            "id16",
            "exp of relative collision-family divergence equals dual-deformed exp",
            _trial_relative_bridge,
            q_hi=2.0,
            tol=IDENTITY_TOL,
        ),
        _case(
            "qadd",
            "two-level refinement additivity is exact",
            _trial_deformed_additivity,
            tol=IDENTITY_TOL,
        ),
    ]
)

_CASE_INDEX = {cid: i for i, cid in enumerate(REGISTRY)}


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of running one case for a number of trials."""

    case: str
    trials: int
    violations: int
    worst_violation: float
    worst_witness: dict
    seed: int
    in_hypothesis: bool = True

    def to_json_line(self) -> str:
        return dumps(
            {
                "schema": SCHEMA,
                "case": self.case,
                "trials": self.trials,
                "violations": self.violations,
                "worst_violation": self.worst_violation,
                "worst_witness": self.worst_witness,
                "seed": self.seed,
                "in_hypothesis": self.in_hypothesis,
            }
        )


def get_case(case_id: str) -> TheoremCase:
    try:
        return REGISTRY[case_id]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise UnknownCaseError(f"unknown case {case_id!r}; known cases: {known}") from None


def run_case(
    case: TheoremCase | str,
    trials: int = 1000,
    seed: int = 42,
    *,
    n_range: tuple[int, int] = (2, 16),
    q_grid: tuple[float, ...] = DEFAULT_Q_GRID,
    override_hypothesis: bool = False,
    profile: Profile = DEFAULT_PROFILE,
    tol: float | None = None,
) -> VerifyReport:
    """Run one case and count normalized violations above the threshold.

    q values outside the case hypothesis raise HypothesisError unless
    ``override_hypothesis`` is set, in which case the report is flagged
    ``in_hypothesis: false`` and violations are expected, not failures.
    """
    if isinstance(case, str):
        case = get_case(case)
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"need seed >= 0, got {seed}")
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo < 1 or hi < lo:
        raise DomainError(f"bad n_range {n_range!r}")
    if tol is not None:
        _check_tol(tol)

    qs: list[float] | None
    in_hypothesis = True
    if case.q_lo is None:
        qs = None
    else:
        grid = [float(x) for x in q_grid]
        if not grid:
            raise DomainError("q_grid is empty")
        for qv in grid:
            if not math.isfinite(qv) or qv < 0.0:
                raise DomainError(f"q grid value {qv} outside [0, inf)")
        admitted = [qv for qv in grid if case.admits(qv)]
        if override_hypothesis:
            qs = grid
            in_hypothesis = len(admitted) == len(grid)
        else:
            if not admitted:
                raise HypothesisError(
                    f"case {case.id} admits no q in {grid}; "
                    "pass override_hypothesis=True to probe outside its hypothesis"
                )
            qs = admitted

    eff_tol = tol if tol is not None else (case.tol if case.tol is not None else profile.tol)
    case_index = _CASE_INDEX[case.id]

    violations = 0
    worst = -math.inf
    worst_witness: dict = {}
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, case_index, t)))
        n = int(rng.integers(lo, hi + 1))
        qv = qs[t % len(qs)] if qs is not None else None
        v, witness = case.trial(rng, n, qv, profile)
        v = float(v)
        if v > worst:
            worst = v
            head = {"trial": t, "n": n}
            if qv is not None:
                head["q"] = qv
            worst_witness = {**head, **witness}
        if v > eff_tol:
            violations += 1
    return VerifyReport(
        case=case.id,
        trials=trials,
        violations=violations,
        worst_violation=worst,
        worst_witness=worst_witness,
        seed=seed,
        in_hypothesis=in_hypothesis,
    )


def run_registry(
    trials: int = 1000,
    seed: int = 42,
    *,
    n_range: tuple[int, int] = (2, 16),
    q_grid: tuple[float, ...] = DEFAULT_Q_GRID,
    override_hypothesis: bool = False,
    profile: Profile = DEFAULT_PROFILE,
    tol: float | None = None,
) -> list[VerifyReport]:
    return [
        run_case(
            c,
            trials,
            seed,
            n_range=n_range,
            q_grid=q_grid,
            override_hypothesis=override_hypothesis,
            profile=profile,
            tol=tol,
        )
        for c in REGISTRY.values()
    ]


def has_failures(reports) -> bool:
    """True when any in-hypothesis report recorded violations."""
    return any(r.in_hypothesis and r.violations > 0 for r in reports)
