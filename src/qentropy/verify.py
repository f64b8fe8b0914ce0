"""Randomized verification harness.

Every inequality and identity exposed by the library is registered here as a
named case. A case's trial runner draws random instances and returns the
claims it checked, with the inputs it drew. The harness scores each claim as
a normalized violation, raw violation over (1 + scale), where scale is the
magnitude of the quantities compared, so one threshold acts as a combined
absolute and relative tolerance. A trial's v is the largest score of its
claims; v > 0 means a claim fails. The claim kinds:

- a ``BoundReport``, lower <= value <= upper: violation() / (1 + scale());
- ``Le(lhs, rhs)``, lhs <= rhs: (lhs - rhs) / (1 + max(|lhs|, |rhs|));
- ``Eq(lhs, rhs)``, the identity lhs = rhs: |lhs - rhs| / (1 + max(|lhs|, |rhs|));
- ``FromZero(report)``, the chain 0 <= lower <= value <= upper:
  max(violation(), -lower) / (1 + scale());
- a bare float, an absolute residual, scored as itself.

Exact identities use a tighter default threshold. A report's witness holds
the inputs of its worst trial; it is rendered only when a trial sets a new
worst.

Trial t of case c under seed s draws from
``PCG64(SeedSequence(s, spawn_key=(index(c),))).jumped(t)``: each case is a
spawned child of the seed, and each trial a disjoint jump along its stream
(NumPy's guide to parallel random number generation), so results do not
depend on execution order or batching, and a witness replays from (seed,
case, trial) alone.  ``run_case`` builds one generator per call and steps
its state from one trial's start to the next with the jump's affine map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
from .dist import NestedDist, Partition, ProbDist, _derived, coarsen, power_sum
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


def _masses(rng: np.random.Generator, size: int, min_mass: float) -> np.ndarray:
    """Normalized exponential draws, floored at min_mass and renormalized."""
    g = rng.exponential(size=size)
    w = np.maximum(g / g.sum(), min_mass)
    return w / w.sum()


def sample_simplex(n: int, rng: np.random.Generator, min_mass: float = MIN_MASS) -> ProbDist:
    """Draw a point of the n-simplex with every mass at least ~min_mass."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if n == 1:
        return _derived(ProbDist, np.array([1.0]))
    return _derived(ProbDist, _masses(rng, n, min_mass))


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
    return _derived(JointDist, _masses(rng, math.prod(dims), profile.min_mass).reshape(dims))


def _sample_nested(rng: np.random.Generator, profile: Profile) -> NestedDist:
    sizes = [int(s) for s in rng.integers(1, 5, size=int(rng.integers(2, 7)))]
    c = _masses(rng, sum(sizes), profile.min_mass)
    return NestedDist(tuple(np.split(c, np.cumsum(sizes[:-1]))))


# ---------------------------------------------------------------------------
# claims and their scores
# ---------------------------------------------------------------------------


class Le(NamedTuple):
    """lhs <= rhs. 0 <= x is Le(-0.0, x): -0.0 - x is -x bit for bit, 0.0 - x is not."""

    lhs: float
    rhs: float


class Eq(NamedTuple):
    """lhs = rhs. As BoundReport(rhs, lhs, rhs) it would score -0.0 at (0.0, -0.0)."""

    lhs: float
    rhs: float


class FromZero(NamedTuple):
    """0 <= report.lower <= report.value <= report.upper."""

    report: BoundReport


def _score(claim) -> float:
    """Normalized violation of one claim, as the module docstring lists."""
    if isinstance(claim, BoundReport):
        return claim.violation() / (1.0 + claim.scale())
    if isinstance(claim, FromZero):
        rep = claim.report
        # dividing by 1 + scale > 0 is monotone: this is the larger quotient
        return max(rep.violation(), -rep.lower) / (1.0 + rep.scale())
    if isinstance(claim, (Le, Eq)):
        lhs, rhs = claim
        raw = lhs - rhs if isinstance(claim, Le) else abs(lhs - rhs)
        return raw / (1.0 + max(abs(lhs), abs(rhs)))
    return claim


def _render(x):
    """A witness input as JSON data: arrays flattened, tuples as lists."""
    if isinstance(x, np.ndarray):
        return x.ravel().tolist()
    return [_render(e) for e in x] if isinstance(x, tuple) else x


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
    return [Le(-0.0, val)], {"psi": psi.label, "p": p.weights}


def _trial_coarsen_entropy(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    part = _sample_partition(n, rng)
    c = coarsen(p, part)
    s_fine = power_sum(p, q)
    s_coarse = power_sum(c, q)
    # coarsening pushes the power sum toward 1 from either side
    if q < 1.0:
        toward_one = Le(s_coarse, s_fine)
    elif q > 1.0:
        toward_one = Le(s_fine, s_coarse)
    else:
        toward_one = Eq(s_fine, s_coarse)
    return [
        toward_one,
        Le(tsallis_entropy(c, q), tsallis_entropy(p, q)),
        Le(renyi_entropy(c, q), renyi_entropy(p, q)),
    ], {"p": p.weights, "blocks": part.blocks}


def _trial_relative_nonneg(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    psi = _pick_entropy_psi(rng, q)
    val = tsallis_quasilinear_relative(psi, p, r, q)
    return [Le(-0.0, val)], {"psi": psi.label, "p": p.weights, "r": r.weights}


def _trial_coarsen_relative(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    part = _sample_partition(n, rng)
    cp, cr = coarsen(p, part), coarsen(r, part)
    return [
        Le(renyi_relative(cp, cr, q), renyi_relative(p, r, q)),
        Le(tsallis_relative(cp, cr, q), tsallis_relative(p, r, q)),
    ], {"p": p.weights, "r": r.weights, "blocks": part.blocks}


def _pick_sandwich_pair(rng, q):
    # (f, psi) with f convex and f(psi^{-1}) convex; psi=log only pairs with
    # the deformed log generator when q >= 1, where exp stays convex under it
    n_opts = 4 if q >= 1.0 else 3
    k = int(rng.integers(n_opts))
    if k == 0:
        return np.square, "square", identity_generator()
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
    return [rep], {"f": f_label, "psi": psi.label, "xs": xs, "p": p.weights, "r": r.weights}


def _pick_maxent_psi(rng, q):
    kinds = ("identity", "lnq", "power", "log") if q >= 1.0 else ("identity", "lnq", "power")
    return psi_by_label(kinds[int(rng.integers(len(kinds)))], q)


def _trial_quasilinear_gap(rng, n, q, profile):
    r = sample_simplex(n, rng, profile.min_mass)
    psi = _pick_maxent_psi(rng, q)
    rep = quasilinear_vs_tsallis_bounds(psi, r, q)
    return [FromZero(rep)], {"psi": psi.label, "r": r.weights}


def _trial_refined_maxent(rng, n, q, profile):
    r = sample_simplex(n, rng, profile.min_mass)
    return [FromZero(refined_maxent_bounds(r, q))], {"r": r.weights}


def _trial_fdiv_sandwich(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    kind = ("tsallis", "xlogx", "neglog")[int(rng.integers(3))]
    f = f_by_label(kind, q)
    rep = f_divergence_sandwich(f, p, r)
    return [FromZero(rep)], {"f": f.label, "p": p.weights, "r": r.weights}


def _trial_reversed_kl(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    rep = f_divergence_sandwich(neglog_generator(), p, r)
    # independent route to the same chain
    t = p.weights**2 / r.weights
    factor = float(np.log(t.sum())) - kl_divergence(p, r)
    ratios = r.weights / p.weights
    rev = kl_divergence(r, p)
    return [
        rep,
        Eq(rep.value, rev),
        Eq(rep.lower, float(ratios.min()) * factor),
        Eq(rep.upper, float(ratios.max()) * factor),
        Le(-0.0, factor),
    ], {"p": p.weights, "r": r.weights}


def _trial_lagrange(rng, n, q, profile):
    a = rng.normal(0.0, 1.0, n)
    b = rng.normal(0.0, 1.0, n)
    lhs, _ = lagrange_identity(a, b)
    # the identity as the paper states it: the literal double sum over i < j
    cross = a[:, None] * b[None, :] - a[None, :] * b[:, None]
    rhs = 0.5 * float((cross**2).sum())
    return [Eq(lhs, rhs)], {"a": a, "b": b}


def _quartic(x):
    return np.asarray(x) ** 4


def _pick_smooth_f(rng, q, lo, hi):
    k = int(rng.integers(4))
    if k == 0:
        return np.square, "square", 2.0, 2.0
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
    return [rep], {"f": label, "xs": xs, "p": p.weights}


def _trial_spread_identity(rng, n, q, profile):
    xs = rng.uniform(-5.0, 5.0, n)
    p = sample_simplex(n, rng, profile.min_mass)
    w = p.weights
    mean = float(w @ xs)
    s_var = float(w @ (xs - mean) ** 2)
    diffs = xs[None, :] - xs[:, None]
    s_pair = 0.5 * float((w[:, None] * w[None, :] * diffs * diffs).sum())
    return [Eq(s_pair, s_var)], {"xs": xs, "p": w}


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
    return [rep], {"f": label, "xs": xs, "p": w}


def _trial_am_gm(rng, n, q, profile):
    xs = rng.uniform(0.1, 10.0, n)
    p = sample_simplex(n, rng, profile.min_mass)
    return [cartwright_field(xs, p)], {"xs": xs, "p": p.weights}


def _trial_cross_entropy_chain(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    dr = tightest_constants(p, r, q)
    return [
        tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M),
        cross_term_gap_sandwich(p, r, q, dr.m, dr.M),
        maxent_variance_bounds(p, q, dr.m, dr.M),
    ], {"p": p.weights, "r": r.weights}


def _trial_cross_entropy_chain_q1(rng, n, q, profile):
    return _trial_cross_entropy_chain(rng, n, 1.0, profile)


def _trial_complement(rng, n, q, profile):
    n = max(n, 2)  # components must stay below 1
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    return [Le(*complement_cross_entropy(p, r))], {"p": p.weights, "r": r.weights}


def _trial_chain_rule_pair(rng, n, q, profile):
    j = _sample_joint(rng, profile, k=2)
    h_joint = tsallis_joint_entropy(j, q)
    h_first = tsallis_joint_entropy(marginal(j, (0,)), q)
    h_cond = tsallis_conditional_entropy(j, (1,), (0,), q)
    return [Eq(h_joint, h_first + h_cond)], {"dims": j.dims, "cells": j.cells}


def _trial_chain_rule_multi(rng, n, q, profile):
    j = _sample_joint(rng, profile)
    order = tuple(int(a) for a in rng.permutation(j.ndim))
    terms = chain_rule_decomposition(j, order, q)
    claim = Eq(tsallis_joint_entropy(j, q), math.fsum(terms))
    return [claim], {"dims": j.dims, "order": order, "cells": j.cells}


def _trial_conditioning(rng, n, q, profile):
    j = _sample_joint(rng, profile, k=2)
    return [Le(*conditioning_reduces_entropy_check(j, q))], {"dims": j.dims, "cells": j.cells}


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
    return [rep], {"dims": j.dims, "cells": j.cells}


def _trial_entropy_bridge(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    return [Eq(*renyi_tsallis_bridge(p, q))], {"p": p.weights}


def _trial_relative_bridge(rng, n, q, profile):
    p = sample_simplex(n, rng, profile.min_mass)
    r = sample_simplex(n, rng, profile.min_mass)
    return [Eq(*renyi_tsallis_relative_bridge(p, r, q))], {"p": p.weights, "r": r.weights}


def _trial_deformed_additivity(rng, n, q, profile):
    nd = _sample_nested(rng, profile)
    h_flat = tsallis_entropy(nd.flatten(), q)
    h_coarse = tsallis_entropy(nd.coarse(), q)
    sums = nd.row_sums
    inner = math.fsum(
        float(sums[i]) ** q * tsallis_entropy(_derived(ProbDist, row / row.sum()), q)
        for i, row in enumerate(nd.rows)
    )
    # absolute residual: the identity is exact, scales here are O(ln_q n)
    return [abs(h_flat - (h_coarse + inner))], {"rows": nd.rows}


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
        above = q > self.q_lo if self.q_lo_strict else q >= self.q_lo
        return above and q <= self.q_hi


def _case(*args, **kwargs) -> tuple[str, TheoremCase]:
    c = TheoremCase(*args, **kwargs)
    return c.id, c


# Definition order is load-bearing: the position of a case in this dict is its
# spawn key, which picks its trial streams. Append new cases at the end only.
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


# PCG64.jumped(k) advances the 128-bit LCG state by k * _JUMP steps.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
_MASK128 = (1 << 128) - 1


def _jump_map(bit_generator: np.random.PCG64, state: dict) -> tuple[int, int]:
    """(a, c) such that one jump takes the LCG state s to a*s + c modulo 2**128.

    Advancing an LCG is affine in its state, for a fixed increment: the
    jumps of the states 0 and 1 under ``state``'s increment are c and a + c.
    Leaves ``bit_generator`` in a different state.
    """
    ends = []
    for s in (0, 1):
        bit_generator.state = {**state, "state": {**state["state"], "state": s}}
        ends.append(bit_generator.advance(_JUMP).state["state"]["state"])
    c, a_plus_c = ends
    return (a_plus_c - c) & _MASK128, c


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

    qs: list[float] | None = None
    in_hypothesis = True
    if case.q_lo is not None:
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
                    f"case {case.id} admits no q in {grid}; pass override_hypothesis=True "
                    "(CLI: --override-hypothesis) to probe outside its hypothesis"
                )
            qs = admitted

    eff_tol = tol if tol is not None else (case.tol if case.tol is not None else profile.tol)
    bit_generator = np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(_CASE_INDEX[case.id],))
    )
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    lcg = state["state"]
    mult, add = _jump_map(bit_generator, state)
    violations = 0
    worst = -math.inf
    worst_witness: dict = {}
    for t in range(trials):
        # trial t starts where the case's stream jumped t times starts;
        # one more jump gives trial t + 1's start
        bit_generator.state = state
        lcg["state"] = (mult * lcg["state"] + add) & _MASK128
        n = int(rng.integers(lo, hi + 1))
        qv = qs[t % len(qs)] if qs is not None else None
        claims, inputs = case.trial(rng, n, qv, profile)
        v = float(max(_score(c) for c in claims))
        if v > worst:
            worst = v
            worst_witness = {"trial": t, "n": n}
            if qv is not None:
                worst_witness["q"] = qv
            worst_witness.update((k, _render(x)) for k, x in inputs.items())
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


def run_registry(trials: int = 1000, seed: int = 42, **options) -> list[VerifyReport]:
    """run_case for every registered case in registry order; options as run_case."""
    return [run_case(c, trials, seed, **options) for c in REGISTRY.values()]


def has_failures(reports) -> bool:
    """True when any in-hypothesis report recorded violations."""
    return any(r.in_hypothesis and r.violations > 0 for r in reports)
