"""Randomized verification harness.

Every inequality and identity exposed by the library is registered here as a
named case, and a trial of a case is ``check(draw(rng, n, q), q)``.  ``draw``
makes the trial's random draws and returns its inputs, the values its
witness prints; ``check`` builds the rest from them (generators from their
labels, curvature bounds from the points, partitions, joint distributions)
and returns the claims, reading neither the stream, n nor the trial index.
The harness scores each claim as a normalized violation, raw violation over
(1 + scale), where scale is the magnitude of the quantities compared, so one
threshold acts as a combined absolute and relative tolerance. A trial's v
is the largest score of its claims; v > 0 means a claim fails. The kinds:

- a ``BoundReport``, lower <= value <= upper: violation() / (1 + scale());
- ``Le(lhs, rhs)``, lhs <= rhs: (lhs - rhs) / (1 + max(|lhs|, |rhs|));
- ``Eq(lhs, rhs)``, the identity lhs = rhs: |lhs - rhs| / (1 + max(|lhs|, |rhs|));
- ``FromZero(report)``, the chain 0 <= lower <= value <= upper:
  max(violation(), -lower) / (1 + scale());
- a bare float, an absolute residual, scored as itself.

A trial fails when v exceeds its case's ``tol``: 1e-9, or 1e-10 for the exact
identities; ``dataclasses.replace(get_case(c), tol=...)`` runs a stricter case.
A report's witness holds the inputs of its worst trial; it is rendered only
when a trial sets a new worst, and parses back into those inputs bit for bit,
so ``rescore`` scores a report line again without the random stream.

Trial t of case c under seed s draws from
``PCG64(SeedSequence(s, spawn_key=(index(c),))).jumped(t)``: each case is a
spawned child of the seed, and each trial a disjoint jump along its stream
(NumPy's guide to parallel random number generation), so results do not
depend on execution order or batching.  A call builds each case's generator
once and places it at trial t by restoring the stream's start state and
advancing it t jumps, the step ``jumped(t)`` itself takes, so a trial sits
at the same place whatever range runs it; ``run_case`` and ``run_registry``
split the trials into ranges across processes, and the reports do not change.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bounds import (
    CHECK_TOL,
    BoundReport,
    SecondDerivativeRange,
    cartwright_field,
    cross_term_gap_sandwich,
    f_divergence_sandwich,
    maxent_variance_bounds,
    pairwise_spread,
    ratio_sandwich,
    refined_maxent_bounds,
    quasilinear_vs_tsallis_bounds,
    lagrange_identity,
    smooth_jensen_sandwich,
    tightest_constants,
    tsallis_cross_entropy_sandwich,
)
from .dist import Partition, ProbDist, _derived, coarsen, power_sum
from .divergence import (
    complement_cross_entropy,
    f_by_label,
    kl_divergence,
    neg_qlog_generator,
    neglog_generator,
    renyi_relative,
    renyi_tsallis_relative_bridge,
    tsallis_relative,
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
from .quasilinear import psi_by_label, tsallis_quasilinear_entropy, tsallis_quasilinear_relative
from .qmath import _finite_real
from .serialize import SCHEMA, dumps, loads, parse_witness, render

__all__ = [
    "MIN_MASS",
    "DEFAULT_Q_GRID",
    "TheoremCase",
    "VerifyReport",
    "REGISTRY",
    "get_case",
    "sample_simplex",
    "run_case",
    "run_registry",
    "rescore",
    "has_failures",
]

MIN_MASS = 1e-6

# q values every parameterized case cycles through, clipped to its hypothesis.
DEFAULT_Q_GRID = (0.0, 0.25, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0, 4.0)

IDENTITY_TOL = 1e-10


def _index(value, name: str) -> int:
    """An integer argument as an int; a float or a string is rejected, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class TheoremCase:
    """One registered claim, tried as ``check(draw(rng, n, q), q)`` (module docstring);
    ``q_range`` is its closed range of admitted q, None if q-free, and a trial
    fails when its normalized violation exceeds ``tol``."""

    id: str
    description: str
    draw: Callable
    check: Callable
    q_range: tuple[float, float] | None = (0.0, 4.0)
    tol: float = CHECK_TOL

    def __post_init__(self):  # a NaN tol would pass every trial, a negative one fail all
        if not (_finite_real(self.tol) and self.tol >= 0.0):
            raise DomainError(f"tol must be finite and >= 0, got {self.tol!r}")

    def admits(self, q: float) -> bool:
        if self.q_range is None:
            return True
        lo, hi = self.q_range
        return lo <= q <= hi


# Definition order is load-bearing: the position of a case in this dict is its
# spawn key, which picks its trial streams.  Cases register in the order of
# their checks in this file: append new cases at its end only.
REGISTRY: dict[str, TheoremCase] = {}


def _case(case_id: str, description: str, draw: Callable, **options) -> Callable:
    """Register the decorated function as the check of a case drawn by ``draw``."""

    def register(check: Callable) -> Callable:
        REGISTRY[case_id] = TheoremCase(case_id, description, draw, check, **options)
        return check

    return register


def _masses(rng: np.random.Generator, size: int, min_mass: float) -> np.ndarray:
    """Normalized exponential draws, floored at min_mass and renormalized."""
    g = rng.exponential(size=size)
    w = np.maximum(g / np.add.reduce(g), min_mass)
    return w / np.add.reduce(w)


def sample_simplex(n: int, rng: np.random.Generator, min_mass: float = MIN_MASS) -> ProbDist:
    """Draw a point of the n-simplex with every mass at least ~min_mass (0 <= min_mass < 1)."""
    n = _index(n, "n")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not (_finite_real(min_mass) and 0.0 <= min_mass < 1.0):
        raise DomainError(f"min_mass must be finite and in [0, 1), got {min_mass!r}")
    if n == 1:
        return _derived(ProbDist, np.array([1.0]))
    return _derived(ProbDist, _masses(rng, n, min_mass))


def _draw_blocks(rng: np.random.Generator, n: int) -> tuple[tuple[int, ...], ...]:
    """The blocks of a random partition of range(n): a permutation cut in 1 to n pieces."""
    k = int(rng.integers(1, n + 1))
    perm = [int(i) for i in rng.permutation(n)]
    if k == 1:
        return (tuple(perm),)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=k - 1, replace=False))
    edges = [0, *cuts, n]
    return tuple(tuple(perm[a:b]) for a, b in zip(edges[:-1], edges[1:]))


def _draw_joint(rng, n, q, k: int | None = None) -> dict:
    """A joint distribution of k axes (2 to 4 if None), 2 to 4 cells each: dims and flat cells."""
    if k is None:
        k = int(rng.integers(2, 5))
    dims = tuple(int(d) for d in rng.integers(2, 5, size=k))
    return {"dims": dims, "cells": _masses(rng, math.prod(dims), MIN_MASS)}


def _joint(inputs) -> JointDist:
    return _derived(JointDist, inputs["cells"].reshape(inputs["dims"]))


def _draw_rows(rng, n, q) -> dict:
    """A two-level refinement, 2 to 6 blocks of 1 to 4 cells, as its blocks' rows of cells."""
    sizes = [int(s) for s in rng.integers(1, 5, size=int(rng.integers(2, 7)))]
    c = _masses(rng, sum(sizes), MIN_MASS)
    edges = [0, *itertools.accumulate(sizes)]
    return {"rows": tuple(c[a:b] for a, b in zip(edges[:-1], edges[1:]))}


def _nested(rows) -> tuple[ProbDist, Partition]:
    """The cells of a two-level refinement and its partition into consecutive blocks."""
    edges = [0, *itertools.accumulate(row.size for row in rows)]
    blocks = tuple(tuple(range(a, b)) for a, b in zip(edges[:-1], edges[1:]))
    return _derived(ProbDist, np.concatenate(rows)), Partition(blocks)


def _simplexes(*keys: str) -> Callable:
    """A draw of one point of the n-simplex per key, in order."""
    return lambda rng, n, q: {key: sample_simplex(n, rng) for key in keys}


def _draw_points(lo: float, hi: float) -> Callable:
    """A draw of n points uniform on [lo, hi), then a point of the n-simplex."""
    return lambda rng, n, q: {"xs": rng.uniform(lo, hi, n), "p": sample_simplex(n, rng)}


_draw_p, _draw_r, _draw_pr = _simplexes("p"), _simplexes("r"), _simplexes("p", "r")
_draw_joint2 = functools.partial(_draw_joint, k=2)


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


def _quartic(x):
    return np.asarray(x) ** 4


# A witness prints each generator it drew by the label the CLI takes, and
# the witness's own "q" is the generator's q: one reading serves a witness
# and the --psi and --f flags.  The factories memoize on q, so every trial
# shares the instance whose construction-time self checks already ran.
_GENERATORS = {
    "identity": lambda q: psi_by_label("identity", q),
    "log": lambda q: psi_by_label("log", q),
    "lnq": lambda q: psi_by_label("lnq", q),
    "tsallis": lambda q: f_by_label("tsallis", q),
    "xlogx": lambda q: f_by_label("xlogx", q),
    "neglog": lambda q: f_by_label("neglog", q),
    "neg_lnq": lambda q: neg_qlog_generator(q),
    "square": lambda q: np.square,
    "exp": lambda q: np.exp,
    "quartic": lambda q: _quartic,
}
_PSI = ("identity", "log", "lnq")
_F = ("tsallis", "xlogx", "neglog")
_SMOOTH_F = ("square", "exp", "quartic", "neg_lnq")
# (f, psi) with f convex and f(psi^{-1}) convex; psi=log only pairs with
# the deformed log generator when q >= 1, where exp stays convex under it
_SANDWICH_PAIRS = (
    ("square", "identity"), ("neg_lnq", "identity"), ("xlogx", "identity"), ("neg_lnq", "log")
)


def _draw_label(rng, kinds: tuple[str, ...]) -> str:
    """One of ``kinds``, picked by one draw."""
    return kinds[int(rng.integers(len(kinds)))]


def _labelled(key: str, kinds: tuple[str, ...], draw: Callable) -> Callable:
    """``draw``, then one of ``kinds`` under ``key``: drawn after the rest, printed first."""

    def labelled(rng, n, q):
        inputs = draw(rng, n, q)
        return {key: _draw_label(rng, kinds), **inputs}

    return labelled


_draw_smooth_f = _labelled("f", _SMOOTH_F, _draw_points(0.1, 10.0))


def _generator(label: str, q, kinds: tuple[str, ...]):
    """The generator ``label`` names, one of ``kinds``, at q: a witness's or the CLI's."""
    if label not in kinds:
        raise DomainError(f"unknown generator label {label!r} (use {', '.join(kinds)})")
    return _GENERATORS[label](q)


# The cases, in registry order: each check registers with its draw.
@_case("prop2.1", "generator entropy is nonnegative", _labelled("psi", _PSI, _draw_p))
def _check_entropy_nonneg(inputs, q):
    psi = _generator(inputs["psi"], q, _PSI)
    return [Le(-0.0, tsallis_quasilinear_entropy(psi, inputs["p"], q))]


@_case("prop2.2", "coarsening pulls power sums toward 1 and never raises entropy",
       lambda rng, n, q: {**_draw_p(rng, n, q), "blocks": _draw_blocks(rng, n)})
def _check_coarsen_entropy(inputs, q):
    p = inputs["p"]
    c = coarsen(p, Partition(inputs["blocks"]))
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
    ]


@_case("prop2.3", "generator relative entropy is nonnegative for compatible generators",
       _labelled("psi", _PSI, _draw_pr))
def _check_relative_nonneg(inputs, q):
    psi = _generator(inputs["psi"], q, _PSI)
    return [Le(-0.0, tsallis_quasilinear_relative(psi, inputs["p"], inputs["r"], q))]


@_case("prop2.4", "coarsening never raises relative entropies",
       lambda rng, n, q: {**_draw_pr(rng, n, q), "blocks": _draw_blocks(rng, n)},
       q_range=(0.0, 2.0))
def _check_coarsen_relative(inputs, q):
    p, r = inputs["p"], inputs["r"]
    part = Partition(inputs["blocks"])
    cp, cr = coarsen(p, part), coarsen(r, part)
    return [
        Le(renyi_relative(cp, cr, q), renyi_relative(p, r, q)),
        Le(tsallis_relative(cp, cr, q), tsallis_relative(p, r, q)),
    ]


def _draw_ratio_sandwich(rng, n, q):
    xs = rng.uniform(0.1, 10.0, n)
    p, r = sample_simplex(n, rng), sample_simplex(n, rng)
    f, psi = _SANDWICH_PAIRS[int(rng.integers(4 if q >= 1.0 else 3))]
    return {"f": f, "psi": psi, "xs": xs, "p": p, "r": r}


@_case("prop3.1", "weighted Jensen gaps obey the ratio sandwich", _draw_ratio_sandwich)
def _check_ratio_sandwich(inputs, q):
    f = _generator(inputs["f"], q, ("square", "neg_lnq", "xlogx"))
    psi = _generator(inputs["psi"], q, ("identity", "log"))
    return [ratio_sandwich(f, psi, inputs["xs"], inputs["p"], inputs["r"])]


def _draw_quasilinear_gap(rng, n, q):
    r = sample_simplex(n, rng)
    kinds = ("identity", "lnq", "log") if q >= 1.0 else ("identity", "lnq")
    return {"psi": _draw_label(rng, kinds), "r": r}


@_case("thm3.1", "generator-mean entropy gap obeys scaled uniform-gap bounds",
       _draw_quasilinear_gap)
def _check_quasilinear_gap(inputs, q):
    psi = _generator(inputs["psi"], q, _PSI)
    return [FromZero(quasilinear_vs_tsallis_bounds(psi, inputs["r"], q))]


@_case("cor3.1", "refined two-sided bounds on the max-entropy gap", _draw_r)
def _check_refined_maxent(inputs, q):
    return [FromZero(refined_maxent_bounds(inputs["r"], q))]


@_case("thm3.2", "f-divergence obeys the dual-generator ratio sandwich",
       _labelled("f", _F, _draw_pr))
def _check_fdiv_sandwich(inputs, q):
    f = _generator(inputs["f"], q, _F)
    return [FromZero(f_divergence_sandwich(f, inputs["p"], inputs["r"]))]


@_case("cor_dra", "reversed KL sandwich from the negative-log generator", _draw_pr, q_range=None)
def _check_reversed_kl(inputs, q):
    p, r = inputs["p"], inputs["r"]
    rep = f_divergence_sandwich(neglog_generator(), p, r)
    # independent route to the same chain
    t = p.weights**2 / r.weights
    factor = float(np.log(np.add.reduce(t))) - kl_divergence(p, r)
    ratios = r.weights / p.weights
    rev = kl_divergence(r, p)
    return [
        rep,
        Eq(rep.value, rev),
        Eq(rep.lower, float(np.minimum.reduce(ratios)) * factor),
        Eq(rep.upper, float(np.maximum.reduce(ratios)) * factor),
        Le(-0.0, factor),
    ]


@_case("lem4.1", "Lagrange identity on random vectors",
       lambda rng, n, q: {"a": rng.normal(0.0, 1.0, n), "b": rng.normal(0.0, 1.0, n)},
       q_range=None)
def _check_lagrange(inputs, q):
    a, b = inputs["a"], inputs["b"]
    lhs, rhs = lagrange_identity(a, b)
    # the identity as the paper states it: the literal double sum over i < j
    cross = a[:, None] * b[None, :] - a[None, :] * b[:, None]
    literal = 0.5 * float(np.add.reduce(cross**2, axis=None))
    return [Eq(lhs, literal), Eq(rhs, literal)]


@_case("thm4.1", "smooth Jensen gap bounded by curvature times half the spread", _draw_smooth_f)
def _check_smooth_jensen(inputs, q):
    f = _generator(inputs["f"], q, _SMOOTH_F)
    xs = inputs["xs"]
    # m <= f'' <= M on [lo, hi], the hull of xs
    lo, hi = float(np.minimum.reduce(xs)), float(np.maximum.reduce(xs))
    if f is np.square:
        m, big_m = 2.0, 2.0
    elif f is np.exp:
        m, big_m = math.exp(lo), math.exp(hi)
    elif f is _quartic:
        m, big_m = 12.0 * lo * lo, 12.0 * hi * hi
    else:
        m, big_m = q * hi ** (-q - 1.0), q * lo ** (-q - 1.0)
    return [smooth_jensen_sandwich(f, SecondDerivativeRange(m, big_m, (lo, hi)), xs, inputs["p"])]


@_case("lem4.2", "pairwise spread equals weighted variance", _draw_points(-5.0, 5.0), q_range=None)
def _check_spread_identity(inputs, q):
    xs, p = inputs["xs"], inputs["p"]
    w = p.weights
    s_var = pairwise_spread(xs, p)
    diffs = xs[None, :] - xs[:, None]
    s_pair = 0.5 * float(np.add.reduce(w[:, None] * w[None, :] * diffs * diffs, axis=None))
    return [Eq(s_pair, s_var)]


# the spread is the weighted variance (lem4.2): cor4.1's variance form is thm4.1's chain
_case("cor4.1", "variance form of the smooth Jensen sandwich", _draw_smooth_f)(_check_smooth_jensen)


@_case("cf", "variance bounds on the arithmetic-geometric mean gap",
       _draw_points(0.1, 10.0), q_range=None)
def _check_am_gm(inputs, q):
    return [cartwright_field(inputs["xs"], inputs["p"])]


# q > 0: no double lies strictly between 0 and the smallest positive one
@_case("thm4.2", "deformed cross-entropy gap two-sided chain",
       _draw_pr, q_range=(math.nextafter(0.0, 1.0), 4.0))
def _check_cross_entropy_chain(inputs, q):
    p, r = inputs["p"], inputs["r"]
    dr = tightest_constants(p, r, q)
    return [
        tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M),
        cross_term_gap_sandwich(p, r, q, dr.m, dr.M),
        maxent_variance_bounds(p, q, dr.m, dr.M),
    ]


@_case("cor4", "cross-entropy gap chain at the undeformed point", _draw_pr, q_range=None)
def _check_cross_entropy_chain_q1(inputs, q):
    return _check_cross_entropy_chain(inputs, 1.0)


# n >= 2, so that every mass stays below 1
@_case("prop4.1", "complement self term is bounded by the complement cross term",
       lambda rng, n, q: _draw_pr(rng, max(n, 2), q), q_range=None)
def _check_complement(inputs, q):
    return [Le(*complement_cross_entropy(inputs["p"], inputs["r"]))]


@_case("prop5.1", "two-axis chain rule is exact", _draw_joint2)
def _check_chain_rule_pair(inputs, q):
    j = _joint(inputs)
    h_joint = tsallis_joint_entropy(j, q)
    h_first = tsallis_joint_entropy(marginal(j, (0,)), q)
    h_cond = tsallis_conditional_entropy(j, (1,), (0,), q)
    return [Eq(h_joint, h_first + h_cond)]


def _draw_chain_rule_multi(rng, n, q):
    joint = _draw_joint(rng, n, q)
    order = tuple(int(a) for a in rng.permutation(len(joint["dims"])))
    return {"dims": joint["dims"], "order": order, "cells": joint["cells"]}


@_case("prop5.2", "multi-axis chain rule is exact", _draw_chain_rule_multi)
def _check_chain_rule_multi(inputs, q):
    j = _joint(inputs)
    terms = chain_rule_decomposition(j, inputs["order"], q)
    return [Eq(tsallis_joint_entropy(j, q), math.fsum(terms))]


@_case("prop5.3", "conditioning does not raise entropy above the undeformed point",
       _draw_joint2, q_range=(1.0, 4.0))
def _check_conditioning(inputs, q):
    return [Le(*conditioning_reduces_entropy_check(_joint(inputs), q))]


@_case("thm5.1", "joint entropy bounded by scaled leave-one-out sum",
       _draw_joint, q_range=(1.0, 4.0))
def _check_han(inputs, q):
    j = _joint(inputs)
    if q >= 1.0:
        return [han_sandwich(j, q)]
    # only reachable when probing outside the hypothesis: build the same
    # chain without the library's q guard so the violation is measurable
    k = j.ndim
    loo = math.fsum(
        tsallis_joint_entropy(marginal(j, tuple(a for a in range(k) if a != i)), q)
        for i in range(k)
    )
    return [BoundReport(0.0, tsallis_joint_entropy(j, q), loo / (k - 1))]


@_case("id14", "exp of collision-family entropy equals deformed exp of its power mate",
       _draw_p, tol=IDENTITY_TOL)
def _check_entropy_bridge(inputs, q):
    return [Eq(*renyi_tsallis_bridge(inputs["p"], q))]


@_case("id16", "exp of relative collision-family divergence equals dual-deformed exp",
       _draw_pr, q_range=(0.0, 2.0), tol=IDENTITY_TOL)
def _check_relative_bridge(inputs, q):
    return [Eq(*renyi_tsallis_relative_bridge(inputs["p"], inputs["r"], q))]


@_case("qadd", "two-level refinement additivity is exact", _draw_rows, tol=IDENTITY_TOL)
def _check_deformed_additivity(inputs, q):
    rows = inputs["rows"]
    p, part = _nested(rows)
    coarse = coarsen(p, part)
    inner = math.fsum(
        float(s) ** q * tsallis_entropy(_derived(ProbDist, row / s), q)
        for s, row in zip(coarse.weights, rows)
    )
    # absolute residual: the identity is exact, scales here are O(ln_q n)
    return [abs(tsallis_entropy(p, q) - (tsallis_entropy(coarse, q) + inner))]


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
        return dumps({"schema": SCHEMA, **vars(self)})  # the fields in declaration order


# PCG64.jumped(k) advances the 128-bit LCG state by k * _JUMP steps.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def get_case(case_id: str) -> TheoremCase:
    try:
        return REGISTRY[case_id]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise UnknownCaseError(f"unknown case {case_id!r}; known cases: {known}") from None


class _Plan(NamedTuple):
    """One case of a checked run: what its trials draw and what its report states."""

    case: TheoremCase
    seed: int
    lo: int
    hi: int
    qs: list[float] | None
    in_hypothesis: bool
    rng: np.random.Generator  # the case's stream, placed at each trial in turn
    start: dict  # its bit generator's state before any jump


def _plans(
    cases,
    trials: int,
    seed: int,
    n_range: tuple[int, int] = (2, 16),
    q_grid: tuple[float, ...] = DEFAULT_Q_GRID,
    override_hypothesis: bool = False,
) -> list[_Plan]:
    """Check a run's arguments once, then plan each case in order; no trial runs here."""
    cases = [get_case(c) if isinstance(c, str) else c for c in cases]
    for case in cases:
        if case.id not in _CASE_INDEX:
            raise UnknownCaseError(
                f"case {case.id!r} is not registered: a case's trial streams are keyed "
                "by its position in REGISTRY"
            )
    if _index(trials, "trials") < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    seed = _index(seed, "seed")
    if seed < 0:
        raise DomainError(f"need seed >= 0, got {seed}")
    try:
        lo, hi = n_range
    except (TypeError, ValueError):
        raise DomainError(f"n_range must be a pair (lo, hi), got {n_range!r}") from None
    lo, hi = _index(lo, "n_range[0]"), _index(hi, "n_range[1]")
    if lo < 1 or hi < lo:
        raise DomainError(f"bad n_range {n_range!r}")
    try:
        grid = list(q_grid)
    except TypeError:
        raise DomainError(f"q_grid must be an iterable of numbers, got {q_grid!r}") from None
    if not grid:
        raise DomainError("q_grid is empty")
    for qv in grid:
        if not (_finite_real(qv) and qv >= 0.0):
            raise DomainError(f"q_grid value {qv!r} is not a number in [0, inf)")
    grid = [float(qv) for qv in grid]

    plans = []
    for case in cases:
        qs = None
        in_hypothesis = True
        if case.q_range is not None:
            admitted = [qv for qv in grid if case.admits(qv)]
            if not (admitted or override_hypothesis):
                raise HypothesisError(
                    f"case {case.id} admits no q in {grid}; pass override_hypothesis=True "
                    "(CLI: --override-hypothesis) to probe outside its hypothesis"
                )
            qs = grid if override_hypothesis else admitted
            in_hypothesis = len(admitted) == len(qs)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(_CASE_INDEX[case.id],)))
        )
        plans.append(_Plan(case, seed, lo, hi, qs, in_hypothesis, rng, rng.bit_generator.state))
    return plans


def _run_trials(plan: _Plan, t0: int, t1: int) -> tuple[int, float, dict]:
    """(violations, worst violation, its witness) over trials [t0, t1) of a planned case."""
    lo, hi, qs, rng = plan.lo, plan.hi, plan.qs, plan.rng
    draw, check, tol = plan.case.draw, plan.case.check, plan.case.tol
    bit_generator = rng.bit_generator
    violations = 0
    worst = -math.inf
    worst_witness: dict = {}
    for t in range(t0, t1):
        # trial t starts where the case's stream jumped t times starts
        bit_generator.state = plan.start
        bit_generator.advance(t * _JUMP)
        n = int(rng.integers(lo, hi + 1))
        qv = qs[t % len(qs)] if qs is not None else None
        inputs = draw(rng, n, qv)
        v = float(max(_score(c) for c in check(inputs, qv)))
        if v > worst:
            worst = v
            worst_witness = {"trial": t, "n": n}
            if qv is not None:
                worst_witness["q"] = qv
            worst_witness.update((k, render(x)) for k, x in inputs.items())
        if v > tol:
            violations += 1
    return violations, worst, worst_witness


def _run_share(plans: list[_Plan], t0: int, t1: int) -> list:
    """_run_trials(plan, t0, t1) of each plan in order, up to the first that raises."""
    partials = []
    for plan in plans:
        try:
            partials.append(_run_trials(plan, t0, t1))
        except Exception:  # the merge runs this case's share again, and raises there
            break
    return partials


def _fork_share(plans: list[_Plan], t0: int, t1: int):
    """Fork a child that sends back _run_share(plans, t0, t1); (pid, pipe), or None."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the share runs in this one
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as pipe:
                pickle.dump(_run_share(plans, t0, t1), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            # never return into the caller's stack; no atexit handler, no second flush
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _run_forked(plans: list[_Plan], spans: list[tuple[int, int]]) -> list[list]:
    """_run_share of the first trial range here and of every other in a forked child."""
    children = []
    payloads = {}
    statuses = {}
    try:
        for j, span in enumerate(spans[1:], 1):
            child = _fork_share(plans, *span)
            if child is not None:
                children.append((j, *child))
        shares = [_run_share(plans, *spans[0])] + [[] for _ in spans[1:]]
        for j, _, pipe in children:
            payloads[j] = pipe.read()
    finally:
        for j, pid, pipe in children:
            pipe.close()
            statuses[j] = os.waitpid(pid, 0)[1]
    for j, payload in payloads.items():
        if statuses[j] == 0:  # exit code 0: the child sent all it ran
            shares[j] = pickle.loads(payload)
    return shares


# Fewest trials of every registered case a range may hold, or as much work
# in fewer cases: 24 * 25 = 600 trials of one case. A child's fork, pickle
# and reap cost the caller about two trials of every case (3.6 ms against
# 1.8 ms on a 2-core x86-64 host), so such a range keeps that under a tenth
# of the time the child saves, whatever the CPU count; the registry splits
# from 50 trials, one case from 1200, in two ranges at most.
_MIN_RANGE = 25


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, blind to cgroup quotas."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run(plans: list[_Plan], trials: int) -> list[VerifyReport]:
    """The reports of trials [0, trials) of every plan, split across CPUs (run_case's docstring)."""
    k = min(_usable_cpus(), trials * len(plans) // (_MIN_RANGE * len(REGISTRY)))
    if (
        k > 1
        and hasattr(os, "fork")
        and threading.active_count() == 1
        and sys.gettrace() is None
        and sys.getprofile() is None
    ):
        spans = [(trials * j // k, trials * (j + 1) // k) for j in range(k)]
        shares = _run_forked(plans, spans)
    else:
        spans, shares = [(0, trials)], [[]]
    reports = []
    for i, plan in enumerate(plans):
        violations, worst, witness = 0, -math.inf, {}
        for share, (t0, t1) in zip(shares, spans):
            # a range no child delivered runs here, and raises what the child raised
            part = share[i] if i < len(share) else _run_trials(plan, t0, t1)
            violations += part[0]
            if part[1] > worst:  # ties keep the lower trial, as a serial run does
                worst, witness = part[1], part[2]
        reports.append(
            VerifyReport(
                plan.case.id, trials, violations, worst, witness, plan.seed, plan.in_hypothesis
            )
        )
    return reports


def run_case(
    case: TheoremCase | str,
    trials: int = 1000,
    seed: int = 42,
    *,
    n_range: tuple[int, int] = (2, 16),
    q_grid: tuple[float, ...] = DEFAULT_Q_GRID,
    override_hypothesis: bool = False,
) -> VerifyReport:
    """Run one case and count normalized violations above the case's ``tol``.

    A q-free case ignores the values of a valid ``q_grid``.  q values outside
    the case hypothesis raise HypothesisError unless ``override_hypothesis``
    is set, in which case the report is flagged ``in_hypothesis: false`` and
    its violations are not failures.

    Errors come in one order: the arguments (the case, ``trials``,
    ``seed``, ``n_range``, ``q_grid``), then each case's hypothesis, then
    the trials, so no trial runs before every check has passed.

    The trials [0, trials) split into k contiguous ranges, one per usable
    CPU, each as much work as _MIN_RANGE trials of every registered case
    (600 trials of one case): this process runs the first range of every
    case, and k - 1 children made with ``os.fork`` run the others and send
    their counts and worst witnesses back through a pipe. Every trial draws
    from its own stream (module docstring) and the ranges merge as one run
    (counts add up, the worst of the lowest trial wins), so the reports are
    the same bytes for every k, and a trial that raises raises here what a
    serial run raises. The run is serial below two ranges (50 trials of
    the registry, 1200 of one case), on one CPU, without ``os.fork``,
    beside another thread (a fork copies only the calling thread) and under
    a tracer or profiler (it would not see the children's calls). What a
    child's trials do stays in the child: its warnings go to its stderr
    under the filters it inherited, once per child, and are not recorded by
    the caller's ``warnings.catch_warnings`` or ``pytest.warns``, and a
    patched module attribute misses its calls. Every child is reaped before
    this returns or raises.
    """
    return _run(_plans([case], trials, seed, n_range, q_grid, override_hypothesis), trials)[0]


def run_registry(trials: int = 1000, seed: int = 42, **options) -> list[VerifyReport]:
    """run_case for every registered case in registry order; options as run_case.

    The arguments are checked once and every case's hypothesis in registry
    order before any trial runs; the trials then split as run_case's do.
    """
    return _run(_plans(REGISTRY.values(), trials, seed, **options), trials)


def rescore(line: str) -> float:
    """The worst violation of a ``verify`` report line, scored again from its witness alone.

    The witness parses back into the inputs its case's draw returned, bit
    for bit (``serialize.parse_witness``), and the case's check scores them:
    no random stream, n or trial index is read.  On the NumPy build and CPU
    dispatch level that wrote the line, the result is the line's
    ``worst_violation`` bit for bit, the sign of zero included.  A line
    that is not JSON, of another schema or of an unknown case, or whose
    witness lacks a key, holds one its check does not read, names an
    unknown generator, or holds a value that does not parse or that
    overflows its check, raises a QEntropyError.
    """
    try:
        doc = loads(line)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not a JSON report line: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise DomainError(f"not a report line of schema {SCHEMA!r}")
    case = get_case(str(doc.get("case")))
    inputs = parse_witness(doc.get("worst_witness"))
    q = inputs["q"] if case.q_range is not None else None
    try:
        with np.errstate(over="raise"):
            claims = case.check(inputs, q)
    except (OverflowError, FloatingPointError) as exc:  # on points or a q no draw makes
        raise DomainError(f"the {case.id} witness overflows a double: {exc}") from None
    if inputs.unread != {"trial", "n"}:  # trial and n, which no check reads, and nothing else
        raise DomainError(f"a {case.id} witness holds trial, n and its check's keys: {list(inputs)}")
    return float(max(_score(c) for c in claims))


def has_failures(reports) -> bool:
    """True when any in-hypothesis report recorded violations."""
    return any(r.in_hypothesis and r.violations > 0 for r in reports)
