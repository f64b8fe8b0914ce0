"""Relative entropies and the f-divergence machinery.

Conventions: D_f(p||r) = sum_j r_j f(p_j/r_j) with f convex and f(1) = 0,
and the dual generator is f*(t) = t f(1/t).

The library's generators are one ln_q family: tsallis[q], -x ln_q(1/x),
and neg_lnq[q], -ln_q(x), are each other's dual, and xlogx and neglog are
the same pair at q = 1.  D_f of a family member is the Tsallis relative
entropy D_q (Furuichi, Yanagi & Kuriyama, J. Math. Phys. 45, 2004), taken
in tsallis_relative's form; D_f(p||r) = D_f*(r||p) (Liese & Vajda, IEEE
Trans. Inf. Theory 52, 2006) gives the neg_lnq side.  Only a custom
ConvexGenerator is summed as r . f(p/r) and gets a t f(1/t) dual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import ProbDist, check_lengths
from .errors import DomainError, GeneratorError, HypothesisError
from .qmath import (
    _GENERATOR_GRID,
    _LNQ_HUGE_SLOPE,
    _as_q,
    _cached_by_q,
    _ln_q,
    _ln_q_fits,
    _near_one,
    _on_grid,
    _require_finite_ratio,
    _require_ln_q_fits,
    q_exp,
    q_log,
)

__all__ = [
    "ConvexGenerator",
    "tsallis_generator",
    "xlogx_generator",
    "neglog_generator",
    "neg_qlog_generator",
    "f_by_label",
    "tsallis_relative",
    "kl_divergence",
    "renyi_relative",
    "f_divergence",
    "dual_generator",
    "renyi_tsallis_relative_bridge",
    "complement_cross_entropy",
]

def _validate_convex(eval_fn: Callable, label: str) -> None:
    # f(1) = 0 and sampled midpoint convexity; sampled means a pass is
    # evidence, not proof.
    with _on_grid(label):
        at_one = float(np.asarray(eval_fn(np.asarray(1.0))))
        if abs(at_one) > 1e-12:
            raise GeneratorError(f"generator {label!r}: eval(1) = {at_one!r}, must be 0")
        g = _GENERATOR_GRID
        a = g[:, None]
        b = g[None, :]
        fa = np.asarray(eval_fn(a), dtype=float)
        fb = np.asarray(eval_fn(b), dtype=float)
        fm = np.asarray(eval_fn((a + b) / 2.0), dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(fa), np.abs(fb)))
    excess = fm - (fa + fb) / 2.0 - 1e-12 * scale
    if np.any(excess > 0.0):
        j = int(np.argmax(excess))
        ia, ib = np.unravel_index(j, excess.shape)
        raise GeneratorError(
            f"generator {label!r} is not midpoint-convex at a={g[ia]!r}, b={g[ib]!r}"
        )


@dataclass(frozen=True)
class ConvexGenerator:
    """A convex generator on (0, inf) with f(1) = 0, validated at construction.

    ``eval`` must be a numpy-vectorized callable that does not write into
    its argument: the validation grid is read-only, and an eval that writes
    into it is rejected with GeneratorError.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    # (q, inverted) of a member of the library's ln_q family, whose eval is
    # -ln_q(x), or -x ln_q(1/x) when inverted; set, with _dual, by _lnq_pair.
    # See f_divergence and _eval_within
    _lnq = None

    def __post_init__(self) -> None:
        _validate_convex(self.eval, self.label)

    @functools.cached_property
    def _dual(self) -> "ConvexGenerator":
        # built, and so validated, on first use only; see dual_generator
        return ConvexGenerator(eval=_perspective(self.eval), label=f"dual({self.label})")


def _perspective(f: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """t -> t f(1/t) for a vectorized f."""

    def _eval(t):
        arr = np.asarray(t, dtype=float)
        return arr * np.asarray(f(1.0 / arr), dtype=float)

    return _eval


def _lnq_pair(q: float, labels: tuple[str, str]) -> ConvexGenerator:
    """The ln_q convex-generator family at q under ``labels``, validated once.

    Builds g(x) = -ln_q(x) and its perspective f(x) = x g(1/x) =
    -x ln_q(1/x), and returns f.  The perspective is an involution, so
    each is linked to the other as its dual and no t f(1/t) wrapper is
    built.  Each divergence is D_q: D_f(p||r) = -sum_j p_j ln_q(r_j/p_j) =
    D_q(p||r) and D_g(p||r) = D_q(r||p), evaluated by tsallis_relative.
    At q = 1 the pair is x log x and -log x.
    """

    def _g(x):
        return -np.asarray(q_log(x, q))

    f = ConvexGenerator(eval=_perspective(_g), label=labels[0])
    g = ConvexGenerator(eval=_g, label=labels[1])
    object.__setattr__(f, "_dual", g)
    object.__setattr__(g, "_dual", f)
    object.__setattr__(f, "_lnq", (q, True))
    object.__setattr__(g, "_lnq", (q, False))
    return f


def _eval_within(f: ConvexGenerator, x, lo: float, hi: float):
    """f.eval(x) bit for bit, for an x whose entries lie in [lo, hi].

    A member of the ln_q family skips q_log's checks when the bounds show
    in O(1) that they would pass: every ln_q argument finite and > 0, with
    ln_q fitting a double at the smallest.  That argument is x itself for
    -ln_q(x) and 1/x, within [1/hi, 1/lo] since division rounds
    monotonically, for -x ln_q(1/x).  The unchecked kernel ``_ln_q`` then
    runs the ufuncs eval would run.  Otherwise, and for any other
    generator, f.eval runs with its own checks and raises their errors.
    """
    if f._lnq is not None and lo > 0.0:
        qf, inverted = f._lnq
        if inverted:
            lo, hi = 1.0 / hi, 1.0 / lo
        if lo > 0.0 and hi < math.inf and _ln_q_fits(lo, qf):
            if inverted:
                return x * -_ln_q(1.0 / x, qf)
            return -_ln_q(x, qf)
    return f.eval(x)


@_cached_by_q
def tsallis_generator(q) -> ConvexGenerator:
    """f(x) = -x ln_q(1/x); generates the Tsallis relative entropy D_q(p||r).

    Built together with its dual, neg_qlog_generator(q), as one pair.
    """
    return _lnq_pair(q, (f"tsallis[q={q:g}]", f"neg_lnq[q={q:g}]"))


def neg_qlog_generator(q) -> ConvexGenerator:
    """f(x) = -ln_q(x), the dual of tsallis_generator(q); generates D_q(r||p).

    Convex for every q >= 0 (f'' = q x^(-q-1)).
    """
    return tsallis_generator(q)._dual


@functools.lru_cache(maxsize=1)
def xlogx_generator() -> ConvexGenerator:
    """f(x) = x log x, tsallis at q = 1; generates the Kullback-Leibler divergence."""
    return _lnq_pair(1.0, ("xlogx", "neglog"))


def neglog_generator() -> ConvexGenerator:
    """f(x) = -log x, neg_lnq at q = 1 and the dual of xlogx; generates the reversed KL."""
    return xlogx_generator()._dual


def f_by_label(label: str, q: float | None = None) -> ConvexGenerator:
    """Resolve a divergence generator by CLI label: tsallis, xlogx, neglog."""
    if label == "tsallis":
        if q is None:
            raise DomainError("generator 'tsallis' needs an entropic index q")
        return tsallis_generator(q)
    if label == "xlogx":
        return xlogx_generator()
    if label == "neglog":
        return neglog_generator()
    raise DomainError(f"unknown generator label {label!r} (use tsallis, xlogx, neglog)")


def tsallis_relative(p: ProbDist, r: ProbDist, q) -> float:
    """D_q(p||r) = -sum_j p_j ln_q(r_j/p_j); KL divergence at q = 1, always >= 0."""
    check_lengths(p, r)
    qf = _as_q(q)
    _require_finite_ratio(r.weights, r._hi, p.weights, p._lo)
    ratio = r.weights / p.weights
    _require_ln_q_fits(ratio, r._lo / p._hi, qf)
    return float(-(p.weights @ _ln_q(ratio, qf)))


def kl_divergence(p: ProbDist, r: ProbDist) -> float:
    """D_1(p||r) = sum_j p_j (log p_j - log r_j)."""
    check_lengths(p, r)
    return float(p.weights @ (np.log(p.weights) - np.log(r.weights)))


def renyi_relative(p: ProbDist, r: ProbDist, q) -> float:
    """R_q(p||r) = log(sum_j p_j^q r_j^(1-q)) / (q-1); KL divergence at q = 1.

    Near q = 1 (|1-q| < 1/2), when max r / min p is finite (decided in
    O(1) from the extremes p and r carry), the sum is taken as s =
    sum_j p_j^q r_j^(1-q) - 1 = sum_j p_j expm1((1-q) log(r_j/p_j)) and
    R_q = log1p(s)/(q-1) keeps the digits that log(1 + s) would round
    away.  Elsewhere, and where s <= -1/2 (log1p would lose it, as for
    near-disjoint supports), the sum is taken in log space with its
    largest term factored out, so no factor can overflow and the sum
    cannot underflow.  Where a term q log p_j + (1-q) log r_j overflows, at
    a huge q, L = max_j log(p_j/r_j) is factored out instead: R_q tends to L.
    """
    check_lengths(p, r)
    qf = _as_q(q)
    if qf == 1.0:
        return kl_divergence(p, r)
    a = 1.0 - qf
    if _near_one(qf) and r._hi / p._lo < math.inf:
        s = float(p.weights @ np.expm1(a * np.log(r.weights / p.weights)))
        if s > -0.5:
            return math.log1p(s) / (qf - 1.0)
    lp, lr = np.log(p.weights), np.log(r.weights)
    if qf - 1.0 <= _LNQ_HUGE_SLOPE:
        t = qf * lp + a * lr
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            t = qf * lp + a * lr
            if not np.isfinite(t).all():
                # R_q = L + log(sum_j r_j e^(q (log(p_j/r_j) - L)))/(q-1): q/(q-1) rounds to 1
                top = float(np.maximum.reduce(lp - lr))
                return top + math.log(float(r.weights @ np.exp(qf * (lp - lr - top)))) / (qf - 1.0)
    m = float(np.maximum.reduce(t))
    return (m + math.log(float(np.exp(t - m).sum()))) / (qf - 1.0)


def f_divergence(f: ConvexGenerator, p: ProbDist, r: ProbDist) -> float:
    """D_f(p||r) = sum_j r_j f(p_j/r_j); nonnegative, zero at p = r.

    For the ln_q family this is D_q, taken by tsallis_relative bit for bit:
    D_q(p||r) for tsallis_generator(q) and xlogx, D_q(r||p) for
    neg_qlog_generator(q) and neglog.  Its terms -p_j ln_q(r_j/p_j) stay
    finite where f(p_j/r_j) itself would overflow.
    """
    if f._lnq is not None:
        qf, inverted = f._lnq
        return tsallis_relative(p, r, qf) if inverted else tsallis_relative(r, p, qf)
    check_lengths(p, r)
    _require_finite_ratio(p.weights, p._hi, r.weights, r._lo)
    return float(r.weights @ np.asarray(f.eval(p.weights / r.weights), dtype=float))


def dual_generator(f: ConvexGenerator) -> ConvexGenerator:
    """f*(t) = t f(1/t).  An involution: dual(dual(f)) equals f pointwise.

    The ln_q family is closed under it: the dual of tsallis_generator(q) is
    neg_qlog_generator(q) and the reverse, and xlogx and neglog are each
    other's, so dual(dual(f)) is f itself.  For any other generator the
    dual is built as t f(1/t), a ConvexGenerator that passes the same
    f(1) = 0 and midpoint-convexity checks, but only once per generator
    object: the first call builds and validates it, and every later call
    returns that same instance.
    """
    return f._dual


def renyi_tsallis_relative_bridge(p: ProbDist, r: ProbDist, q) -> tuple[float, float]:
    """Return (exp R_q(p||r), exp_{2-q} D_q(p||r)); the sides agree for q in [0, 2].

    Well defined there because 1 + (q-1) D_q(p||r) = sum_j p_j^q r_j^(1-q) > 0.
    For q > 2 the index 2 - q is negative, so HypothesisError.  exp is exp_q
    at q = 1, so either side too large for a double raises q_exp's DomainError.
    """
    qf = _as_q(q)
    if qf > 2.0:
        raise HypothesisError(
            f"the relative bridge identity needs q <= 2, so that exp_(2-q) is defined; got q={qf!r}"
        )
    lhs = q_exp(renyi_relative(p, r, q), 1.0)
    rhs = q_exp(tsallis_relative(p, r, q), 2.0 - qf)
    return lhs, rhs


def complement_cross_entropy(p: ProbDist, r: ProbDist) -> tuple[float, float]:
    """Return (self, cross) terms built from complement weights 1 - p_j.

    self  = sum_j (1-p_j) log(1/(1-p_j))
    cross = sum_j (1-p_j) log(1/(1-r_j))

    For component-wise p, r < 1 (guaranteed for n >= 2) self <= cross, by
    nonnegativity of the KL divergence of the normalized complements.
    """
    check_lengths(p, r)
    if p._hi >= 1.0 or r._hi >= 1.0:
        raise DomainError("complement terms need every component < 1 (n >= 2)")
    cp = 1.0 - p.weights
    cr = 1.0 - r.weights
    self_term = float(-(cp @ np.log(cp)))
    cross_term = float(-(cp @ np.log(cr)))
    return self_term, cross_term
