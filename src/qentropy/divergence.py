"""Relative entropies and the f-divergence machinery.

Conventions: D_f(p||r) = sum_j r_j f(p_j/r_j) with f convex and f(1) = 0;
the dual generator f*(t) = t f(1/t) and the incomplete variant
D~_f*(a||b) = sum_j a_j f*(b_j/a_j) accept unnormalized positive weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .dist import IncompleteDist, ProbDist, check_lengths
from .errors import DomainError, GeneratorError
from .qmath import _as_q, _cached_by_q, is_deformed, q_exp, q_log

if TYPE_CHECKING:  # pragma: no cover
    from .bounds import SecondDerivativeRange

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
    "incomplete_f_divergence",
    "renyi_tsallis_relative_bridge",
    "complement_cross_entropy",
]

_CONVEXITY_GRID = 2.0 ** np.arange(-20, 21)


def _validate_convex(eval_fn: Callable, label: str) -> None:
    # f(1) = 0 and sampled midpoint convexity; sampled means a pass is
    # evidence, not proof.
    with np.errstate(over="raise", invalid="raise"):
        try:
            at_one = float(np.asarray(eval_fn(np.asarray(1.0))))
            if abs(at_one) > 1e-12:
                raise GeneratorError(f"generator {label!r}: eval(1) = {at_one!r}, must be 0")
            g = _CONVEXITY_GRID
            a = g[:, None]
            b = g[None, :]
            fa = np.asarray(eval_fn(a), dtype=float)
            fb = np.asarray(eval_fn(b), dtype=float)
            fm = np.asarray(eval_fn((a + b) / 2.0), dtype=float)
        except FloatingPointError as exc:
            raise GeneratorError(f"generator {label!r} overflows on the grid: {exc}") from exc
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

    ``second_derivative_range`` optionally records bounds (m, M) for f'' on a
    stated interval, for use with the smooth Jensen-gap sandwiches.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    second_derivative_range: "SecondDerivativeRange | None" = None

    def __post_init__(self) -> None:
        _validate_convex(self.eval, self.label)

    @functools.cached_property
    def _dual(self) -> "ConvexGenerator":
        # built, and so validated, on first use only; see dual_generator
        f = self.eval

        def _eval(t):
            arr = np.asarray(t, dtype=float)
            return arr * np.asarray(f(1.0 / arr), dtype=float)

        return ConvexGenerator(eval=_eval, label=f"dual({self.label})")


@_cached_by_q
def tsallis_generator(q) -> ConvexGenerator:
    """f(x) = -x ln_q(1/x); generates the deformed relative entropy."""

    def _eval(x):
        arr = np.asarray(x, dtype=float)
        return -arr * q_log(1.0 / arr, q)

    return ConvexGenerator(eval=_eval, label=f"tsallis[q={q:g}]")


@functools.lru_cache(maxsize=1)
def xlogx_generator() -> ConvexGenerator:
    """f(x) = x log x; generates the Kullback-Leibler divergence."""

    def _eval(x):
        arr = np.asarray(x, dtype=float)
        return arr * np.log(arr)

    return ConvexGenerator(eval=_eval, label="xlogx")


@functools.lru_cache(maxsize=1)
def neglog_generator() -> ConvexGenerator:
    """f(x) = -log x; generates the reversed Kullback-Leibler divergence."""

    def _eval(x):
        return -np.log(np.asarray(x, dtype=float))

    return ConvexGenerator(eval=_eval, label="neglog")


@_cached_by_q
def neg_qlog_generator(q) -> ConvexGenerator:
    """f(x) = -ln_q(x); convex for every q >= 0 (f'' = q x^(-q-1))."""

    def _eval(x):
        return -np.asarray(q_log(x, q))

    return ConvexGenerator(eval=_eval, label=f"neg_lnq[q={q:g}]")


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
    return float(-(p.weights @ q_log(r.weights / p.weights, q)))


def kl_divergence(p: ProbDist, r: ProbDist) -> float:
    """D_1(p||r) = sum_j p_j (log p_j - log r_j)."""
    check_lengths(p, r)
    return float(p.weights @ (np.log(p.weights) - np.log(r.weights)))


def renyi_relative(p: ProbDist, r: ProbDist, q) -> float:
    """R_q(p||r) = log(sum_j p_j^q r_j^(1-q)) / (q-1); KL divergence at q = 1."""
    check_lengths(p, r)
    qf = _as_q(q)
    if not is_deformed(qf):
        return kl_divergence(p, r)
    s = float(np.sum(p.weights**qf * r.weights ** (1.0 - qf)))
    return float(np.log(s) / (qf - 1.0))


def f_divergence(f: ConvexGenerator, p: ProbDist, r: ProbDist) -> float:
    """D_f(p||r) = sum_j r_j f(p_j/r_j); nonnegative, zero at p = r."""
    check_lengths(p, r)
    return float(r.weights @ np.asarray(f.eval(p.weights / r.weights), dtype=float))


def dual_generator(f: ConvexGenerator) -> ConvexGenerator:
    """f*(t) = t f(1/t).  An involution: dual(dual(f)) equals f pointwise.

    The dual is a ConvexGenerator, so it passes the same f(1) = 0 and
    midpoint-convexity checks as any other generator, but only once per
    generator object: the first call builds and validates it, and every
    later call returns that same instance.
    """
    return f._dual


def incomplete_f_divergence(
    f_star: ConvexGenerator, a: IncompleteDist, b: IncompleteDist
) -> float:
    """D~_f*(a||b) = sum_j a_j f*(b_j/a_j) on positive, unnormalized weights."""
    check_lengths(a, b)
    return float(a.weights @ np.asarray(f_star.eval(b.weights / a.weights), dtype=float))


def renyi_tsallis_relative_bridge(p: ProbDist, r: ProbDist, q) -> tuple[float, float]:
    """Return (exp R_q(p||r), exp_{2-q} D_q(p||r)); the sides agree for q in [0, 2].

    Well defined there because 1 + (q-1) D_q(p||r) = sum_j p_j^q r_j^(1-q) > 0.
    """
    lhs = float(np.exp(renyi_relative(p, r, q)))
    rhs = q_exp(tsallis_relative(p, r, q), 2.0 - _as_q(q))
    return lhs, rhs


def complement_cross_entropy(p: ProbDist, r: ProbDist) -> tuple[float, float]:
    """Return (self, cross) terms built from complement weights 1 - p_j.

    self  = sum_j (1-p_j) log(1/(1-p_j))
    cross = sum_j (1-p_j) log(1/(1-r_j))

    For component-wise p, r < 1 (guaranteed for n >= 2) self <= cross, by
    nonnegativity of the KL divergence of the normalized complements.
    """
    check_lengths(p, r)
    if np.any(p.weights >= 1.0) or np.any(r.weights >= 1.0):
        raise DomainError("complement terms need every component < 1 (n >= 2)")
    cp = 1.0 - p.weights
    cr = 1.0 - r.weights
    self_term = float(-(cp @ np.log(cp)))
    cross_term = float(-(cp @ np.log(cr)))
    return self_term, cross_term
