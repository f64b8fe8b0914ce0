"""Quasi-arithmetic means and the generator-parameterized entropy family.

A strictly monotonic continuous generator psi turns weighted values into the
mean  M_psi(x, p) = psi^{-1}( sum_j p_j psi(x_j) ).  Feeding in x_j = 1/p_j
or x_j = r_j/p_j and wrapping in a (deformed) logarithm yields a family that
collapses onto the classical entropies and divergences for specific psi.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import ProbDist, _floats, _points, check_lengths
from .errors import DomainError, GeneratorError
from .qmath import (
    _GENERATOR_GRID, _cached_by_q, _ln_q_fits, _near_one, _require_finite_ratio, q_exp, q_log,
)

__all__ = [
    "GeneratorPsi",
    "CompatibleConvexity",
    "identity_generator",
    "log_generator",
    "lnq_generator",
    "psi_by_label",
    "check_psi_convexity",
    "quasilinear_mean",
    "tsallis_quasilinear_entropy",
    "tsallis_quasilinear_relative",
]

_ROUNDTRIP_TOL = 1e-10


def _validate_generator(forward, inverse, label: str) -> None:
    """Check inverse(forward(x)) = x and monotonicity on the grid.

    The direction is the forward's own, from the grid's first point to its
    last.  Deformed generators saturate at the grid extremes (forward values
    within an ulp of their supremum), where inversion is ill-posed in
    doubles; each point therefore gets slack proportional to its estimated
    inversion condition number, and monotonicity tolerates ulp-level
    plateaus but never a step against the direction.
    """
    x = _GENERATOR_GRID
    with np.errstate(over="raise", invalid="raise"):
        try:
            y = np.asarray(forward(x), dtype=float)
        except (FloatingPointError, DomainError) as exc:
            raise GeneratorError(f"generator {label!r} overflows on the grid: {exc}") from exc
        except ValueError as exc:
            # the grid is read-only; any other ValueError of forward is its own
            if "read-only" not in str(exc):
                raise
            raise GeneratorError(f"generator {label!r} writes into the grid: {exc}") from exc
    if y.shape != x.shape:
        raise GeneratorError(f"generator {label!r} must be elementwise on arrays")
    if not np.all(np.isfinite(y)):
        raise GeneratorError(f"generator {label!r} produced non-finite values on the grid")

    # equal ends mean a constant or non-monotonic map
    dy = np.diff(y)
    up = y[-1] > y[0]
    if y[-1] == y[0] or np.any(dy < 0.0 if up else dy > 0.0):
        raise GeneratorError(f"generator {label!r} is not strictly monotonic on the grid")

    # A point whose forward value equals a neighbor's has saturated: the map
    # destroyed the distinction in doubles, so inversion there is meaningless
    # (and may legitimately be undefined). Only off-plateau points must
    # round-trip.
    plateau = np.zeros_like(x, dtype=bool)
    plateau[:-1] |= dy == 0.0
    plateau[1:] |= dy == 0.0
    live = ~plateau

    with np.errstate(over="raise", invalid="raise"):
        try:
            back = np.asarray(inverse(y[live]), dtype=float)
        except (FloatingPointError, ValueError) as exc:
            raise GeneratorError(f"generator {label!r} fails to invert on the grid: {exc}") from exc
    if back.shape != y[live].shape or not np.all(np.isfinite(back)):
        raise GeneratorError(f"generator {label!r} inverse failed on the grid")

    # Local inversion condition number: one ulp of y moved through the local
    # slope, relative to x.  A slope too steep for a double (large q near
    # the grid's bottom) reads as inf, so that point's kappa is 0.
    with np.errstate(over="ignore", divide="ignore"):
        slope = np.abs(dy) / np.diff(x)
        slope = np.maximum(
            np.concatenate([slope[:1], slope]), np.concatenate([slope, slope[-1:]])
        )
        kappa = np.where(slope > 0.0, np.spacing(np.abs(y)) / (slope * x), np.inf)
    rel = np.abs(back - x[live]) / x[live]
    allowed = _ROUNDTRIP_TOL + 16.0 * kappa[live]
    bad = rel > allowed
    if np.any(bad):
        j = int(np.argmax(rel - allowed))
        xs_live = x[live]
        raise GeneratorError(
            f"generator {label!r} fails round trip at x={xs_live[j]!r}: "
            f"inverse(forward(x))={back[j]!r} (rel err {rel[j]:.3e})"
        )


@dataclass(frozen=True)
class GeneratorPsi:
    """A validated strictly monotonic generator on its domain.

    ``forward`` and ``inverse`` must be numpy-vectorized callables that do
    not write into their argument: the validation grid is read-only, and so
    are the inverse masses a distribution carries, which the bound chains
    hand to ``forward`` (a forward that writes into the grid is rejected
    with GeneratorError).  Whether the generator increases or decreases is
    read off ``forward`` on the validation grid, not declared.
    ``positive_domain`` restricts arguments to x > 0 (everything except the
    identity).
    """

    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    positive_domain: bool = True

    def __post_init__(self) -> None:
        _validate_generator(self.forward, self.inverse, self.label)

    def check_domain(self, xs: np.ndarray) -> None:
        if self.positive_domain and (xs <= 0.0).any():
            raise DomainError(f"generator {self.label!r} requires strictly positive arguments")


def _ident(x):
    return np.asarray(x, dtype=float)


@functools.lru_cache(maxsize=1)
def identity_generator() -> GeneratorPsi:
    return GeneratorPsi(forward=_ident, inverse=_ident, label="identity", positive_domain=False)


def _x_pow(x, qf: float):
    """x^(1-q), the ln_q family's forward beyond the near-one cut.

    For q > 1 an x so small that x^(1-q) would overflow a double raises
    DomainError, decided on the smallest x before anything is evaluated.
    """
    arr = np.asarray(x, dtype=float)
    a = 1.0 - qf
    lo = float(np.minimum.reduce(arr, axis=None))
    if not _ln_q_fits(lo, qf, lambda v, _: np.asarray(v) ** a):
        raise DomainError(f"x^(1-q) overflows a double for q={qf!r}")
    return arr**a


def _lnq_family(q: float, label: str) -> GeneratorPsi:
    """The ln_q generator family under ``label``, validated once.

    A mean does not change when psi is replaced by a psi + b with a != 0,
    and x^(1-q) = 1 + (1-q) ln_q(x), so ln_q and x^(1-q) give the same mean;
    each form is used where it is accurate.  Near q = 1 (|1-q| < 1/2) psi
    is ln_q with inverse exp_q: x^(1-q) would round away the (1-q) log x it
    carries, and y^(1/(1-q)) multiply that loss by 1/|1-q|.  Beyond, psi is
    x^(1-q) with inverse y^(1/(1-q)): above q = 1, ln_q nears its supremum
    1/(q-1) and exp_q would multiply its rounding by M^(q-1) for a mean M.
    Against a 50-digit oracle, for n up to 1e4, the two pairs are within a
    few ulps of each other at |1-q| = 1/2.  log is this generator at q = 1,
    under its own label.
    """
    if _near_one(q):
        forward, inverse = (lambda x: q_log(x, q)), (lambda y: q_exp(y, q))
    else:
        b = 1.0 / (1.0 - q)
        forward, inverse = (lambda x: _x_pow(x, q)), (lambda y: np.asarray(y, dtype=float) ** b)
    return GeneratorPsi(forward=forward, inverse=inverse, label=label)


@functools.lru_cache(maxsize=1)
def log_generator() -> GeneratorPsi:
    """psi = log: the ln_q generator family at q = 1."""
    return _lnq_family(1.0, "log")


@_cached_by_q
def lnq_generator(q) -> GeneratorPsi:
    """psi = ln_q, up to an affine map: the ln_q generator family."""
    return _lnq_family(q, f"lnq[q={q:g}]")


def psi_by_label(label: str, q: float | None = None) -> GeneratorPsi:
    """Resolve a generator by its CLI label: identity, log, lnq."""
    if label == "identity":
        return identity_generator()
    if label == "log":
        return log_generator()
    if label == "lnq":
        if q is None:
            raise DomainError(f"generator {label!r} needs an entropic index q")
        return lnq_generator(q)
    raise DomainError(f"unknown generator label {label!r} (use identity, log, lnq)")


@dataclass(frozen=True)
class CompatibleConvexity:
    """Outcome of a sampled convexity-compatibility check.

    ``worst_violation`` is the raw maximum of f(mean) - mixed-value over the
    sampled triples; ``witness`` is the (a, b, lambda) attaining it.
    """

    holds: bool
    worst_violation: float
    witness: tuple[float, float, float]


def _as_eval(f) -> Callable[[np.ndarray], np.ndarray]:
    # Accept either a ConvexGenerator-like object or a bare callable.
    return getattr(f, "eval", f)


def check_psi_convexity(f, psi: GeneratorPsi, grid, lambdas) -> CompatibleConvexity:
    """Sampled check that f(psi^{-1}((1-t) psi(a) + t psi(b))) <= (1-t) f(a) + t f(b).

    This tests the hypothesis of jensen_gap, ratio_sandwich and
    quasilinear_vs_tsallis_bounds on a grid the caller chooses.  Sampled,
    not a proof: a pass only means no violation was found on
    grid x grid x lambdas.  It takes O(len(grid)^2) time and memory per
    lambda, for the grid x grid table.  A fixed tolerance of 1e-12 absorbs
    ulp noise at the t in {0, 1} endpoints, where psi round trips through
    its inverse.
    """
    fe = _as_eval(f)
    pts = _floats(grid, "grid", copy=False)
    try:
        lams = [float(t) for t in lambdas]
    except (TypeError, ValueError, OverflowError):
        raise DomainError("lambdas must lie in [0, 1]") from None
    if pts.ndim != 1 or pts.size == 0 or not np.isfinite(pts).all():
        raise DomainError("grid must be a non-empty 1-d collection of finite points")
    if not lams:
        raise DomainError("lambdas must be non-empty")
    # written so that a NaN fails it too
    if not all(0.0 <= t <= 1.0 for t in lams):
        raise DomainError("lambdas must lie in [0, 1]")
    psi.check_domain(pts)

    a = pts[:, None]
    b = pts[None, :]
    fa = np.asarray(fe(a), dtype=float)
    fb = np.asarray(fe(b), dtype=float)
    pa = np.asarray(psi.forward(a), dtype=float)
    pb = np.asarray(psi.forward(b), dtype=float)

    worst = -np.inf
    witness = (float(pts[0]), float(pts[0]), lams[0])
    for t in lams:
        mid = psi.inverse((1.0 - t) * pa + t * pb)
        viol = np.asarray(fe(mid), dtype=float) - ((1.0 - t) * fa + t * fb)
        j = int(np.argmax(viol))
        v = float(viol.flat[j])
        if v > worst:
            worst = v
            ia, ib = np.unravel_index(j, viol.shape)
            witness = (float(pts[ia]), float(pts[ib]), t)
    return CompatibleConvexity(holds=worst <= 1e-12, worst_violation=worst, witness=witness)


def quasilinear_mean(psi: GeneratorPsi, xs, p: ProbDist) -> float:
    """M_psi(x, p) = psi^{-1}( sum_j p_j psi(x_j) ); lies in [min x, max x]."""
    arr = _points(xs, p)
    if not np.isfinite(arr).all():
        raise DomainError("xs must be finite")
    psi.check_domain(arr)
    return float(psi.inverse(np.asarray(p.weights @ psi.forward(arr))))


def _mean_of_ratios(psi: GeneratorPsi, p: ProbDist, num, num_max: float) -> float:
    """The psi-mean over p of num_j/p_j: num is 1.0 or r's weights, num_max its max."""
    _require_finite_ratio(num, num_max, p.weights, p._lo)
    return float(psi.inverse(np.asarray(p.weights @ psi.forward(num / p.weights))))


def tsallis_quasilinear_entropy(psi: GeneratorPsi, p: ProbDist, q) -> float:
    """ln_q of the psi-mean of the inverse probabilities.

    Collapses to the Tsallis entropy for psi = ln_q, and is nonnegative for
    every strictly monotonic psi.  At q = 1, psi = ln_s gives the Renyi
    entropy R_s and psi = log the Shannon entropy.
    """
    return q_log(_mean_of_ratios(psi, p, 1.0, 1.0), q)


def tsallis_quasilinear_relative(psi: GeneratorPsi, p: ProbDist, r: ProbDist, q) -> float:
    """-ln_q of the psi-mean of the ratios r_j/p_j.

    Nonnegative when psi is concave increasing or convex decreasing;
    unrestricted sign otherwise.  At q = 1, psi = ln_s gives the Renyi
    divergence R_s(p||r) and psi = log the Kullback-Leibler divergence.
    """
    check_lengths(p, r)
    return -q_log(_mean_of_ratios(psi, p, r.weights, r._hi), q)
