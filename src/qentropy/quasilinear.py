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

from .dist import ProbDist, _points, check_lengths
from .errors import DomainError, GeneratorError
from .qmath import _cached_by_q, _ln_q_fits, _near_one, _require_finite_ratio, q_exp, q_log

__all__ = [
    "GeneratorPsi",
    "CompatibleConvexity",
    "identity_generator",
    "log_generator",
    "power_generator",
    "lnq_generator",
    "psi_by_label",
    "check_psi_convexity",
    "quasilinear_mean",
    "tsallis_quasilinear_entropy",
    "quasilinear_entropy",
    "tsallis_quasilinear_relative",
    "quasilinear_relative",
]

# Round-trip / monotonicity validation grid for generators.
_VALIDATION_GRID = 2.0 ** np.arange(-20, 21)
_ROUNDTRIP_TOL = 1e-10


def _validate_generator(forward, inverse, direction: str, label: str) -> None:
    """Check inverse(forward(x)) = x and the declared direction on the grid.

    Deformed generators saturate at the grid extremes (forward values within
    an ulp of their supremum), where inversion is ill-posed in doubles; each
    point therefore gets slack proportional to its estimated inversion
    condition number, and monotonicity tolerates ulp-level plateaus but never
    a step against the declared direction.
    """
    x = _VALIDATION_GRID
    with np.errstate(over="raise", invalid="raise"):
        try:
            y = np.asarray(forward(x), dtype=float)
        except (FloatingPointError, DomainError) as exc:
            raise GeneratorError(f"generator {label!r} overflows on the grid: {exc}") from exc
    if y.shape != x.shape:
        raise GeneratorError(f"generator {label!r} must be elementwise on arrays")
    if not np.all(np.isfinite(y)):
        raise GeneratorError(f"generator {label!r} produced non-finite values on the grid")

    dy = np.diff(y)
    if direction == "increasing":
        wrong = dy < 0.0
        strict = y[-1] > y[0]
    elif direction == "decreasing":
        wrong = dy > 0.0
        strict = y[-1] < y[0]
    else:
        raise GeneratorError(f"direction must be 'increasing' or 'decreasing', got {direction!r}")
    if np.any(wrong) or not strict:
        raise GeneratorError(f"generator {label!r} is not {direction} on the validation grid")

    # A point whose forward value equals a neighbor's has saturated: the map
    # destroyed the distinction in doubles, so inversion there is meaningless
    # (and may legitimately be undefined). Only off-plateau points must
    # round-trip.
    plateau = np.zeros_like(x, dtype=bool)
    plateau[:-1] |= dy == 0.0
    plateau[1:] |= dy == 0.0
    live = ~plateau
    if not np.any(live):
        raise GeneratorError(f"generator {label!r} is constant on the validation grid")

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

    ``forward`` and ``inverse`` must be numpy-vectorized callables.  ``shape``
    records concavity of the forward map ('concave', 'convex', or 'unknown');
    together with ``direction`` it decides whether the relative-entropy
    nonnegativity hypothesis (concave increasing or convex decreasing) holds.
    ``positive_domain`` restricts arguments to x > 0 (everything except the
    identity).
    """

    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    direction: str
    shape: str = "unknown"
    label: str = "custom"
    positive_domain: bool = True

    def __post_init__(self) -> None:
        if self.shape not in ("concave", "convex", "unknown"):
            raise GeneratorError(f"shape must be concave/convex/unknown, got {self.shape!r}")
        _validate_generator(self.forward, self.inverse, self.direction, self.label)

    @property
    def relative_nonneg_hypothesis(self) -> bool:
        """True when the generator is concave increasing or convex decreasing."""
        return (self.direction, self.shape) in (
            ("increasing", "concave"),
            ("decreasing", "convex"),
        )

    def check_domain(self, xs: np.ndarray) -> None:
        if self.positive_domain and (xs <= 0.0).any():
            raise DomainError(f"generator {self.label!r} requires strictly positive arguments")


def _ident(x):
    return np.asarray(x, dtype=float)


@functools.lru_cache(maxsize=1)
def identity_generator() -> GeneratorPsi:
    # Affine, so weakly concave; with 'increasing' this satisfies the
    # relative-entropy hypothesis (the divergence is identically 0).
    return GeneratorPsi(
        forward=_ident,
        inverse=_ident,
        direction="increasing",
        shape="concave",
        label="identity",
        positive_domain=False,
    )


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
    and lnq and power are this generator under their own labels.
    """
    # ln_q is concave increasing; x^(1-q) is for q < 1, and convex
    # decreasing for q > 1
    if _near_one(q):
        forward, inverse, up = (lambda x: q_log(x, q)), (lambda y: q_exp(y, q)), True
    else:
        b = 1.0 / (1.0 - q)
        forward, inverse = (lambda x: _x_pow(x, q)), (lambda y: np.asarray(y, dtype=float) ** b)
        up = q < 1.0
    return GeneratorPsi(
        forward=forward,
        inverse=inverse,
        direction="increasing" if up else "decreasing",
        shape="concave" if up else "convex",
        label=label,
    )


@functools.lru_cache(maxsize=1)
def log_generator() -> GeneratorPsi:
    """psi = log: the ln_q generator family at q = 1."""
    return _lnq_family(1.0, "log")


@_cached_by_q
def power_generator(q) -> GeneratorPsi:
    """psi(x) = x^(1-q), up to an affine map: the ln_q generator family."""
    return _lnq_family(q, f"power[q={q:g}]")


@_cached_by_q
def lnq_generator(q) -> GeneratorPsi:
    """psi = ln_q, up to an affine map: the ln_q generator family."""
    return _lnq_family(q, f"lnq[q={q:g}]")


def psi_by_label(label: str, q: float | None = None) -> GeneratorPsi:
    """Resolve a generator by its CLI label: identity, log, power, lnq."""
    if label == "identity":
        return identity_generator()
    if label == "log":
        return log_generator()
    if label in ("power", "lnq"):
        if q is None:
            raise DomainError(f"generator {label!r} needs an entropic index q")
        return power_generator(q) if label == "power" else lnq_generator(q)
    raise DomainError(f"unknown generator label {label!r} (use identity, log, power, lnq)")


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


def check_psi_convexity(f, psi: GeneratorPsi, grid, lambdas, tol: float = 1e-12) -> CompatibleConvexity:
    """Sampled check that f(psi^{-1}((1-t) psi(a) + t psi(b))) <= (1-t) f(a) + t f(b).

    Sampled, not a proof: a pass only means no violation was found on
    grid x grid x lambdas.  ``tol`` absorbs ulp noise at the t in {0, 1}
    endpoints, where psi round trips through its inverse.
    """
    fe = _as_eval(f)
    pts = np.asarray(grid, dtype=float)
    lams = [float(t) for t in lambdas]
    if pts.ndim != 1 or pts.size == 0:
        raise DomainError("grid must be a non-empty 1-d collection of points")
    if not lams:
        raise DomainError("lambdas must be non-empty")
    if any(t < 0.0 or t > 1.0 for t in lams):
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
    return CompatibleConvexity(holds=worst <= tol, worst_violation=worst, witness=witness)


def quasilinear_mean(psi: GeneratorPsi, xs, p: ProbDist) -> float:
    """M_psi(x, p) = psi^{-1}( sum_j p_j psi(x_j) ); lies in [min x, max x]."""
    arr = _points(xs, p)
    if not np.isfinite(arr).all():
        raise DomainError("xs must be finite")
    psi.check_domain(arr)
    return float(psi.inverse(np.asarray(p.weights @ psi.forward(arr))))


def _mean_of_inverse_probs(psi: GeneratorPsi, p: ProbDist) -> float:
    _require_finite_ratio(1.0, 1.0, p.weights, p._lo)
    inv = 1.0 / p.weights
    return float(psi.inverse(np.asarray(p.weights @ psi.forward(inv))))


def _mean_of_ratios(psi: GeneratorPsi, p: ProbDist, r: ProbDist) -> float:
    check_lengths(p, r)
    _require_finite_ratio(r.weights, r._hi, p.weights, p._lo)
    ratio = r.weights / p.weights
    return float(psi.inverse(np.asarray(p.weights @ psi.forward(ratio))))


def tsallis_quasilinear_entropy(psi: GeneratorPsi, p: ProbDist, q) -> float:
    """ln_q of the psi-mean of the inverse probabilities.

    Collapses to the Tsallis entropy for psi = ln_q or psi(x) = x^(1-q),
    and is nonnegative for every strictly monotonic psi.
    """
    return q_log(_mean_of_inverse_probs(psi, p), q)


def quasilinear_entropy(psi: GeneratorPsi, p: ProbDist) -> float:
    """log of the psi-mean of the inverse probabilities (the q = 1 member)."""
    return float(np.log(_mean_of_inverse_probs(psi, p)))


def tsallis_quasilinear_relative(psi: GeneratorPsi, p: ProbDist, r: ProbDist, q) -> float:
    """-ln_q of the psi-mean of the ratios r_j/p_j.

    Nonnegative when psi is concave increasing or convex decreasing;
    unrestricted sign otherwise.
    """
    return -q_log(_mean_of_ratios(psi, p, r), q)


def quasilinear_relative(psi: GeneratorPsi, p: ProbDist, r: ProbDist) -> float:
    """-log of the psi-mean of the ratios (q = 1 member; log -> KL, power -> Renyi)."""
    return -float(np.log(_mean_of_ratios(psi, p, r)))
