"""Computable two-sided bounds for entropy gaps, divergences, and Jensen gaps.

Every operation returns a BoundReport carrying (lower, value, upper) plus the
slacks, so a caller can see not only that a chain holds but by how much.
Chains are checked elsewhere at CHECK_TOL: absolute CHECK_TOL plus CHECK_TOL
relative to the largest magnitude in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import _HALF_FLOAT_MAX, ProbDist, _points, check_lengths
from .divergence import (
    ConvexGenerator,
    _eval_within,
    dual_generator,
    f_divergence,
    neg_qlog_generator,
)
from .errors import (
    DegenerateRangeError,
    DomainError,
    HypothesisError,
    LengthMismatchError,
    ConsistencyError,
    PositivityError,
)
from .qmath import _as_q, _ln_q, _require_finite_ratio, q_log
from .quasilinear import (
    GeneratorPsi,
    _as_eval,
    check_psi_convexity,
    quasilinear_mean,
)

CHECK_TOL = 1e-9

# Largest distance from the mean whose square, weighted and summed over
# weights that sum to about 1, still fits a double.
_SPREAD_WIDTH_MAX = math.sqrt(_HALF_FLOAT_MAX)

__all__ = [
    "CHECK_TOL",
    "BoundReport",
    "SecondDerivativeRange",
    "jensen_gap",
    "ratio_sandwich",
    "quasilinear_vs_tsallis_bounds",
    "refined_maxent_bounds",
    "f_divergence_sandwich",
    "pairwise_spread",
    "lagrange_identity",
    "smooth_jensen_sandwich",
    "cartwright_field",
    "tightest_constants",
    "tsallis_cross_entropy_sandwich",
    "maxent_variance_bounds",
    "cross_term_gap_sandwich",
]


@dataclass(frozen=True)
class BoundReport:
    """A value together with the lower and upper bounds claimed for it."""

    lower: float
    value: float
    upper: float

    @property
    def lower_slack(self) -> float:
        return self.value - self.lower

    @property
    def upper_slack(self) -> float:
        return self.upper - self.value

    def violation(self) -> float:
        """Worst raw excess of either bound; negative means satisfied with margin."""
        return max(self.lower - self.value, self.value - self.upper)

    def scale(self) -> float:
        return max(abs(self.lower), abs(self.value), abs(self.upper))

    def holds(self, tol_abs: float = CHECK_TOL, tol_rel: float = CHECK_TOL) -> bool:
        return self.violation() <= tol_abs + tol_rel * self.scale()

    def as_dict(self) -> dict:
        return {
            "lower": self.lower,
            "value": self.value,
            "upper": self.upper,
            "lower_slack": self.lower_slack,
            "upper_slack": self.upper_slack,
        }


@dataclass(frozen=True)
class SecondDerivativeRange:
    """Bounds 0 <= m <= f'' <= M on a stated interval (possibly degenerate)."""

    m: float
    M: float
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        lo, hi = self.interval
        if not (math.isfinite(self.m) and math.isfinite(self.M)):
            raise DomainError("curvature bounds must be finite")
        if not 0.0 <= self.m <= self.M:
            raise DomainError(f"need 0 <= m <= M, got m={self.m!r}, M={self.M!r}")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise DomainError(f"invalid interval {self.interval!r}")
        object.__setattr__(self, "interval", (float(lo), float(hi)))
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "M", float(self.M))


_HYPOTHESIS_LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _require_compatible(f, psi: GeneratorPsi, pts: np.ndarray) -> None:
    report = check_psi_convexity(f, psi, np.unique(pts), _HYPOTHESIS_LAMBDAS)
    if not report.holds:
        raise HypothesisError(
            f"convexity-compatibility fails for psi={psi.label!r} at "
            f"witness {report.witness!r} (violation {report.worst_violation:.3e})"
        )


def jensen_gap(f, psi: GeneratorPsi, xs, p: ProbDist, *, validate_hypothesis: bool = False) -> float:
    """T(f, x, p) = sum_j p_j f(x_j) - f(M_psi(x, p)).

    Nonnegative whenever f is convexity-compatible with psi; pass
    validate_hypothesis=True to run the sampled compatibility check on the
    supplied points first.  f may be a ConvexGenerator or a bare vectorized
    callable.
    """
    arr = _points(xs, p)
    if validate_hypothesis:
        _require_compatible(f, psi, arr)
    fe = _as_eval(f)
    mean = quasilinear_mean(psi, arr, p)
    return float(p.weights @ np.asarray(fe(arr), dtype=float)) - float(
        np.asarray(fe(np.asarray(mean)))
    )


def ratio_sandwich(
    f, psi: GeneratorPsi, xs, p: ProbDist, r: ProbDist, *, validate_hypothesis: bool = False
) -> BoundReport:
    """Sandwich T(f, x, r) between min and max of r_i/p_i times T(f, x, p)."""
    check_lengths(p, r)
    _require_finite_ratio(r.weights, r._hi, p.weights, p._lo)
    t_p = jensen_gap(f, psi, xs, p, validate_hypothesis=validate_hypothesis)
    t_r = jensen_gap(f, psi, xs, r)
    ratios = r.weights / p.weights
    return BoundReport(
        lower=float(ratios.min()) * t_p,
        value=t_r,
        upper=float(ratios.max()) * t_p,
    )


def _mean(v: np.ndarray, r: ProbDist) -> float:
    """Mean of a vector over 1/r: np.mean(v), bit for bit, without its wrapper.

    |v_j| must be at most max(1/r), as 1/r, ln_q(1/r) <= 1/r - 1 and each
    library generator's forward value at 1/r are.  When n max(1/r) may pass
    half the float maximum, a partial sum could overflow although the mean
    is finite, so the mean of v/n is taken instead.
    """
    if r.n / r._lo > _HALF_FLOAT_MAX:
        return float(np.add.reduce(v / v.size))
    return float(np.add.reduce(v)) / v.size


def quasilinear_vs_tsallis_bounds(
    psi: GeneratorPsi, r: ProbDist, q, *, validate_hypothesis: bool = False
) -> BoundReport:
    """Sandwich the gap between the psi-deformed and the plain deformed entropy.

    value = I_q^psi(r) - H_q(r); the braced uniform-weights gap
    ln_q(M_psi(1/r, uniform)) - mean_j ln_q(1/r_j), scaled by n min r_j and
    n max r_j, gives the bounds.  The whole chain is >= 0 under the
    compatibility hypothesis.  psi(1/r) and ln_q(1/r) are evaluated once;
    value uses the expressions of tsallis_quasilinear_entropy and
    tsallis_entropy, so it has their bits.
    """
    qf = _as_q(q)
    _require_finite_ratio(1.0, 1.0, r.weights, r._lo)
    inv = 1.0 / r.weights
    if validate_hypothesis:
        _require_compatible(neg_qlog_generator(qf), psi, inv)
    n = r.n
    w = r.weights
    # a validated forward may return any array-like, as np.mean accepted
    fwd = np.asarray(psi.forward(inv), dtype=float)
    lnq_inv = _ln_q(inv, qf)
    braced = q_log(float(psi.inverse(np.asarray(_mean(fwd, r)))), qf) - _mean(lnq_inv, r)
    value = q_log(float(psi.inverse(np.asarray(w @ fwd))), qf) - float(w @ lnq_inv)
    return BoundReport(lower=n * r._lo * braced, value=value, upper=n * r._hi * braced)


def refined_maxent_bounds(r: ProbDist, q) -> BoundReport:
    """Two-sided refinement of 0 <= ln_q(n) - H_q(r).

    Identical to quasilinear_vs_tsallis_bounds with the identity generator,
    since the identity mean of the inverse probabilities is exactly n.
    1/r and ln_q(1/r) are evaluated once; H_q(r) is tsallis_entropy's
    expression on them.
    """
    qf = _as_q(q)
    _require_finite_ratio(1.0, 1.0, r.weights, r._lo)
    inv = 1.0 / r.weights
    lnq_inv = _ln_q(inv, qf)
    n = r.n
    braced = q_log(_mean(inv, r), qf) - _mean(lnq_inv, r)
    value = q_log(float(n), qf) - float(r.weights @ lnq_inv)
    return BoundReport(lower=n * r._lo * braced, value=value, upper=n * r._hi * braced)


def f_divergence_sandwich(f: ConvexGenerator, p: ProbDist, r: ProbDist) -> BoundReport:
    """Sandwich D_f(p||r) via the dual generator evaluated at t_j = p_j^2/r_j.

    The middle factor D~_f*(t||p) - f(sum_j t_j) is itself nonnegative, so the
    lower bound chains 0 <= min_i(r_i/p_i) (...) <= D_f(p||r).

    Every domain is decided in O(1) from the extremes p and r carry.  Since
    rounding is monotone, each t_j lies in [t_lo, t_hi] = [p_lo^2/r_hi,
    p_hi^2/r_lo] and each p_j/t_j in [p_lo/t_hi, p_hi/t_lo].  t's entries
    are positive and finite exactly when t_lo > 0 and t_hi < inf: r_hi
    exceeds 1 by at most SUM_TOL, so t_lo is 0 only when p_lo^2 underflows,
    which zeroes that entry of t.  For the ln_q family the dual sum and
    f(sum_j t_j) then run the unchecked kernel, with the bits the checked
    evals give.
    """
    check_lengths(p, r)
    # f meets the ratios p/r, its dual the ratios r/p: both must be finite
    _require_finite_ratio(p.weights, p._hi, r.weights, r._lo)
    _require_finite_ratio(r.weights, r._hi, p.weights, p._lo)
    value = f_divergence(f, p, r)
    f_star = dual_generator(f)
    _require_factor_fits(f_star, p, r)
    t_lo = p._lo * p._lo / r._hi
    t_hi = p._hi * p._hi / r._lo
    if not (t_lo > 0.0 and t_hi < math.inf):
        raise PositivityError("incomplete weights entries must be finite and strictly positive")
    t = p.weights**2 / r.weights
    dual = _eval_within(f_star, p.weights / t, p._lo / t_hi, p._hi / t_lo)
    s = float(t.sum())
    factor = float(t @ np.asarray(dual, dtype=float)) - float(
        np.asarray(_eval_within(f, np.asarray(s), s, s))
    )
    ratios = r.weights / p.weights
    return BoundReport(
        lower=float(ratios.min()) * factor,
        value=value,
        upper=float(ratios.max()) * factor,
    )


def _require_factor_fits(f_star: ConvexGenerator, p: ProbDist, r: ProbDist) -> None:
    """Check in O(1) that the sandwich's middle factor fits a double, before evaluating it.

    ``f_star`` is f*, the dual of the sandwich's generator f.  The factor sums n terms t_j f*(p_j/t_j) over t_j = p_j^2/r_j <=
    p_hi^2/r_lo, where p_j/t_j = r_j/p_j lies in [r_lo/p_hi, r_hi/p_lo].
    A convex function is largest at an end of an interval, and the
    library's generators dip below zero by at most 1 between the ends, so
    n (p_hi^2/r_lo) max |f*| at the two ends bounds the sum.  It bounds
    the subtracted f(sum_j t_j) too: 1 <= sum_j t_j <= b = p_hi/r_lo, and
    |f(b)| = b |f*(1/b)| with b <= n p_hi b.  The bound is taken on two
    scalars with overflow ignored; past half the float maximum it raises
    DomainError where numpy would have warned inside the sums.
    """
    a, b = r._lo / p._hi, r._hi / p._lo
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.abs(_eval_within(f_star, np.array([a, b]), a, b))
    if not r.n * p._hi * p._hi / r._lo * float(np.maximum.reduce(ends)) <= _HALF_FLOAT_MAX:
        raise DomainError("the f-divergence sandwich's dual-generator factor overflows a double")


def pairwise_spread(xs, p: ProbDist) -> float:
    """sum_{i<j} p_i p_j (x_j - x_i)^2, computed two ways and cross-checked.

    The pairwise double sum equals the p-weighted variance around the p-mean
    (Lemma 4.2), so the spread costs a few O(n) dots in time and memory.
    The variance form s_var = w . d^2 over the centred values d = x - xbar
    is returned.  The corrected two-pass form of Chan, Golub & LeVeque
    (1983), s_var - (w . d)^2, cross-checks it: w . d is the error of the
    rounded mean xbar, zero in exact arithmetic, and its square grows when
    the x_j share an offset far above their spread.  The two forms must
    agree to 1e-10 (relative), otherwise a ConsistencyError flags a
    numerics problem.  The literal double sum is checked by the registry.

    One floating-point dot suffices for the correction.  Since sum w = 1,
    Cauchy-Schwarz bounds sum |w_j d_j| by sqrt(s_var), so the dot's
    rounding error on c = w . d is at most about n u sqrt(s_var) (u the unit
    roundoff), and |c| <= sqrt(s_var) as well.  Its error on c^2 is then below 2 n u |c| sqrt(s_var) +
    (n u)^2 s_var, orders of magnitude under the 1e-10 (1 + s_var)
    threshold for any realistic n.

    This is the checked public entry: xs must have shape (p.n,) and finite
    entries (LengthMismatchError, DomainError), and points so far apart
    (max x - min x above about 1e154) that their squared deviations could
    overflow a double raise DomainError.  The bound chains call the kernel
    ``_spread`` directly on 1/p or 1/r, whose entries
    ``_require_finite_ratio`` has already proven finite; a caller of
    ``_spread`` must know that its points are finite and match the weights
    in shape.
    """
    arr = _points(xs, p)
    lo = float(np.minimum.reduce(arr))
    hi = float(np.maximum.reduce(arr))
    # a NaN makes the minimum NaN, which fails the comparison too
    if not (-math.inf < lo and hi < math.inf):
        raise DomainError("xs must be finite")
    return _spread(arr, p.weights, hi - lo)


def _require_spread_fits(width: float) -> None:
    """Check in O(1) that squared deviations of points ``width`` apart fit a double.

    ``width`` bounds every |x_j - xbar|: max x - min x, or 1/min mass for
    the inverse masses of the chains, which lie in [1, 1/min mass] with
    their mean.
    """
    if width > _SPREAD_WIDTH_MAX:
        raise DomainError(f"the spread of points up to {width:.6g} apart overflows a double")


def _spread(arr: np.ndarray, w: np.ndarray, width: float) -> float:
    """pairwise_spread's cross-checked kernel; ``width`` bounds |x_j - xbar|."""
    _require_spread_fits(width)
    xbar = float(w @ arr)
    d = arr - xbar
    s_var = float(w @ d**2)
    c = float(w @ d)
    s_two = s_var - c * c
    if abs(s_two - s_var) > 1e-10 * (1.0 + max(abs(s_two), abs(s_var))):
        raise ConsistencyError(
            f"two-pass form {s_two!r} and variance form {s_var!r} disagree"
        )
    return s_var


def lagrange_identity(a, b) -> tuple[float, float]:
    """Return both sides of (sum a^2)(sum b^2) - (sum ab)^2 = sum_{i<j} (a_i b_j - a_j b_i)^2.

    Both sides are O(n) in time and memory.  The left side is computed as
    written.  The right side, the double sum, equals (a . a) ||b_perp||^2
    with b_perp = b - (a . b / a . a) a the part of b orthogonal to a (and 0
    when a = 0); this projection route does not cancel when a and b are
    nearly parallel, where the left side does.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape or av.ndim != 1:
        raise LengthMismatchError("a and b must be 1-d vectors of equal length")
    aa = float(av @ av)
    ab = float(av @ bv)
    lhs = aa * float(bv @ bv) - ab**2
    if aa == 0.0:
        return lhs, 0.0
    b_perp = bv - (ab / aa) * av
    return lhs, aa * float(b_perp @ b_perp)


def smooth_jensen_sandwich(f, drange: SecondDerivativeRange, xs, p: ProbDist) -> BoundReport:
    """(m/2) spread <= sum p_j f(x_j) - f(sum p_j x_j) <= (M/2) spread.

    Valid for twice-differentiable f with m <= f'' <= M on an interval
    containing all x_j (the caller warrants the curvature bounds; the points
    are checked against drange.interval).  spread is the pairwise spread of
    the x_j, m >= 0 is required.
    """
    arr = _points(xs, p)
    lo, hi = drange.interval
    # tiny slack so hull endpoints produced by floating arithmetic stay legal
    pad = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
    # fmin/fmax skip a NaN, as the elementwise comparisons do
    if np.fmin.reduce(arr) < lo - pad or np.fmax.reduce(arr) > hi + pad:
        raise DomainError("xs must lie inside the interval of the curvature range")
    fe = _as_eval(f)
    gap = float(p.weights @ np.asarray(fe(arr), dtype=float)) - float(
        np.asarray(fe(np.asarray(float(p.weights @ arr))))
    )
    spread = pairwise_spread(arr, p)
    return BoundReport(
        lower=0.5 * drange.m * spread,
        value=gap,
        upper=0.5 * drange.M * spread,
    )


def cartwright_field(xs, p: ProbDist) -> BoundReport:
    """Variance bounds on the arithmetic-geometric mean gap.

    With m' = min x, M' = max x and V = sum_j p_j (x_j - xbar)^2:
        V/(2 M') <= xbar - prod_j x_j^{p_j} <= V/(2 m').
    """
    arr = _points(xs, p)
    lo = float(np.minimum.reduce(arr))
    hi = float(np.maximum.reduce(arr))
    # a NaN makes the minimum NaN, which fails the comparison too
    if not (lo > 0.0 and hi < math.inf):
        raise DomainError("the arithmetic-geometric gap needs strictly positive xs")
    _require_spread_fits(hi - lo)
    w = p.weights
    am = float(w @ arr)
    gm = float(np.exp(w @ np.log(arr)))
    v = float(w @ (arr - am) ** 2)
    return BoundReport(lower=v / (2.0 * hi), value=am - gm, upper=v / (2.0 * lo))


def tightest_constants(p: ProbDist, r: ProbDist, q) -> SecondDerivativeRange:
    """Exact range of d2/dx2 [-ln_q(x)] = q x^(-q-1) over the hull of 1/p, 1/r.

    The hull of the evaluation points {1/p_j} u {1/r_j} is
    [1/(max component), 1/(min component)], on which the curvature attains
    m_q = q (min component)^(q+1) and M_q = q (max component)^(q+1).
    Degenerate at q = 0 (zero curvature everywhere).
    """
    check_lengths(p, r)
    qf = _as_q(q)
    if qf == 0.0:
        raise DegenerateRangeError("q = 0 has identically zero curvature; no usable range")
    cmin = min(p._lo, r._lo)
    cmax = max(p._hi, r._hi)
    return SecondDerivativeRange(
        m=qf * cmin ** (qf + 1.0),
        M=qf * cmax ** (qf + 1.0),
        interval=(1.0 / cmax, 1.0 / cmin),
    )


def maxent_variance_bounds(p: ProbDist, q, mq: float, Mq: float) -> BoundReport:
    """Spread-weighted refinement of 0 <= ln_q(n) - H_q(p) <= ...

    With P = pairwise spread of the inverse probabilities under p and
    mq <= -ln_q'' <= Mq on their hull:
        (mq/2) P <= ln_q(n) - H_q(p) <= (Mq/2) P.
    """
    qf = _as_q(q)
    _require_finite_ratio(1.0, 1.0, p.weights, p._lo)
    w = p.weights
    inv = 1.0 / w
    spread = _spread(inv, w, 1.0 / p._lo)
    value = q_log(float(p.n), qf) - float(w @ _ln_q(inv, qf))
    return BoundReport(lower=0.5 * mq * spread, value=value, upper=0.5 * Mq * spread)


def cross_term_gap_sandwich(p: ProbDist, r: ProbDist, q, mq: float, Mq: float) -> BoundReport:
    """Spread bounds on the Jensen gap of -ln_q at the points 1/r_j under p.

    With R = pairwise spread of 1/r under p:
        (mq/2) R <= ln_q(sum_j p_j/r_j) - sum_j p_j ln_q(1/r_j) <= (Mq/2) R.
    """
    check_lengths(p, r)
    qf = _as_q(q)
    _require_finite_ratio(1.0, 1.0, r.weights, r._lo)
    inv_r = 1.0 / r.weights
    spread = _spread(inv_r, p.weights, 1.0 / r._lo)
    value = q_log(float((p.weights / r.weights).sum()), qf) - float(
        p.weights @ _ln_q(inv_r, qf)
    )
    return BoundReport(lower=0.5 * mq * spread, value=value, upper=0.5 * Mq * spread)


def tsallis_cross_entropy_sandwich(
    p: ProbDist, r: ProbDist, q, mq: float, Mq: float
) -> BoundReport:
    """Two-sided bounds on the deformed cross-entropy gap.

    value = sum_j p_j ln_q(1/r_j) - sum_j p_j ln_q(1/p_j).  Assembled from
    the two intermediate sandwiches (maxent_variance_bounds for the 1/p
    spread P, cross_term_gap_sandwich for the 1/r spread R):

        base + (mq/2) P - (Mq/2) R <= value <= base + (Mq/2) P - (mq/2) R

    with base = ln_q(sum_j p_j/r_j) - ln_q(n).
    """
    check_lengths(p, r)
    qf = _as_q(q)
    _require_finite_ratio(1.0, 1.0, p.weights, p._lo)
    _require_finite_ratio(1.0, 1.0, r.weights, r._lo)
    w = p.weights
    inv_p = 1.0 / w
    inv_r = 1.0 / r.weights
    base = q_log(float((w / r.weights).sum()), qf) - q_log(float(p.n), qf)
    spread_p = _spread(inv_p, w, 1.0 / p._lo)
    spread_r = _spread(inv_r, w, 1.0 / r._lo)
    value = float(w @ _ln_q(inv_r, qf)) - float(w @ _ln_q(inv_p, qf))
    return BoundReport(
        lower=base + 0.5 * mq * spread_p - 0.5 * Mq * spread_r,
        value=value,
        upper=base + 0.5 * Mq * spread_p - 0.5 * mq * spread_r,
    )
