"""Computable two-sided bounds for entropy gaps, divergences, and Jensen gaps.

Every operation returns a BoundReport carrying (lower, value, upper) plus the
slacks, so a caller can see not only that a chain holds but by how much.
Chains are checked elsewhere at CHECK_TOL: absolute CHECK_TOL plus CHECK_TOL
relative to the largest magnitude in the report.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dist import _HALF_FLOAT_MAX, ProbDist, _points, check_lengths
from .divergence import (
    ConvexGenerator,
    _eval_within,
    dual_generator,
    f_divergence,
)
from .errors import (
    DegenerateRangeError,
    DomainError,
    LengthMismatchError,
    ConsistencyError,
    PositivityError,
)
from .qmath import _as_q, _finite_real, _require_finite_ratio, _require_surprisal_fits, q_log
from .quasilinear import GeneratorPsi, _as_eval, quasilinear_mean

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

    def holds(self) -> bool:
        return self.violation() <= CHECK_TOL + CHECK_TOL * self.scale()

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
        try:
            lo, hi = self.interval
        except (TypeError, ValueError):
            raise DomainError(f"invalid interval {self.interval!r}") from None
        if not (_finite_real(self.m) and _finite_real(self.M)):
            raise DomainError("curvature bounds must be finite")
        if not 0.0 <= self.m <= self.M:
            raise DomainError(f"need 0 <= m <= M, got m={self.m!r}, M={self.M!r}")
        if not (_finite_real(lo) and _finite_real(hi) and lo <= hi):
            raise DomainError(f"invalid interval {self.interval!r}")
        object.__setattr__(self, "interval", (float(lo), float(hi)))
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "M", float(self.M))


def jensen_gap(f, psi: GeneratorPsi, xs, p: ProbDist) -> float:
    """T(f, x, p) = sum_j p_j f(x_j) - f(M_psi(x, p)).

    Nonnegative whenever f is convexity-compatible with psi, which
    check_psi_convexity tests on a grid the caller chooses.  f may be a
    ConvexGenerator or a bare vectorized callable.
    """
    arr = _points(xs, p)
    fe = _as_eval(f)
    mean = quasilinear_mean(psi, arr, p)
    return float(p.weights @ np.asarray(fe(arr), dtype=float)) - float(
        np.asarray(fe(np.asarray(mean)))
    )


def ratio_sandwich(f, psi: GeneratorPsi, xs, p: ProbDist, r: ProbDist) -> BoundReport:
    """Sandwich T(f, x, r) between min and max of r_i/p_i times T(f, x, p)."""
    check_lengths(p, r)
    _require_finite_ratio(r.weights, r._hi, p.weights, p._lo)
    return _ratio_scaled(p, r, jensen_gap(f, psi, xs, p), jensen_gap(f, psi, xs, r))


def _ratio_scaled(p: ProbDist, r: ProbDist, factor: float, value: float) -> BoundReport:
    """min_i(r_i/p_i) factor <= value <= max_i(r_i/p_i) factor, the ratios' chain.

    A finite factor times max(r/p) may still overflow: a bound that is not
    finite raises DomainError, where it would otherwise print as inf.
    """
    ratios = r.weights / p.weights
    lower = float(np.minimum.reduce(ratios)) * factor
    upper = float(np.maximum.reduce(ratios)) * factor
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise DomainError("the ratio chain's bound max(r/p) * factor overflows a double")
    return BoundReport(lower, value, upper)


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


def quasilinear_vs_tsallis_bounds(psi: GeneratorPsi, r: ProbDist, q) -> BoundReport:
    """Sandwich the gap between the psi-deformed and the plain deformed entropy.

    value = I_q^psi(r) - H_q(r); the braced uniform-weights gap
    ln_q(M_psi(1/r, uniform)) - mean_j ln_q(1/r_j), scaled by n min r_j and
    n max r_j, gives the bounds.  The whole chain is >= 0 when -ln_q is
    convexity-compatible with psi, which check_psi_convexity tests on a
    grid the caller chooses (1/r, say).  refined_maxent_bounds is this
    chain at the identity generator.  psi(1/r) is evaluated once, and 1/r
    and ln_q(1/r) are the arrays r carries; value uses the expressions of
    tsallis_quasilinear_entropy and tsallis_entropy, so it has their bits.
    """
    qf = _as_q(q)
    _require_surprisal_fits(r.weights, r._lo, r._hi, qf)
    # a validated forward may return any array-like, as np.mean accepted
    fwd = np.asarray(psi.forward(r._inverse()), dtype=float)
    uniform = float(psi.inverse(np.asarray(_mean(fwd, r))))
    return _gap_chain(r, qf, uniform, float(psi.inverse(np.asarray(r.weights @ fwd))))


def refined_maxent_bounds(r: ProbDist, q) -> BoundReport:
    """Two-sided refinement of 0 <= ln_q(n) - H_q(r).

    quasilinear_vs_tsallis_bounds at the identity generator, with the same
    lower and upper bits: the identity mean of the inverse probabilities
    under r is exactly n, so the chain takes n as the r-weighted mean.
    """
    qf = _as_q(q)
    _require_surprisal_fits(r.weights, r._lo, r._hi, qf)
    return _gap_chain(r, qf, _mean(r._inverse(), r), float(r.n))


def _gap_chain(r: ProbDist, qf: float, uniform: float, weighted: float) -> BoundReport:
    """n min r B <= ln_q(weighted) - H_q(r) <= n max r B, B = ln_q(uniform) - mean ln_q(1/r),
    for the psi-means of 1/r under uniform weights and under r; the caller checks ln_q(1/r)."""
    lnq_inv = r._surprisal(qf)
    braced = q_log(uniform, qf) - _mean(lnq_inv, r)
    value = q_log(weighted, qf) - float(r.weights @ lnq_inv)
    return BoundReport(lower=r.n * r._lo * braced, value=value, upper=r.n * r._hi * braced)


def f_divergence_sandwich(f: ConvexGenerator, p: ProbDist, r: ProbDist) -> BoundReport:
    """Sandwich D_f(p||r) via the dual generator evaluated at t_j = p_j^2/r_j.

    The middle factor sum_j t_j f*(p_j/t_j) - f(sum_j t_j) is nonnegative,
    so the lower bound chains 0 <= min_i(r_i/p_i) (...) <= D_f(p||r).

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
        raise PositivityError(
            "the f-divergence sandwich's weights p^2/r underflow to 0 or overflow a double"
        )
    t = p.weights**2 / r.weights
    dual = _eval_within(f_star, p.weights / t, p._lo / t_hi, p._hi / t_lo)
    s = float(np.add.reduce(t))
    factor = float(t @ np.asarray(dual, dtype=float)) - float(
        np.asarray(_eval_within(f, np.asarray(s), s, s))
    )
    return _ratio_scaled(p, r, factor, value)


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
    ``_require_surprisal_fits`` has already proven finite, with their hull
    [1/max mass, 1/min mass]; a caller of ``_spread`` must know that its
    points are finite, match the weights in shape and lie in the hull it
    passes.
    """
    arr = _points(xs, p)
    lo = float(np.minimum.reduce(arr))
    hi = float(np.maximum.reduce(arr))
    # a NaN makes the minimum NaN, which fails the comparison too
    if not (-math.inf < lo and hi < math.inf):
        raise DomainError("xs must be finite")
    return _spread(arr, p.weights, lo, hi)


def _require_spread_fits(width: float) -> None:
    """Check in O(1) that squared deviations of points ``width`` apart fit a double.

    ``width`` is max x - min x, which bounds every |x_j - xbar| since
    ``_spread`` keeps its centre xbar inside the points' hull.
    """
    if width > _SPREAD_WIDTH_MAX:
        raise DomainError(f"the spread of points up to {width:.6g} apart overflows a double")


def _spread(arr: np.ndarray, w: np.ndarray, lo: float, hi: float) -> float:
    """pairwise_spread's cross-checked kernel, for points in their hull [lo, hi].

    The weights may sum to 1 only within ProbDist's tolerance, so w . x can
    leave the hull; the centre is clamped back into it, which changes
    nothing inside it.
    """
    _require_spread_fits(hi - lo)
    xbar = min(max(float(w @ arr), lo), hi)
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
    written, from a scaled by an exact power of two when a . a is below the
    smallest normal double, where a . a itself keeps too few digits.  The
    right side, the double sum, equals (a . a) ||b_perp||^2
    with b_perp = b - (a . b / a . a) a the part of b orthogonal to a (and 0
    when a = 0); this projection route does not cancel when a and b are
    nearly parallel, where the left side does.

    Non-finite entries, and vectors with (a . a)(b . b) above half the float
    maximum, raise DomainError before any product overflows.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape or av.ndim != 1:
        raise LengthMismatchError("a and b must be 1-d vectors of equal length")
    with np.errstate(over="ignore", invalid="ignore"):
        aa = float(av @ av)
        bb = float(bv @ bv)
        ab = float(av @ bv)
    # a NaN or inf entry makes aa * bb NaN or inf, which fails the comparison
    # too; past it, |ab| <= sqrt(aa bb) keeps ab**2 in range
    if not aa * bb <= _HALF_FLOAT_MAX:
        raise DomainError("a and b must be finite, with (a . a)(b . b) <= half the float maximum")
    lhs = aa * bb - ab**2
    if aa < sys.float_info.min:
        # |ab / aa| <= sqrt(bb / aa) fits unless a . a is subnormal or 0:
        # then project with a scaled by an exact 2**-e, and scale both
        # sides, of degree 2 in a, back in two steps so nothing overflows
        if not av.any():
            return lhs, 0.0
        e = math.frexp(float(np.maximum.reduce(np.abs(av))))[1]
        av = np.ldexp(av, -e)
        aa = float(av @ av)
        ab = float(av @ bv)
        b_perp = bv - ab * (av / aa)
        lhs = math.ldexp(aa * math.ldexp(bb, e), e) - math.ldexp(ab, e) ** 2
        return lhs, math.ldexp(aa * math.ldexp(float(b_perp @ b_perp), e), e)
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
    w = p.weights
    v = _spread(arr, w, lo, hi)
    am = float(w @ arr)
    gm = float(np.exp(w @ np.log(arr)))
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


def _spreads_and_crosses(
    w: np.ndarray, qf: float, *ds: ProbDist
) -> tuple[list[float], list[float]]:
    """For each d in ds, the spread of 1/d under w and w . ln_q(1/d).

    Both come from the arrays d carries; the thm4.2 sandwiches are built
    from these numbers for d = p and d = r.  The caller must already have
    checked that each 1/d is finite (``_require_surprisal_fits``).  Every
    spread, and so every spread error, comes before any surprisal.
    """
    spreads = [_spread(d._inverse(), w, 1.0 / d._hi, 1.0 / d._lo) for d in ds]
    return spreads, [float(w @ d._surprisal(qf)) for d in ds]


def maxent_variance_bounds(p: ProbDist, q, mq: float, Mq: float) -> BoundReport:
    """Spread-weighted refinement of 0 <= ln_q(n) - H_q(p) <= ...

    With P = pairwise spread of the inverse probabilities under p and
    mq <= -ln_q'' <= Mq on their hull:
        (mq/2) P <= ln_q(n) - H_q(p) <= (Mq/2) P.
    cross_term_gap_sandwich at r = p, bit for bit: each p_j/p_j is 1.
    """
    qf = _as_q(q)
    _require_surprisal_fits(p.weights, p._lo, p._hi, qf)
    return _variance_chain(p.weights, p, qf, float(p.n), mq, Mq)


def cross_term_gap_sandwich(p: ProbDist, r: ProbDist, q, mq: float, Mq: float) -> BoundReport:
    """Spread bounds on the Jensen gap of -ln_q at the points 1/r_j under p.

    With R = pairwise spread of 1/r under p:
        (mq/2) R <= ln_q(sum_j p_j/r_j) - sum_j p_j ln_q(1/r_j) <= (Mq/2) R.
    maxent_variance_bounds is this chain at r = p.
    """
    check_lengths(p, r)
    qf = _as_q(q)
    _require_surprisal_fits(r.weights, r._lo, r._hi, qf)
    return _variance_chain(p.weights, r, qf, float(np.add.reduce(p.weights / r.weights)), mq, Mq)


def _variance_chain(w, d: ProbDist, qf: float, x: float, mq: float, Mq: float) -> BoundReport:
    """(mq/2) R <= ln_q(x) - w . ln_q(1/d) <= (Mq/2) R, R the spread of 1/d under w and x the
    w-mean of 1/d; the caller checks ln_q(1/d)."""
    [spread], [cross] = _spreads_and_crosses(w, qf, d)
    value = q_log(x, qf) - cross
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
    _require_surprisal_fits(p.weights, p._lo, p._hi, qf)
    _require_surprisal_fits(r.weights, r._lo, r._hi, qf)
    w = p.weights
    base = q_log(float(np.add.reduce(w / r.weights)), qf) - q_log(float(p.n), qf)
    (spread_p, spread_r), (cross_p, cross_r) = _spreads_and_crosses(w, qf, p, r)
    return BoundReport(
        lower=base + 0.5 * mq * spread_p - 0.5 * Mq * spread_r,
        value=cross_r - cross_p,
        upper=base + 0.5 * Mq * spread_p - 0.5 * mq * spread_r,
    )
