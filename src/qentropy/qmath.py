"""Deformed elementary functions.

The one-parameter deformation of the natural logarithm and exponential:

    ln_q(x)  = (x^(1-q) - 1) / (1-q)          for x > 0, q >= 0, q != 1
    exp_q(x) = (1 + (1-q) x)^(1/(1-q))        where 1 + (1-q) x > 0

Both reduce to ln/exp as q -> 1; q == 1.0 takes log/exp exactly, and
every other q the deformed form, which stays accurate for any nonzero
1 - q.  Natural-log base throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedValueError

# Distinct q values each generator factory keeps built and validated.
_GENERATOR_CACHE_SIZE = 256

__all__ = ["EntropicIndex", "q_log", "q_exp"]


def _as_q(q) -> float:
    """Coerce and validate an entropic index (finite real, q >= 0)."""
    qf = float(q)
    if not math.isfinite(qf) or qf < 0.0:
        raise DomainError(f"entropic index must be a finite real >= 0, got {q!r}")
    return qf


def _cached_by_q(factory):
    """Memoize a generator factory of one entropic index q.

    The cache key is the validated float from ``_as_q`` with -0.0 folded into
    0.0, so 0.5, np.float64(0.5) and EntropicIndex(0.5) share one entry and
    an invalid q raises before any lookup.  Generators are frozen, so every
    caller can share the one instance whose self checks already ran.
    """
    cached = functools.lru_cache(maxsize=_GENERATOR_CACHE_SIZE)(factory)

    @functools.wraps(factory)
    def wrapper(q):
        return cached(_as_q(q) + 0.0)

    return wrapper


def _near_one(qf: float) -> bool:
    """True when |1 - q| < 1/2: the library's one choice of form by q.

    Near one, the Renyi entropy and divergence sum expm1 terms into log1p
    and the ln_q generator family is ln_q / exp_q.  Beyond it, the Renyi
    forms factor their largest term out of the sum and the family is
    x^(1-q) / y^(1/(1-q)).
    """
    return abs(1.0 - qf) < 0.5


@dataclass(frozen=True)
class EntropicIndex:
    """A validated entropic index q >= 0.

    Instances coerce to float, so they can be passed anywhere a plain q is
    accepted.
    """

    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _as_q(self.q))

    def __float__(self) -> float:
        return self.q


_LNQ_DOMAIN = "q_log is defined only for finite x > 0"
_LNQ_OVERFLOW = "ln_q overflows a double for q={!r}"

# (1-q) log x at or below which ln_q(x) surely fits a double.  Only q > 1
# and x < 1 can overflow.  Every double x > 0 has -log x < 745, so
# q - 1 >= y/745 for y = (1-q) log x, and |ln_q(x)| = expm1(y)/(q-1)
# <= 745 e^y, which is below 1e307 for y <= 700.
_LNQ_SAFE_EXPONENT = 700.0


def _ln_q(x, qf: float):
    """ln_q(x) with no checks: the kernel behind q_log.

    The caller must already know that q is a validated float and that every
    x is finite and > 0, for example because x is 1/w over the weights of
    a validated distribution whose carried minimum has a finite inverse
    (see ``_require_finite_ratio``).  Returns what numpy returns: an array
    for an array, a numpy float for a scalar.
    """
    if qf != 1.0:
        return np.expm1((1.0 - qf) * np.log(x)) / (1.0 - qf)
    return np.log(x)


def _ln_q_fits(x_min: float, qf: float, kernel=_ln_q) -> bool:
    """True when kernel(x, q) fits a double for every x >= x_min.

    The kernel is ln_q, or x^(1-q) = e^y for y = (1-q) log x, which is
    below 1e307 too for y <= _LNQ_SAFE_EXPONENT.  Both can overflow only
    for q > 1 and x < 1, and both are largest in magnitude at the smallest
    x.  The test is O(1) float math; only within a few units of the
    overflow edge, y > _LNQ_SAFE_EXPONENT at x_min, is the kernel itself
    evaluated at x_min (with overflow ignored) to see whether it stays
    finite, so the check and the kernel cannot disagree there.  An x_min
    of 0 (a quotient bound that underflowed), or NaN, does not fit.
    """
    if qf <= 1.0 or x_min >= 1.0:
        return True
    if not x_min > 0.0:
        return False
    if (1.0 - qf) * math.log(x_min) <= _LNQ_SAFE_EXPONENT:
        return True
    with np.errstate(over="ignore"):
        return bool(np.isfinite(kernel(np.float64(x_min), qf)))


def _require_ln_q_fits(x: np.ndarray, x_min: float, qf: float) -> None:
    """Check that ln_q fits a double on every entry of x, before evaluating it.

    ``x_min`` is a lower bound on min x, for example a quotient of carried
    extremes: division rounds monotonically, so r_min/p_max is at most
    every r_j/p_j.  When ln_q fits there the check is O(1); otherwise one
    min reduction over x decides, and an overflow raises DomainError.
    """
    if _ln_q_fits(x_min, qf) or _ln_q_fits(float(np.minimum.reduce(x, axis=None)), qf):
        return
    raise DomainError(_LNQ_OVERFLOW.format(qf))


def _require_finite_ratio(num, num_max: float, den: np.ndarray, den_min: float) -> None:
    """Check that every num/den lies in q_log's domain, before dividing.

    ``num_max`` and ``den_min`` are max num and min den > 0, as carried by a
    validated distribution (num may be the scalar 1.0).  Division rounds
    monotonically, so no ratio exceeds num_max/den_min: when that is finite,
    the check is O(1).  Otherwise the ratios are formed with overflow
    ignored and one max reduction decides.  A ratio of a mass to a mass of
    at most about 1 cannot underflow to 0, so only overflow is checked.  An
    infinite ratio raises the DomainError q_log would raise, where numpy
    would first have warned about the overflowing division.
    """
    if num_max / den_min < math.inf:
        return
    with np.errstate(over="ignore"):
        if np.maximum.reduce(num / den, axis=None) < math.inf:
            return
    raise DomainError(_LNQ_DOMAIN)


def q_log(x, q):
    """Deformed natural logarithm ln_q(x).

    Accepts scalars or arrays; requires x > 0 elementwise.  Evaluated as
    expm1((1-q) log x)/(1-q) so values near x = 1 and q near 1 do not lose
    precision to cancellation.

    This is the checked public entry: q must be a finite real >= 0 and x a
    non-empty array of finite values > 0 (NaN, inf, 0 and -0.0 raise
    DomainError).  For q > 1, ln_q(x) falls to -inf as x -> 0, and an x so
    small that ln_q(x) would overflow a double (q_log(1e-310, 2.0)) raises
    DomainError too, decided on the smallest x before anything is
    evaluated.  A Python or numpy float is checked with a few float
    comparisons, an array with one min and one max reduction.  The
    library's own callers whose x is built from a validated distribution
    check its domain in O(1) from the extremes the distribution carries and
    call the unchecked kernel ``_ln_q``, which gives the same bits.
    """
    qf = _as_q(q)
    if isinstance(x, float):
        # a NaN fails the comparison too
        if not 0.0 < x < math.inf:
            raise DomainError(_LNQ_DOMAIN)
        if not _ln_q_fits(x, qf):
            raise DomainError(_LNQ_OVERFLOW.format(qf))
        return float(_ln_q(x, qf))
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise DomainError("q_log requires at least one value")
    lo = float(np.minimum.reduce(arr, axis=None))
    # a NaN makes the minimum NaN, which fails the comparison too
    if not (lo > 0.0 and np.maximum.reduce(arr, axis=None) < math.inf):
        raise DomainError(_LNQ_DOMAIN)
    if not _ln_q_fits(lo, qf):
        raise DomainError(_LNQ_OVERFLOW.format(qf))
    out = _ln_q(arr, qf)
    if arr.ndim == 0:
        return float(out)
    return out


def q_exp(x, q):
    """Deformed exponential exp_q(x), the inverse of q_log.

    Defined only where 1 + (1-q) x > 0; raises UndefinedValueError outside
    that region (a distinct condition from a bad argument type or a bad q).
    Evaluated as exp(log1p((1-q) x)/(1-q)) for every q != 1.

    Every call checks its input: q must be a finite real >= 0 and x a
    non-empty array of finite values (DomainError otherwise), and for
    q != 1 min((1-q) x) must exceed -1.  A (1-q) x or a result too
    large for a double raises DomainError.  A Python or numpy float is its
    own min and max; an array costs one min and one max reduction.
    """
    qf = _as_q(q)
    if isinstance(x, float):
        arr = lo = hi = float(x)
    else:
        arr = np.asarray(x, dtype=float)
        if arr.size == 0:
            raise DomainError("q_exp requires at least one value")
        lo = float(np.minimum.reduce(arr, axis=None))
        hi = float(np.maximum.reduce(arr, axis=None))
    # a NaN makes min() and max() return NaN, which fails the comparison too
    if not (-math.inf < lo and hi < math.inf):
        raise DomainError("q_exp requires finite arguments")
    # exp_q and (1-q) x are monotone in x, so every check is made on lo and
    # hi in Python float math, where an overflow gives inf or OverflowError
    # instead of a RuntimeWarning
    if qf != 1.0:
        a = 1.0 - qf
        if min(a * lo, a * hi) <= -1.0:
            raise UndefinedValueError(
                f"exp_q undefined: 1 + (1-q)x <= 0 for q={qf!r}"
            )
        if max(a * lo, a * hi) == math.inf:
            raise DomainError(f"exp_q: (1-q)x overflows a double for q={qf!r}")
        top = math.log1p(a * hi) / a
        power = np.log1p(a * arr) / a
    else:
        top = hi
        power = arr
    try:
        math.exp(top)
    except OverflowError:
        raise DomainError(f"exp_q overflows a double for q={qf!r}") from None
    out = np.exp(power)
    if isinstance(out, np.ndarray):
        return out
    return float(out)
