"""Deformed elementary functions.

The one-parameter deformation of the natural logarithm and exponential:

    ln_q(x)  = (x^(1-q) - 1) / (1-q)          for x > 0, q >= 0, q != 1
    exp_q(x) = (1 + (1-q) x)^(1/(1-q))        where 1 + (1-q) x > 0

Both reduce to ln/exp as q -> 1, and that limit is taken explicitly for
|q - 1| <= Q1_EPS.  Natural-log base throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedValueError

# Deformation parameters closer to 1 than this use the q -> 1 limit branch.
Q1_EPS = 1e-8

# Distinct q values each generator factory keeps built and validated.
_GENERATOR_CACHE_SIZE = 256

__all__ = ["Q1_EPS", "EntropicIndex", "is_deformed", "q_log", "q_exp"]


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


def is_deformed(q: float) -> bool:
    """True when q is far enough from 1 that the deformed branch is used."""
    return abs(float(q) - 1.0) > Q1_EPS


@dataclass(frozen=True)
class EntropicIndex:
    """A validated entropic index q >= 0.

    ``deformed`` reports whether q lies outside the limit window around 1.
    Instances coerce to float, so they can be passed anywhere a plain q is
    accepted.
    """

    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _as_q(self.q))

    @property
    def deformed(self) -> bool:
        return is_deformed(self.q)

    def __float__(self) -> float:
        return self.q


_LNQ_DOMAIN = "q_log is defined only for finite x > 0"


def _ln_q(x, qf: float):
    """ln_q(x) with no checks: the kernel behind q_log.

    The caller must already know that q is a validated float and that every
    x is finite and > 0, for example because x is 1/w over the weights of
    a validated distribution whose carried minimum has a finite inverse
    (see ``_require_finite_ratio``).  Returns what numpy returns: an array
    for an array, a numpy float for a scalar.
    """
    if is_deformed(qf):
        return np.expm1((1.0 - qf) * np.log(x)) / (1.0 - qf)
    return np.log(x)


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
    DomainError).  A Python or numpy float is checked with two float
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
        return float(_ln_q(x, qf))
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise DomainError("q_log requires at least one value")
    # a NaN makes the minimum NaN, which fails the comparison too
    if not (
        np.minimum.reduce(arr, axis=None) > 0.0
        and np.maximum.reduce(arr, axis=None) < math.inf
    ):
        raise DomainError(_LNQ_DOMAIN)
    out = _ln_q(arr, qf)
    if arr.ndim == 0:
        return float(out)
    return out


def q_exp(x, q):
    """Deformed exponential exp_q(x), the inverse of q_log.

    Defined only where 1 + (1-q) x > 0; raises UndefinedValueError outside
    that region (a distinct condition from a bad argument type or a bad q).
    Evaluated as exp(log1p((1-q) x)/(1-q)) for the deformed branch.

    Every call checks its input: q must be a finite real >= 0 and x a
    non-empty array of finite values (DomainError otherwise), and in the
    deformed branch min((1-q) x) must exceed -1.  A (1-q) x or a result too
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
    if is_deformed(qf):
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
