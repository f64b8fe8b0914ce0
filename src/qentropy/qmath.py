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


def q_log(x, q):
    """Deformed natural logarithm ln_q(x).

    Accepts scalars or arrays; requires x > 0 elementwise.  Evaluated as
    expm1((1-q) log x)/(1-q) so values near x = 1 and q near 1 do not lose
    precision to cancellation.

    Every call checks its input: q must be a finite real >= 0 and x a
    non-empty array of finite values > 0 (NaN, inf, 0 and -0.0 raise
    DomainError).  The check is one min and one max reduction.
    """
    qf = _as_q(q)
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise DomainError("q_log requires at least one value")
    # a NaN makes min() return NaN, which fails the comparison too
    if not (arr.min() > 0.0 and arr.max() < math.inf):
        raise DomainError("q_log is defined only for finite x > 0")
    if is_deformed(qf):
        out = np.expm1((1.0 - qf) * np.log(arr)) / (1.0 - qf)
    else:
        out = np.log(arr)
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
    large for a double raises DomainError.
    """
    qf = _as_q(q)
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise DomainError("q_exp requires at least one value")
    lo, hi = float(arr.min()), float(arr.max())
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
    if arr.ndim == 0:
        return float(out)
    return out
