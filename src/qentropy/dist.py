"""Finite probability vectors and partitions of their cells.

Validation is strict: weights must be strictly positive and sum to 1 within
SUM_TOL.  Nothing is ever silently renormalized; a bad vector is the
caller's bug and is rejected with a specific error.

A two-level refinement is a ``ProbDist`` over the fine cells with a
``Partition`` of them into blocks: ``coarsen`` gives the coarse level.

The public constructors (``ProbDist(...)``, ``JointDist(...)``,
``make_dist``) are the boundary and validate in full.  An array the library
has just derived from validated weights (a coarsening, a marginal, a sampled
point) takes the private path ``_derived``, which keeps the positivity test
and the carried extremes but neither copies the array nor sums it again.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    LengthMismatchError,
    NormalizationError,
    PartitionError,
    PositivityError,
)
from .qmath import _as_q, _ln_q

# Largest tolerated |sum(weights) - 1|.
SUM_TOL = 1e-9

_FLOAT_MAX = sys.float_info.max
_HALF_FLOAT_MAX = _FLOAT_MAX / 2.0

__all__ = [
    "SUM_TOL",
    "ProbDist",
    "Partition",
    "make_dist",
    "coarsen",
    "power_sum",
]


def _floats(values, what: str, *, copy: bool = True) -> np.ndarray:
    """values as a float array (new if ``copy``); a ragged or non-numeric one is a DomainError."""
    try:
        return np.array(values, dtype=float) if copy else np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a rectangular array of real numbers") from None


def _validated(arr: np.ndarray, *, positivity: str, sum_what: str | None):
    """Check a freshly copied float array; return it frozen, with (min, max).

    Every entry must be finite and > 0 (else PositivityError with the
    ``positivity`` message).  With ``sum_what`` the entries must also sum
    to 1 within SUM_TOL.  The extremes are Python floats, so the O(1)
    domain checks made on them later cannot raise a numpy warning.
    """
    lo = float(np.minimum.reduce(arr, axis=None))
    hi = float(np.maximum.reduce(arr, axis=None))
    # a NaN makes the minimum NaN, which fails the comparison too
    if not (lo > 0.0 and hi < math.inf):
        raise PositivityError(positivity)
    if sum_what is not None:
        total = _sum(arr, hi)
        if abs(total - 1.0) > SUM_TOL:
            raise NormalizationError(
                f"{sum_what} {_sum_text(total)}; |sum - 1| must be <= {SUM_TOL}"
            )
    arr.flags.writeable = False
    return arr, lo, hi


def _derived(cls, arr: np.ndarray):
    """An instance of ``cls`` (ProbDist or JointDist) over ``arr``, without __post_init__.

    For arrays the library has just derived from validated weights, and
    owns: a sampled point normalized by its own sum, block sums of a
    ProbDist (a coarsening, or a two-level refinement's coarse level), axis
    sums of a JointDist.  The array is frozen in place, not copied.  Its min
    and max are taken as ``_validated`` takes them, so the carried ``_lo`` /
    ``_hi`` have the bits the public constructor would give, and a zero or
    non-finite entry (a min_mass = 0 draw can underflow to 0) still raises
    PositivityError with the public constructor's message,
    ``cls._POSITIVITY``.  The sum is not checked again: an n-term
    float sum is off by at most (n - 1) u times the sum of its terms (u =
    2**-53; Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 4.2), so a vector divided by its own float sum totals 1 within
    about (n + 1) u, and regrouped sums of a validated vector total what it
    does within about n u: far below SUM_TOL for any n that fits in memory.
    """
    arr, lo, hi = _validated(arr, positivity=cls._POSITIVITY, sum_what=None)
    obj = object.__new__(cls)
    object.__setattr__(obj, cls._ARRAY, arr)
    object.__setattr__(obj, "_lo", lo)
    object.__setattr__(obj, "_hi", hi)
    return obj


def _sum(arr: np.ndarray, hi: float) -> float:
    """Sum of finite entries no larger than ``hi``; inf, with no warning, if it overflows.

    When n * hi stays below half the float maximum no partial sum can
    overflow, so the error state is only entered for huge entries.
    """
    if hi * arr.size <= _HALF_FLOAT_MAX:
        return float(np.add.reduce(arr, axis=None))
    with np.errstate(over="ignore"):
        return float(np.add.reduce(arr, axis=None))


def _sum_text(total: float) -> str:
    """A weight total for an error message, never 'inf'."""
    return repr(total) if total < math.inf else f"more than {_FLOAT_MAX!r}"


@dataclass(frozen=True)
class ProbDist:
    """Strictly positive weights summing to 1 within SUM_TOL.

    Besides its frozen weights a distribution carries values derived from
    them, never part of ``==``, ``repr`` or any report: the extremes
    ``_lo`` / ``_hi``, found at validation, and, on first use by a bound
    chain, the inverse masses 1/w and the Tsallis surprisal ln_q(1/w) for
    the last q asked (at most two n-vectors, frozen).  They have the bits
    the chains computed afresh before, so report bytes do not change.
    """

    weights: np.ndarray

    # the array's attribute and the message of a bad entry, for _derived
    _ARRAY = "weights"
    _POSITIVITY = "probability weights entries must be finite and strictly positive"

    def __post_init__(self) -> None:
        arr = _floats(self.weights, "probability weights")  # a copy: instances own their storage
        if arr.ndim != 1:
            raise DimensionError(
                f"probability weights must be one-dimensional, got shape {arr.shape}"
            )
        if arr.size == 0:
            raise DimensionError("probability weights must contain at least one entry")
        arr, lo, hi = _validated(arr, positivity=self._POSITIVITY, sum_what="weights sum to")
        object.__setattr__(self, "weights", arr)
        # extremes found by validation, not fields: repr and == ignore them
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)

    @property
    def n(self) -> int:
        return int(self.weights.size)

    # The derived arrays below live in the instance __dict__, read with plain
    # dict lookups (functools.cached_property locks per instance on 3.11).
    # Each is stored whole, in one assignment, so a reader never sees a q
    # paired with another q's surprisal.

    def _inverse(self) -> np.ndarray:
        """1/w, computed on first use and frozen.

        The caller must already know that every 1/w_j is finite, for
        example from ``_require_surprisal_fits``.
        """
        inv = self.__dict__.get("_inv")
        if inv is None:
            inv = 1.0 / self.weights
            inv.flags.writeable = False
            self.__dict__["_inv"] = inv
        return inv

    def _surprisal(self, qf: float) -> np.ndarray:
        """ln_q(1/w) for a validated q, frozen; one slot, for the last q asked.

        The caller must already know that 1/w is finite (see ``_inverse``).
        """
        slot = self.__dict__.get("_lnq_inv")
        if slot is not None and slot[0] == qf:
            return slot[1]
        out = _ln_q(self._inverse(), qf)
        out.flags.writeable = False
        self.__dict__["_lnq_inv"] = (qf, out)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbDist):
            return NotImplemented
        return self.weights.shape == other.weights.shape and bool(
            np.all(self.weights == other.weights)
        )


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks of 0-based indices.

    Coverage of {0..n-1} depends on the vector being coarsened, so it is
    checked by ``coarsen``; block order is preserved as given.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            blocks = tuple(tuple(operator.index(i) for i in block) for block in self.blocks)
        except (TypeError, ValueError) as exc:
            raise PartitionError(f"blocks must be iterables of integers: {exc}") from exc
        if not blocks:
            raise PartitionError("a partition needs at least one block")
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise PartitionError("empty block")
            for i in block:
                if i < 0:
                    raise PartitionError(f"negative index {i}")
                if i in seen:
                    raise PartitionError(f"index {i} appears in more than one block")
                seen.add(i)
        object.__setattr__(self, "blocks", blocks)


def make_dist(weights) -> ProbDist:
    """Validate and freeze a probability vector."""
    return ProbDist(weights)


def coarsen(p: ProbDist, partition: Partition) -> ProbDist:
    """Sum p over each block, in block order.

    The blocks must cover {0..n-1} exactly (disjointness is already
    guaranteed by Partition).
    """
    covered = {i for block in partition.blocks for i in block}
    if covered != set(range(p.n)):
        raise PartitionError(
            f"blocks must cover exactly the indices 0..{p.n - 1}"
        )
    sums = np.array([float(np.add.reduce(p.weights[list(block)])) for block in partition.blocks])
    return _derived(ProbDist, sums)


def power_sum(p: ProbDist, q) -> float:
    """sum_j p_j^q for q >= 0."""
    qf = _as_q(q)
    return float(np.add.reduce(p.weights**qf))


def check_lengths(p: ProbDist, r: ProbDist) -> None:
    if p.n != r.n:
        raise LengthMismatchError(f"length mismatch: {p.n} vs {r.n}")


def _points(xs, p: ProbDist) -> np.ndarray:
    """Sample points xs as a float array, one per mass of p."""
    arr = _floats(xs, "xs", copy=False)
    if arr.shape != (p.n,):
        raise LengthMismatchError(f"xs has shape {arr.shape}, expected ({p.n},)")
    return arr
