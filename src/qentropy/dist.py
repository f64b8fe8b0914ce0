"""Finite probability vectors, partitions, and two-level refinements.

Validation is strict: weights must be strictly positive and sum to 1 within
SUM_TOL.  Nothing is ever silently renormalized; a bad vector is the
caller's bug and is rejected with a specific error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    LengthMismatchError,
    NormalizationError,
    PartitionError,
    PositivityError,
)
from .qmath import _as_q

# Largest tolerated |sum(weights) - 1|.
SUM_TOL = 1e-9

_FLOAT_MAX = sys.float_info.max

__all__ = [
    "SUM_TOL",
    "ProbDist",
    "IncompleteDist",
    "Partition",
    "NestedDist",
    "make_dist",
    "coarsen",
    "power_sum",
]


def _clean_vector(values, *, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)  # copy: instances own their storage
    if arr.ndim != 1:
        raise DimensionError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{what} must contain at least one entry")
    # a NaN makes min() return NaN, which fails the comparison too
    if not (arr.min() > 0.0 and arr.max() < math.inf):
        raise PositivityError(f"{what} entries must be finite and strictly positive")
    arr.flags.writeable = False
    return arr


def _sum(arr: np.ndarray) -> float:
    """Sum of finite entries; inf, with no warning, if it overflows."""
    with np.errstate(over="ignore"):
        return float(arr.sum())


def _sum_text(total: float) -> str:
    """A weight total for an error message, never 'inf'."""
    return repr(total) if total < math.inf else f"more than {_FLOAT_MAX!r}"


@dataclass(frozen=True)
class ProbDist:
    """Strictly positive weights summing to 1 within SUM_TOL."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = _clean_vector(self.weights, what="probability weights")
        total = _sum(arr)
        if abs(total - 1.0) > SUM_TOL:
            raise NormalizationError(
                f"weights sum to {_sum_text(total)}; |sum - 1| must be <= {SUM_TOL}"
            )
        object.__setattr__(self, "weights", arr)

    @property
    def n(self) -> int:
        return int(self.weights.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbDist):
            return NotImplemented
        return self.weights.shape == other.weights.shape and bool(
            np.all(self.weights == other.weights)
        )


@dataclass(frozen=True)
class IncompleteDist:
    """Positive weights with no normalization constraint."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", _clean_vector(self.weights, what="incomplete weights")
        )

    @property
    def n(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks of 0-based indices.

    Coverage of {0..n-1} depends on the vector being coarsened, so it is
    checked by ``coarsen``; block order is preserved as given.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            blocks = tuple(tuple(int(i) for i in block) for block in self.blocks)
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

    @property
    def size(self) -> int:
        return sum(len(b) for b in self.blocks)


@dataclass(frozen=True)
class NestedDist:
    """A two-level refinement: positive rows whose grand total is 1.

    Row i carries weights x_i1..x_im_i; the row sums x_i form the coarse
    distribution and the concatenated cells form the fine one.
    """

    rows: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise DimensionError("NestedDist needs at least one row")
        rows = tuple(_clean_vector(r, what="row weights") for r in self.rows)
        total = float(sum(_sum(r) for r in rows))
        if abs(total - 1.0) > SUM_TOL:
            raise NormalizationError(
                f"grand total is {_sum_text(total)}; |total - 1| must be <= {SUM_TOL}"
            )
        object.__setattr__(self, "rows", rows)

    @property
    def row_sums(self) -> np.ndarray:
        return np.array([float(r.sum()) for r in self.rows])

    def flatten(self) -> ProbDist:
        return ProbDist(np.concatenate(self.rows))

    def coarse(self) -> ProbDist:
        return ProbDist(self.row_sums)


def make_dist(weights) -> ProbDist:
    """Validate and freeze a probability vector."""
    return ProbDist(np.asarray(weights, dtype=float))


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
    sums = np.array([float(p.weights[list(block)].sum()) for block in partition.blocks])
    return ProbDist(sums)


def power_sum(p: ProbDist, q) -> float:
    """sum_j p_j^q for q >= 0."""
    qf = _as_q(q)
    return float(np.sum(p.weights**qf))


def check_lengths(p: ProbDist | IncompleteDist, r: ProbDist | IncompleteDist) -> None:
    if p.n != r.n:
        raise LengthMismatchError(f"length mismatch: {p.n} vs {r.n}")
