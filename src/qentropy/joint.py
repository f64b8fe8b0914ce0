"""Joint distributions on a dense grid, conditional entropies, and chain rules.

Cells are strictly positive and stored row-major as a numpy array; axes are
0-based.  Desk scale: a handful of axes with small alphabets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .dist import _derived, _floats, _validated
from .errors import DimensionError, HypothesisError
from .qmath import _as_q, _ln_q, _require_ln_q_fits, _require_surprisal_fits

__all__ = [
    "JointDist",
    "marginal",
    "tsallis_joint_entropy",
    "tsallis_conditional_entropy",
    "chain_rule_decomposition",
    "han_sandwich",
    "conditioning_reduces_entropy_check",
]


@dataclass(frozen=True)
class JointDist:
    """Strictly positive cells over a k-axis grid, summing to 1 within SUM_TOL."""

    cells: np.ndarray

    # the array's attribute and the message of a bad entry, for dist._derived
    _ARRAY = "cells"
    _POSITIVITY = "every cell must be finite and strictly positive"

    def __post_init__(self) -> None:
        arr = _floats(self.cells, "cells")
        if arr.ndim < 1:
            raise DimensionError("cells must have at least one axis")
        if arr.size == 0:
            raise DimensionError("cells must be non-empty")
        arr, lo, hi = _validated(arr, positivity=self._POSITIVITY, sum_what="cells sum to")
        object.__setattr__(self, "cells", arr)
        # extremes found by validation, not fields: repr and == ignore them
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDist):
            return NotImplemented
        return self.cells.shape == other.cells.shape and bool(
            np.all(self.cells == other.cells)
        )

    @property
    def dims(self) -> tuple[int, ...]:
        return self.cells.shape

    @property
    def ndim(self) -> int:
        return self.cells.ndim


def _check_axes(j: JointDist, axes, *, what: str) -> tuple[int, ...]:
    try:
        axes = tuple(operator.index(a) for a in axes)
    except (TypeError, ValueError):
        raise DimensionError(
            f"{what} must be a sequence of integer axes, got {axes!r}"
        ) from None
    if len(set(axes)) != len(axes):
        raise DimensionError(f"{what} contains repeated axes: {axes!r}")
    for a in axes:
        if not 0 <= a < j.ndim:
            raise DimensionError(f"{what} axis {a} out of range for {j.ndim} axes")
    return axes


def marginal(j: JointDist, axes) -> JointDist:
    """Sum out every axis not listed; kept axes stay in original order.

    With every axis kept the result is j itself.
    """
    keep = _check_axes(j, axes, what="axes")
    if not keep:
        raise DimensionError("must keep at least one axis")
    drop = tuple(a for a in range(j.ndim) if a not in keep)
    if not drop:
        return j
    return _derived(JointDist, np.add.reduce(j.cells, axis=drop))


def tsallis_joint_entropy(j: JointDist, q) -> float:
    """H_q of the flattened cell distribution."""
    qf = _as_q(q)
    flat = j.cells.ravel()
    _require_surprisal_fits(flat, j._lo, j._hi, qf)
    return float(flat @ _ln_q(1.0 / flat, qf))


def tsallis_conditional_entropy(j: JointDist, target_axes, given_axes, q) -> float:
    """H_q(target | given) = -sum p(cell)^q ln_q p(target | given).

    The sum runs over the marginal on target+given axes.  Empty ``given``
    reduces to the entropy of the target marginal.
    """
    qf = _as_q(q)
    target = _check_axes(j, target_axes, what="target_axes")
    given = _check_axes(j, given_axes, what="given_axes")
    if not target:
        raise DimensionError("target_axes must be non-empty")
    if set(target) & set(given):
        raise DimensionError("target_axes and given_axes must be disjoint")
    sub = marginal(j, target + given) if len(target) + len(given) < j.ndim else j
    if not given:
        return tsallis_joint_entropy(sub, qf)
    kept = sorted(target + given)
    target_pos = tuple(kept.index(a) for a in target)
    p_given = np.add.reduce(sub.cells, axis=target_pos, keepdims=True)
    # each cell is a term of its p_given, so cond lies in (0, 1]; every
    # p_given is below 2, so min cell / 2 is a lower bound on every cond
    cond = sub.cells / p_given
    _require_ln_q_fits(cond, sub._lo / 2.0, qf)
    return float(-np.add.reduce(sub.cells**qf * _ln_q(cond, qf), axis=None))


def chain_rule_decomposition(j: JointDist, order, q) -> tuple[float, ...]:
    """Conditional-entropy terms along ``order``; they sum to the joint entropy.

    Term i is H_q(axis order[i] | axes order[:i]), an exact identity for
    every q >= 0 (up to floating error).
    """
    qf = _as_q(q)
    seq = _check_axes(j, order, what="order")
    if sorted(seq) != list(range(j.ndim)):
        raise DimensionError(f"order must be a permutation of 0..{j.ndim - 1}")
    return tuple(
        tsallis_conditional_entropy(j, (ax,), seq[:i], qf) for i, ax in enumerate(seq)
    )


def han_sandwich(j: JointDist, q) -> BoundReport:
    """0 <= H_q(joint) <= (1/(k-1)) sum_i H_q(leave-one-out marginals), q >= 1."""
    qf = _as_q(q)
    if qf < 1.0:
        raise HypothesisError(f"the leave-one-out bound requires q >= 1, got q={qf!r}")
    k = j.ndim
    if k < 2:
        raise DimensionError("need at least two axes")
    loo_total = 0.0
    for i in range(k):
        keep = tuple(a for a in range(k) if a != i)
        loo_total += tsallis_joint_entropy(marginal(j, keep), qf)
    return BoundReport(
        lower=0.0,
        value=tsallis_joint_entropy(j, qf),
        upper=loo_total / (k - 1),
    )


def conditioning_reduces_entropy_check(j: JointDist, q) -> tuple[float, float]:
    """Return (H_q(axis0 | axis1), H_q(axis0)) on the first two axes.

    For q >= 1 the first is never larger than the second.  For q < 1 the
    comparison can go either way; the pair is returned for inspection in
    both regimes.
    """
    qf = _as_q(q)
    if j.ndim < 2:
        raise DimensionError("need at least two axes")
    sub = j if j.ndim == 2 else marginal(j, (0, 1))
    cond = tsallis_conditional_entropy(sub, (0,), (1,), qf)
    marg = tsallis_joint_entropy(marginal(sub, (0,)), qf)
    return cond, marg
