"""Tsallis, Shannon, and Renyi entropies, and the identity tying them together."""

from __future__ import annotations

import math

import numpy as np

from .dist import ProbDist
from .qmath import _as_q, _ln_q, _near_one, _require_finite_ratio, q_exp

__all__ = [
    "tsallis_entropy",
    "shannon_entropy",
    "renyi_entropy",
    "renyi_tsallis_bridge",
]


def tsallis_entropy(p: ProbDist, q) -> float:
    """H_q(p) = sum_j p_j ln_q(1/p_j); equals Shannon entropy at q = 1.

    Value lies in [0, ln_q(n)], with the maximum at the uniform distribution.
    """
    qf = _as_q(q)
    _require_finite_ratio(1.0, 1.0, p.weights, p._lo)
    return float(p.weights @ _ln_q(1.0 / p.weights, qf))


def shannon_entropy(p: ProbDist) -> float:
    """H_1(p) = -sum_j p_j log p_j (natural log)."""
    w = p.weights
    return float(-(w @ np.log(w)))


def renyi_entropy(p: ProbDist, q) -> float:
    """R_q(p) = log(sum_j p_j^q) / (1-q); Shannon at q = 1, log(n) at q = 0.

    Near q = 1 (|1-q| < 1/2) the sum is taken as s = sum_j p_j^q - 1 =
    sum_j p_j expm1((q-1) log p_j), whose terms all have one sign, and
    R_q = log1p(s)/(1-q) keeps the digits that log(1 + s) would round
    away.  Elsewhere, and where s <= -1/2 (log1p would lose it), the
    largest mass m is factored out: log(sum_j p_j^q) = q log m +
    log(sum_j (p_j/m)^q), where the last sum is at least 1, so it can
    neither underflow nor overflow.
    """
    qf = _as_q(q)
    if qf == 1.0:
        return shannon_entropy(p)
    if _near_one(qf):
        s = float(p.weights @ np.expm1((qf - 1.0) * np.log(p.weights)))
        if s > -0.5:
            return math.log1p(s) / (1.0 - qf)
    m = p._hi
    rest = float(((p.weights / m) ** qf).sum())
    return (qf * math.log(m) + math.log(rest)) / (1.0 - qf)


def renyi_tsallis_bridge(p: ProbDist, q) -> tuple[float, float]:
    """Return (exp R_q(p), exp_q H_q(p)); the two sides agree for every q >= 0.

    They agree as real numbers; each side is computed on its own, so in
    doubles they can differ by a few ulps.

    Always well defined: 1 + (1-q) H_q(p) = sum_j p_j^q > 0.
    """
    lhs = float(np.exp(renyi_entropy(p, q)))
    rhs = q_exp(tsallis_entropy(p, q), q)
    return lhs, rhs
