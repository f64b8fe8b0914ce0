"""Deterministic JSON emission.

Reports must be byte-identical across runs and schedulers, so floats are
rendered with a fixed '%.17g' format (exact round trip for binary64) and
dict keys keep their insertion order.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA = "qentropy/5"

__all__ = ["SCHEMA", "dumps", "format_float"]


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Serialize to a compact JSON string with deterministic float text."""
    if isinstance(obj, bool):  # bool before int: bool subclasses int
        return "true" if obj else "false"
    if isinstance(obj, float):  # np.float64 subclasses float
        return format_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")
