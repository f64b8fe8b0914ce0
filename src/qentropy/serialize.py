"""The report format: deterministic JSON emission, and a report's witness parsed back.

Reports must be byte-identical across runs and schedulers, so floats are
rendered with a fixed '%.17g' format (exact round trip for binary64) and
dict keys keep their insertion order.  ``loads`` reads every number back
as the value it printed, and ``parse_witness`` turns a verify report's
witness back into the inputs its case drew, through the validating
constructors.

This module reads every number from outside the library, by one rule: a
report line, and the CLI's JSON and CSV input files.  A number is a
finite double: NaN, an infinity and a literal past the double range are
rejected, "-0" is -0.0, and an integer is a number when its float is
finite.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .dist import ProbDist
from .errors import DimensionError, DomainError, LengthMismatchError
from .joint import JointDist

SCHEMA = "qentropy/6"

__all__ = ["SCHEMA", "dumps", "format_float", "render", "loads", "parse_witness"]


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


def render(x):
    """A witness input as JSON data: a distribution as its weights, an array
    flattened, a tuple as a list; ``parse_witness`` inverts it."""
    if isinstance(x, ProbDist):
        x = x.weights
    if isinstance(x, np.ndarray):
        return x.ravel().tolist()
    return [render(e) for e in x] if isinstance(x, tuple) else x


def _int(text: str):
    # '%.17g' prints a whole float as an int, and -0.0 as "-0"
    return -0.0 if text == "-0" else int(text)


def _finite(text: str) -> float:
    """A number's text, a JSON literal or a CSV token, as a finite double; else ValueError."""
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text}")
    return x


def loads(text: str):
    """Parse JSON as ``dumps`` wrote it: "-0" is the float -0.0, other whole
    numbers are ints; a NaN, an infinity or a number past the double range
    raises ValueError."""
    return json.loads(text, parse_int=_int, parse_float=_finite, parse_constant=_finite)


class _Witness(dict):
    """A parsed witness: reading a key it lacks raises DomainError, and
    ``unread`` holds the keys that no read has asked for."""

    def __init__(self, fields: dict):
        super().__init__(fields)
        self.unread = set(fields)

    def __getitem__(self, key):
        if key not in self:
            raise DomainError(f"the witness has no {key!r}")
        self.unread.discard(key)
        return super().__getitem__(key)


_JSON_KINDS = {dict: "an object", list: "a non-empty list", str: "a string"}


def _json(x, kind: type, what: str):
    """x, if JSON gave it type ``kind`` (a list must not be empty); else a DomainError."""
    if type(x) is not kind or (kind is list and not x):
        raise DomainError(f"{what} must be {_JSON_KINDS[kind]} in JSON")
    return x


def _number(x, what: str) -> float:
    # a whole float prints as an int; an int is a number when its float is finite
    if type(x) is float:
        return x
    if type(x) is int:
        try:
            return float(x)
        except OverflowError:
            pass
    raise DomainError(f"{what} must be a number, got {x!r}")


def _count(x, what: str) -> int:
    if type(x) is not int or x < 0:
        raise DomainError(f"{what} must be an integer >= 0, got {x!r}")
    return x


def _vector(x, what: str) -> np.ndarray:
    return np.array([_number(v, what) for v in _json(x, list, what)])


def _counts(x, what: str) -> tuple[int, ...]:
    return tuple(_count(v, what) for v in _json(x, list, what))


def _label(x, what: str) -> str:
    return _json(x, str, what)


def _dist(x, what: str) -> ProbDist:
    return ProbDist(_vector(x, what))


def _fit(dims: tuple[int, ...], cells: np.ndarray) -> np.ndarray:
    """cells, if their count is the exact product of dims; else a DimensionError."""
    if math.prod(dims) != cells.size:
        raise DimensionError(f"{cells.size} cells do not fit dims {list(dims)}")
    return cells


# How each witness key parses back: numbers that stand for floats as floats,
# indices as ints, labels as text, distributions through their constructor.
_FIELDS = {
    "trial": _count,
    "n": _count,
    "q": _number,
    "psi": _label,
    "f": _label,
    "p": _dist,
    "r": _dist,
    "xs": _vector,
    "a": _vector,
    "b": _vector,
    "cells": _vector,
    "dims": _counts,
    "order": _counts,
    "blocks": lambda x, what: tuple(_counts(b, what) for b in _json(x, list, what)),
    "rows": lambda x, what: tuple(_vector(row, what) for row in _json(x, list, what)),
}


def parse_witness(raw) -> _Witness:
    """A verify report's ``worst_witness``, as its case's draw returned it.

    Each value parses by its key: floats keep every bit and the sign of
    zero, ``p`` and ``r`` are validated ``ProbDist``s, and the witness is
    checked as a whole: its vectors share one length, its ``cells`` fit
    ``dims`` and form a ``JointDist``, and its ``rows`` form a ``ProbDist``.
    An unknown key or a value that does not parse raises a QEntropyError.
    """
    fields = {}
    for key, x in _json(raw, dict, "the witness").items():
        if key not in _FIELDS:
            raise DomainError(f"the witness has an unknown key {key!r}")
        fields[key] = _FIELDS[key](x, f"the witness's {key!r}")
    vectors = [fields[k] for k in ("p", "r", "xs", "a", "b") if k in fields]
    lengths = {np.size(getattr(v, "weights", v)) for v in vectors}
    if len(lengths) > 1:
        raise LengthMismatchError(f"the witness's vectors have lengths {sorted(lengths)}")
    if "cells" in fields:
        dims = fields.get("dims", ())
        JointDist(_fit(dims, fields["cells"]).reshape(dims))
    if "rows" in fields:
        ProbDist(np.concatenate(fields["rows"]))
    return _Witness(fields)
