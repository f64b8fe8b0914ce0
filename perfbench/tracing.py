"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps every public function of every qentropy module, in each
qentropy module namespace that holds a reference to it (modules import each
other's functions by name, so patching only the defining module would miss
most calls). Dataclass constructors are counted by wrapping their
``__post_init__``: the classes themselves are never replaced, because the
library relies on ``isinstance`` checks.

A span is a list ``[name, layer, kind, start, end, parent, tag, error]``:
``kind`` is "call", "construct" or "phase"; ``parent`` is the index of the
enclosing span or None; ``tag`` carries what a layer metric needs from the
arguments (element counts, n, case id, generator label); ``error`` marks the
innermost span a QEntropyError was raised in. Times come from
``time.perf_counter``, which on Linux is CLOCK_MONOTONIC and therefore
comparable across processes, so spans recorded in a child CLI process can be
merged under the parent's span for that invocation.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

from qentropy.errors import QEntropyError

LAYERS = (
    "qmath",
    "dist",
    "quasilinear",
    "entropy",
    "divergence",
    "bounds",
    "joint",
    "verify",
    "serialize",
    "cli",
)

# The benchmark's own spans (one bound chain, one CLI invocation).
BENCH = "bench"

_MARK = "__perfbench_span__"
_COUNTED = "_perfbench_counted"


def _size(args, kwargs):
    return int(np.size(args[0] if args else next(iter(kwargs.values()))))


def _length(args, kwargs):
    return len(args[0] if args else next(iter(kwargs.values())))


def _case(args, kwargs):
    case = args[0] if args else kwargs["case"]
    trials = args[1] if len(args) > 1 else kwargs.get("trials", 1000)
    return (case if isinstance(case, str) else case.id, int(trials))


def _label(args, kwargs):
    return args[0].label


# What each layer metric reads from a call's arguments.
_TAGS = {
    "q_log": _size,
    "q_exp": _size,
    "pairwise_spread": _length,
    "lagrange_identity": _length,
    "run_case": _case,
    "GeneratorPsi.__post_init__": _label,
    "ConvexGenerator.__post_init__": _label,
}


def _qentropy_modules() -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "qentropy" or name.startswith("qentropy."))
    }


def snapshot() -> dict:
    """Identity of every callable and ``__post_init__`` in qentropy namespaces."""
    state = {}
    for mname, mod in _qentropy_modules().items():
        for attr, val in vars(mod).items():
            if callable(val):
                state[(mname, attr)] = val
            if inspect.isclass(val) and "__post_init__" in vars(val):
                state[(mname, attr, "__post_init__")] = vars(val)["__post_init__"]
    return state


def changed(before: dict, after: dict) -> list:
    """Keys whose object differs between two snapshots (by identity)."""
    keys = set(before) | set(after)
    return sorted(
        (k for k in keys if before.get(k) is not after.get(k)), key=lambda k: tuple(map(str, k))
    )


def wrapped_names() -> list:
    """Names of tracer wrappers currently reachable from a qentropy namespace."""
    found = []
    for key, val in snapshot().items():
        if hasattr(val, _MARK):
            found.append(".".join(key))
    return sorted(found)


class Tracer:
    """Records spans around qentropy's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._before: dict | None = None
        self._recording = [True]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._before = snapshot()
        modules = _qentropy_modules()
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = modules.get(f"qentropy.{layer}")
            if mod is None:
                continue
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name, "call"))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    orig = vars(obj)["__post_init__"]
                    qual = f"{name}.__post_init__"
                    self._patch(obj, "__post_init__", self._wrap(orig, layer, qual, "construct"))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

    def uninstall(self) -> list:
        """Restore every patched attribute; return the identities that differ."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return changed(self._before or {}, snapshot())

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer: str, name: str, kind: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        recording = self._recording
        tag_of = _TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recording[0] or (stack and spans[stack[-1]][0] == name):
                # suspended, or self-recursion (serialize.dumps): one span per
                # outer call
                return fn(*args, **kwargs)
            tag = tag_of(args, kwargs) if tag_of is not None else None
            rec = [name, layer, kind, 0.0, 0.0, stack[-1] if stack else None, tag, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            except QEntropyError as exc:
                if not getattr(exc, _COUNTED, False):
                    rec[7] = True
                    setattr(exc, _COUNTED, True)
                raise
            finally:
                rec[4] = clock()
                stack.pop()

        setattr(wrapper, _MARK, name)
        return wrapper

    @contextmanager
    def suspended(self):
        """No spans while the benchmark checks outputs with library calls."""
        self._recording[0] = False
        try:
            yield
        finally:
            self._recording[0] = True

    # -- spans recorded by the benchmark itself ----------------------------

    @contextmanager
    def span(self, name: str, layer: str = BENCH):
        rec = [name, layer, "phase", 0.0, 0.0, self._stack[-1] if self._stack else None, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = time.perf_counter()
        try:
            yield len(self.spans) - 1
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def add_phase(self, name: str, layer: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, "phase", start, end, parent, None, False])

    def merge(self, spans: list, parent: int | None) -> None:
        """Append spans recorded in another process under span ``parent``."""
        base = len(self.spans)
        for rec in spans:
            rec = list(rec)
            rec[5] = parent if rec[5] is None else rec[5] + base
            if isinstance(rec[6], list):
                rec[6] = tuple(rec[6])
            if rec[2] == "construct" and rec[6] is not None:
                # distinct generator labels are counted per process
                rec[6] = (parent, rec[6])
            self.spans.append(rec)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[5] is not None:
            covered[rec[5]] += rec[4] - rec[3]
    return [rec[4] - rec[3] - c for rec, c in zip(spans, covered)]


def summarize(spans: list) -> dict:
    """Per-layer and per-function counts and self times, plus tagged sums.

    ``library_root_s`` is the time covered by library spans whose parent is
    a benchmark span or nothing: what the spans explain of the traced wall.
    """
    selfs = self_times(spans)
    layers = {
        layer: {"calls": 0, "constructs": 0, "self_s": 0.0, "errors": 0, "labels": set()}
        for layer in LAYERS
    }
    out = {
        "layers": layers,
        "by_name": {},  # name -> [count, total_s, self_s]
        "qmath_elements": 0,
        "pairwise_calls": 0,
        "pairwise_temp_bytes": 0,
        "cases": {},  # case id -> [total_s, trials]
        "bench": {},  # benchmark span name -> durations
        "library_root_s": 0.0,
        "spans": len(spans),
    }
    for rec, self_s in zip(spans, selfs):
        name, layer, kind, start, end, parent, tag, error = rec
        if layer == BENCH:
            out["bench"].setdefault(name, []).append(end - start)
            continue
        if parent is None or spans[parent][1] == BENCH:
            out["library_root_s"] += end - start
        stats = layers[layer]
        stats["self_s"] += self_s
        stats["errors"] += int(error)
        if kind == "call":
            stats["calls"] += 1
        elif kind == "construct":
            stats["constructs"] += 1
            if tag is not None:
                stats["labels"].add(tag)
        by_name = out["by_name"].setdefault(name, [0, 0.0, 0.0])
        by_name[0] += 1
        by_name[1] += end - start
        by_name[2] += self_s
        if name in ("q_log", "q_exp"):
            out["qmath_elements"] += tag
        elif name in ("pairwise_spread", "lagrange_identity"):
            # each call materializes four n x n float64 temporaries
            out["pairwise_calls"] += 1
            out["pairwise_temp_bytes"] += 4 * tag * tag * 8
        elif name == "run_case":
            case, trials = tag
            total = out["cases"].setdefault(case, [0.0, 0])
            total[0] += end - start
            total[1] += trials
    return out
