"""Command-line front end.

Three subcommands:

* ``compute``  -- entropies and divergences of distributions read from files
* ``bounds``   -- two-sided bound chains with their computed constants
* ``verify``   -- the randomized verification harness, as JSON lines

Each compute functional and each bound case is one ``_Spec`` in
``_ENTROPY_SPECS``, ``_DIVERGENCE_SPECS`` or ``_BOUND_SPECS``: the files it
reads, whether it needs, rejects or optionally takes ``--q``, which
generator flag (``--psi`` or ``--f``) it takes, the name it reports, and the
callable that computes it.  Argparse choices, the cross-flag checks and
dispatch all read those tables.

Distribution files are either a JSON document ``{"weights": [...]}`` or a
single-column CSV (one weight per line, optional ``weight`` header). Joint
distributions use ``{"dims": [...], "cells": [...]}`` with cells flattened in
row-major (C) order; scalar functionals treat the cells as one distribution.

Exit status: 0 clean, 1 usage or input error, 2 verification violations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import (
    cartwright_field,
    f_divergence_sandwich,
    pairwise_spread,
    quasilinear_vs_tsallis_bounds,
    refined_maxent_bounds,
    tightest_constants,
    tsallis_cross_entropy_sandwich,
)
from .dist import ProbDist
from .divergence import (
    f_by_label,
    f_divergence,
    kl_divergence,
    neglog_generator,
    renyi_relative,
    tsallis_relative,
)
from .entropy import renyi_entropy, shannon_entropy, tsallis_entropy
from .errors import QEntropyError
from .quasilinear import psi_by_label, tsallis_quasilinear_entropy, tsallis_quasilinear_relative
from .serialize import SCHEMA, dumps, format_float
from .verify import DEFAULT_Q_GRID, REGISTRY, get_case, has_failures, run_case

__all__ = ["main", "entrypoint"]


class _CliError(Exception):
    """Usage or input problem; rendered to stderr, exit status 1."""


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"{path}: cannot read: {exc}") from None


def _parse_number_list(doc_value, path: str, key: str) -> list[float]:
    if (
        not isinstance(doc_value, list)
        or not doc_value
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in doc_value)
    ):
        raise _CliError(f"{path}:1: {key!r} must be a non-empty array of numbers")
    return [float(x) for x in doc_value]


def _parse_vector_file(path: str, keys: tuple[str, ...]) -> np.ndarray:
    """Read a JSON or single-column CSV file into a raw float vector."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _CliError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
        if not isinstance(doc, dict):
            raise _CliError(f"{path}:1: expected a JSON object")
        if "dims" in doc or "cells" in doc:
            for key in ("dims", "cells"):
                if key not in doc:
                    raise _CliError(f"{path}:1: joint document needs both 'dims' and 'cells'")
            dims = doc["dims"]
            if (
                not isinstance(dims, list)
                or not dims
                or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
            ):
                raise _CliError(f"{path}:1: 'dims' must be a non-empty array of integers >= 1")
            cells = _parse_number_list(doc["cells"], path, "cells")
            if len(cells) != int(np.prod(dims)):
                raise _CliError(
                    f"{path}:1: 'cells' has {len(cells)} entries, dims {dims} need "
                    f"{int(np.prod(dims))}"
                )
            return np.asarray(cells)
        for key in keys:
            if key in doc:
                return np.asarray(_parse_number_list(doc[key], path, key))
        raise _CliError(f"{path}:1: expected a JSON object with one of {list(keys)}")
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s:
            continue
        try:
            values.append(float(s))
        except ValueError:
            if lineno == 1 and s.lower() in ("weight", "value"):
                continue
            raise _CliError(f"{path}:{lineno}: not a number: {s!r}") from None
    if not values:
        raise _CliError(f"{path}: no values found")
    return np.asarray(values)


def _load_dist(path: str) -> ProbDist:
    raw = _parse_vector_file(path, ("weights",))
    try:
        return ProbDist(raw)
    except QEntropyError as exc:
        raise _CliError(f"{path}: {exc}") from None


def _load_points(path: str) -> np.ndarray:
    return _parse_vector_file(path, ("values", "weights"))


# ---------------------------------------------------------------------------
# the functionals and bound cases
# ---------------------------------------------------------------------------

_NEEDS, _REJECTS, _OPTIONAL = "needs", "rejects", "optional"


@dataclass(frozen=True)
class _Spec:
    """One compute functional or bound case.

    ``run(q, label, *inputs)`` gets ``--q``, the label passed to the ``gen``
    flag and one input per reader, and returns a functional's value or a
    bound case's ``(report, constants)``.  Its body names the library
    functions, so they are looked up when it runs.  A case stated at one q
    rejects ``--q`` and is computed and reported at ``fixed_q``.
    """

    name: str
    reads: tuple[Callable, ...]
    q_policy: str
    gen: str | None
    run: Callable
    fixed_q: float | None = None


_ONE = (_load_dist,)
_TWO = (_load_dist, _load_dist)


def _r_extremes(r: ProbDist) -> dict:
    return {"n_min_r": r.n * float(r.weights.min()), "n_max_r": r.n * float(r.weights.max())}


def _sandwich(gen, p: ProbDist, r: ProbDist, **extra) -> tuple:
    rep = f_divergence_sandwich(gen, p, r)
    ratios = r.weights / p.weights
    return rep, {
        "min_ratio": float(ratios.min()),
        "max_ratio": float(ratios.max()),
        "sum_t": float((p.weights**2 / r.weights).sum()),
        **extra,
    }


def _cross_entropy(q, _label, p: ProbDist, r: ProbDist) -> tuple:
    dr = tightest_constants(p, r, q)
    rep = tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M)
    lo, hi = dr.interval
    return rep, {"m_q": dr.m, "M_q": dr.M, "interval_lo": lo, "interval_hi": hi}


_ENTROPY_SPECS = {
    "tsallis": _Spec("tsallis_entropy", _ONE, _NEEDS, None, lambda q, _, p: tsallis_entropy(p, q)),
    "shannon": _Spec("shannon_entropy", _ONE, _REJECTS, None, lambda q, _, p: shannon_entropy(p)),
    "renyi": _Spec("renyi_entropy", _ONE, _NEEDS, None, lambda q, _, p: renyi_entropy(p, q)),
    "quasilinear": _Spec(
        "quasilinear_entropy", _ONE, _NEEDS, "psi",
        lambda q, psi, p: tsallis_quasilinear_entropy(psi_by_label(psi, q), p, q),
    ),
}

_DIVERGENCE_SPECS = {
    "tsallis": _Spec(
        "tsallis_divergence", _TWO, _NEEDS, None, lambda q, _, p, r: tsallis_relative(p, r, q)
    ),
    "kl": _Spec("kl_divergence", _TWO, _REJECTS, None, lambda q, _, p, r: kl_divergence(p, r)),
    "renyi": _Spec(
        "renyi_divergence", _TWO, _NEEDS, None, lambda q, _, p, r: renyi_relative(p, r, q)
    ),
    "f": _Spec(
        "f_divergence", _TWO, _OPTIONAL, "f",
        lambda q, f, p, r: f_divergence(f_by_label(f, q), p, r),
    ),
    "quasilinear": _Spec(
        "quasilinear_divergence", _TWO, _NEEDS, "psi",
        lambda q, psi, p, r: tsallis_quasilinear_relative(psi_by_label(psi, q), p, r, q),
    ),
}

_BOUND_SPECS = {
    "thm3.1": _Spec("thm3.1", _ONE, _NEEDS, "psi", lambda q, psi, r: (
        quasilinear_vs_tsallis_bounds(psi_by_label(psi, q), r, q), _r_extremes(r)
    )),
    "cor3.1": _Spec(
        "cor3.1", _ONE, _NEEDS, None, lambda q, _, r: (refined_maxent_bounds(r, q), _r_extremes(r))
    ),
    "thm3.2": _Spec(
        "thm3.2", _TWO, _OPTIONAL, "f", lambda q, f, p, r: _sandwich(f_by_label(f, q), p, r, f=f)
    ),
    "cor_dra": _Spec(
        "cor_dra", _TWO, _REJECTS, None, lambda q, _, p, r: _sandwich(neglog_generator(), p, r)
    ),
    "thm4.2": _Spec("thm4.2", _TWO, _NEEDS, None, _cross_entropy),
    "cor4": _Spec("cor4", _TWO, _REJECTS, None, _cross_entropy, fixed_q=1.0),
    # cf reads a point file, then a weight file
    "cf": _Spec("cf", (_load_points, _load_dist), _REJECTS, None, lambda q, _, xs, p: (
        cartwright_field(xs, p),
        {"min_x": float(xs.min()), "max_x": float(xs.max()), "spread": pairwise_spread(xs, p)},
    )),
}


def _check(args, spec: _Spec, *, what: str, no_q: str, needs: dict, owners: dict) -> None:
    """Cross-flag checks: file count, then ``--q``, ``--psi``, ``--f``; the first failure raises.

    The wording is the subcommand's: ``what`` names the choice, ``no_q`` is
    the whole message for a rejected ``--q``, ``needs[flag]`` names who needs
    a missing flag and ``owners[flag]`` what a stray ``--psi``/``--f`` is for.
    """
    want, got = len(spec.reads), len(args.inputs)
    if got != want:
        raise _CliError(
            f"error: {what} reads exactly {want} file{'s' if want > 1 else ''}, got {got}"
        )
    if spec.q_policy == _REJECTS and args.q is not None:
        raise _CliError(f"error: {no_q}")
    if spec.q_policy == _NEEDS and args.q is None:
        raise _CliError(f"error: {needs['q']} needs --q")
    for flag in ("psi", "f"):
        given = getattr(args, flag) is not None
        if spec.gen == flag and not given:
            raise _CliError(f"error: {needs[flag]} needs --{flag}")
        if spec.gen != flag and given:
            raise _CliError(f"error: --{flag} only applies to {owners[flag]}")


def _check_q(q: float | None) -> None:
    if q is not None and (not math.isfinite(q) or q < 0.0):
        raise _CliError(f"error: --q must be a finite number >= 0, got {q}")


def _run_spec(args) -> dict:
    """Check, load and compute one ``compute`` or ``bounds`` request."""
    if args.command == "compute":
        if (args.entropy is None) == (args.divergence is None):
            raise _CliError("error: pass exactly one of --entropy or --divergence (or --echo)")
        flag = "entropy" if args.entropy else "divergence"
        kind = getattr(args, flag)
        spec = (_ENTROPY_SPECS if args.entropy else _DIVERGENCE_SPECS)[kind]
        _check(args, spec, what=f"--{flag} {kind}", no_q=f"--q is not accepted for {kind}",
               needs={"q": kind, "psi": kind, "f": f"--{flag} {kind}"},
               owners={"psi": "quasilinear", "f": "--divergence f"})
        doc: dict = {"schema": SCHEMA, "command": "compute"}
        if spec.gen is not None:
            doc[spec.gen] = getattr(args, spec.gen)
        doc["functional"] = spec.name
    else:
        spec = _BOUND_SPECS[args.case]
        what = f"bounds --case {args.case}"
        _check(args, spec, what=what, no_q=f"{what} does not take --q",
               needs=dict.fromkeys(("q", "psi", "f"), what),
               owners={"psi": "thm3.1", "f": "thm3.2"})
        doc = {"schema": SCHEMA, "command": "bounds", "case": args.case}
    _check_q(args.q)
    q = args.q if spec.fixed_q is None else spec.fixed_q
    inputs = [read(path) for read, path in zip(spec.reads, args.inputs)]
    label = None if spec.gen is None else getattr(args, spec.gen)
    result = spec.run(q, label, *inputs)
    if q is not None:
        doc["q"] = float(q)
    doc["inputs"] = list(args.inputs)
    if args.command == "compute":
        doc["value"] = float(result)
    else:
        doc["report"] = result[0].as_dict()
        doc["constants"] = result[1]
    return doc


def _echo(args) -> None:
    if args.entropy or args.divergence or args.psi or args.f or args.q is not None:
        raise _CliError("error: --echo takes no functional flags")
    if len(args.inputs) != 1:
        raise _CliError("error: --echo reads exactly one file")
    weights = [float(w) for w in _load_dist(args.inputs[0]).weights]
    if args.output == "table":
        print("weight")
        for w in weights:
            print(format_float(w))
    else:
        print(dumps({"schema": SCHEMA, "weights": weights}))


def _env_tol() -> float | None:
    raw = os.environ.get("QENTROPY_CHECK_TOL")
    if raw is None:
        return None
    try:
        tol = float(raw)
    except ValueError:
        raise _CliError(f"error: QENTROPY_CHECK_TOL is not a number: {raw!r}") from None
    if not math.isfinite(tol) or tol < 0.0:
        raise _CliError(f"error: QENTROPY_CHECK_TOL must be finite and >= 0, got {raw!r}")
    return tol


def _verify(args) -> int:
    if args.list:
        for cid, case in REGISTRY.items():
            print(f"{cid}: {case.description}")
        return 0
    if args.run_all == (args.case is not None):
        raise _CliError("error: pass exactly one of --all or --case")
    _check_q(args.q)
    if args.trials < 1:
        raise _CliError(f"error: --trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise _CliError(f"error: --seed must be >= 0, got {args.seed}")
    tol = _env_tol()
    cases = list(REGISTRY.values()) if args.run_all else [get_case(args.case)]
    q_grid = DEFAULT_Q_GRID if args.q is None else (args.q,)
    reports = [
        run_case(c, args.trials, args.seed, q_grid=q_grid,
                 override_hypothesis=args.override_hypothesis, tol=tol)
        for c in cases
    ]
    for rep in reports:
        if args.output == "json":
            print(rep.to_json_line())
        else:
            flag = "" if rep.in_hypothesis else " (outside hypothesis)"
            print(
                f"{rep.case}: trials={rep.trials} violations={rep.violations} "
                f"worst={format_float(rep.worst_violation)}{flag}"
            )
    return 2 if has_failures(reports) else 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(f"{self.format_usage().rstrip()}\nerror: {message}")


_FILE_HELP = (
    "distribution files are JSON {\"weights\": [...]} or single-column CSV "
    "(optional 'weight' header); joint distributions are JSON "
    "{\"dims\": [...], \"cells\": [...]} with cells in row-major (C) order"
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qentropy", description="Generalized-entropy calculations and checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser(
        "compute",
        help="entropies and divergences from distribution files",
        epilog=_FILE_HELP,
    )
    pc.add_argument("--entropy", choices=_ENTROPY_SPECS)
    pc.add_argument("--divergence", choices=_DIVERGENCE_SPECS)
    pc.add_argument("--q", type=float, default=None, help="entropic index, q >= 0")
    pc.add_argument("--psi", default=None, help="mean generator label (identity, log, lnq, power)")
    pc.add_argument("--f", default=None, help="convex generator label (tsallis, xlogx, neglog)")
    pc.add_argument("--echo", action="store_true", help="re-emit the parsed distribution")
    pc.add_argument("--output", choices=("json", "table"), default="json")
    pc.add_argument("inputs", nargs="+", metavar="FILE")

    pb = sub.add_parser("bounds", help="two-sided bound chains with constants", epilog=_FILE_HELP)
    pb.add_argument("--case", required=True, choices=_BOUND_SPECS)
    pb.add_argument("--q", type=float, default=None)
    pb.add_argument("--psi", default=None)
    pb.add_argument("--f", default=None)
    pb.add_argument("--output", choices=("json", "table"), default="json")
    pb.add_argument("inputs", nargs="+", metavar="FILE")

    pv = sub.add_parser("verify", help="run the randomized verification harness")
    pv.add_argument("--all", action="store_true", dest="run_all", help="run every registered case")
    pv.add_argument("--case", default=None, help="one case id (see --list)")
    pv.add_argument("--list", action="store_true", help="list case ids and exit")
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--trials", type=int, default=1000)
    pv.add_argument("--q", type=float, default=None, help="restrict the q grid to one value")
    pv.add_argument(
        "--override-hypothesis",
        action="store_true",
        help="probe q outside a case's hypothesis; violations become informational",
    )
    pv.add_argument("--output", choices=("json", "table"), default="json")
    return parser


def _text(v) -> str:
    return v if isinstance(v, str) else dumps(v)


def _print_doc(doc: dict, output: str) -> None:
    if output == "json":
        print(dumps(doc))
        return
    for key, value in doc.items():
        if key in ("schema", "command"):
            continue
        if isinstance(value, dict):
            print(f"{key}:")
            for k2, v2 in value.items():
                print(f"  {k2}: {_text(v2)}")
        else:
            print(f"{key}: {_text(value)}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":
            return _verify(args)
        if args.command == "compute" and args.echo:
            _echo(args)
        else:
            _print_doc(_run_spec(args), args.output)
        return 0
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except QEntropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
