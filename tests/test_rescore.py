"""Draw and check: a report line's witness re-scores without the random stream.

Every registered case is a pair: ``draw(rng, n, q)`` makes a trial's
random draws and returns the inputs its witness prints, and
``check(inputs, q)`` builds the rest from them and returns the claims.  A
rendered witness parses back into the drawn inputs bit for bit, so
``verify.rescore`` runs a case's check on any report line and gives back
its ``worst_violation``.
"""

import inspect
import json
import math
import struct
import sys

import numpy as np
import pytest

from qentropy import (
    REGISTRY,
    DimensionError,
    DomainError,
    LengthMismatchError,
    NormalizationError,
    PositivityError,
    ProbDist,
    QEntropyError,
    UnknownCaseError,
    rescore,
    run_registry,
)
from qentropy.serialize import SCHEMA, dumps, loads, parse_witness, render
from qentropy.verify import _score


def _bits(x) -> bytes:
    return struct.pack("<d", x)


@pytest.fixture(scope="module")
def lines():
    """The 48 report lines of run_registry(200, 42), at the default n range and at n in [1, 3]."""
    return [
        r.to_json_line()
        for opts in ({}, {"n_range": (1, 3)})
        for r in run_registry(200, 42, **opts)
    ]


def test_rescore_gives_every_worst_violation_bit_for_bit(lines):
    assert len(lines) == 48
    for line in lines:
        want = float(loads(line)["worst_violation"])
        assert _bits(rescore(line)) == _bits(want), line[:80]


def test_rescore_keeps_the_sign_of_a_negative_zero(lines):
    # prop2.1 at n = 1 checks 0 <= H = 0 as Le(-0.0, 0.0), which scores -0.0
    # and prints as "-0"; json.loads would read that as the int 0
    (line,) = [x for x in lines[24:] if json.loads(x)["case"] == "prop2.1"]
    assert '"worst_violation": -0,' in line
    assert _bits(rescore(line)) == _bits(-0.0)


def test_every_check_takes_only_inputs_and_q():
    for case in REGISTRY.values():
        assert list(inspect.signature(case.check).parameters) == ["inputs", "q"], case.id


def _same(drawn, parsed):
    if isinstance(drawn, ProbDist):
        return isinstance(parsed, ProbDist) and drawn.weights.tobytes() == parsed.weights.tobytes()
    if isinstance(drawn, np.ndarray):
        return parsed.dtype == np.float64 and drawn.ravel().tobytes() == parsed.tobytes()
    if isinstance(drawn, tuple):
        return len(drawn) == len(parsed) and all(map(_same, drawn, parsed))
    return type(drawn) is type(parsed) and drawn == parsed


@pytest.mark.parametrize("cid", list(REGISTRY))
def test_a_rendered_witness_parses_back_into_the_drawn_inputs(cid):
    case = REGISTRY[cid]
    rng = np.random.default_rng(list(REGISTRY).index(cid))
    for n in (1, 2, 7, 16):
        for q in (0.0, 0.25, 1.0, 1.0 + 1e-9, 1.5, 3.0):
            if case.q_range is None:
                q = None
            elif not case.admits(q):
                continue
            inputs = case.draw(rng, n, q)
            head = {"trial": 5, "n": n, **({} if q is None else {"q": q})}
            line = dumps({**head, **{k: render(x) for k, x in inputs.items()}})
            parsed = parse_witness(loads(line))
            assert list(parsed) == [*head, *inputs]
            assert all(_same(x, parsed[k]) for k, x in inputs.items()), (n, q, line)
            if q is not None:
                assert _bits(parsed["q"]) == _bits(q)
            # the parsed inputs score as the drawn ones
            scores = [max(map(_score, case.check(x, q))) for x in (inputs, parsed)]
            assert _bits(scores[0]) == _bits(scores[1])


def _line(lines, cid):
    """The default-range report line of a case, as a JSON document to edit."""
    return json.loads(lines[list(REGISTRY).index(cid)])


def _with(doc, **witness):
    """doc with its witness's keys set (None deletes one), as a line."""
    w = doc["worst_witness"]
    for key, value in witness.items():
        if value is None:
            del w[key]
        else:
            w[key] = value
    return json.dumps(doc)


def _uniform(n):
    return [1.0 / n] * n


def _edit(cid, edit):
    return lambda lines: edit(_line(lines, cid))


MALFORMED = {
    "not-json": (lambda lines: "{", DomainError),
    "not-an-object": (lambda lines: "[1, 2]", DomainError),
    "unknown-case": (_edit("id14", lambda d: json.dumps({**d, "case": "prop9.9"})), UnknownCaseError),
    "another-schema": (_edit("id14", lambda d: json.dumps({**d, "schema": "qentropy/5"})), DomainError),
    "no-witness": (_edit("id14", lambda d: json.dumps({k: v for k, v in d.items() if k != "worst_witness"})), DomainError),
    "missing-key": (_edit("thm4.2", lambda d: _with(d, r=None)), DomainError),
    "missing-q": (_edit("thm4.2", lambda d: _with(d, q=None)), DomainError),
    "missing-trial": (_edit("thm4.2", lambda d: _with(d, trial=None)), DomainError),
    "unknown-key": (_edit("id14", lambda d: _with(d, weights=[1.0])), DomainError),
    "unread-key": (_edit("id14", lambda d: _with(d, r=d["worst_witness"]["p"])), DomainError),
    "q-in-a-q-free-case": (_edit("lem4.1", lambda d: _with(d, q=1.5)), DomainError),
    "unknown-label": (_edit("prop2.1", lambda d: _with(d, psi="sqrt")), DomainError),
    "label-of-another-family": (_edit("thm3.2", lambda d: _with(d, f="square")), DomainError),
    "label-not-text": (_edit("prop2.1", lambda d: _with(d, psi=3)), DomainError),
    "nan-mass": (_edit("id14", lambda d: _with(d, p=[math.nan, 1.0])), DomainError),
    "infinite-point": (_edit("cf", lambda d: _with(d, xs=[math.inf] * len(d["worst_witness"]["xs"]))), DomainError),
    "text-mass": (_edit("id14", lambda d: _with(d, p=["0.5", "0.5"])), DomainError),
    "bool-mass": (_edit("id14", lambda d: _with(d, p=[True])), DomainError),
    "empty-mass": (_edit("id14", lambda d: _with(d, p=[])), DomainError),
    "zero-mass": (_edit("id14", lambda d: _with(d, p=[0.0, 1.0])), PositivityError),
    "mass-not-summing-to-one": (_edit("id14", lambda d: _with(d, p=[0.5, 0.6])), NormalizationError),
    "lengths-differ": (_edit("thm4.2", lambda d: _with(d, r=_uniform(len(d["worst_witness"]["p"]) + 1))), LengthMismatchError),
    "points-and-masses-differ": (_edit("cor4.1", lambda d: _with(d, xs=[1.0])), LengthMismatchError),
    "cells-do-not-fit-dims": (_edit("prop5.1", lambda d: _with(d, dims=[2, 3], cells=[0.25] * 4)), DimensionError),
    "cells-not-summing-to-one": (_edit("prop5.1", lambda d: _with(d, dims=[2, 2], cells=[0.5] * 4)), NormalizationError),
    "float-dim": (_edit("prop5.1", lambda d: _with(d, dims=[2.0, 2])), DomainError),
    "negative-block-index": (_edit("prop2.2", lambda d: _with(d, blocks=[[-1]])), DomainError),
    "rows-not-summing-to-one": (_edit("qadd", lambda d: _with(d, rows=[[0.5], [0.6]])), NormalizationError),
    "int-past-a-double": (_edit("thm4.2", lambda d: _with(d, q=10**400)), DomainError),
    "int-just-past-a-double": (_edit("thm4.2", lambda d: _with(d, q=2**1024)), DomainError),
    "curvature-overflows": (_edit("thm4.1", lambda d: _with(d, f="exp", xs=[800.0] * len(d["worst_witness"]["xs"]))), DomainError),
    "generator-overflows": (_edit("thm4.1", lambda d: _with(d, f="square", xs=[1e200] * len(d["worst_witness"]["xs"]))), DomainError),
    "q-overflows-a-check": (_edit("prop2.4", lambda d: _with(d, q=1e308)), DomainError),
}


def test_an_int_is_a_number_when_its_float_is_finite():
    # the MALFORMED rows int-past-a-double and int-just-past-a-double reject the rest
    big = int(sys.float_info.max)  # 309 digits
    assert _bits(parse_witness({"q": big})["q"]) == _bits(sys.float_info.max)
    assert _bits(parse_witness({"q": 10**17})["q"]) == _bits(1e17)


@pytest.mark.parametrize("make, error", MALFORMED.values(), ids=list(MALFORMED))
def test_a_malformed_line_raises_a_typed_error(lines, make, error):
    with pytest.raises(error) as info:
        rescore(make(lines))
    assert isinstance(info.value, QEntropyError)


def test_a_label_takes_q_from_the_witness_not_from_its_text():
    # only the base of a label names the generator: a thm3.1 witness drawn
    # with lnq[q=0.25] scores the same bits when its label's text says q=9
    case, rng, n, q = REGISTRY["thm3.1"], np.random.default_rng(31), 5, 0.25
    inputs = case.draw(rng, n, q)
    while not inputs["psi"].startswith("lnq"):
        inputs = case.draw(rng, n, q)
    assert inputs["psi"] == "lnq[q=0.25]"

    def line(psi):
        witness = {"trial": 0, "n": n, "q": q, **{k: render(x) for k, x in inputs.items()}}
        return dumps({"schema": SCHEMA, "case": case.id, "worst_witness": {**witness, "psi": psi}})

    want = _bits(max(map(_score, case.check(inputs, q))))
    assert _bits(rescore(line(inputs["psi"]))) == want
    assert _bits(rescore(line("lnq[q=9]"))) == want
