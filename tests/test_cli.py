import dataclasses
import json
import math

import numpy as np
import pytest

import qentropy as qe
from qentropy.cli import _BOUND_SPECS, main
from qentropy.dist import ProbDist
from qentropy.serialize import SCHEMA, dumps, format_float, loads
from qentropy.verify import REGISTRY


@pytest.fixture
def dist_json(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"weights": [0.25, 0.75]}')
    return str(path)


@pytest.fixture
def dist_csv(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("weight\n0.5\n0.5\n")
    return str(path)


@pytest.fixture
def r_csv(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("0.25\n0.75\n")
    return str(path)


def _run(capsys, argv):
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def test_compute_tsallis_gold(capsys, dist_json):
    status, out, err = _run(capsys, ["compute", "--entropy", "tsallis", "--q", "2", dist_json])
    assert status == 0 and not err
    doc = json.loads(out)
    assert doc["schema"] == "qentropy/7"
    assert doc["functional"] == "tsallis_entropy"
    assert doc["value"] == pytest.approx(0.375, abs=1e-12)


def test_compute_renyi_q1_is_shannon(capsys, dist_json):
    status, out, _ = _run(capsys, ["compute", "--entropy", "renyi", "--q", "1", dist_json])
    assert status == 0
    assert json.loads(out)["value"] == pytest.approx(0.5623351446188083, abs=1e-12)


def test_compute_kl_identical_inputs_is_zero(capsys, dist_csv):
    status, out, _ = _run(capsys, ["compute", "--divergence", "kl", dist_csv, dist_csv])
    assert status == 0
    assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-15)


def test_compute_kl_gold(capsys, dist_csv, r_csv):
    status, out, _ = _run(capsys, ["compute", "--divergence", "kl", dist_csv, r_csv])
    assert status == 0
    assert json.loads(out)["value"] == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-12)


def test_compute_quasilinear_needs_psi(capsys, dist_json):
    status, _, err = _run(capsys, ["compute", "--entropy", "quasilinear", "--q", "2", dist_json])
    assert status == 1
    assert "--psi" in err


def test_compute_quasilinear(capsys, dist_json):
    status, out, _ = _run(
        capsys,
        ["compute", "--entropy", "quasilinear", "--q", "2", "--psi", "lnq", dist_json],
    )
    assert status == 0
    assert json.loads(out)["value"] == pytest.approx(0.375, abs=1e-12)


def test_compute_f_divergence(capsys, dist_csv, r_csv):
    status, out, _ = _run(
        capsys,
        ["compute", "--divergence", "f", "--f", "tsallis", "--q", "2", dist_csv, r_csv],
    )
    assert status == 0
    assert json.loads(out)["value"] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_q_rejected_for_shannon(capsys, dist_json):
    status, _, err = _run(capsys, ["compute", "--entropy", "shannon", "--q", "2", dist_json])
    assert status == 1 and "--q" in err


def test_q_required_for_tsallis(capsys, dist_json):
    status, _, err = _run(capsys, ["compute", "--entropy", "tsallis", dist_json])
    assert status == 1 and "--q" in err


def test_negative_q_rejected(capsys, dist_json):
    status, _, err = _run(capsys, ["compute", "--entropy", "tsallis", "--q", "-1", dist_json])
    assert status == 1


def test_wrong_file_count(capsys, dist_json):
    status, _, err = _run(capsys, ["compute", "--divergence", "kl", dist_json])
    assert status == 1 and "exactly 2" in err


def test_echo_roundtrip_json(capsys, dist_json):
    status, out, _ = _run(capsys, ["compute", "--echo", dist_json])
    assert status == 0
    doc = json.loads(out)
    assert ProbDist(np.asarray(doc["weights"])) == ProbDist(np.asarray([0.25, 0.75]))


def test_echo_roundtrip_table(capsys, tmp_path, dist_csv):
    status, out, _ = _run(capsys, ["compute", "--echo", "--output", "table", dist_csv])
    assert status == 0
    echoed = tmp_path / "echoed.csv"
    echoed.write_text(out)
    status2, out2, _ = _run(capsys, ["compute", "--echo", str(echoed)])
    assert status2 == 0
    assert json.loads(out2)["weights"] == [0.5, 0.5]


def test_echo_exact_roundtrip_of_awkward_floats(capsys, tmp_path):
    w = [1.0 / 3.0, 1.0 / 7.0, 1.0 - 1.0 / 3.0 - 1.0 / 7.0]
    src = tmp_path / "w.json"
    src.write_text(json.dumps({"weights": w}))
    status, out, _ = _run(capsys, ["compute", "--echo", str(src)])
    assert status == 0
    doc = json.loads(out)
    assert doc["weights"] == w  # 17 significant digits round-trip binary64


def test_parse_error_carries_file_and_line(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5\nnot-a-number\n")
    status, _, err = _run(capsys, ["compute", "--entropy", "shannon", str(bad)])
    assert status == 1
    assert "bad.csv:2" in err


def test_unnormalized_input_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"weights": [0.3, 0.3]}')
    status, _, err = _run(capsys, ["compute", "--entropy", "shannon", str(bad)])
    assert status == 1
    assert "bad.json" in err


def test_missing_file(capsys):
    status, _, err = _run(capsys, ["compute", "--entropy", "shannon", "/nonexistent/x.json"])
    assert status == 1 and "cannot read" in err


def test_joint_file_as_flat_distribution(capsys, tmp_path):
    src = tmp_path / "j.json"
    src.write_text('{"dims": [2, 2], "cells": [0.25, 0.25, 0.25, 0.25]}')
    status, out, _ = _run(capsys, ["compute", "--entropy", "tsallis", "--q", "2", str(src)])
    assert status == 0
    assert json.loads(out)["value"] == pytest.approx(0.75, abs=1e-12)


def test_joint_file_dims_mismatch(capsys, tmp_path):
    src = tmp_path / "j.json"
    src.write_text('{"dims": [2, 3], "cells": [0.25, 0.25, 0.25, 0.25]}')
    status, _, err = _run(capsys, ["compute", "--entropy", "shannon", str(src)])
    assert status == 1 and "cells" in err


# dims whose product wraps in int64: to 4, the number of cells, and to 0; the
# exact product needs more cells than the file has, so the file is rejected
@pytest.mark.parametrize("dims, need", [
    ([4611686018427387905, 4], 18446744073709551620),
    ([4294967296, 4294967296], 18446744073709551616),
], ids=["wraps-to-cell-count", "wraps-to-zero"])
def test_joint_file_dims_product_is_exact(capsys, tmp_path, dims, need):
    src = tmp_path / "j.json"
    cells = [0.25] * 4 if dims[1] == 4 else [1.0]
    assert math.prod(dims) == need and need % 2**64 in (len(cells), 0)
    src.write_text(json.dumps({"dims": dims, "cells": cells}))
    status, out, err = _run(capsys, ["compute", "--entropy", "tsallis", "--q", "2", str(src)])
    assert (status, out) == (1, "")
    assert err == f"{src}:1: {len(cells)} cells do not fit dims {dims}\n"


_BIG_INT = "1" + "0" * 399

# serialize reads every number in a file: finite doubles only, and an int
# whose float is finite.  (file, its text, the whole of stderr without its
# final newline): the path and, where known, the line, then serialize's
# message.  Outside a syntax error a JSON error knows no line, so a document
# on several lines prints its path alone.
_PRETTY = '{\n  "weights": [\n    0.5,\n    %s\n  ]\n}\n'
NUMBER_ROWS = [
    ("nan.json", '{"weights": [NaN, 1.0]}', "nan.json:1: non-finite number NaN"),
    ("inf.json", '{"weights": [Infinity, 1.0]}', "inf.json:1: non-finite number Infinity"),
    ("past-max.json", '{"weights": [1e400, 1.0]}', "past-max.json:1: non-finite number 1e400"),
    ("int400.json", f'{{"weights": [{_BIG_INT}, 1.0]}}',
     f"int400.json:1: 'weights' must be a number, got {_BIG_INT}"),
    ("bool.json", '{"weights": [true]}', "bool.json:1: 'weights' must be a number, got True"),
    ("empty.json", '{"weights": []}', "empty.json:1: 'weights' must be a non-empty list in JSON"),
    ("nan.csv", "weight\n0.5\nnan\n", "nan.csv:3: non-finite number nan"),
    ("inf.csv", "0.5\ninf\n", "inf.csv:2: non-finite number inf"),
    ("dims.json", '{"dims": [2, 0], "cells": [0.5, 0.5]}', "dims.json:1: 2 cells do not fit dims [2, 0]"),
    ("pretty-nan.json", _PRETTY % "NaN", "pretty-nan.json: non-finite number NaN"),
    ("pretty-bool.json", _PRETTY % "true", "pretty-bool.json: 'weights' must be a number, got True"),
    ("pretty-joint.json", '{\n  "dims": [2]\n}\n',
     "pretty-joint.json: joint document needs both 'dims' and 'cells'"),
    ("pretty-syntax.json", _PRETTY % "0.5,", "pretty-syntax.json:5: invalid JSON: Expecting value"),
]


@pytest.mark.parametrize("name, text, stderr", NUMBER_ROWS, ids=[r[0] for r in NUMBER_ROWS])
def test_a_file_number_follows_the_report_formats_rules(capsys, tmp_path, monkeypatch, name, text, stderr):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert _run(capsys, ["compute", "--entropy", "shannon", name]) == (1, "", stderr + "\n")


def test_an_int_point_past_17_digits_is_its_float(capsys, tmp_path, monkeypatch):
    # 10**17 prints as 18 digits; its float is finite, so it is a number
    monkeypatch.chdir(tmp_path)
    (tmp_path / "xs.json").write_text('{"values": [100000000000000000, 1.0]}')
    (tmp_path / "p.json").write_text('{"weights": [0.5, 0.5]}')
    xs, p = np.array([1e17, 1.0]), ProbDist([0.5, 0.5])
    doc = {"schema": SCHEMA, "command": "bounds", "case": "cf", "inputs": ["xs.json", "p.json"],
           "report": qe.cartwright_field(xs, p).as_dict(),
           "constants": {"min_x": 1.0, "max_x": 1e17, "spread": qe.pairwise_spread(xs, p)}}
    assert _run(capsys, ["bounds", "--case", "cf", "xs.json", "p.json"]) == (0, dumps(doc) + "\n", "")


def test_bounds_cor31_gold(capsys, dist_json):
    status, out, _ = _run(capsys, ["bounds", "--case", "cor3.1", "--q", "2", dist_json])
    assert status == 0
    doc = json.loads(out)
    rep = doc["report"]
    assert rep["lower"] == pytest.approx(0.0625, abs=1e-12)
    assert rep["value"] == pytest.approx(0.125, abs=1e-12)
    assert rep["upper"] == pytest.approx(0.1875, abs=1e-12)
    assert doc["constants"]["n_min_r"] == pytest.approx(0.5)
    assert doc["constants"]["n_max_r"] == pytest.approx(1.5)
    assert set(rep) == {"lower", "value", "upper", "lower_slack", "upper_slack"}


def test_bounds_thm42_equal_dists_straddles_zero(capsys, dist_csv):
    status, out, _ = _run(capsys, ["bounds", "--case", "thm4.2", "--q", "2", dist_csv, dist_csv])
    assert status == 0
    rep = json.loads(out)["report"]
    assert rep["value"] == pytest.approx(0.0, abs=1e-12)
    assert rep["lower"] <= 0.0 <= rep["upper"]


def test_bounds_cf_gold(capsys, tmp_path, dist_csv):
    xs = tmp_path / "xs.json"
    xs.write_text('{"values": [1.0, 4.0]}')
    status, out, _ = _run(capsys, ["bounds", "--case", "cf", str(xs), dist_csv])
    assert status == 0
    rep = json.loads(out)["report"]
    assert rep["lower"] == pytest.approx(0.28125, abs=1e-12)
    assert rep["value"] == pytest.approx(0.5, abs=1e-12)
    assert rep["upper"] == pytest.approx(1.125, abs=1e-12)


def test_bounds_thm31_needs_psi(capsys, dist_json):
    status, _, err = _run(capsys, ["bounds", "--case", "thm3.1", "--q", "2", dist_json])
    assert status == 1 and "--psi" in err


def test_bounds_cor4_rejects_q(capsys, dist_csv, r_csv):
    status, _, err = _run(capsys, ["bounds", "--case", "cor4", "--q", "2", dist_csv, r_csv])
    assert status == 1 and "--q" in err


def test_bounds_thm32(capsys, dist_csv, r_csv):
    status, out, _ = _run(
        capsys,
        ["bounds", "--case", "thm3.2", "--f", "tsallis", "--q", "2", dist_csv, r_csv],
    )
    assert status == 0
    rep = json.loads(out)["report"]
    assert rep["lower"] == pytest.approx(2.0 / 9.0, rel=1e-10)
    assert rep["value"] == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert rep["upper"] == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_verify_single_case_clean(capsys):
    status, out, _ = _run(capsys, ["verify", "--case", "id16", "--trials", "100"])
    assert status == 0
    doc = json.loads(out)
    assert doc["violations"] == 0
    assert doc["in_hypothesis"] is True


def test_verify_hypothesis_guard(capsys):
    status, _, err = _run(capsys, ["verify", "--case", "thm5.1", "--q", "0.5", "--trials", "5"])
    assert status == 1
    assert "hypothesis" in err


def test_verify_override_hypothesis_is_informational(capsys):
    status, out, _ = _run(
        capsys,
        ["verify", "--case", "thm5.1", "--q", "0.5", "--trials", "5", "--override-hypothesis"],
    )
    assert status == 0  # out-of-hypothesis violations do not fail the run
    doc = json.loads(out)
    assert doc["in_hypothesis"] is False
    assert doc["violations"] > 0


def test_verify_strict_case_tol_exits_two(capsys, monkeypatch):
    # a case's own tol is the one threshold: at 0 float noise is a violation
    monkeypatch.setitem(qe.REGISTRY, "id14", dataclasses.replace(qe.REGISTRY["id14"], tol=0.0))
    status, out, _ = _run(capsys, ["verify", "--case", "id14", "--trials", "20"])
    assert status == 2
    assert json.loads(out)["violations"] > 0


def test_verify_ignores_the_removed_tolerance_variable(capsys, monkeypatch):
    argv = ["verify", "--case", "id14", "--trials", "20", "--seed", "3"]
    monkeypatch.delenv("QENTROPY_CHECK_TOL", raising=False)
    plain = _run(capsys, argv)
    monkeypatch.setenv("QENTROPY_CHECK_TOL", "1e-30")
    assert _run(capsys, argv) == plain
    assert plain[0] == 0


def test_verify_unknown_case(capsys):
    status, _, err = _run(capsys, ["verify", "--case", "nosuch", "--trials", "5"])
    assert status == 1 and "unknown case" in err


def test_verify_needs_all_or_case(capsys):
    status, _, err = _run(capsys, ["verify", "--trials", "5"])
    assert status == 1 and "--all" in err
    status, _, err = _run(capsys, ["verify", "--all", "--case", "id14", "--trials", "5"])
    assert status == 1


def test_verify_runs_are_byte_identical(capsys):
    args = ["verify", "--case", "prop2.2", "--trials", "40", "--seed", "9"]
    status1, out1, _ = _run(capsys, args)
    status2, out2, _ = _run(capsys, args)
    assert status1 == status2 == 0
    assert out1 == out2


def test_verify_table_output(capsys):
    status, out, _ = _run(
        capsys, ["verify", "--case", "lem4.2", "--trials", "20", "--output", "table"]
    )
    assert status == 0
    assert out.startswith("lem4.2:")
    assert "violations=0" in out


def test_verify_list(capsys):
    status, out, _ = _run(capsys, ["verify", "--list"])
    assert status == 0
    assert "prop2.1" in out and "qadd" in out


def test_compute_table_output(capsys, dist_json):
    status, out, _ = _run(
        capsys, ["compute", "--entropy", "tsallis", "--q", "2", "--output", "table", dist_json]
    )
    assert status == 0
    value_line = next(line for line in out.splitlines() if line.startswith("value:"))
    assert float(value_line.split(":")[1]) == pytest.approx(0.375, abs=1e-12)


def test_unknown_subcommand(capsys):
    status, _, err = _run(capsys, ["frobnicate"])
    assert status == 1


def test_trials_must_be_positive(capsys):
    status, _, err = _run(capsys, ["verify", "--case", "id14", "--trials", "0"])
    assert status == 1


# ---------------------------------------------------------------------------
# every functional, case and error, byte for byte
# ---------------------------------------------------------------------------
#
# Success rows compare stdout with serialize.dumps of the direct library call
# (or the table rendering of the same document), so no float is recorded
# here.  Error rows pin the exit status and the whole of stderr; their order
# matters, because a command with two faults reports the first check it
# fails, and every cross-flag check runs before the --q, --trials and --seed
# value checks.

P_W = [0.1, 0.2, 0.3, 0.4]
R_W = [0.4, 0.3, 0.2, 0.1]
XS = [1.0, 4.0, 2.0, 0.5]
Q_VALUES = ("0.7", "1", "2")
PSI_LABELS = ("identity", "log", "lnq")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    files = {
        "p.json": {"weights": P_W},
        "r.json": {"weights": R_W},
        "three.json": {"weights": [0.2, 0.3, 0.5]},
        "xs.json": {"values": XS},
        "bad.json": {"weights": [0.3, 0.3]},
        "tiny.json": {"weights": [1e-160, 1.0]},
        "half.json": {"weights": [0.5, 0.5]},
        "underflow.json": {"weights": [1e-170, 1.0]},
    }
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _p():
    return qe.make_dist(P_W)


def _r():
    return qe.make_dist(R_W)


def _table(doc):
    """The --output table rendering of a document."""

    def text(v):
        return v if isinstance(v, str) else dumps(v)

    lines = []
    for key, value in doc.items():
        if key in ("schema", "command"):
            continue
        if isinstance(value, dict):
            lines.append(f"{key}:")
            lines.extend(f"  {k}: {text(v)}" for k, v in value.items())
        elif isinstance(value, list):
            lines.append(f"{key}: {dumps(value)}")
        else:
            lines.append(f"{key}: {text(value)}")
    return "".join(line + "\n" for line in lines)


def _compute_rows():
    """(argv, expected document builder) for every compute functional."""
    rows = []

    def add(flags, files, name, value, q=None, label=None):
        def build():
            doc = {"schema": SCHEMA, "command": "compute"}
            if label is not None:
                doc[label[0]] = label[1]
            doc["functional"] = name
            if q is not None:
                doc["q"] = float(q)
            doc["inputs"] = list(files)
            doc["value"] = float(value(None if q is None else float(q)))
            return doc

        q_flags = [] if q is None else ["--q", q]
        rows.append((["compute", *flags, *q_flags, *files], build))

    one, two = ["p.json"], ["p.json", "r.json"]
    add(["--entropy", "shannon"], one, "shannon_entropy", lambda q: qe.shannon_entropy(_p()))
    add(["--divergence", "kl"], two, "kl_divergence", lambda q: qe.kl_divergence(_p(), _r()))
    add(["--divergence", "f", "--f", "xlogx"], two, "f_divergence",
        lambda q: qe.f_divergence(qe.f_by_label("xlogx"), _p(), _r()), label=("f", "xlogx"))
    for q in Q_VALUES:
        add(["--entropy", "tsallis"], one, "tsallis_entropy",
            lambda q: qe.tsallis_entropy(_p(), q), q)
        add(["--entropy", "renyi"], one, "renyi_entropy", lambda q: qe.renyi_entropy(_p(), q), q)
        add(["--divergence", "tsallis"], two, "tsallis_divergence",
            lambda q: qe.tsallis_relative(_p(), _r(), q), q)
        add(["--divergence", "renyi"], two, "renyi_divergence",
            lambda q: qe.renyi_relative(_p(), _r(), q), q)
        for f in ("tsallis", "xlogx", "neglog"):
            add(["--divergence", "f", "--f", f], two, "f_divergence",
                lambda q, f=f: qe.f_divergence(qe.f_by_label(f, q), _p(), _r()), q, ("f", f))
        for psi in PSI_LABELS:
            add(["--entropy", "quasilinear", "--psi", psi], one, "quasilinear_entropy",
                lambda q, psi=psi: qe.tsallis_quasilinear_entropy(qe.psi_by_label(psi, q), _p(), q),
                q, ("psi", psi))
            add(["--divergence", "quasilinear", "--psi", psi], two, "quasilinear_divergence",
                lambda q, psi=psi: qe.tsallis_quasilinear_relative(
                    qe.psi_by_label(psi, q), _p(), _r(), q),
                q, ("psi", psi))
    return rows


def _r_spread(r):
    return {"n_min_r": r.n * float(r.weights.min()), "n_max_r": r.n * float(r.weights.max())}


def _sandwich(p, r):
    ratios = r.weights / p.weights
    return {
        "min_ratio": float(ratios.min()),
        "max_ratio": float(ratios.max()),
        "sum_t": float((p.weights**2 / r.weights).sum()),
    }


def _cross_constants(q, p, r):
    # -ln_q'' = q x^(-q-1) is monotone over the hull [1/cmax, 1/cmin] of 1/p and 1/r
    cmin = min(float(p.weights.min()), float(r.weights.min()))
    cmax = max(float(p.weights.max()), float(r.weights.max()))
    return {
        "m_q": q * cmin ** (q + 1.0), "M_q": q * cmax ** (q + 1.0),
        "interval_lo": 1.0 / cmax, "interval_hi": 1.0 / cmin,
    }


def _cross(q):
    p, r = _p(), _r()
    dr = qe.tightest_constants(p, r, q)
    return qe.tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M), _cross_constants(q, p, r)


def _cf_constants(xs, p):
    return {"min_x": float(xs.min()), "max_x": float(xs.max()), "spread": qe.pairwise_spread(xs, p)}


def _cf():
    xs = np.asarray(XS)
    return qe.cartwright_field(xs, _p()), _cf_constants(xs, _p())


def _bounds_rows():
    """(argv, expected document builder) for every bounds case."""
    rows = []

    def add(case, flags, files, chain, q=None, doc_q=None):
        # chain(q) -> (report, constants); doc_q is the q the document reports
        def build():
            qf = None if q is None else float(q)
            report, constants = chain(qf)
            doc = {"schema": SCHEMA, "command": "bounds", "case": case}
            if (doc_q or qf) is not None:
                doc["q"] = doc_q or qf
            doc["inputs"] = list(files)
            doc["report"] = report.as_dict()
            doc["constants"] = constants
            return doc

        q_flags = [] if q is None else ["--q", q]
        rows.append((["bounds", "--case", case, *flags, *q_flags, *files], build))

    pr = ["p.json", "r.json"]
    for q in Q_VALUES:
        for psi in PSI_LABELS:
            add("thm3.1", ["--psi", psi], ["r.json"], lambda q, psi=psi: (
                qe.quasilinear_vs_tsallis_bounds(qe.psi_by_label(psi, q), _r(), q), _r_spread(_r())
            ), q)
        add("cor3.1", [], ["r.json"],
            lambda q: (qe.refined_maxent_bounds(_r(), q), _r_spread(_r())), q)
        for f in ("tsallis", "xlogx", "neglog"):
            add("thm3.2", ["--f", f], pr, lambda q, f=f: (
                qe.f_divergence_sandwich(qe.f_by_label(f, q), _p(), _r()),
                {**_sandwich(_p(), _r()), "f": f},
            ), q)
        add("thm4.2", [], pr, _cross, q)
    add("thm3.2", ["--f", "xlogx"], pr, lambda q: (
        qe.f_divergence_sandwich(qe.f_by_label("xlogx"), _p(), _r()),
        {**_sandwich(_p(), _r()), "f": "xlogx"},
    ))
    add("cor_dra", [], pr, lambda q: (
        qe.f_divergence_sandwich(qe.neglog_generator(), _p(), _r()), _sandwich(_p(), _r())
    ))
    add("cor4", [], pr, lambda q: _cross(1.0), doc_q=1.0)  # reported at its fixed q = 1
    add("cf", [], ["xs.json", "p.json"], lambda q: _cf())
    return rows


DOC_ROWS = _compute_rows() + _bounds_rows()


@pytest.mark.parametrize("output", ["json", "table"])
@pytest.mark.parametrize("argv, build", DOC_ROWS, ids=[" ".join(a) for a, _ in DOC_ROWS])
def test_every_functional_and_case_matches_the_library(capsys, workdir, argv, build, output):
    doc = build()
    status, out, err = _run(capsys, [*argv, "--output", output])
    assert (status, err) == (0, "")
    assert out == (dumps(doc) + "\n" if output == "json" else _table(doc))


@pytest.mark.parametrize("output", ["json", "table"])
def test_echo_matches_the_parsed_weights(capsys, workdir, output):
    status, out, err = _run(capsys, ["compute", "--echo", "--output", output, "p.json"])
    assert (status, err) == (0, "")
    weights = [float(w) for w in _p().weights]
    if output == "json":
        assert out == dumps({"schema": SCHEMA, "weights": weights}) + "\n"
    else:
        assert out == "weight\n" + "".join(format_float(w) + "\n" for w in weights)


def _verify_line(rep, output):
    if output == "json":
        return rep.to_json_line() + "\n"
    flag = "" if rep.in_hypothesis else " (outside hypothesis)"
    return (f"{rep.case}: trials={rep.trials} violations={rep.violations} "
            f"worst={format_float(rep.worst_violation)}{flag}\n")


VERIFY_ROWS = [
    # (argv, run_case arguments per case, tol set on those cases or None, exit status)
    (["--case", "id14", "--trials", "20", "--seed", "3"], [("id14", 20, 3, None, False)], None, 0),
    (["--case", "id14", "--trials", "10", "--q", "0.5"], [("id14", 10, 42, 0.5, False)], None, 0),
    (["--case", "thm5.1", "--q", "0.5", "--trials", "5", "--override-hypothesis"],
     [("thm5.1", 5, 42, 0.5, True)], None, 0),
    (["--all", "--trials", "2", "--seed", "5"],
     [(cid, 2, 5, None, False) for cid in qe.REGISTRY], None, 0),
    (["--case", "id14", "--trials", "20"], [("id14", 20, 42, None, False)], 1e-30, 2),
]


@pytest.mark.parametrize("output", ["json", "table"])
@pytest.mark.parametrize("argv, runs, tol, code", VERIFY_ROWS,
                         ids=[" ".join(r[0]) + (f" tol={r[2]}" if r[2] else "") for r in VERIFY_ROWS])
def test_verify_matches_run_case(capsys, workdir, monkeypatch, argv, runs, tol, code, output):
    expected = ""
    for cid, trials, seed, q, override in runs:
        if tol is not None:
            monkeypatch.setitem(qe.REGISTRY, cid, dataclasses.replace(qe.REGISTRY[cid], tol=tol))
        rep = qe.run_case(
            cid, trials=trials, seed=seed, q_grid=qe.DEFAULT_Q_GRID if q is None else (q,),
            override_hypothesis=override,
        )
        expected += _verify_line(rep, output)
    status, out, err = _run(capsys, ["verify", *argv, "--output", output])
    assert (status, out, err) == (code, expected, "")


LISTING_ARGV = [
    ["verify", "--list"],
    ["verify", "--list", "--output", "table"],
    # --list validates nothing else
    ["verify", "--list", "--q", "-1"],
    ["verify", "--list", "--all", "--case", "id14", "--trials", "0", "--seed", "-1"],
]


@pytest.mark.parametrize("argv", LISTING_ARGV, ids=" ".join)
def test_verify_list_lists_the_registry(capsys, workdir, argv):
    listing = "".join(f"{cid}: {case.description}\n" for cid, case in qe.REGISTRY.items())
    assert _run(capsys, argv) == (0, listing, "")


_NO_FILE = "missing.json: cannot read: [Errno 2] No such file or directory: 'missing.json'"
_BAD_SUM = "bad.json: weights sum to 0.6; |sum - 1| must be <= 1e-09"
_NO_CASE = "error: unknown case 'nosuch'; known cases: " + ", ".join(qe.REGISTRY)
_SANDWICH_WEIGHTS = "error: the f-divergence sandwich's weights p^2/r underflow to 0 or overflow a double"

# (command line, the whole of stderr without its final newline); every row
# exits with status 1 and prints nothing to stdout
ERROR_ROWS = [
    # compute: --echo, then the functional flag, file count, --q, --psi, --f
    ("compute --echo --q 2 p.json", "error: --echo takes no functional flags"),
    ("compute --echo --psi lnq p.json r.json", "error: --echo takes no functional flags"),
    ("compute --echo p.json r.json", "error: --echo reads exactly one file"),
    ("compute p.json", "error: pass exactly one of --entropy or --divergence (or --echo)"),
    ("compute --entropy shannon --divergence kl p.json",
     "error: pass exactly one of --entropy or --divergence (or --echo)"),
    ("compute --entropy tsallis --q 2 p.json r.json",
     "error: --entropy tsallis reads exactly 1 file, got 2"),
    ("compute --divergence kl --q 2 p.json", "error: --divergence kl reads exactly 2 files, got 1"),
    ("compute --entropy shannon --q -1 p.json", "error: --q is not accepted for shannon"),
    ("compute --entropy shannon --psi lnq --q 2 p.json", "error: --q is not accepted for shannon"),
    ("compute --divergence kl --q 2 p.json r.json", "error: --q is not accepted for kl"),
    ("compute --entropy tsallis p.json", "error: tsallis needs --q"),
    ("compute --divergence renyi p.json r.json", "error: renyi needs --q"),
    ("compute --entropy quasilinear --psi lnq p.json", "error: quasilinear needs --q"),
    ("compute --divergence quasilinear --q 2 p.json r.json", "error: quasilinear needs --psi"),
    ("compute --entropy tsallis --q 2 --psi lnq p.json", "error: --psi only applies to quasilinear"),
    ("compute --divergence f --psi lnq p.json r.json", "error: --psi only applies to quasilinear"),
    ("compute --divergence f p.json r.json", "error: --divergence f needs --f"),
    ("compute --divergence kl --f xlogx p.json r.json", "error: --f only applies to --divergence f"),
    ("compute --entropy renyi --f tsallis --q 2 p.json", "error: --f only applies to --divergence f"),
    ("compute --entropy tsallis --q -1 p.json", "error: --q must be a finite number >= 0, got -1.0"),
    ("compute --entropy tsallis --q nan p.json", "error: --q must be a finite number >= 0, got nan"),
    ("compute --entropy tsallis --q inf p.json", "error: --q must be a finite number >= 0, got inf"),
    # compute: files load before generators are resolved
    ("compute --divergence f --f tsallis p.json r.json",
     "error: generator 'tsallis' needs an entropic index q"),
    ("compute --divergence f --f bogus --q 2 p.json r.json",
     "error: unknown generator label 'bogus' (use tsallis, xlogx, neglog)"),
    ("compute --entropy quasilinear --psi bogus --q 2 p.json",
     "error: unknown generator label 'bogus' (use identity, log, lnq)"),
    # x^(1-q) is the ln_q family under the label lnq, in every --psi command
    ("compute --entropy quasilinear --psi power --q 2 p.json",
     "error: unknown generator label 'power' (use identity, log, lnq)"),
    ("compute --divergence quasilinear --psi power --q 2 p.json r.json",
     "error: unknown generator label 'power' (use identity, log, lnq)"),
    ("bounds --case thm3.1 --psi power --q 2 p.json",
     "error: unknown generator label 'power' (use identity, log, lnq)"),
    # a label names no q: --q alone sets it, as a witness's "q" does
    ("bounds --case thm3.1 --psi lnq[q=3] --q 3 r.json",
     "error: unknown generator label 'lnq[q=3]' (use identity, log, lnq)"),
    ("bounds --case thm3.2 --f tsallis[q=9] --q 2 p.json r.json",
     "error: unknown generator label 'tsallis[q=9]' (use tsallis, xlogx, neglog)"),
    ("compute --entropy quasilinear --psi bogus --q 2 missing.json", _NO_FILE),
    ("compute --divergence f --f bogus --q 2 p.json bad.json", _BAD_SUM),
    ("compute --divergence quasilinear --psi lnq --q 2 p.json three.json",
     "error: length mismatch: 4 vs 3"),
    ("compute --entropy shannon missing.json", _NO_FILE),
    ("compute --entropy shannon bad.json", _BAD_SUM),
    ("compute --divergence kl missing.json bad.json", _NO_FILE),
    # bounds: file count, --q, --psi, --f, then the --q value
    ("bounds --case cor3.1 --q 2 p.json r.json", "error: bounds --case cor3.1 reads exactly 1 file, got 2"),
    ("bounds --case thm3.2 --f tsallis --q 2 p.json",
     "error: bounds --case thm3.2 reads exactly 2 files, got 1"),
    ("bounds --case thm3.1 --psi lnq p.json", "error: bounds --case thm3.1 needs --q"),
    ("bounds --case thm4.2 p.json r.json", "error: bounds --case thm4.2 needs --q"),
    ("bounds --case cor_dra --q 2 p.json r.json", "error: bounds --case cor_dra does not take --q"),
    ("bounds --case cor4 --q nan p.json r.json", "error: bounds --case cor4 does not take --q"),
    ("bounds --case cf --q 1 xs.json p.json", "error: bounds --case cf does not take --q"),
    ("bounds --case thm3.1 --q 2 p.json", "error: bounds --case thm3.1 needs --psi"),
    ("bounds --case cor3.1 --q 2 --psi lnq p.json", "error: --psi only applies to thm3.1"),
    ("bounds --case thm3.2 p.json r.json", "error: bounds --case thm3.2 needs --f"),
    ("bounds --case cor_dra --f xlogx p.json r.json", "error: --f only applies to thm3.2"),
    ("bounds --case thm3.1 --psi lnq --f xlogx --q 2 p.json", "error: --f only applies to thm3.2"),
    ("bounds --case thm3.1 --psi lnq --q -1 p.json", "error: --q must be a finite number >= 0, got -1.0"),
    # bounds: library errors, after the files load
    ("bounds --case thm3.2 --f tsallis p.json r.json",
     "error: generator 'tsallis' needs an entropic index q"),
    ("bounds --case thm3.2 --f bogus p.json missing.json", _NO_FILE),
    ("bounds --case thm4.2 --q 0 p.json r.json",
     "error: q = 0 has identically zero curvature; no usable range"),
    ("bounds --case thm4.2 --q 2 p.json three.json", "error: length mismatch: 4 vs 3"),
    ("bounds --case thm4.2 --q 2 tiny.json half.json",
     "error: the spread of points up to 1e+160 apart overflows a double"),
    ("bounds --case thm4.2 --q 2 half.json tiny.json",
     "error: the spread of points up to 1e+160 apart overflows a double"),
    # p^2/r underflows to 0 under every library f, and the message names those weights
    ("bounds --case thm3.2 --f xlogx underflow.json half.json", _SANDWICH_WEIGHTS),
    ("bounds --case thm3.2 --f neglog underflow.json half.json", _SANDWICH_WEIGHTS),
    ("bounds --case thm3.2 --f tsallis --q 2 underflow.json half.json", _SANDWICH_WEIGHTS),
    ("bounds --case thm3.2 --f tsallis --q 0.5 underflow.json half.json", _SANDWICH_WEIGHTS),
    ("bounds --case cf xs.json three.json", "error: xs has shape (4,), expected (3,)"),
    ("bounds --case cf missing.json p.json", _NO_FILE),
    ("bounds --case cf xs.json bad.json", _BAD_SUM),
    # verify: --all/--case, then run_case's checks: the case, --trials, --seed, --q
    ("verify --q -1 --trials 0", "error: pass exactly one of --all or --case"),
    ("verify --all --case id14", "error: pass exactly one of --all or --case"),
    ("verify --case id14 --q -1 --trials 0 --seed -1", "error: need trials >= 1, got 0"),
    ("verify --case id14 --trials 0 --seed -1", "error: need trials >= 1, got 0"),
    ("verify --case id14 --seed -1", "error: need seed >= 0, got -1"),
    ("verify --case nosuch --trials 0", _NO_CASE),
    ("verify --case nosuch", _NO_CASE),
    # a case that takes no q still rejects a q outside [0, inf)
    ("verify --case lem4.1 --q -1", "error: q_grid value -1.0 is not a number in [0, inf)"),
    ("verify --all --q -1", "error: q_grid value -1.0 is not a number in [0, inf)"),
    ("verify --case thm5.1 --q 0.5 --trials 5",
     "error: case thm5.1 admits no q in [0.5]; pass override_hypothesis=True "
     "(CLI: --override-hypothesis) to probe outside its hypothesis"),
    # prop5.3 is the first case that admits no q = 0.5; no case's trials run before it
    ("verify --all --q 0.5 --trials 2000",
     "error: case prop5.3 admits no q in [0.5]; pass override_hypothesis=True "
     "(CLI: --override-hypothesis) to probe outside its hypothesis"),
]


@pytest.mark.parametrize("line, stderr", ERROR_ROWS, ids=[r[0] for r in ERROR_ROWS])
def test_error_status_and_message(capsys, workdir, line, stderr):
    assert _run(capsys, line.split()) == (1, "", stderr + "\n")


# argparse errors print the usage of the (sub)command, then "error: " and
# argparse's message.  The wording, quoting and wrapping are argparse's and
# change between Python versions, so each row pins only what qentropy's
# parser supplies: (command line, start of the usage, the names the message
# must contain in this order: the argument, the rejected value, the choices)
ARGPARSE_ROWS = [
    ("", "qentropy [-h]", ("command",)),
    ("frobnicate", "qentropy [-h]", ("command", "frobnicate", "compute", "bounds", "verify")),
    ("compute --entropy foo p.json", "qentropy compute [-h]",
     ("--entropy", "foo", "tsallis", "shannon", "renyi", "quasilinear")),
    ("compute --divergence foo p.json r.json", "qentropy compute [-h]",
     ("--divergence", "foo", "tsallis", "kl", "renyi", "f", "quasilinear")),
    ("compute --output xml --entropy shannon p.json", "qentropy compute [-h]",
     ("--output", "xml", "json", "table")),
    ("compute --entropy shannon", "qentropy compute [-h]", ("FILE",)),
    ("compute --q abc --entropy tsallis p.json", "qentropy compute [-h]", ("--q", "float", "abc")),
    ("bounds p.json", "qentropy bounds [-h]", ("--case",)),
    ("bounds --case thm9 p.json", "qentropy bounds [-h]",
     ("--case", "thm9", "thm3.1", "cor3.1", "thm3.2", "cor_dra", "thm4.2", "cor4", "cf")),
    ("verify --trials x", "qentropy verify [-h]", ("--trials", "int", "x")),
]


@pytest.mark.parametrize("line, usage, names", ARGPARSE_ROWS, ids=[r[0] for r in ARGPARSE_ROWS])
def test_argparse_error_names_the_argument(capsys, workdir, line, usage, names):
    status, out, err = _run(capsys, line.split())
    printed_usage, sep, message = err.partition("\nerror: ")
    assert (status, out, sep) == (1, "", "\nerror: ")
    assert printed_usage.startswith(f"usage: {usage} ")
    assert message.endswith("\n") and "\n" not in message[:-1]
    at = 0
    for name in names:
        found = message.find(name, at)
        assert found >= 0, f"{name!r} missing after position {at} in {message!r}"
        at = found + len(name)


# case: the constants it prints, by this module's formulas, from the inputs
# its files hold and its generator label
CONSTANTS = {
    "thm3.1": lambda q, v: _r_spread(v["r"]),
    "cor3.1": lambda q, v: _r_spread(v["r"]),
    "thm3.2": lambda q, v: {**_sandwich(v["p"], v["r"]), "f": v["f"]},
    "cor_dra": lambda q, v: _sandwich(v["p"], v["r"]),
    "thm4.2": lambda q, v: _cross_constants(q, v["p"], v["r"]),
    "cor4": lambda q, v: _cross_constants(1.0, v["p"], v["r"]),
    "cf": lambda q, v: _cf_constants(v["xs"], v["p"]),
}


def _hex(doc: dict) -> dict:
    """A document's numbers as their bits; a label stays as it is."""
    return {k: v if isinstance(v, str) else float(v).hex() for k, v in doc.items()}


# Each bound case the CLI prints is the first claim of the registry case of
# the same id, on the inputs that case draws; a FromZero chain prints its
# report.  The constants beside it are the chain's own, bit for bit.
AGREE_ROWS = [
    (case, n, q)
    for case, spec in _BOUND_SPECS.items()
    for n in (1, 3, 40)
    for q in ((None,) if spec.q_policy == "rejects" else (0.25, 1.0, 2.5))
]


@pytest.mark.parametrize("case, n, q", AGREE_ROWS, ids=[f"{c}-n{n}-q{q}" for c, n, q in AGREE_ROWS])
def test_bounds_report_is_the_registry_cases_first_claim(capsys, tmp_path, case, n, q):
    registered = REGISTRY[case]
    inputs = registered.draw(np.random.default_rng([n, int(1000 * (q or 0))]), n, q)
    argv = ["bounds", "--case", case] + ([] if q is None else ["--q", repr(q)])
    for flag in ("psi", "f"):
        if flag in inputs:
            argv += [f"--{flag}", inputs[flag].partition("[")[0]]
    # cf reads its points, then its weights
    for key in ("xs", "p", "r"):
        if key in inputs:
            path = tmp_path / f"{key}.json"
            v = inputs[key]
            doc = {"values": v.tolist()} if key == "xs" else {"weights": v.weights.tolist()}
            path.write_text(json.dumps(doc))
            argv.append(str(path))
    status, out, err = _run(capsys, argv)
    assert (status, err) == (0, "")
    claim = registered.check(inputs, q)[0]
    want = getattr(claim, "report", claim).as_dict()
    got = loads(out)
    assert _hex(got["report"]) == _hex(want)
    assert _hex(got["constants"]) == _hex(CONSTANTS[case](q, inputs))


# Every bound case on extreme inputs prints the chain a direct library call
# gives: the other claims a registered check builds (thm4.2's two intermediate
# sandwiches, cor_dra's independent KL route) never turn a printable chain into
# an error.  "tiny" has masses of 1e-150 in p and r; "n4096" is a 4096-mass pair.
def _cross_chain(q, p, r):
    dr = qe.tightest_constants(p, r, q)
    return qe.tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M)


# case: (the draw keys its files fill, in order, and the chain it prints)
DIRECT = {
    "thm3.1": (("r",), lambda q, psi, r: qe.quasilinear_vs_tsallis_bounds(
        qe.psi_by_label(psi, q), r, q)),
    "cor3.1": (("r",), lambda q, _, r: qe.refined_maxent_bounds(r, q)),
    "thm3.2": (("p", "r"), lambda q, f, p, r: qe.f_divergence_sandwich(qe.f_by_label(f, q), p, r)),
    "cor_dra": (("p", "r"), lambda q, _, p, r: qe.f_divergence_sandwich(qe.neglog_generator(), p, r)),
    "thm4.2": (("p", "r"), lambda q, _, p, r: _cross_chain(q, p, r)),
    "cor4": (("p", "r"), lambda q, _, p, r: _cross_chain(1.0, p, r)),
    "cf": (("xs", "p"), lambda q, _, xs, p: qe.cartwright_field(xs, p)),
}


def _extreme_inputs(name):
    """(points, p, r) as lists of floats."""
    if name == "tiny":
        return [0.5, 2.0, 7.0], [1e-150, 0.25, 0.75 - 1e-150], [0.2, 1e-150, 0.8 - 1e-150]
    rng = np.random.default_rng(4096)
    p, r = (w / w.sum() for w in rng.exponential(size=(2, 4096)) + 1e-3)
    return rng.uniform(0.1, 10.0, 4096).tolist(), p.tolist(), r.tolist()


# thm3.2's upper bound max(r/p) * factor on "tiny" at q = 2 is 2e149 * 3e148, past
# the float maximum: the library raises DomainError, and main prints it on one line
_UPPER_OVERFLOWS = ("tiny", "thm3.2", "tsallis", 2.0)
EXTREME_ROWS = [
    pytest.param(inputs, case, label, q, id="-".join(str(v) for v in (inputs, case, label, q)))
    for inputs in ("tiny", "n4096")
    for case, spec in _BOUND_SPECS.items()
    for label in {"psi": PSI_LABELS, "f": ("tsallis", "xlogx", "neglog")}.get(spec.gen, (None,))
    for q in ((None,) if spec.q_policy == "rejects" else (0.5, 2.0))
]


@pytest.mark.parametrize("inputs, case, label, q", EXTREME_ROWS)
def test_every_bound_case_prints_its_chain_on_extreme_inputs(capsys, tmp_path, inputs, case, label, q):
    xs, p, r = _extreme_inputs(inputs)
    docs = {"xs": {"values": xs}, "p": {"weights": p}, "r": {"weights": r}}
    values = {"xs": np.asarray(xs), "p": ProbDist(p), "r": ProbDist(r)}
    keys, chain = DIRECT[case]
    argv = ["bounds", "--case", case] + ([] if q is None else ["--q", repr(q)])
    if label is not None:
        argv += [f"--{_BOUND_SPECS[case].gen}", label]
        values[_BOUND_SPECS[case].gen] = label
    for key in keys:
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(docs[key]))
        argv.append(str(path))
    status, out, err = _run(capsys, argv)
    if (inputs, case, label, q) == _UPPER_OVERFLOWS:
        with pytest.raises(qe.DomainError) as info:
            chain(q, label, *(values[key] for key in keys))
        assert (status, out, err) == (1, "", f"error: {info.value}\n")
        return
    assert (status, err) == (0, "")
    want = chain(q, label, *(values[key] for key in keys)).as_dict()
    got = loads(out)
    assert _hex(got["report"]) == _hex(want)
    assert _hex(got["constants"]) == _hex(CONSTANTS[case](q, values))
