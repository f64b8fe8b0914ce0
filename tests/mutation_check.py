"""Weaken one constant of a bound chain at a time, and check that a test notices.

    python tests/mutation_check.py

A weakened bound still holds, so an inequality check cannot tell it from the
paper's.  Each edit in EDITS replaces one token of ``src/qentropy/bounds.py``
with a weaker one (a lower bound's 1/2 becomes 1/4, cf's 2 M' becomes 4 M').
For each edit the script copies ``src/`` to a temporary directory, applies
the edit there and runs, against the copy, ``tests/test_tightness.py`` and
``run_registry(2000, 42)``.  It prints the tightness tests that fail and the
registry cases that report violations.

It exits 1 if an edit's anchor does not occur exactly once in ``bounds.py``,
or if an edit fails no tightness test.  The registry's verdict is printed,
not required: it checks that each chain holds, which a weakened one does.
The file is not collected by pytest; it takes a few seconds per edit.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOUNDS = Path("qentropy") / "bounds.py"

# (name, anchor, replacement): each anchor occurs exactly once in bounds.py
EDITS = [
    ("thm4.1 lower m/4", "lower=0.5 * drange.m * spread", "lower=0.25 * drange.m * spread"),
    ("cf lower V/(4 M')", "v / (2.0 * hi)", "v / (4.0 * hi)"),
    ("variance chain lower m_q/4", "lower=0.5 * mq * spread", "lower=0.25 * mq * spread"),
    ("sandwich lower m_q/4 P", "+ 0.5 * mq * spread_p", "+ 0.25 * mq * spread_p"),
]

REGISTRY_CODE = """
import json, sys
import qentropy
from qentropy import run_registry
if not qentropy.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported {qentropy.__file__}, not the mutated copy")
reports = run_registry(2000, 42)
print(json.dumps({r.case: r.violations for r in reports if r.violations}))
"""


def _mutated_copy(tmp: Path, anchor: str, replacement: str) -> Path:
    """A copy of src/ under tmp with the edit applied; raises if the anchor is not unique."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    text = (src / BOUNDS).read_text(encoding="utf-8")
    count = text.count(anchor)
    if count != 1:
        raise SystemExit(f"anchor {anchor!r} occurs {count} times in {BOUNDS}, not once")
    (src / BOUNDS).write_text(text.replace(anchor, replacement), encoding="utf-8")
    return src


def _run(src: Path, argv: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )


def _tightness_failures(src: Path) -> list[str]:
    proc = _run(src, ["-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                      "tests/test_tightness.py"])
    if proc.returncode not in (0, 1):  # 1: tests failed; anything else: pytest did not run
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return re.findall(r"^FAILED tests/test_tightness\.py::(\S+)", proc.stdout, re.MULTILINE)


def _registry_violations(src: Path) -> dict[str, int]:
    proc = _run(src, ["-c", REGISTRY_CODE, str(src)])
    if proc.returncode != 0:
        raise SystemExit(f"run_registry failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    survivors = []
    for name, anchor, replacement in EDITS:
        with tempfile.TemporaryDirectory(prefix="qentropy-mutant-") as tmp:
            src = _mutated_copy(Path(tmp), anchor, replacement)
            failures = _tightness_failures(src)
            violations = _registry_violations(src)
        print(f"{name}: {anchor!r} -> {replacement!r}")
        print(f"  tightness tests failed: {len(failures)}")
        for test in failures:
            print(f"    {test}")
        print(f"  registry violations: {sum(violations.values())}"
              + "".join(f"\n    {case}: {v}" for case, v in violations.items()))
        if not failures:
            survivors.append(name)
    if survivors:
        print(f"no tightness test fails under: {', '.join(survivors)}")
        return 1
    print(f"every one of the {len(EDITS)} edits fails a tightness test")
    return 0


if __name__ == "__main__":
    sys.exit(main())
