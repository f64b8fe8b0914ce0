"""Child-process probe: times a fresh interpreter's start-up and imports.

Usage (started by the benchmark, never by hand):

    probe.py setup WORKLOAD SEED SMOKE SPAWN   one fresh set-up of a workload
    probe.py cli SPAWN ARG...                  one traced `qentropy ARG...` run

SPAWN is the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
the difference to this process's first statement is its start-up time. The
last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _imports(spawn: float) -> dict:
    t1 = time.perf_counter()
    import numpy  # noqa: F401

    t2 = time.perf_counter()
    import qentropy.cli  # noqa: F401  (the whole package, as the console script)

    t3 = time.perf_counter()
    return {"spawn": spawn, "start": T0, "numpy": (t1, t2), "qentropy": (t2, t3)}


def _phases(marks: dict) -> dict:
    return {
        "startup_ms": (marks["start"] - marks["spawn"]) * 1e3,
        "numpy_import_ms": (marks["numpy"][1] - marks["numpy"][0]) * 1e3,
        "import_ms": (marks["qentropy"][1] - marks["qentropy"][0]) * 1e3,
    }


def setup(workload: str, seed: str, smoke: str, spawn: str) -> dict:
    marks = _imports(float(spawn))
    import workloads

    w = workloads.WORKLOADS[workload](int(seed), smoke == "1")
    t0 = time.perf_counter()
    w.setup()
    return {"phases": {**_phases(marks), "setup_ms": (time.perf_counter() - t0) * 1e3}}


def cli(spawn: str, *argv: str) -> dict:
    marks = _imports(float(spawn))
    import qentropy.cli as cli_mod
    import tracing

    tracer = tracing.Tracer()
    tracer.add_phase("startup", "cli", marks["spawn"], marks["start"])
    tracer.add_phase("numpy_import", "cli", *marks["numpy"])
    tracer.add_phase("import", "cli", *marks["qentropy"])
    tracer.install()
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli_mod.main(list(argv))  # looked up after install: the wrapper
    main_ms = (time.perf_counter() - t0) * 1e3
    unrestored = tracer.uninstall()
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "phases": {**_phases(marks), "main_ms": main_ms},
        "spans": tracer.spans,
        "unrestored": [".".join(k) for k in unrestored],
    }


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    result = {"setup": setup, "cli": cli}[mode](*rest)
    print(json.dumps(result))
