"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json is reported with its unit, that
the tracer's wrappers are all removed after a traced run, that a doctored
output is counted as a failed operation, that the benchmark refuses to run
without the library's source tree, and that pass times are scaled by the
host-speed factor.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["end_to_end" if trace == 0 else "per_layer"]
    want = {m["name"]: m["unit"] for m in section}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_wrappers_are_restored():
    before = tracing.snapshot()
    w = workloads.Registry(1, smoke=True)
    w.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.wrapped_names()
        assert w.run_pass(tracer).failed == 0
    finally:
        unrestored = tracer.uninstall()
    assert unrestored == []
    assert tracing.changed(before, tracing.snapshot()) == []
    assert tracing.wrapped_names() == []
    layers = {rec[1] for rec in tracer.spans}
    assert {"qmath", "dist", "verify", "bounds", "joint"} <= layers


@pytest.mark.parametrize("first", [False, True], ids=["later_pass", "first_pass"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_doctored_output_is_counted_in_error_rate(workload, first):
    w = workloads.WORKLOADS[workload](1, smoke=True)
    w.setup()
    if not first:
        assert run.Phase().run(w, 0.0, passes=1).failed == 0
    w.doctor = True
    doctored = run.Phase().run(w, 0.0, passes=1)
    assert doctored.failed >= 1
    assert doctored.failed / doctored.attempted > 0
    # a doctored first pass must not become the reference of later passes
    assert run.Phase().run(w, 0.0, passes=1).failed == 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


class _FixedKernel:
    """A host-speed reference whose kernel always takes ``scale`` times its nominal time."""

    nominal_s = 0.5
    resident_bytes = 0

    def __init__(self, scale):
        self.scale = scale

    def kernel_seconds(self):
        return self.nominal_s * self.scale


class _FixedWorkload:
    def run_pass(self, tracer=None):
        return workloads.PassResult(0.2, [0.05, 0.15], 2, 0)


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_pass_times_are_scaled_by_host_speed(scale):
    phase = run.Phase(_FixedKernel(scale)).run(_FixedWorkload(), 0.0, passes=3)
    assert phase.factors == pytest.approx([1.0 / scale] * 3)
    assert phase.passes == pytest.approx([0.2 / scale] * 3)
    assert phase.pass_ops == [pytest.approx([0.05 / scale, 0.15 / scale])] * 3
