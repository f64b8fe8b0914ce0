#!/usr/bin/env python3
"""qentropy benchmark: registry, large-n bound chains and cold CLI.

Run one workload (the last line of standard output is the JSON result):

    python3 perfbench/run.py --workload registry --seed 1 --seconds 30 --trace 0

Run every workload, each in its own fresh interpreter, and print each metric
with its unit and the error rate:

    python3 perfbench/run.py [--seed 1] [--seconds 25] [--trace 0]

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports its per-layer metrics from a separate traced run.
``--smoke`` shrinks every workload to a tiny size (see test_smoke.py).
The run is made from the checkout's own source tree, ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

# Held fixed for this process and every child: numpy's import starts BLAS
# threads, which otherwise add CPU time to every cold CLI run.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPS = 5
# host-speed kernel runs after each set-up: five set-ups give too few
# samples for the noise of a single kernel run to average out
SETUP_KERNEL_REPS = 3
# Passes on each side of a pass whose kernel runs give its host-speed factor.
FACTOR_HALF_WINDOW = 2
# A timing's tail is the sample with this many samples beyond it.
TAIL_BEYOND = 10
# glibc sysconf names _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
_SC_L2, _SC_L3 = 191, 194


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="timed phase length (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    return ap.parse_args(argv)


def tail(samples: list) -> tuple[float, float, int]:
    """(value, percentile, count) of the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _sysconf(name: int):
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def machine_block(workload) -> dict:
    import numpy

    l3 = _sysconf(_SC_L3)
    temp = workload.largest_temp_bytes()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "l2_bytes": _sysconf(_SC_L2),
        "l3_bytes": l3,
        "largest_nxn_temp_bytes": temp,
        "largest_nxn_temp_over_l3": temp / l3 if l3 else None,
    }


class Reference:
    """Host speed, from a fixed kernel that does not use qentropy.

    The CPU of a shared host runs at anything from full to half speed, in
    states that last from a fraction of a second to minutes, so one 30-s run
    can see only the slow state. Timed right after each pass, the kernel
    slows with it: a time multiplied by NOMINAL_S / (kernel time) reads as
    seconds on a host where the kernel takes NOMINAL_S (about its time on the
    2-vCPU Xeon VM the benchmark was built on). ``calls`` makes many small
    numpy calls, like registry's per-trial work; ``stream`` streams 16 MiB
    arrays, like the n x n temporaries of bounds_large_n; ``spawn`` starts a
    fresh interpreter that imports numpy, like a cold CLI run or a fresh
    set-up. An in-process kernel run right after child processes is slowed
    by the caches they left cold, so it does not track them.
    """

    NOMINAL_S = {"calls": 0.004, "stream": 0.026, "spawn": 0.2}

    def __init__(self, kind: str) -> None:
        import numpy as np

        self.kind = kind
        # bytes the kernel keeps resident in this process, all touched here
        self.resident_bytes = 0
        if kind == "stream":
            self.a, self.b = np.random.default_rng(0).normal(size=(2, 2_000_000))
            self.c = self.a * self.b
            self.resident_bytes = self.a.nbytes + self.b.nbytes + self.c.nbytes

    def _kernel(self) -> None:
        import numpy as np

        if self.kind == "spawn":
            subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
            return
        if self.kind == "stream":
            for _ in range(3):
                np.add(np.multiply(self.a, self.b, out=self.c), self.a, out=self.c)
            return
        witnesses = []
        for i in range(150):
            x = np.random.default_rng(i).random(12) + 0.1
            y = x / x.sum()
            h = float(np.sum(y * np.log(y))) + float(np.max(np.abs(y - x)))
            witnesses.append({"i": i, "h": h, "y": y.tolist()})

    @property
    def nominal_s(self) -> float:
        return self.NOMINAL_S[self.kind]

    def kernel_seconds(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0


def fresh_setups(name: str, seed: int, smoke: bool, reps: int) -> tuple[list, list]:
    """Normalised wall time and phase timings of ``reps`` set-ups, each in a fresh interpreter."""
    import workloads

    reference = Reference("spawn")
    walls, phases = [], []
    for _ in range(reps):
        spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(workloads.PROBE), "setup", name, str(seed),
             "1" if smoke else "0", repr(spawn)],
            env=workloads.child_env(), capture_output=True, text=True,
            timeout=workloads.CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - spawn
        kernel = sum(reference.kernel_seconds() for _ in range(SETUP_KERNEL_REPS))
        walls.append(wall * reference.nominal_s * SETUP_KERNEL_REPS / kernel)
        if proc.returncode != 0:
            raise RuntimeError(f"fresh set-up of {name} failed:\n{proc.stderr}")
        phases.append(json.loads(proc.stdout.strip().splitlines()[-1])["phases"])
    return walls, phases


class Phase:
    """Passes, per-operation latencies and check counts of one timed phase.

    With a ``reference``, the host-speed kernel runs right after each pass
    (outside the timed region), and at the end every time of a pass is
    multiplied by the factor of the kernel runs within FACTOR_HALF_WINDOW
    passes of it: a single kernel run is too noisy a factor for the tail.
    """

    def __init__(self, reference: Reference | None = None) -> None:
        self.reference = reference
        self.kernel_s: list[float] = []
        self.factors: list[float] = []
        self.passes: list[float] = []
        self.pass_ops: list[list] = []
        self.attempted = 0
        self.failed = 0

    def run(self, workload, seconds: float, *, tracer=None, passes: int | None = None):
        start = time.perf_counter()
        while not self.passes or (
            len(self.passes) < passes if passes is not None
            else time.perf_counter() - start < seconds
        ):
            r = workload.run_pass(tracer)
            if self.reference is not None:
                self.kernel_s.append(self.reference.kernel_seconds())
            self.passes.append(r.seconds)
            self.pass_ops.append(r.op_seconds)
            self.attempted += r.attempted
            self.failed += r.failed
        if self.reference is not None:
            self._normalise()
        return self

    def _normalise(self) -> None:
        nominal, k = self.reference.nominal_s, FACTOR_HALF_WINDOW
        for i in range(len(self.passes)):
            window = self.kernel_s[max(0, i - k):i + k + 1]
            f = nominal * len(window) / sum(window)
            self.factors.append(f)
            self.passes[i] *= f
            self.pass_ops[i] = [t * f for t in self.pass_ops[i]]


def end_to_end(workload, phase: Phase, setup_walls: list) -> tuple[dict, list]:
    value, pct, count = tail([t for ops in phase.pass_ops for t in ops])
    factors = f"{min(phase.factors):.3f}..{max(phase.factors):.3f}"
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(phase.passes),
        "ops_per_s": phase.attempted / sum(phase.passes),
        # median over passes of each pass's median: a pass mixes operations of
        # very different cost, and the pooled median would sit on the edge
        # between two of them
        "latency_p50_ms": statistics.median(statistics.median(ops) for ops in phase.pass_ops) * 1e3,
        "latency_tail_ms": value * 1e3,
        # the kernel's arrays are resident from before set-up to the end
        "peak_rss_mb": (workload.peak_rss_kb() * 1024 - phase.reference.resident_bytes) / 2**20,
    }
    notes = [
        f"{len(phase.passes)} passes; host-speed factors {factors} ({workload.host_kernel} kernel)",
        f"latency_tail_ms is p{pct:.2f} of {count} operations",
        f"setup_s samples {[round(w, 4) for w in setup_walls]}",
    ]
    return metrics, notes


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(summary: dict, traced: Phase, untraced: Phase, phases: list) -> dict:
    import workloads

    layers = summary["layers"]
    by_name = summary["by_name"]

    def self_ms(layer):
        return layers[layer]["self_s"] * 1e3

    def ratio(layer):
        builds = layers[layer]["constructs"]
        return len(layers[layer]["labels"]) / builds if builds else 1.0

    m = {
        "qmath.calls": layers["qmath"]["calls"],
        "qmath.elements": summary["qmath_elements"],
        "qmath.self_ms": self_ms("qmath"),
        "dist.constructs": layers["dist"]["constructs"],
        "dist.self_ms": self_ms("dist"),
        "quasilinear.generator_builds": layers["quasilinear"]["constructs"],
        "quasilinear.build_useful_ratio": ratio("quasilinear"),
        "quasilinear.self_ms": self_ms("quasilinear"),
        "entropy.calls": layers["entropy"]["calls"],
        "entropy.self_ms": self_ms("entropy"),
        "divergence.calls": layers["divergence"]["calls"],
        "divergence.generator_builds": layers["divergence"]["constructs"],
        "divergence.build_useful_ratio": ratio("divergence"),
        "divergence.self_ms": self_ms("divergence"),
        "bounds.calls": layers["bounds"]["calls"],
        "bounds.self_ms": self_ms("bounds"),
        "bounds.pairwise_calls": summary["pairwise_calls"],
        "bounds.pairwise_temp_bytes": summary["pairwise_temp_bytes"],
    }
    for chain in workloads.CHAINS:
        for n in workloads.BoundsLargeN.SIZES:
            durations = summary["bench"].get(f"{chain}.n{n}", ())
            m[f"bounds.{chain}.n{n}.ms_per_call"] = _median_or_zero(durations) * 1e3
    m.update({
        "joint.constructs": layers["joint"]["constructs"],
        "joint.calls": layers["joint"]["calls"],
        "joint.self_ms": self_ms("joint"),
        "verify.harness_self_ms": by_name.get("run_case", (0, 0.0, 0.0))[2] * 1e3,
        "verify.sample_ms": by_name.get("sample_simplex", (0, 0.0, 0.0))[1] * 1e3,
    })
    import qentropy

    for case in qentropy.REGISTRY:
        total_s, trials = summary["cases"].get(case, (0.0, 0))
        m[f"verify.{case}.us_per_trial"] = total_s / trials * 1e6 if trials else 0.0
    m.update({
        "serialize.calls": layers["serialize"]["calls"],
        "serialize.self_ms": self_ms("serialize"),
        "cli.startup_ms": _median_or_zero(p["startup_ms"] for p in phases),
        "cli.numpy_import_ms": _median_or_zero(p["numpy_import_ms"] for p in phases),
        "cli.import_ms": _median_or_zero(p["import_ms"] for p in phases),
        "cli.main_ms": _median_or_zero(p["main_ms"] for p in phases if "main_ms" in p),
    })
    for layer in layers:
        m[f"{layer}.errors"] = layers[layer]["errors"]
    traced_wall = sum(traced.passes)
    m.update({
        "trace.pass_ms": statistics.median(traced.passes) * 1e3,
        "trace.untraced_pass_ms": statistics.median(untraced.passes) * 1e3,
        "trace.overhead_ratio": statistics.median(traced.passes) / statistics.median(untraced.passes),
        "trace.wall_ms": traced_wall * 1e3,
        "trace.unexplained_ms": (traced_wall - summary["library_root_s"]) * 1e3,
        "trace.spans": summary["spans"],
    })
    return m


def run_workload(args, spec: dict) -> dict:
    import qentropy
    import tracing
    import workloads

    if Path(qentropy.__file__).resolve().parent != ROOT / "src" / "qentropy":
        raise SystemExit(f"error: imported qentropy from {qentropy.__file__}, not this checkout")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    print("machine " + json.dumps(machine_block(workload)))

    # made before set-up, so the stream kernel's arrays are resident at every
    # high-water mark of the untraced run
    reference = None if args.trace else Reference(workload.host_kernel)
    setup_walls, setup_phases = fresh_setups(
        workload.name, args.seed, args.smoke, 1 if args.smoke else SETUP_REPS
    )
    workload.setup()
    if tracing.wrapped_names():
        raise SystemExit("error: tracer wrappers present before untraced timing")

    notes = []
    restored_ok = True
    if not args.trace:
        phase = Phase(reference).run(workload, seconds)
        metrics, notes = end_to_end(workload, phase, setup_walls)
        attempted, failed = phase.attempted, phase.failed
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        untraced = Phase().run(workload, seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = Phase().run(workload, 0.0, tracer=tracer, passes=workload.traced_passes)
        finally:
            unrestored = tracer.uninstall()
        restored_ok = not unrestored and not tracing.wrapped_names()
        if not restored_ok:
            notes.append(f"unrestored after trace: {unrestored}")
        summary = tracing.summarize(tracer.spans)
        phases = workload.phases or setup_phases
        metrics = per_layer(summary, traced, untraced, phases)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        spans_file = workloads.WORK / f"spans-{workload.name}-{args.seed}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
        notes.append(f"{summary['spans']} spans written to {spans_file.relative_to(ROOT)}")

    missing = sorted(set(names) - set(metrics))
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    for note in notes:
        print(note)
    print(f"error_rate {failed / attempted!r} fraction ({failed} of {attempted} operations failed)")
    return {
        "correct": failed == 0 and restored_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
    }


def run_all(args, spec: dict) -> int:
    """Each workload in its own fresh interpreter; print every metric by name."""
    summary = {}
    status = 0
    for entry in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{entry['name']}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        summary[entry["name"]] = result
        print(f"== {entry['name']}: {entry['why']}")
        for line in lines[:-1]:
            print(f"   {line}")
        for name, m in result["metrics"].items():
            print(f"   {name:44s} {m['value']:>16.6g} {m['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"   {'error_rate':44s} {rate:>16.6g} fraction")
        status |= 0 if result["correct"] else 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qentropy" / "__init__.py").is_file():
        print(f"error: no qentropy source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    print(json.dumps(run_workload(args, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
