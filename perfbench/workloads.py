"""The benchmark's three workloads, each a closed loop with one client.

A workload generates its inputs from the seed in ``setup`` and then runs one
pass of fixed work per ``run_pass`` call. Only the calls into qentropy's public
API are timed; every output is checked afterwards, outside the timed region,
and a failed check counts the operation as failed.

* ``registry``: the full 24-case registry at n <= 16, the shape of
  ``qentropy verify --all`` and of the acceptance fixtures. Fixed per-call
  cost dominates. One operation is one trial.
* ``bounds_large_n``: the public bound chains at n = 1024 and n = 4096, where
  the n x n temporaries dominate (8 MiB each at 1024, inside L3; 128 MiB at
  4096, outside it). One operation is one public bounds call.
* ``cli_cold``: sequential fresh ``qentropy`` processes on small files, so
  interpreter start-up and imports are paid every time and no cache is warm.
  One operation is one invocation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import qentropy as qe
from qentropy.serialize import dumps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
PROBE = HERE / "probe.py"

# Floor on sampled masses, as in the library's default sampling profile.
MIN_MASS = 1e-6
# The benchmark's own O(n) route for pairwise_spread and the Lagrange identity
# must agree with the library's value to this relative tolerance.
PAIRWISE_RTOL = 1e-9
LAGRANGE_RTOL = 1e-9
CHILD_TIMEOUT_S = 120

# A fresh process running the installed console-script entry point, reporting
# its own high-water RSS on exit. VmHWM belongs to the post-exec address space
# only; ru_maxrss of a spawned child also counts the parent's pages at spawn.
CLI_CODE = """\
import atexit, sys
def _hwm():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                sys.stderr.write("perfbench-vmhwm-kb " + line.split()[1] + "\\n")
atexit.register(_hwm)
from qentropy.cli import entrypoint
entrypoint()
"""


def child_env() -> dict:
    """Environment for child interpreters: the checkout's source tree first."""
    env = dict(os.environ)
    env.pop("QENTROPY_CHECK_TOL", None)  # would change `verify` reports
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def vmhwm_kb() -> int:
    """High-water RSS of this process in KiB (Linux ``VmHWM``)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.exponential(size=n)
    w = np.maximum(g / g.sum(), MIN_MASS)
    return w / w.sum()


@dataclasses.dataclass
class PassResult:
    seconds: float
    op_seconds: list
    attempted: int
    failed: int


class Workload:
    name = ""
    # passes run with the tracer installed, in a traced run
    traced_passes = 1
    # the host-speed kernel (run.Reference) whose slowdowns the workload's track
    host_kernel = "calls"

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        # replace the first checked output with a wrong one (smoke test only)
        self.doctor = False
        # start-up and import timings reported by traced child processes
        self.phases: list[dict] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return vmhwm_kb()

    def largest_temp_bytes(self) -> int:
        """Size of the largest n x n float64 temporary the workload's inputs imply."""
        raise NotImplementedError

    def _take_doctor(self) -> bool:
        hit, self.doctor = self.doctor, False
        return hit


class Registry(Workload):
    name = "registry"
    traced_passes = 5

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed)
        # 50 trials make a pass of about 0.2 s, long enough that the
        # sub-second swings of host speed average out within it
        self.trials = 2 if smoke else 50
        self.reference: list | None = None

    def setup(self) -> None:
        # enough trials to visit every q of the default grid twice, so the
        # library's generator caches are filled before timing
        qe.run_registry(trials=2 * len(qe.DEFAULT_Q_GRID), seed=self.seed)

    def largest_temp_bytes(self) -> int:
        return 16 * 16 * 8  # run_registry's default n_range tops out at 16

    def run_pass(self, tracer=None) -> PassResult:
        attempted = self.trials * len(qe.REGISTRY)
        start = time.perf_counter()
        try:
            reports = qe.run_registry(trials=self.trials, seed=self.seed)
        except qe.QEntropyError:
            seconds = time.perf_counter() - start
            return PassResult(seconds, [seconds / attempted], attempted, attempted)
        seconds = time.perf_counter() - start
        with tracer.suspended() if tracer is not None else nullcontext():
            lines = [r.to_json_line() for r in reports]
        if self.reference is None:
            self.reference = list(lines)
        if self._take_doctor():
            lines[0] = lines[0].replace('"violations": ', '"violations": 1', 1)
        failed = 0
        for rep, line, ref in zip(reports, lines, self.reference):
            bad = rep.violations if rep.in_hypothesis else 0
            failed += rep.trials if line != ref else bad
        if len(reports) != len(self.reference):
            failed = attempted
        return PassResult(seconds, [seconds / attempted], attempted, failed)


@dataclasses.dataclass
class _Inputs:
    p: object
    r: object
    xs: np.ndarray
    a: np.ndarray
    b: np.ndarray
    drange: object
    spread: float  # benchmark's own O(n) centred-variance value
    lagrange_scale: float


def _fsum_spread(xs: np.ndarray, w: np.ndarray) -> float:
    mean = math.fsum(w * xs)
    return math.fsum(w * (xs - mean) ** 2)


# Chains: name -> function(call, inputs, q, generators). ``call`` times one
# operation and keeps its output for the checks. An operation is one public
# bounds call, except that the thm4.2 constants (a few microseconds) are one
# operation with the main sandwich they feed; the chain makes three.
def _refined(call, d, q, gens):
    call(qe.refined_maxent_bounds, d.r, q)


def _quasilinear(call, d, q, gens):
    call(qe.quasilinear_vs_tsallis_bounds, gens["lnq"], d.r, q)


def _fdiv(call, d, q, gens):
    call(qe.f_divergence_sandwich, gens["tsallis"], d.p, d.r)


def _constants_and_main(p, r, q):
    dr = qe.tightest_constants(p, r, q)
    return dr, qe.tsallis_cross_entropy_sandwich(p, r, q, dr.m, dr.M)


def _thm4_2(call, d, q, gens):
    dr, _ = call(_constants_and_main, d.p, d.r, q)
    call(qe.cross_term_gap_sandwich, d.p, d.r, q, dr.m, dr.M)
    call(qe.maxent_variance_bounds, d.p, q, dr.m, dr.M)


def _smooth(call, d, q, gens):
    call(qe.smooth_jensen_sandwich, gens["neg_lnq"], d.drange, d.xs, d.p)


def _cartwright(call, d, q, gens):
    call(qe.cartwright_field, d.xs, d.p)


def _pairwise(call, d, q, gens):
    call(qe.pairwise_spread, d.xs, d.p)


def _lagrange(call, d, q, gens):
    call(qe.lagrange_identity, d.a, d.b)


CHAINS = {
    "refined_maxent": _refined,
    "quasilinear_vs_tsallis": _quasilinear,
    "f_divergence_sandwich": _fdiv,
    "thm4_2": _thm4_2,
    "smooth_jensen": _smooth,
    "cartwright_field": _cartwright,
    "pairwise_spread": _pairwise,
    "lagrange_identity": _lagrange,
}


class BoundsLargeN(Workload):
    name = "bounds_large_n"
    traced_passes = 1
    host_kernel = "stream"
    SIZES = (1024, 4096)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed)
        self.sizes = (16, 32) if smoke else self.SIZES

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.q = float(rng.uniform(0.25, 3.0))
        self.gens = {
            "lnq": qe.lnq_generator(self.q),
            "tsallis": qe.tsallis_generator(self.q),
            "neg_lnq": qe.neg_qlog_generator(self.q),
        }
        self.inputs = {}
        for n in self.sizes:
            p = qe.make_dist(random_weights(rng, n))
            r = qe.make_dist(random_weights(rng, n))
            xs = rng.uniform(0.1, 10.0, n)
            a = rng.normal(0.0, 1.0, n)
            b = rng.normal(0.0, 1.0, n)
            lo, hi = float(xs.min()), float(xs.max())
            q = self.q
            # -ln_q'' = q x^(-q-1) on [lo, hi]
            drange = qe.SecondDerivativeRange(q * hi ** (-q - 1.0), q * lo ** (-q - 1.0), (lo, hi))
            self.inputs[n] = _Inputs(
                p, r, xs, a, b, drange,
                spread=_fsum_spread(xs, p.weights),
                lagrange_scale=math.fsum(a * a) * math.fsum(b * b),
            )
        # warm-up at the smaller size: first-call costs, not the big pages
        self._run_chains(self.sizes[:1], None)

    def largest_temp_bytes(self) -> int:
        return max(self.sizes) ** 2 * 8

    def _run_chains(self, sizes, tracer):
        ops: list[float] = []
        outputs: list[tuple] = []  # (n, function, output or exception)
        clock = time.perf_counter

        def call(fn, *args):
            t0 = clock()
            try:
                out = fn(*args)
            except qe.QEntropyError as exc:
                ops.append(clock() - t0)
                outputs.append((n, fn, exc))
                raise
            ops.append(clock() - t0)
            outputs.append((n, fn, out))
            return out

        start = clock()
        for n in sizes:
            d = self.inputs[n]
            for chain, run in CHAINS.items():
                span = tracer.span(f"{chain}.n{n}") if tracer is not None else nullcontext()
                with span:
                    try:
                        run(call, d, self.q, self.gens)
                    except qe.QEntropyError:
                        pass  # recorded by call(); the rest of the chain is skipped
        return clock() - start, ops, outputs

    def _ok(self, n: int, fn, out) -> bool:
        d = self.inputs[n]
        name = fn.__name__  # tracer wrappers keep the wrapped function's name
        if name == "_constants_and_main":
            dr, out = out
            if not (math.isfinite(dr.m) and math.isfinite(dr.M)):
                return False
        if isinstance(out, qe.BoundReport):
            vals = (out.lower, out.value, out.upper)
            return all(math.isfinite(v) for v in vals) and out.holds()
        if name == "pairwise_spread":
            return math.isfinite(out) and abs(out - d.spread) <= PAIRWISE_RTOL * (1.0 + abs(d.spread))
        if name == "lagrange_identity":
            lhs, rhs = out
            return (
                math.isfinite(lhs)
                and math.isfinite(rhs)
                and abs(lhs - rhs) <= LAGRANGE_RTOL * (1.0 + d.lagrange_scale)
            )
        return False  # an exception or an unexpected output

    def run_pass(self, tracer=None) -> PassResult:
        seconds, ops, outputs = self._run_chains(self.sizes, tracer)
        if self._take_doctor():
            n, fn, _ = outputs[0]
            outputs[0] = (n, fn, qe.BoundReport(lower=1.0, value=0.0, upper=2.0))
        failed = sum(not self._ok(*entry) for entry in outputs)
        return PassResult(seconds, ops, len(ops), failed)


class CliCold(Workload):
    name = "cli_cold"
    traced_passes = 3
    host_kernel = "spawn"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed)
        self.n = 4 if smoke else 8
        self.verify_trials = 2 if smoke else 20
        self.dir = WORK / f"cli-{self.seed}"
        self.hwm_kb: list[int] = []

    def largest_temp_bytes(self) -> int:
        return self.n * self.n * 8

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        q = round(float(rng.uniform(0.25, 3.0)), 3)
        self.dir.mkdir(parents=True, exist_ok=True)
        dists = {}
        for fname in ("p.json", "r.json"):
            text = dumps({"weights": [float(x) for x in random_weights(rng, self.n)]})
            (self.dir / fname).write_text(text + "\n", encoding="utf-8")
            dists[fname] = qe.make_dist(json.loads(text)["weights"])
        p, r = dists["p.json"], dists["r.json"]
        qs = repr(q)
        value = qe.tsallis_entropy(p, q)
        divergence = qe.tsallis_quasilinear_relative(qe.psi_by_label("lnq", q), p, r, q)
        report = qe.f_divergence_sandwich(qe.f_by_label("tsallis", q), p, r).as_dict()
        line = qe.run_case("id14", trials=self.verify_trials, seed=self.seed).to_json_line()
        # (argv, bytes stdout must contain, whether they are all of stdout)
        self.commands = [
            (["compute", "--entropy", "tsallis", "--q", qs, "p.json"],
             f'"value": {dumps(float(value))}}}\n', False),
            (["compute", "--divergence", "quasilinear", "--psi", "lnq", "--q", qs,
              "p.json", "r.json"],
             f'"value": {dumps(float(divergence))}}}\n', False),
            (["bounds", "--case", "thm3.2", "--f", "tsallis", "--q", qs, "p.json", "r.json"],
             f'"report": {dumps(report)}, "constants": ', False),
            (["verify", "--case", "id14", "--trials", str(self.verify_trials),
              "--seed", str(self.seed)],
             line + "\n", True),
        ]
        # warm the page cache and the bytecode cache, as an installed CLI would be
        for argv, _, _ in self.commands:
            self._invoke(argv)

    def _invoke(self, argv):
        return subprocess.run(
            [sys.executable, "-c", CLI_CODE, *argv],
            cwd=self.dir, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )

    def _probe(self, argv, spawn: float):
        proc = subprocess.run(
            [sys.executable, str(PROBE), "cli", repr(spawn), *argv],
            cwd=self.dir, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return {"exit": proc.returncode or 1, "stdout": ""}

    def run_pass(self, tracer=None) -> PassResult:
        ops: list[float] = []
        results = []
        clock = time.perf_counter
        start = clock()
        for argv, expect, whole in self.commands:
            t0 = clock()
            if tracer is None:
                proc = self._invoke(argv)
                ops.append(clock() - t0)
                results.append((proc.returncode, proc.stdout, proc.stderr, expect, whole, None))
            else:
                with tracer.span(f"invoke.{argv[0]}") as parent:
                    child = self._probe(argv, t0)
                ops.append(clock() - t0)
                tracer.merge(child.get("spans", []), parent)
                if "phases" in child:
                    self.phases.append(child["phases"])
                results.append((child["exit"], child["stdout"], "", expect, whole, child))
        seconds = clock() - start
        if self._take_doctor():
            code, out, *rest = results[0]
            results[0] = (code, out.replace('"value": ', '"value": -', 1), *rest)
        failed = 0
        for code, out, err, expect, whole, child in results:
            ok = code == 0 and (out == expect if whole else expect in out)
            if child is not None:
                ok = ok and not child.get("unrestored")
            else:
                self.hwm_kb.extend(int(line.split()[1]) for line in err.splitlines()
                                   if line.startswith("perfbench-vmhwm-kb "))
            failed += not ok
        return PassResult(seconds, ops, len(results), failed)

    def peak_rss_kb(self) -> int:
        if not self.hwm_kb:
            raise RuntimeError("no child reported its VmHWM")
        return max(self.hwm_kb)


WORKLOADS = {w.name: w for w in (Registry, BoundsLargeN, CliCold)}
