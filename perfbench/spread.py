#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 perfbench/spread.py --workload cli_cold [--save a.json] [--compare a.json]

Runs ``run.py --workload W --seed S --seconds <run_seconds> --trace 0`` in a
fresh interpreter for seeds 1 to 10, with run_seconds from BENCHMARK.json.
For every metric it prints the median, the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, and the metric's bound; a spread is steady when it is below a third
of the bound. ``setup_s`` is exempt from that spread check, as in the
benchmark contract, but its spread is printed and its median is compared.
``--compare FILE`` checks a previous set's medians (saved with ``--save
FILE``) against this set's: none may be worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--save", help="write the per-metric values to this JSON file")
    ap.add_argument("--compare", help="JSON file from an earlier --save")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}

    values: dict[str, list] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in SEEDS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)

    steady = True
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        line = f"{m['name']:16s} median {med:12.6g}  spread {spread:7.4f}  bound {m['bound']}"
        if m["name"] == "setup_s":
            line += "  (spread not checked)"
        elif spread >= m["bound"] / 3:
            steady = False
            line += "  NOT STEADY"
        if m["name"] in earlier:
            before = statistics.median(earlier[m["name"]])
            worse = (med - before) / before * (1 if m["better"] == "lower" else -1)
            line += f"  vs earlier median {before:.6g}: {worse:+.4f}"
            if worse > m["bound"]:
                steady = False
                line += "  WORSE THAN BOUND"
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values), encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
