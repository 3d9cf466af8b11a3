#!/usr/bin/env python
"""CI gate: per-frame work counters of the traced steady-48 benchmark run.

Runs ``python3 perfbench/run.py --workload steady-48 --seconds 1 --trace 1``,
reads the JSON object on the last line of its output and fails when the
failure detector or the kernel do more than O(1) surveillance work per
fault-free frame, or the trace more than O(1) rows:

* ``fd.activity_per_frame`` — activity upcalls into failure detectors
  (the shared surveillance deadline serves every lockstep observer, so
  only the sender's own timer is left: at most 1);
* ``event.reschedules_per_frame`` — in-place kernel reschedules (the
  shared deadline plus the sender's local timer: at most 2);
* ``trace.rows_per_frame`` — trace rows written per physical frame (a
  frame's receivers ride its one ``bus.tx`` row, so the protocol records
  around it stay O(1) per frame: at most 2).

The counts are exact and repeat run to run on any host, unlike the wall
times next to them, so they can be gated. The run must also report
``correct: true``.

Usage: python tools/check_layer_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMAND = [
    sys.executable, "perfbench/run.py",
    "--workload", "steady-48", "--seconds", "1", "--trace", "1",
]

#: Metric -> the largest value the gate accepts.
LIMITS = {
    "fd.activity_per_frame": 1.0,
    "event.reschedules_per_frame": 2.0,
    "trace.rows_per_frame": 2.0,
}


def check(result: dict) -> list:
    """Problems with one traced result object (empty when it passes)."""
    problems = []
    if not result.get("correct"):
        problems.append("the traced run did not report correct: true")
    metrics = result.get("metrics", {})
    for name, limit in LIMITS.items():
        if name not in metrics:
            problems.append(f"{name} is missing from the result")
            continue
        value = metrics[name]["value"]
        if value > limit:
            problems.append(f"{name} = {value:.4g} > {limit:g}")
    return problems


def main() -> int:
    proc = subprocess.run(
        COMMAND, cwd=ROOT, capture_output=True, text=True, check=False
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        print(f"check_layer_counts: benchmark exited {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    for name in LIMITS:
        value = result.get("metrics", {}).get(name, {}).get("value")
        print(f"{name:<30} {value}")
    problems = check(result)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
