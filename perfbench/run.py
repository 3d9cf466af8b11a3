#!/usr/bin/env python3
"""The repository benchmark: four workloads on the shipped configuration.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady-48 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process
    python3 perfbench/run.py --workload check-sweep --trace 1
    python3 perfbench/run.py --workload all --seed 2003 --record-reference

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs one untraced and two traced passes and prints
the per-layer metrics. Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it carry the human-readable report, the configuration stamp and
the metrics that are not part of that object (failure share, the
operation-time metrics and the simulated-system metrics). Times are host
seconds scaled to a reference host speed by the units of
``calibrate.py`` run after every operation. ``failed`` counts operations
whose protocol outcome differs from the seed-core reference; operations
that fail *as the seed core does* (the known ``gateway-partition-stress``
bootstrap failure in ``catalog-full``) are counted in
``ops_failed_share`` instead.

The program is imported from ``src/`` of the checkout this file sits in;
there is nothing to build. See ``RATIONALE.md`` for why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The seed runs default to. It and the held-out seed 2003, which no
#: tuning looked at, have committed seed-core references.
DEFAULT_SEED = 0

#: Fresh-interpreter import timings per run (their median goes into setup_s).
IMPORT_SAMPLES = 11
#: Calibration units run before and after an import or an up-front
#: set-up, to scale its time.
SETUP_UNITS = 10
#: Traced passes per traced run; their counts must agree exactly.
TRACED_PASSES = 2
#: Allowed gap between the summed self times and the traced wall time
#: (the wrappers' own call overhead outside any span).
SELF_TIME_TOLERANCE = 0.01

_clock = time.perf_counter


class BenchmarkError(Exception):
    """The benchmark cannot run here (e.g. the program is missing)."""


def _load_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchmarkError(f"imported repro from {repro.__file__}, not {SRC}")


# -- measurement helpers ------------------------------------------------------


def tail_percentile(min_samples: int) -> int:
    """The highest whole percentile with ten samples beyond it when a run
    has only its guaranteed ``min_samples`` operations."""
    return max(1, math.floor(100 * (1 - 10 / min_samples)))


def percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def import_seconds(modules, samples: int = IMPORT_SAMPLES) -> float:
    """Median time a fresh interpreter takes to import ``modules``, each
    sample scaled by the calibration units run around it."""
    import calibrate

    code = (
        "import time\nstart = time.perf_counter()\n"
        + "".join(f"import {module}\n" for module in modules)
        + "print(time.perf_counter() - start)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timings = []
    for _ in range(samples):
        units = [calibrate.unit_seconds() for _ in range(SETUP_UNITS)]
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        units += [calibrate.unit_seconds() for _ in range(SETUP_UNITS)]
        timings.append(
            float(proc.stdout.strip().splitlines()[-1]) * calibrate.scale(units)
        )
    return statistics.median(timings)


class PeakRss:
    """Peak resident memory of this process, in MB.

    When several workloads share one process, the kernel's high-water mark
    is reset between them (``/proc/self/clear_refs``) so an earlier
    workload does not leak into a later one's figure.
    """

    def __init__(self, shared_process: bool) -> None:
        self.resettable = shared_process and self._reset()

    @staticmethod
    def _reset() -> bool:
        try:
            with open("/proc/self/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            return False
        return True

    def start(self) -> None:
        if self.resettable:
            self._reset()

    def read_mb(self) -> float:
        if self.resettable:
            with open("/proc/self/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def config_stamp() -> Dict[str, Any]:
    """The toggles actually in force, read from the modules at run time."""
    import repro.can.bus as bus
    import repro.sim.kernel as kernel
    import repro.sim.timers as timers
    import repro.sim.trace as trace
    import repro.workloads.builder as builder
    from repro.perf import compiled

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "BATCH_DISPATCH": kernel.BATCH_DISPATCH,
        "FAST_REARM": timers.FAST_REARM,
        "TIMER_WHEEL": timers.TIMER_WHEEL,
        "FILTERED_DELIVERY": bus.FILTERED_DELIVERY,
        "COLUMNAR": trace.COLUMNAR,
        "IDLE_SKIP": builder.DEFAULT_IDLE_SKIP,
        "compiled": compiled.module_status(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
    }


# -- one pass -------------------------------------------------------------------


class Pass:
    """What one pass produced."""

    def __init__(self, ops, counters, op_seconds, units, setup_s, wall_s):
        self.ops = ops
        self.counters = counters
        self.op_seconds = op_seconds
        #: Calibration units run after each operation (calibrated passes).
        self.units = units
        self.setup_s = setup_s
        #: Timed phase, calibration units excluded.
        self.wall_s = wall_s


def run_pass(workload, inputs, state=None, calibrated=False) -> Pass:
    """One pass; sets up first when ``state`` is None."""
    from workloads import OpClock, add_counters, network_log

    with network_log() as built:
        setup_s = None
        if state is None:
            started = _clock()
            state = workload.setup(inputs)
            setup_s = _clock() - started
        clock = OpClock(calibrated)
        started = _clock()
        ops = workload.run(state, inputs, clock)
        wall_s = _clock() - started - sum(map(sum, clock.units))
        del state
        counters: Dict[str, int] = {}
        add_counters(counters, built)
    return Pass(ops, counters, clock.seconds, clock.units, setup_s, wall_s)


# -- the untraced run -----------------------------------------------------------


def measure(workload, seed: int, seconds: float, rss: PeakRss) -> Dict[str, Any]:
    """Time calibrated passes for ``seconds`` (at least ``min_passes``).

    Every time is scaled to the reference host speed by calibration units
    (:mod:`calibrate`): an operation by the units run right after it, a
    set-up or the time between operations by the median unit of its
    pass, an up-front set-up or an import by the units run around it.
    """
    import calibrate
    from reference import op_digests

    inputs = workload.inputs(seed)
    calibrate.warm_up()
    import_s = import_seconds(workload.modules)
    rss.start()
    setup_samples: List[float] = []
    state = None
    if not workload.setup_per_pass:
        for _ in range(workload.setups):
            state = None
            gc.collect()
            units = [calibrate.unit_seconds() for _ in range(SETUP_UNITS)]
            started = _clock()
            state = workload.setup(inputs)
            elapsed = _clock() - started
            units += [calibrate.unit_seconds() for _ in range(SETUP_UNITS)]
            setup_samples.append(elapsed * calibrate.scale(units))
    passes: List[Pass] = []
    digests = []
    started = _clock()
    while len(passes) < workload.min_passes or _clock() - started < seconds:
        gc.collect()
        done = run_pass(workload, inputs, state, calibrated=True)
        digests.append(op_digests(done.ops))
        # Keep the first pass's outcomes for the reference check only.
        if passes:
            done.ops = None
        passes.append(done)
    peak_rss_mb = rss.read_mb()
    del state
    gc.collect()

    per_pass = len(passes[0].op_seconds)
    if any(len(p.op_seconds) != per_pass for p in passes):
        raise BenchmarkError("passes of one seed ran different operations")
    scaled = [
        [s * calibrate.scale(units) for s, units in zip(p.op_seconds, p.units)]
        for p in passes
    ]
    pass_scales = [calibrate.scale([u for us in p.units for u in us])
                   for p in passes]
    setup_samples.extend(
        p.setup_s * scale for p, scale in zip(passes, pass_scales)
        if p.setup_s is not None
    )
    # Every pass repeats the same operations, so each operation's median
    # over the passes is taken on its own: a burst of host interference
    # then spoils single operations instead of whole passes.
    op_medians = [statistics.median(ops[i] for ops in scaled)
                  for i in range(per_pass)]
    between_ops = statistics.median(
        (p.wall_s - sum(p.op_seconds)) * scale
        for p, scale in zip(passes, pass_scales)
    )
    # The tail is read per pass and the median pass's is reported, so a
    # burst of host interference in one pass cannot make it.
    tail_pct = tail_percentile(workload.min_passes * per_pass)
    op_tail = statistics.median(percentile(ops, tail_pct) for ops in scaled)
    first = passes[0]
    return {
        "passes": len(passes),
        "first": first,
        "digests": digests,
        "ops_per_pass": len(first.ops),
        "timed_per_pass": per_pass,
        "op_count": per_pass * len(passes),
        "tail_pct": tail_pct,
        "host_speed": statistics.median(pass_scales),
        "metrics": {
            "wall_s": sum(op_medians) + between_ops,
            "setup_s": import_s + statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "op_p50_ms": 1000 * statistics.median(op_medians),
            "op_tail_ms": 1000 * op_tail,
        },
    }


# -- the traced run ---------------------------------------------------------------


def trace_layers(workload, seed: int) -> Dict[str, Any]:
    """One untraced and ``TRACED_PASSES`` traced passes, set-up included."""
    from layers import HARNESS, LayerTracer, exact_counts, install
    from reference import op_digests

    inputs = workload.inputs(seed)
    gc.collect()
    started = _clock()
    untraced = run_pass(workload, inputs)
    untraced_wall = _clock() - started
    problems: List[str] = []
    expected = op_digests(untraced.ops)
    tracers = []
    walls = []
    counts = []
    for _ in range(TRACED_PASSES):
        gc.collect()
        tracer = LayerTracer()
        install(tracer)
        try:
            traced_pass = tracer.wrap(run_pass, "pass", HARNESS)
            started = _clock()
            done = traced_pass(workload, inputs)
            walls.append(_clock() - started)
        finally:
            tracer.restore()
        if op_digests(done.ops) != expected:
            problems.append("a traced pass changed the protocol outcome")
        counts.append(exact_counts(tracer, done.counters))
        total_self = sum(tracer.self_s.values())
        if abs(total_self - walls[-1]) > SELF_TIME_TOLERANCE * walls[-1]:
            problems.append(
                f"layer self times sum to {total_self:.4f} s, traced wall "
                f"time is {walls[-1]:.4f} s"
            )
        tracers.append(tracer)
    if any(c != counts[0] for c in counts[1:]):
        differing = sorted(
            key for key in set(counts[0]) | set(counts[1])
            if counts[0].get(key) != counts[1].get(key)
        )
        problems.append(f"traced counts differ between passes: {differing[:5]}")
    return {
        "untraced": untraced,
        "untraced_wall": untraced_wall,
        "tracers": tracers,
        "traced_wall": statistics.mean(walls),
        "problems": problems,
    }


# -- checking and reporting -------------------------------------------------------


def check(workload, seed: int, first, digests: List[Dict]) -> Dict[str, Any]:
    """Compare a run's outcomes with the seed core and its own passes."""
    import reference

    problems: List[str] = []
    if any(d != digests[0] for d in digests[1:]):
        problems.append("passes of one seed produced different outcomes")
    sim = workload.sim_metrics(first.ops, first.counters, workload.inputs(seed))
    ref = reference.obtain(workload, seed)
    problems.extend(
        reference.mismatches(ref, workload, seed, digests[0], sim)
    )
    problems.extend(workload.bound_violations(first.ops, workload.inputs(seed)))
    differing = sum(
        1 for digest in digests
        for key, entry in digest.items()
        if ref["ops"].get(key) != entry
    )
    return {"problems": problems, "sim": sim, "mismatched_ops": differing}


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


SIM_UNITS = {
    "sim_detect_p50_ms": "ms (simulated)",
    "sim_detect_max_ms": "ms (simulated)",
    "sim_bus_load_pct": "% (simulated)",
    "sim_mistakes": "count (simulated)",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

#: The end-to-end metrics of the result line (BENCHMARK.json). The
#: operation-time metrics are only printed: which operations sit at their
#: percentile depends on the seed, not on the program (catalog-full's
#: median falls between unlike recipe cells, check-sweep's tail is the
#: 4th slowest of 80 schedules, and the guided samples decide whether a
#: slow one is among them), so they spread 10-16% across seeds.
RESULT_METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def report_measured(workload, seed, measured, checked, stamp) -> Dict[str, Any]:
    first = measured["first"]
    ops_total = measured["ops_per_pass"] * measured["passes"]
    failed_ops = sum(1 for op in first.ops if op.failed) * measured["passes"]
    metrics = measured["metrics"]
    print(f"== {workload.name} (seed {seed}): {measured['passes']} passes, "
          f"{measured['op_count']} timed operations")
    print(f"   why: {workload.why}")
    print(f"   config: {json.dumps(stamp, sort_keys=True)}")
    print("   times are host seconds scaled to the reference host speed "
          f"(calibrate.py); median pass factor {measured['host_speed']:.4f}")
    notes = {
        "wall_s": (f"each operation's median over {measured['passes']} "
                   "passes, summed"),
        "setup_s": "fresh-interpreter imports + median set-up",
        "peak_rss_mb": "this process",
        "op_p50_ms": (f"median of the {measured['timed_per_pass']} "
                      "operations' medians"),
        "op_tail_ms": (f"p{measured['tail_pct']} of each pass's "
                       f"{measured['timed_per_pass']} operations, median "
                       "pass"),
    }
    for name, unit in END_TO_END_UNITS.items():
        print(f"   {name:<18} {_fmt(metrics[name]):>12} {unit:<18} "
              f"{notes[name]}")
    print(f"   {'ops_failed_share':<18} {_fmt(failed_ops / ops_total):>12} "
          f"{'share':<18} {failed_ops} of {ops_total} operation outcomes "
          "failed")
    for name, unit in SIM_UNITS.items():
        print(f"   {name:<18} {_fmt(checked['sim'].get(name)):>12} {unit}")
    for problem in checked["problems"]:
        print(f"   PROBLEM: {problem}")
    return {
        "correct": not checked["problems"],
        "attempted": measured["op_count"],
        "failed": checked["mismatched_ops"],
        "metrics": {
            name: {"value": metrics[name], "unit": END_TO_END_UNITS[name]}
            for name in RESULT_METRICS
        },
    }


def report_traced(workload, seed, traced, checked, stamp) -> Dict[str, Any]:
    from layers import PER_LAYER_UNITS, layer_shares, per_layer_metrics

    untraced = traced["untraced"]
    metrics = per_layer_metrics(
        traced["tracers"], untraced.counters, traced["traced_wall"],
        traced["untraced_wall"],
    )
    print(f"== {workload.name} (seed {seed}): traced run, "
          f"{TRACED_PASSES} traced passes of set-up + pass")
    print(f"   config: {json.dumps(stamp, sort_keys=True)}")
    print(f"   untraced {traced['untraced_wall']:.4f} s, traced "
          f"{traced['traced_wall']:.4f} s per pass")
    print("   layer self time (traced, per pass):")
    for layer, seconds, share in layer_shares(traced["tracers"]):
        print(f"     {layer:<24} {seconds:10.4f} s {100 * share:6.2f}%")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"   {name:<28} {_fmt(metrics[name]):>12} {unit}")
    problems = checked["problems"] + traced["problems"]
    for problem in problems:
        print(f"   PROBLEM: {problem}")
    attempted = len(untraced.ops) * (1 + TRACED_PASSES)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": checked["mismatched_ops"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 rss: PeakRss) -> Dict[str, Any]:
    from reference import op_digests
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    stamp = config_stamp()
    if trace:
        traced = trace_layers(workload, seed)
        untraced = traced["untraced"]
        checked = check(workload, seed, untraced, [op_digests(untraced.ops)])
        return report_traced(workload, seed, traced, checked, stamp)
    measured = measure(workload, seed, seconds, rss)
    checked = check(workload, seed, measured["first"], measured["digests"])
    return report_measured(workload, seed, measured, checked, stamp)


def record_references(names: List[str], seed: int) -> None:
    import reference
    from workloads import WORKLOADS

    for name in names:
        path = reference.save(
            reference.compute(WORKLOADS[name], seed), committed=True
        )
        print(f"recorded {path.relative_to(ROOT)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the untraced run repeats passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the seed-core reference for --seed "
                             "into references/ and exit")
    args = parser.parse_args(argv)
    try:
        _load_program()
    except (BenchmarkError, ImportError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    if args.record_reference:
        record_references(names, args.seed)
        return 0
    rss = PeakRss(shared_process=len(names) > 1)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), rss)
        for name in names
    }
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
