"""The four benchmark workloads, run against the shipped configuration.

Every workload splits into a *set-up* (timed into ``setup_s``) and a
*pass* (timed into ``wall_s``) made of *operations* (timed into
``op_p50_ms``/``op_tail_ms``). A pass is a fixed piece of work, so its
protocol outcome is a pure function of the seed: the harness repeats
passes for the run's duration and compares every operation's outcome
with the seed-core reference (:mod:`reference`).

All randomness comes from the ``--seed`` argument through
:func:`seeded_rng`; the library receives only the generated inputs.
Nothing here sets a module toggle or calls ``fast_config()``.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

import calibrate

_clock = time.perf_counter

#: Membership config of the large-membership workloads (the canonical
#: 48-node scenario of ``repro bench``).
BIG_NODES = 48
BIG_CONFIG = dict(capacity=64, tm_ms=50, thb_ms=10, tjoin_wait_ms=150)


def seeded_rng(workload: str, seed: int) -> random.Random:
    """The workload's input generator: one stream per (workload, seed)."""
    return random.Random(f"perfbench/{workload}/{seed}")


class OpClock:
    """Host seconds of every operation of a pass.

    A ``calibrated`` clock runs :mod:`calibrate` units after every
    operation and keeps their times in ``units`` (one list per
    operation), so each timing can be scaled to the reference host speed.
    """

    def __init__(self, calibrated: bool = False) -> None:
        self.seconds: List[float] = []
        self.units: List[List[float]] = []
        self.calibrated = calibrated

    def call(self, fn: Callable, *args, **kwargs):
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            self.seconds.append(elapsed)
            if self.calibrated:
                self.units.append(calibrate.after(elapsed))


class Op:
    """One operation's protocol outcome (compared with the reference)."""

    __slots__ = ("key", "outcome", "failed")

    def __init__(self, key: str, outcome: Any, failed: bool = False) -> None:
        self.key = key
        self.outcome = outcome
        self.failed = failed


@contextmanager
def network_log() -> Iterator[List[Any]]:
    """Collect every ``CanelyNetwork`` built inside the block.

    The recipes and the checker build their networks internally; their
    counters (frames, busy bits, trace rows, protocol counters) are read
    from the networks this hook sees. It only appends to a list.
    """
    from repro.core.stack import CanelyNetwork

    built: List[Any] = []
    original = CanelyNetwork.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    CanelyNetwork.__init__ = init
    try:
        yield built
    finally:
        CanelyNetwork.__init__ = original


def _counter_total(snapshot: Dict[str, Any], name: str) -> int:
    return sum(
        value for key, value in snapshot.items()
        if key == name or key.startswith(name + "{")
    )


#: Benchmark counter name -> the program's own metrics-registry counter.
_PROGRAM_COUNTERS = {
    "gateway.forwarded": "gw.forwarded",
    "gateway.dropped": "gw.dropped",
    "fd.detections": "fd.detections",
    "fda.requests": "fda.requests",
    "fda.delivered": "fda.delivered",
    "rha.executions": "rha.executions",
    "msh.views_installed": "msh.views_installed",
    "swim.suspects": "swim.suspects",
}


def network_counters(net) -> Dict[str, int]:
    """The program's own counters of one finished network."""
    sim = net.sim
    snapshot = sim.metrics.snapshot()
    buses = list(net.segments)
    injectors = {id(bus.injector): bus.injector for bus in buses}
    trace = sim.trace
    counters = {
        "kernel.events": sim.events_processed,
        "bus.frames": sum(bus.stats.physical_frames for bus in buses),
        "bus.error_frames": sum(bus.stats.error_frames for bus in buses),
        "bus.busy_ticks": sum(
            bus.timing.bits_to_ticks(bus.stats.busy_bits) for bus in buses
        ),
        "bus.elapsed_ticks": sim.now * len(buses),
        "trace.rows": sum(trace.categories().values()),
        "trace.deliver_rows": trace.count("bus.deliver"),
        "errormodel.omissions": sum(
            injector.omissions_injected for injector in injectors.values()
        ),
        "spans.recorded": len(sim.spans),
    }
    for name, program_name in _PROGRAM_COUNTERS.items():
        counters[name] = _counter_total(snapshot, program_name)
    return counters


def add_counters(total: Dict[str, int], nets: List[Any]) -> None:
    """Fold the counters of ``nets`` into ``total`` and forget the nets."""
    for net in nets:
        for name, value in network_counters(net).items():
            total[name] = total.get(name, 0) + value
    nets.clear()


def _big_config():
    from repro.core.config import CanelyConfig
    from repro.sim.clock import ms

    return CanelyConfig(
        capacity=BIG_CONFIG["capacity"],
        tm=ms(BIG_CONFIG["tm_ms"]),
        thb=ms(BIG_CONFIG["thb_ms"]),
        tjoin_wait=ms(BIG_CONFIG["tjoin_wait_ms"]),
    )


def _views(net) -> Dict[str, list]:
    views = {}
    for node in net.correct_nodes():
        if node.is_member:
            view = node.view()
            views[str(node.node_id)] = [sorted(view.members), view.round_index]
    return views


def _ms(ticks: int) -> float:
    from repro.sim.clock import ms

    return ticks / ms(1)


class Workload:
    """A named workload: inputs from the seed, set-up, one timed pass."""

    name = ""
    why = ""
    #: Passes every run makes, whatever ``--seconds`` says: enough
    #: operations that the tail percentile has ten samples beyond it.
    min_passes = 3
    #: True when every pass needs a fresh set-up (its own network).
    setup_per_pass = True
    #: Set-ups made before the first pass when ``setup_per_pass`` is off.
    setups = 1
    #: Modules a user imports to run this workload (timed into setup_s).
    modules = ("repro",)

    def inputs(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, inputs: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def run(self, state: Any, inputs: Dict[str, Any], ops: OpClock) -> List[Op]:
        raise NotImplementedError

    def reference_run(self, state: Any, inputs: Dict[str, Any]) -> List[Op]:
        """The pass as the seed core can answer it (same operation keys)."""
        return self.run(state, inputs, OpClock())

    def sim_metrics(self, ops: List[Op], counters: Dict[str, int],
                    inputs: Dict[str, Any]) -> Dict[str, Optional[float]]:
        """Simulated-system metrics of one pass (deterministic per seed)."""
        return {}

    def bound_violations(self, ops: List[Op], inputs: Dict[str, Any]) -> List[str]:
        """Missed detections, and detections slower than
        ``latency_bounds(config).view_update``."""
        return []


def _detections_ms(qos) -> List[float]:
    """Crash-to-view-change latency of every (crash, observer) sample."""
    return [_ms(latency) for latency in qos.detection_latencies]


def _bus_load_pct(counters: Dict[str, int]) -> Optional[float]:
    if not counters.get("bus.elapsed_ticks"):
        return None
    return 100.0 * counters["bus.busy_ticks"] / counters["bus.elapsed_ticks"]


def _view_update_bound_ms() -> float:
    from repro.analysis.latency import latency_bounds

    return _ms(latency_bounds(_big_config()).view_update)


def _slow_detections(latencies_ms: List[float], label: str) -> List[str]:
    bound = _view_update_bound_ms()
    return [
        f"{label}: detection {latency} ms > view-update bound {bound} ms"
        for latency in latencies_ms
        if latency > bound
    ]


class Steady48(Workload):
    name = "steady-48"
    why = ("48 nodes, one crash, long steady phase: every frame re-arms "
           "~47 surveillance timers and writes ~47 delivery rows")
    min_passes = 3
    modules = ("repro", "repro.obs.qos")
    #: Steady phase after bootstrap, in operations of CHUNK_MS each.
    CHUNKS = 25
    CHUNK_MS = 20

    def inputs(self, seed):
        rng = seeded_rng(self.name, seed)
        return {
            "nodes": BIG_NODES, "config": BIG_CONFIG,
            "chunks": self.CHUNKS, "chunk_ms": self.CHUNK_MS,
            "victim": rng.randrange(BIG_NODES),
            # Crash instant after bootstrap, microseconds: inside the first
            # heartbeat periods of the steady phase, at any phase offset.
            "crash_at_us": 10_000 + rng.randrange(50_000),
        }

    def setup(self, inputs):
        from repro.core.stack import CanelyNetwork

        net = CanelyNetwork(BIG_NODES, config=_big_config())
        builder = net.scenario().bootstrap()
        return net, builder

    def run(self, state, inputs, ops):
        from repro.obs import qos as obs_qos
        from repro.sim.clock import ms, us

        net, builder = state
        start = net.sim.now
        builder.crash(inputs["victim"], at=us(inputs["crash_at_us"]))
        for _ in range(self.CHUNKS):
            ops.call(net.run_for, ms(self.CHUNK_MS))
        qos = obs_qos.compute_qos(
            net.sim.trace, nodes=range(BIG_NODES), start=start,
            end=net.sim.now,
        )
        bus = net.bus.stats
        return [Op("steady", {
            "views": _views(net),
            "physical_frames": bus.physical_frames,
            "busy_bits": bus.busy_bits,
            "qos": qos.to_dict(),
            "detections_ms": _detections_ms(qos),
        })]

    def sim_metrics(self, ops, counters, inputs):
        outcome = ops[0].outcome
        latencies = outcome["detections_ms"]
        return {
            "sim_detect_p50_ms": _median(latencies),
            "sim_detect_max_ms": max(latencies) if latencies else None,
            "sim_bus_load_pct": _bus_load_pct(counters),
            "sim_mistakes": outcome["qos"]["mistakes"]["count"],
        }

    def bound_violations(self, ops, inputs):
        latencies = ops[0].outcome["detections_ms"]
        problems = _slow_detections(latencies, self.name)
        if len(latencies) != BIG_NODES - 1:
            problems.append(
                f"{self.name}: {len(latencies)} observers detected the "
                f"crash, expected {BIG_NODES - 1}"
            )
        return problems


#: The catalog's two backends, in report order.
BACKENDS = ("canely", "swim")


class CatalogFull(Workload):
    name = "catalog-full"
    why = ("all 8 catalog recipes at full size on canely and swim: "
           "fault-heavy, small population, arbitration under load")
    # Known failure, run and counted on purpose: gateway-partition-stress
    # does not bootstrap at full size on either backend (seeds 0-2 at
    # least; canely ends with members=[0,1,2,3,5,6,7,8]). Its
    # gateway_queue_limit=4 drops join frames at the congested gateway
    # (6 in one experiment); a limit of 5 converges. The seed core fails
    # the same way, so the failure is the reference outcome.
    min_passes = 7
    modules = ("repro", "repro.scenarios", "repro.scenarios.recipes")

    def inputs(self, seed):
        from repro.scenarios import scenario_names

        return {
            "recipe_seed": seed,
            "cells": [[name, backend] for name in scenario_names()
                      for backend in BACKENDS],
        }

    def setup(self, inputs):
        from repro.scenarios import resolve_recipe

        for name, _backend in inputs["cells"]:
            resolve_recipe(name)
        return inputs["cells"]

    def run(self, state, inputs, ops):
        from repro.scenarios import runner

        seed = inputs["recipe_seed"]
        results = []
        with network_log() as built:
            for name, backend in state:
                key = f"{name}/{backend}"
                try:
                    outcome = ops.call(
                        runner.run_recipe, name, backend=backend, seed=seed
                    )
                except Exception as error:  # a failed cell is an outcome
                    results.append(Op(key, {
                        "error": type(error).__name__, "message": str(error),
                    }, failed=True))
                    built.clear()
                    continue
                counters: Dict[str, int] = {}
                add_counters(counters, built)
                results.append(Op(key, {
                    "outcome": outcome.to_dict(),
                    "detections_ms": _detections_ms(outcome.qos),
                    "physical_frames": counters["bus.frames"],
                    "busy_ticks": counters["bus.busy_ticks"],
                    "elapsed_ticks": counters["bus.elapsed_ticks"],
                }))
        return results

    def sim_metrics(self, ops, counters, inputs):
        latencies: List[float] = []
        mistakes = 0
        busy = elapsed = 0
        for op in ops:
            if op.failed:
                continue
            latencies.extend(op.outcome["detections_ms"])
            mistakes += op.outcome["outcome"]["qos"]["mistakes"]["count"]
            busy += op.outcome["busy_ticks"]
            elapsed += op.outcome["elapsed_ticks"]
        latencies.sort()
        return {
            "sim_detect_p50_ms": _median(latencies),
            "sim_detect_max_ms": latencies[-1] if latencies else None,
            "sim_bus_load_pct": 100.0 * busy / elapsed if elapsed else None,
            "sim_mistakes": mistakes,
        }


class CheckSweepWorkload(Workload):
    name = "check-sweep"
    why = ("depth-1 exhaustive fault schedules plus seeded samples on "
           "5-node nets with online monitors: many tiny runs")
    min_passes = 4
    modules = ("repro", "repro.check")
    SAMPLES = 20

    def inputs(self, seed):
        # The depth-1 frontier is seed-independent; the seed picks the
        # guided samples beyond it.
        return {"depth": 1, "samples": self.SAMPLES, "sample_seed": seed}

    def _sweep(self, inputs):
        from repro.check import CheckSweep

        return CheckSweep(
            depth=inputs["depth"], samples=inputs["samples"],
            seed=inputs["sample_seed"],
        )

    def setup(self, inputs):
        from repro.check import schedule_population

        sweep = self._sweep(inputs)
        # What a cold sweep pays to generate its population; the sweep
        # object memoizes it for the passes.
        schedule_population(
            sweep.space, depth=sweep.depth, samples=sweep.samples,
            seed=sweep.seed, sample_max_depth=sweep.sample_max_depth,
        )
        sweep.population()
        return sweep

    def run(self, state, inputs, ops):
        from repro.check import sweep as check_sweep

        def timed_schedule(spec, index):
            return ops.call(check_sweep.run_check_scenario, spec, index)

        report = check_sweep.explore(state, workers=0,
                                     scenario_fn=timed_schedule)
        results = []
        for result in report.results:
            check = result.metrics.get("check") or {}
            results.append(Op(f"schedule-{result.index}", {
                "verdict": result.verdict,
                "monitor": check.get("monitor"),
                "final_members": check.get("final_members"),
                "expected_members": check.get("expected_members"),
            }, failed=result.verdict != "ok"))
        return results


class TraceAnalysis(Workload):
    name = "trace-analysis"
    why = ("post-hoc queries over one recorded 48-node trace with spans "
           "and six crashes: the trace layer is read, not written")
    min_passes = 5
    setup_per_pass = False
    setups = 3
    modules = ("repro", "repro.obs", "repro.llc.properties",
               "repro.analysis.latency")
    CRASHES = 6
    STAGGER_MS = 40
    HORIZON_MS = 300

    def inputs(self, seed):
        rng = seeded_rng(self.name, seed)
        return {
            "nodes": BIG_NODES, "config": BIG_CONFIG,
            "stagger_ms": self.STAGGER_MS, "horizon_ms": self.HORIZON_MS,
            "victims": rng.sample(range(BIG_NODES), self.CRASHES),
        }

    def setup(self, inputs):
        from repro.core.stack import CanelyNetwork
        from repro.sim.clock import ms

        net = CanelyNetwork(BIG_NODES, config=_big_config(), spans=True)
        builder = net.scenario().bootstrap()
        start = net.sim.now
        for index, victim in enumerate(inputs["victims"]):
            builder.crash(victim, at=ms(20 + self.STAGGER_MS * index))
        builder.run_for(ms(self.HORIZON_MS))
        return net, start

    #: Critical-path kinds and the trace category marking each one's end.
    PATHS = (("detection", "fda.nty"), ("notification", "msh.change"),
             ("view-update", "msh.view"))

    def run(self, state, inputs, ops, paths_from_rows=False):
        from repro.analysis import latency
        from repro.llc import properties
        from repro.obs import critical_path
        from repro.obs import qos as obs_qos

        net, start = state
        trace = net.sim.trace
        config = net.config
        correct = [node.node_id for node in net.correct_nodes()]
        results = [Op("recording", {
            "views": _views(net),
            "physical_frames": net.bus.stats.physical_frames,
            "busy_bits": net.bus.stats.busy_bits,
        })]
        report = ops.call(
            properties.check_all_properties, trace, correct,
            omission_degree=config.omission_degree,
            inconsistent_degree=config.inconsistent_degree,
            window=config.reference_window,
        )
        results.append(Op("properties", {
            "ok": report.ok, "violations": list(report.violations),
        }))
        path_fns = {
            "detection": critical_path.detection_path,
            "notification": critical_path.notification_path,
            "view-update": critical_path.view_update_path,
        }
        for victim in inputs["victims"]:
            if paths_from_rows:
                ends = _path_ends_from_rows(trace, victim)
            for kind, _category in self.PATHS:
                if paths_from_rows:
                    outcome = ends[kind]
                else:
                    path = ops.call(path_fns[kind], net.sim.spans, victim)
                    outcome = {"start": path.start, "end": path.end}
                results.append(Op(f"{kind}/{victim}", outcome))
        qos = ops.call(
            obs_qos.compute_qos, trace, nodes=range(BIG_NODES), start=start,
            end=net.sim.now,
        )
        results.append(Op("qos", {
            "qos": qos.to_dict(), "detections_ms": _detections_ms(qos),
        }))
        latencies = ops.call(latency.measured_detection_latencies, trace)
        results.append(Op("latencies", {
            str(node): value for node, value in sorted(latencies.items())
        }))
        return results

    def reference_run(self, state, inputs):
        # The seed core records no causal spans, so the critical paths'
        # endpoints are read from its trace rows instead: the crash, and
        # the first failure-sign delivery, membership-change notification
        # and view install that name the victim. (The decomposition in
        # between is span-internal and sums to end - start by
        # construction.)
        return self.run(state, inputs, OpClock(), paths_from_rows=True)

    def sim_metrics(self, ops, counters, inputs):
        latencies = _find(ops, "qos").outcome["detections_ms"]
        return {
            "sim_detect_p50_ms": _median(latencies),
            "sim_detect_max_ms": max(latencies) if latencies else None,
        }

    def bound_violations(self, ops, inputs):
        outcome = _find(ops, "qos").outcome
        problems = _slow_detections(outcome["detections_ms"], self.name)
        crashes = outcome["qos"]["crashes"]
        incomplete = [crash["node"] for crash in crashes
                      if not crash["complete"]]
        if len(crashes) != self.CRASHES or incomplete:
            problems.append(
                f"{self.name}: {len(crashes)} crashes in the QoS readout "
                f"(expected {self.CRASHES}), incomplete: {incomplete}"
            )
        return problems


def _path_ends_from_rows(trace, victim: int) -> Dict[str, Dict[str, int]]:
    """Critical-path endpoints of ``victim`` from trace rows alone."""

    def first(category, matches):
        times, _nodes, payloads = trace.category_columns(category)
        return min(t for t, p in zip(times, payloads) if matches(t, p))

    crash_times, crash_nodes, _ = trace.category_columns("node.crash")
    crash = min(t for t, n in zip(crash_times, crash_nodes) if n == victim)
    ends = {
        "detection": first(
            "fda.nty", lambda t, p: t >= crash and p["failed"] == victim
        ),
        "notification": first(
            "msh.change", lambda t, p: t >= crash and victim in p["failed"]
        ),
        "view-update": first(
            "msh.view", lambda t, p: t >= crash and victim not in p["members"]
        ),
    }
    return {kind: {"start": crash, "end": end} for kind, end in ends.items()}


def _find(ops: List[Op], key: str) -> Op:
    for op in ops:
        if op.key == key:
            return op
    raise KeyError(key)


def _median(values: List[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Steady48(), CatalogFull(), CheckSweepWorkload(),
                     TraceAnalysis())
}
