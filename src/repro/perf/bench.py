"""Micro + macro benchmark runner with a machine-readable trajectory.

``repro bench`` times the three layers the hot-path overhaul touched and
emits ``BENCH_core.json``:

* **frame_encoding** (micro) — exact stuffed wire lengths over a
  deterministic corpus of distinct frames. ``reference`` is the bit-list
  seed path, ``cold`` the table/integer path with the memo cache cleared
  every round, ``cached`` the steady-state dict-hit path.
* **kernel_throughput** (micro) — raw kernel events per wall-second on a
  surveillance-shaped workload (periodic events rearming watchdog alarms
  plus same-instant bursts), isolating the event-queue + dispatch layer
  this overhaul restructured: in-place reschedule and batched equal-time
  dispatch against the seed's cancel-and-push queue and ``step()`` loop.
  Both cores fire a provably identical event count.
* **event_throughput** (macro) — simulated events per wall-second on the
  canonical large-membership scenario (48 nodes: bootstrap, crash,
  detection, view change). ``reference`` runs the same scenario under
  :func:`repro.perf.legacy.legacy_core` — the seed's event queue,
  encoder and per-frame bus paths — and the runner asserts the protocol
  observables match, so the speedup is measured on identical work.
* **campaign_wallclock** (macro) — wall-clock seconds for a small
  sequential in-process campaign (``workers=0``), the unit of work large
  statistical campaigns fan out. ``reference`` runs the same campaign
  under the seed core, so the entry carries a machine-portable speedup
  ratio and participates in the CI gate.
* **qos_compute** (micro) — FD-QoS computations per wall-second
  (:func:`repro.obs.qos.compute_qos`) over the trace of a large
  membership scenario recorded columnar. ``reference`` answers the
  trace's bulk accessor through the row path — ``select`` materializing
  a :class:`~repro.sim.trace.TraceRecord` per match, then regathering
  the columns — so the speedup isolates the columnar
  ``category_columns`` batch read the QoS engine leans on; both sides
  must produce byte-identical reports.
* **stack_scaling** (macro) — events per wall-second on a full-stack
  surveillance scenario at 10 / 50 / 200 nodes, run under the shipped
  fast configuration. The headline check is the **per-event cost
  curve**: growing the membership 20x may not grow the per-event cost
  20x (``sublinear``), and the committed ratio is CI-gated through the
  portable ``speedup`` metric (linear ratio over measured ratio).

Every report carries environment metadata; :func:`compare_reports` checks
a current report against a committed baseline with a configurable
regression threshold. Machine-portable metrics (the ``speedup`` ratios)
are compared directly; machine-dependent absolutes (throughput, wall
seconds) are only compared when the baseline was recorded on request
(``repro bench`` against a local baseline), which CI does on one runner
class.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.can.bitstream import (
    clear_encoding_cache,
    encoding_cache_info,
    exact_frame_bits,
    exact_frame_bits_reference,
)
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.perf.legacy import legacy_core
from repro.sim.clock import ms

#: Report schema identifier; bump on incompatible layout changes.
SCHEMA = "repro.bench/1"

#: Default regression threshold: fail when a metric drops by more than 25%.
DEFAULT_THRESHOLD = 0.25

#: The canonical membership scenario the macro benchmark times. A large
#: membership (48 of the RHV wire format's 64-node ceiling): the hot-path
#: work this overhaul targets — arbitration scans, delivery fan-out,
#: surveillance rearms, trace recording — all scale with the population,
#: so a small scenario under-weights exactly the costs the optimized
#: core removes.
CANONICAL_NODES = 48
CANONICAL_CONFIG = dict(capacity=64, tm_ms=50, thb_ms=10, tjoin_wait_ms=150)

#: Node populations the scaling benchmark sweeps. The two largest exceed
#: the membership layer's 64-node RHV wire format, so the sweep runs the
#: surveillance stack (bus -> standard layer -> failure detector -> FDA),
#: which has no architectural population cap — and is where the per-node
#: hot-path cost lives.
SCALING_NODE_COUNTS = [10, 50, 200]


@contextmanager
def fast_config() -> Iterator[None]:
    """The shipped fast configuration: every opt-in toggle enabled.

    The defaults keep :data:`repro.sim.timers.TIMER_WHEEL` and
    :data:`repro.sim.trace.COLUMNAR` off so the golden-trace tests pin
    the heap/row paths bit-identical against the seed; benchmarks time
    the configuration a large deployment would actually run.
    """
    import repro.can.bus as bus_mod
    import repro.sim.timers as timers_mod
    import repro.sim.trace as trace_mod

    saved = (
        timers_mod.TIMER_WHEEL,
        trace_mod.COLUMNAR,
        bus_mod.FILTERED_DELIVERY,
    )
    timers_mod.TIMER_WHEEL = True
    trace_mod.COLUMNAR = True
    bus_mod.FILTERED_DELIVERY = True
    try:
        yield
    finally:
        (
            timers_mod.TIMER_WHEEL,
            trace_mod.COLUMNAR,
            bus_mod.FILTERED_DELIVERY,
        ) = saved


def _timed(fn: Callable[[], Any]) -> float:
    """Wall-clock duration of one run of ``fn``."""
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Smallest wall-clock duration of ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        elapsed = _timed(fn)
        if elapsed < best:
            best = elapsed
    return best


def _frame_corpus(count: int) -> List[tuple]:
    """A deterministic mix of extended data/remote frames (no RNG)."""
    corpus = []
    for index in range(count):
        identifier = (index * 0x9E3779B1) & ((1 << 29) - 1)
        remote = index % 3 == 0
        if remote:
            data = b""
        else:
            dlc = index % 9
            data = bytes(((index * 37 + offset * 11) & 0xFF) for offset in range(dlc))
        corpus.append((identifier, data, remote, True))
    return corpus


def bench_frame_encoding(
    quick: bool = False, repeats: Optional[int] = None
) -> Dict[str, Any]:
    """Micro: reference vs cold-fast vs cached wire-length computation."""
    corpus = _frame_corpus(100 if quick else 400)
    rounds = 5 if quick else 20
    reps = repeats if repeats is not None else (3 if quick else 5)

    def run_reference() -> None:
        for _ in range(rounds):
            for frame in corpus:
                exact_frame_bits_reference(*frame)

    def run_cold() -> None:
        for _ in range(rounds):
            clear_encoding_cache()
            for frame in corpus:
                exact_frame_bits(*frame)

    def run_cached() -> None:
        for frame in corpus:
            exact_frame_bits(*frame)
        for _ in range(rounds):
            for frame in corpus:
                exact_frame_bits(*frame)

    encodes = len(corpus) * rounds
    t_reference = _best_of(run_reference, reps)
    t_cold = _best_of(run_cold, reps)
    t_cached = _best_of(run_cached, reps)
    reference_rate = encodes / t_reference
    cold_rate = encodes / t_cold
    cached_rate = encodes / t_cached
    return {
        "unit": "encodes/s",
        "encodes": encodes,
        "reference_value": reference_rate,
        "value": cold_rate,
        "cached_value": cached_rate,
        "speedup": cold_rate / reference_rate,
        "cached_speedup": cached_rate / reference_rate,
    }


def _run_kernel_workload(run_ticks: int) -> int:
    """Surveillance-shaped kernel workload; returns events fired.

    The shape mirrors what the protocol stack does to the kernel without
    any protocol code: a periodic "frame" event whose action (a) restarts
    one watchdog alarm per source — the surveillance-timer rearm that
    dominates failure-detector traffic — and (b) schedules a burst of
    same-instant events at mixed priorities — the fan-out a frame delivery
    produces. Watchdogs outlive the rearm period, so they never fire;
    both cores therefore execute exactly ``frames * (1 + burst)`` events
    and the comparison is on provably identical work. Under the legacy
    core every rearm is a cancel + push (dead dataclass entries sifting
    through the heap) and every event is one ``step()``; the fast core
    reschedules in place and drains equal-time runs in batches.

    The 16-source / 6-burst mix reproduces the rearm density of a small
    (10-node) membership scenario (~2.3 surveillance rearms per fired
    event), so the micro number extrapolates to protocol traffic.
    """
    from repro.sim.kernel import Simulator
    from repro.sim.timers import TimerService
    from repro.sim.trace import TraceRecorder

    sources = 16
    burst = 6
    period = 997
    watch = 16 * period

    sim = Simulator(trace=TraceRecorder(enabled=False))
    service = TimerService(sim)

    def noop() -> None:
        pass

    alarms = [
        service.start_alarm(watch, noop, name="watch") for _ in range(sources)
    ]

    def on_frame() -> None:
        for index in range(sources):
            alarm = alarms[index]
            if not service.restart_alarm(alarm, watch):
                service.cancel_alarm(alarm)
                alarms[index] = service.start_alarm(watch, noop, name="watch")
        for offset in range(burst):
            sim.schedule(0, noop, priority=offset & 1)
        sim.schedule(period, on_frame)

    sim.schedule(0, on_frame)
    sim.run_until(run_ticks)
    return sim.events_processed


def bench_kernel_throughput(
    quick: bool = False, repeats: Optional[int] = None
) -> Dict[str, Any]:
    """Micro: raw kernel events/s on the rearm + burst workload, fast vs seed."""
    run_ticks = 400_000 if quick else 2_000_000
    reps = repeats if repeats is not None else (3 if quick else 5)

    events_fast = _run_kernel_workload(run_ticks)  # warm-up + event count
    with legacy_core():
        events_legacy = _run_kernel_workload(run_ticks)
    if events_fast != events_legacy:
        raise RuntimeError(
            "fast and legacy kernels fired different event counts "
            f"({events_fast} vs {events_legacy}); equivalence is broken"
        )

    def run_legacy() -> None:
        with legacy_core():
            _run_kernel_workload(run_ticks)

    # Interleaved best-of, for the same reason as the macro benchmark.
    t_fast = float("inf")
    t_legacy = float("inf")
    for _ in range(reps):
        t_fast = min(t_fast, _timed(lambda: _run_kernel_workload(run_ticks)))
        t_legacy = min(t_legacy, _timed(run_legacy))
    fast_rate = events_fast / t_fast
    legacy_rate = events_legacy / t_legacy
    return {
        "unit": "events/s",
        "events": events_fast,
        "workload": {
            "run_ticks": run_ticks,
            "sources": 16,
            "burst": 6,
            "period_ticks": 997,
        },
        "reference_value": legacy_rate,
        "value": fast_rate,
        "speedup": fast_rate / legacy_rate,
    }


def _run_canonical_scenario(run_ms: float) -> Dict[str, Any]:
    """The canonical large-membership scenario; returns its outcome.

    The outcome dict carries the event count plus every protocol-level
    observable the throughput benchmark asserts equivalence on: final
    views, physical frame count and wire occupancy.
    """
    config = CanelyConfig(
        capacity=CANONICAL_CONFIG["capacity"],
        tm=ms(CANONICAL_CONFIG["tm_ms"]),
        thb=ms(CANONICAL_CONFIG["thb_ms"]),
        tjoin_wait=ms(CANONICAL_CONFIG["tjoin_wait_ms"]),
    )
    net = CanelyNetwork(node_count=CANONICAL_NODES, config=config)
    net.join_all()
    net.run_for(ms(400))
    net.node(7).crash()
    net.run_for(ms(run_ms))
    assert net.views_agree()
    views = {}
    for node in net.correct_nodes():
        view = node.view()
        views[node.node_id] = (sorted(view.members), view.round_index)
    return {
        "events": net.sim.events_processed,
        "views": views,
        "physical_frames": net.bus.stats.physical_frames,
        "busy_bits": net.bus.stats.busy_bits,
    }


def bench_event_throughput(
    quick: bool = False, repeats: Optional[int] = None
) -> Dict[str, Any]:
    """Macro: events/sec on the canonical scenario, fast core vs seed core.

    The fast side runs the shipped :func:`fast_config` (timer wheel,
    columnar trace, filtered delivery), which trades bit-identical kernel
    bookkeeping for outcome equivalence: the wheel replaces per-alarm
    events with cursor events, so the two cores fire *different event
    counts* on identical protocol work. The runner therefore asserts the
    protocol observables match — views, physical frames, wire occupancy —
    and reports the wall-clock ratio of the identical scenario as the
    speedup.
    """
    run_ms = 200 if quick else 600
    reps = repeats if repeats is not None else (2 if quick else 3)

    with fast_config():
        fast_outcome = _run_canonical_scenario(run_ms)  # warm-up + outcome
        toggles = current_toggles()
    with legacy_core():
        legacy_outcome = _run_canonical_scenario(run_ms)
    for key in ("views", "physical_frames", "busy_bits"):
        if fast_outcome[key] != legacy_outcome[key]:
            raise RuntimeError(
                f"fast and legacy cores disagree on {key} "
                f"({fast_outcome[key]!r} vs {legacy_outcome[key]!r}); "
                "equivalence is broken"
            )

    def run_fast() -> None:
        with fast_config():
            _run_canonical_scenario(run_ms)

    def run_legacy() -> None:
        with legacy_core():
            _run_canonical_scenario(run_ms)

    # Fast and legacy reps alternate so both cores sample the same host
    # conditions: timing all fast reps and then all legacy reps lets any
    # load shift between the two blocks land directly in the reported
    # speedup ratio.
    t_fast = float("inf")
    t_legacy = float("inf")
    for _ in range(reps):
        t_fast = min(t_fast, _timed(run_fast))
        t_legacy = min(t_legacy, _timed(run_legacy))
    events_fast = fast_outcome["events"]
    events_legacy = legacy_outcome["events"]
    return {
        "unit": "events/s",
        "events": events_fast,
        "reference_events": events_legacy,
        "scenario": {
            "nodes": CANONICAL_NODES,
            "run_ms": run_ms,
            **CANONICAL_CONFIG,
        },
        "reference_value": events_legacy / t_legacy,
        "value": events_fast / t_fast,
        # Wall-clock ratio on the identical scenario: the event counts
        # differ between the cores (see docstring), so a rate ratio would
        # conflate bookkeeping volume with speed.
        "speedup": t_legacy / t_fast,
        "toggles": toggles,
    }


def bench_campaign_wallclock(quick: bool = False) -> Dict[str, Any]:
    """Macro: wall-clock of a small sequential in-process campaign.

    The same campaign also runs under the seed core, giving the entry a
    machine-portable ``speedup`` ratio — which is what wires it into the
    CI regression gate (raw wall seconds only compare on a same-machine
    baseline). The corpus is deliberately identical in quick and full
    mode: the speedup ratio shifts with scenario count and horizon (the
    fixed per-scenario setup dilutes it), so a quick CI run is only
    comparable against the committed full-mode baseline if both measure
    the same campaign.
    """
    from repro.campaign import CampaignSpec, run_campaign

    toggles: Dict[str, bool] = {}
    spec = CampaignSpec(
        scenarios=6,
        seed=2003,
        node_min=6,
        node_max=10,
        run_ms=300.0,
    )

    def run_fast() -> List[Any]:
        with fast_config():
            toggles.update(current_toggles())
            return run_campaign(spec, workers=0)

    def run_reference() -> List[Any]:
        with legacy_core():
            return run_campaign(spec, workers=0)

    results = run_fast()  # warm-up + verdicts
    verdicts = sorted(r.verdict for r in results)
    reference_results = run_reference()
    if sorted(r.verdict for r in reference_results) != verdicts:
        raise RuntimeError(
            "fast and legacy cores returned different campaign verdicts; "
            "equivalence is broken"
        )
    # Interleaved best-of-2, for the same reason as the macro benchmark.
    elapsed = float("inf")
    reference_elapsed = float("inf")
    for _ in range(2):
        elapsed = min(elapsed, _timed(run_fast))
        reference_elapsed = min(reference_elapsed, _timed(run_reference))
    return {
        "unit": "s",
        "value": elapsed,
        "reference_value": reference_elapsed,
        "lower_is_better": True,
        "scenarios": spec.scenarios,
        "verdicts": verdicts,
        "speedup": reference_elapsed / elapsed,
        "toggles": toggles,
    }


def _run_surveillance_network(
    node_count: int, run_ms: float
) -> Dict[str, Any]:
    """Full-stack surveillance scenario at ``node_count`` nodes.

    Every node runs the real stack below the membership layer — CAN
    controller, standard layer, timer service, FDA and failure detector —
    and monitors every node (itself included, so silent nodes heartbeat
    with explicit life-signs). One node crashes mid-run; the scenario
    asserts every survivor's detector reports exactly that failure, so
    the sweep measures correct protocol work, not an idling bus. Returns
    the event count and wall seconds of the run.
    """
    from repro.can.bus import CanBus
    from repro.can.controller import CanController
    from repro.can.driver import CanStandardLayer
    from repro.core.failure_detector import FailureDetector
    from repro.core.fda import FdaProtocol
    from repro.sim.kernel import Simulator
    from repro.sim.timers import TimerService

    # ``Ttd`` must cover the synchronized life-sign burst of the whole
    # population draining through the bus; ``for_population`` derives it.
    config = CanelyConfig.for_population(node_count, capacity=64, thb=ms(50))
    started = time.perf_counter()
    sim = Simulator()
    bus = CanBus(sim)
    failures: Dict[int, List[int]] = {}
    for node_id in range(node_count):
        controller = CanController(node_id)
        bus.attach(controller)
        layer = CanStandardLayer(controller)
        timers = TimerService(sim, node=node_id)
        fda = FdaProtocol(layer, sim=sim)
        detector = FailureDetector(layer, timers, config, fda)
        failures[node_id] = []
        detector.on_failure(failures[node_id].append)
        for monitored in range(node_count):
            detector.start(monitored)
    settle = ms(120)
    sim.run_until(settle)
    crashed = node_count // 2
    bus.controller(crashed).crash()
    sim.run_until(settle + config.thb + config.ttd + ms(run_ms))
    elapsed = time.perf_counter() - started
    for node_id, seen in failures.items():
        if node_id != crashed and seen != [crashed]:
            raise RuntimeError(
                f"node {node_id} saw failures {seen}, expected "
                f"[{crashed}]: the scaling scenario is broken"
            )
    return {"events": sim.events_processed, "seconds": elapsed}


class _RowScanColumns:
    """Adapter answering ``category_columns`` through the row path.

    Wraps a (columnar) trace but routes the bulk accessor through the
    base recorder's generic implementation — ``select`` materializing a
    :class:`~repro.sim.trace.TraceRecord` object per match, then
    regathering the columns — which is what every analysis query cost
    before the columnar batch read. Everything else delegates, so the
    adapter drops in anywhere a trace does.
    """

    def __init__(self, trace: Any) -> None:
        self._trace = trace

    def category_columns(self, category: str):
        from repro.sim.trace import TraceRecorder

        return TraceRecorder.category_columns(self._trace, category)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._trace, name)


def bench_qos_compute(
    quick: bool = False, repeats: Optional[int] = None
) -> Dict[str, Any]:
    """Micro: FD-QoS computations/s, columnar batch read vs row scan.

    Records one large-membership scenario (staggered crashes so the
    ``msh.change`` category is wide) under the shipped columnar trace,
    then times :func:`repro.obs.qos.compute_qos` over it — once against
    the trace's native ``category_columns`` and once through
    :class:`_RowScanColumns`. The QoS engine reads the trace *only*
    through the bulk accessor, so the ratio isolates the columnar
    advantage on identical analysis work; the reports must match
    byte-for-byte.
    """
    from repro.obs.qos import compute_qos

    node_count = 24 if quick else CANONICAL_NODES
    reps = repeats if repeats is not None else (2 if quick else 3)
    rounds = 3 if quick else 10

    config = CanelyConfig(
        capacity=CANONICAL_CONFIG["capacity"],
        tm=ms(CANONICAL_CONFIG["tm_ms"]),
        thb=ms(CANONICAL_CONFIG["thb_ms"]),
        tjoin_wait=ms(CANONICAL_CONFIG["tjoin_wait_ms"]),
    )
    with fast_config():
        toggles = current_toggles()
        net = CanelyNetwork(node_count=node_count, config=config)
        net.join_all()
        net.run_for(ms(400))
        base = net.sim.now
        crash_times: Dict[int, int] = {}
        for index, victim in enumerate(range(1, node_count, node_count // 5)):
            at = base + ms(30 * index)
            crash_times[victim] = at
            net.sim.schedule_at(at, net.node(victim).crash)
        net.run_for(ms(150 if quick else 300))

    trace = net.sim.trace
    members = sorted(net.nodes)
    horizon = net.sim.now
    row_view = _RowScanColumns(trace)

    def one(source: Any) -> Any:
        return compute_qos(
            source,
            nodes=members,
            start=base,
            end=horizon,
            crash_times=crash_times,
        )

    fast_report = one(trace)
    if fast_report.to_json() != one(row_view).to_json():
        raise RuntimeError(
            "columnar and row-scan QoS reports differ; the bulk "
            "accessor is broken"
        )

    def run_fast() -> None:
        for _ in range(rounds):
            one(trace)

    def run_reference() -> None:
        for _ in range(rounds):
            one(row_view)

    # Interleaved best-of, for the same reason as the macro benchmark.
    t_fast = float("inf")
    t_reference = float("inf")
    for _ in range(reps):
        t_fast = min(t_fast, _timed(run_fast))
        t_reference = min(t_reference, _timed(run_reference))
    fast_rate = rounds / t_fast
    reference_rate = rounds / t_reference
    return {
        "unit": "computes/s",
        "scenario": {
            "nodes": node_count,
            "crashes": len(crash_times),
            "msh_changes": trace.count("msh.change"),
        },
        "reference_value": reference_rate,
        "value": fast_rate,
        "speedup": fast_rate / reference_rate,
        "toggles": toggles,
    }


def bench_stack_scaling(quick: bool = False) -> Dict[str, Any]:
    """Macro: per-event cost across the :data:`SCALING_NODE_COUNTS` sweep.

    Runs the surveillance scenario at each population under the shipped
    :func:`fast_config` and fits the per-event wall cost curve. A frame
    event's work necessarily touches its recipients, so total cost grows
    with the population — the claim under test is that the *per-event*
    cost does not grow linearly with it: ``cost_ratio`` (largest over
    smallest population) must stay below ``linear_ratio`` (the population
    ratio). The portable gated metric is ``linear_ratio / cost_ratio`` —
    bigger is better, 1.0 is the linear-growth floor.
    """
    run_ms = 60 if quick else 200
    reps = 1 if quick else 2

    per_node: Dict[str, Dict[str, Any]] = {}
    with fast_config():
        toggles = current_toggles()
        for node_count in SCALING_NODE_COUNTS:
            best: Optional[Dict[str, Any]] = None
            for _ in range(reps):
                outcome = _run_surveillance_network(node_count, run_ms)
                if best is None or outcome["seconds"] < best["seconds"]:
                    best = outcome
            assert best is not None
            events = best["events"]
            seconds = best["seconds"]
            per_node[str(node_count)] = {
                "events": events,
                "seconds": round(seconds, 6),
                "events_per_s": events / seconds,
                "cost_us": 1e6 * seconds / events,
            }

    smallest = per_node[str(SCALING_NODE_COUNTS[0])]
    largest = per_node[str(SCALING_NODE_COUNTS[-1])]
    cost_ratio = largest["cost_us"] / smallest["cost_us"]
    linear_ratio = SCALING_NODE_COUNTS[-1] / SCALING_NODE_COUNTS[0]
    return {
        "unit": "events/s",
        "value": largest["events_per_s"],
        "nodes": list(SCALING_NODE_COUNTS),
        "run_ms": run_ms,
        "per_node": per_node,
        "cost_ratio": cost_ratio,
        "linear_ratio": linear_ratio,
        "sublinear": cost_ratio < linear_ratio,
        "speedup": linear_ratio / cost_ratio,
        "toggles": toggles,
    }


def current_toggles() -> Dict[str, bool]:
    """The state of every switchable fast path, read from the live modules."""
    import repro.can.bus as bus_mod
    import repro.sim.kernel as kernel_mod
    import repro.sim.timers as timers_mod
    import repro.sim.trace as trace_mod
    from repro.sim.event import EventQueue
    from repro.workloads.builder import DEFAULT_IDLE_SKIP

    return {
        "batch_dispatch": kernel_mod.BATCH_DISPATCH,
        "fast_rearm": timers_mod.FAST_REARM,
        "tuple_entries": bool(getattr(EventQueue, "TUPLE_ENTRIES", False)),
        "idle_skip": DEFAULT_IDLE_SKIP,
        "timer_wheel": timers_mod.TIMER_WHEEL,
        "filtered_delivery": bus_mod.FILTERED_DELIVERY,
        "columnar_trace": trace_mod.COLUMNAR,
    }


def environment() -> Dict[str, Any]:
    """Host metadata stamped into every report.

    ``toggles`` records the module defaults of every switchable fast path
    at report time. The configuration a benchmark actually timed is in
    its own result's ``toggles`` block: the benchmarks that run under
    :func:`fast_config` read it inside that context, the others when they
    start. (Reports written before results carried the block have only
    the defaults, which do not describe the ``fast_config`` benchmarks.)
    """
    from repro.perf import compiled

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "compiled": compiled.status(),
        "toggles": current_toggles(),
    }


#: The suite, in execution order; ``run_benchmarks(only=...)`` filters it.
BENCHMARKS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "frame_encoding": bench_frame_encoding,
    "kernel_throughput": bench_kernel_throughput,
    "event_throughput": bench_event_throughput,
    "campaign_wallclock": lambda quick, repeats: bench_campaign_wallclock(
        quick=quick
    ),
    "qos_compute": bench_qos_compute,
    "stack_scaling": lambda quick, repeats: bench_stack_scaling(quick=quick),
}


def run_benchmarks(
    quick: bool = False,
    repeats: Optional[int] = None,
    only: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Run the suite and return the report dict (``SCHEMA`` layout).

    ``only`` restricts the run to the named benchmarks (suite order is
    kept); unknown names raise so a CI job cannot silently gate nothing.
    """
    if only:
        unknown = sorted(set(only) - set(BENCHMARKS))
        if unknown:
            raise ValueError(
                f"unknown benchmarks: {', '.join(unknown)} "
                f"(available: {', '.join(BENCHMARKS)})"
            )
        selected = [name for name in BENCHMARKS if name in set(only)]
    else:
        selected = list(BENCHMARKS)
    results = {}
    for name in selected:
        toggles = current_toggles()
        results[name] = BENCHMARKS[name](quick=quick, repeats=repeats)
        results[name].setdefault("toggles", toggles)
    return {
        "schema": SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": quick,
        "environment": environment(),
        "encoding_cache": encoding_cache_info(),
        "results": results,
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write ``report`` as pretty-printed JSON (trailing newline included)."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    """Load a report produced by :func:`write_report`."""
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported schema {report.get('schema')!r}, "
            f"expected {SCHEMA!r}"
        )
    return report


def _comparable_metrics(entry: Dict[str, Any]) -> Dict[str, float]:
    """The metrics of one result entry that participate in regression checks.

    ``speedup`` ratios are machine-portable and always compared; raw
    values are compared too (same-machine baselines), inverted for
    lower-is-better entries so "bigger is better" holds uniformly.
    """
    metrics: Dict[str, float] = {}
    if "speedup" in entry:
        metrics["speedup"] = entry["speedup"]
    value = entry.get("value")
    if isinstance(value, (int, float)) and value > 0:
        if entry.get("lower_is_better"):
            metrics["value"] = 1.0 / value
        else:
            metrics["value"] = float(value)
    return metrics


def compare_reports(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    portable_only: bool = False,
) -> List[str]:
    """Regressions of ``current`` against ``baseline``.

    Returns human-readable descriptions of every metric that dropped by
    more than ``threshold`` (a fraction, e.g. ``0.25``). With
    ``portable_only`` only machine-independent ``speedup`` ratios are
    checked — the right mode when baseline and current ran on different
    hardware.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1): {threshold}")
    regressions: List[str] = []
    base_results = baseline.get("results", {})
    for name, entry in current.get("results", {}).items():
        base_entry = base_results.get(name)
        if base_entry is None:
            continue
        base_metrics = _comparable_metrics(base_entry)
        for metric, now in _comparable_metrics(entry).items():
            if portable_only and metric != "speedup":
                continue
            then = base_metrics.get(metric)
            if then is None or then <= 0:
                continue
            if now < then * (1.0 - threshold):
                drop = 100.0 * (1.0 - now / then)
                regressions.append(
                    f"{name}.{metric}: {now:.4g} vs baseline "
                    f"{then:.4g} (-{drop:.1f}%, threshold "
                    f"{threshold * 100:.0f}%)"
                )
    return regressions


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable one-line-per-benchmark rendering of a report."""
    lines = [
        f"bench report ({report.get('generated_at', '?')}, "
        f"quick={report.get('quick', False)}, "
        f"python {report.get('environment', {}).get('python', '?')})"
    ]
    for name, entry in report.get("results", {}).items():
        unit = entry.get("unit", "")
        value = entry.get("value")
        line = f"  {name:<22} {value:>12.4g} {unit}"
        if "reference_value" in entry:
            line += f"  (reference {entry['reference_value']:.4g}, "
            line += f"speedup {entry.get('speedup', 0):.2f}x"
            if "cached_speedup" in entry:
                line += f", cached {entry['cached_speedup']:.0f}x"
            line += ")"
        lines.append(line)
    return "\n".join(lines)
