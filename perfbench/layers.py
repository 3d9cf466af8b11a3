"""Per-layer host-time tracing for the benchmark's traced run.

The traced run wraps the public entry points of every layer from here,
never from inside ``src/``: class methods are swapped for timing wrappers
for the duration of one pass, and callbacks handed to the kernel, the
timer service and the CAN standard layer are wrapped at registration
(the failure detector's hot ``can-data.nty`` upcall has no public name,
so its registration is where it can be seen).

Spans are aggregated in memory as they close: a layer's *self* time is
each span's duration minus the time its child spans cover, so the self
times of all layers, the harness root included, sum to the traced wall
time. Counts are call counts at the same boundaries; together with the
simulator's own counters they are exact and repeat run to run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Module prefix -> layer, first match wins. Layers are named after the
#: modules they cover; anything unlisted falls back to ``<package>.<module>``.
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.kernel", "sim.kernel"),
    ("repro.sim.event", "sim.kernel"),
    ("repro.sim.timers", "sim.timers"),
    ("repro.sim.wheel", "sim.timers"),
    ("repro.sim.trace", "sim.trace"),
    ("repro.can.bus", "can.bus"),
    ("repro.can.controller", "can.bus"),
    ("repro.can.driver", "can.driver"),
    ("repro.can.errormodel", "can.errormodel"),
    ("repro.can.gateway", "can.gateway"),
    ("repro.core.failure_detector", "core.failure_detector"),
    ("repro.core.fda", "core.agreement"),
    ("repro.core.rha", "core.agreement"),
    ("repro.core.membership", "core.membership"),
    ("repro.swim", "swim.protocol"),
    ("repro.workloads.builder", "workloads.builder"),
    ("repro.obs.qos", "obs.qos"),
    ("repro.llc.properties", "llc.properties"),
    ("repro.obs.critical_path", "obs.critical_path"),
    ("repro.obs.monitors", "obs.monitors"),
    ("repro.check", "check.runner"),
    ("repro.campaign", "campaign.engine"),
)

HARNESS = "harness"


def layer_of(module: Optional[str]) -> str:
    """The layer a module belongs to."""
    if not module:
        return HARNESS
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    if module.startswith("repro."):
        return ".".join(module.split(".")[1:3])
    return HARNESS


def _callable_module(fn: Callable) -> Optional[str]:
    target = getattr(fn, "__func__", fn)
    return getattr(target, "__module__", None)


def _callable_name(fn: Callable) -> str:
    target = getattr(fn, "__func__", fn)
    return getattr(target, "__qualname__", type(fn).__name__)


class LayerTracer:
    """Aggregated spans: calls and inclusive time per entry point, self
    time per layer, plus named counts."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.entry_self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Open spans: [child seconds, entry name].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def wrap(self, fn: Callable, entry: str, layer: str) -> Callable:
        """``fn`` recorded as a span named ``entry`` in ``layer``."""
        stack = self._stack
        calls = self.calls
        inclusive = self.inclusive_s
        self_s = self.self_s
        entry_self_s = self.entry_self_s

        def traced(*args, **kwargs):
            frame = [0.0, entry]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                calls[entry] += 1
                inclusive[entry] += elapsed
                own = elapsed - frame[0]
                self_s[layer] += own
                entry_self_s[entry] += own
                if stack:
                    stack[-1][0] += elapsed

        traced.perfbench_span = entry
        return traced

    def wrap_callback(self, fn: Callable, kind: str) -> Callable:
        """A registered callback, as a span in the layer of its module."""
        if getattr(fn, "perfbench_span", None) is not None:
            return fn
        entry = f"{kind}->{_callable_name(fn)}"
        return self.wrap(fn, entry, layer_of(_callable_module(fn)))

    def caller_entry(self) -> Optional[str]:
        """Entry name of the span enclosing the innermost open one."""
        return self._stack[-2][1] if len(self._stack) > 1 else None

    # -- patching --------------------------------------------------------------

    def patch(self, owner: object, name: str, replacement: object) -> None:
        """Set ``owner.name`` until :meth:`restore`."""
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def patch_method(
        self, cls: type, name: str, layer: str, entry: Optional[str] = None
    ) -> None:
        """Time ``cls.name`` (only where ``cls`` defines it itself)."""
        if name not in cls.__dict__:
            return
        original = cls.__dict__[name]
        self.patch(cls, name, self.wrap(
            original, entry or f"{cls.__name__}.{name}", layer
        ))

    def patch_function(self, module: object, name: str, layer: str) -> None:
        """Time the module-level function ``module.name``."""
        self.patch(module, name, self.wrap(
            module.__dict__[name], f"{name}", layer
        ))

    def patch_registration(
        self, cls: type, name: str, kind: str, arg_index: int,
        keyword: str,
    ) -> None:
        """Wrap the callback argument of ``cls.name`` at registration."""
        original = cls.__dict__[name]
        wrap_callback = self.wrap_callback

        def registering(self_, *args, **kwargs):
            if keyword in kwargs:
                kwargs[keyword] = wrap_callback(kwargs[keyword], kind)
            else:
                args = list(args)
                args[arg_index] = wrap_callback(args[arg_index], kind)
            return original(self_, *args, **kwargs)

        self.patch(cls, name, registering)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- aggregates ------------------------------------------------------------

    def calls_matching(self, prefix: str) -> int:
        """Total calls of entries whose name starts with ``prefix``."""
        return sum(n for e, n in self.calls.items() if e.startswith(prefix))

    def inclusive(self, *names: str) -> float:
        """Total inclusive seconds of the named entries."""
        return sum(self.inclusive_s.get(name, 0.0) for name in names)

    def entry_self(self, *names: str) -> float:
        """Total self seconds of the named entries."""
        return sum(self.entry_self_s.get(name, 0.0) for name in names)


_TRACE_READS = (
    "TraceRecorder.select", "TraceRecorder.category_columns",
    "ColumnarTraceRecorder.select", "ColumnarTraceRecorder.category_columns",
)


def install(tracer: LayerTracer) -> None:
    """Wrap every traced entry point; undo with ``tracer.restore()``."""
    import repro.check.runner as check_runner
    import repro.check.sweep as check_sweep
    import repro.obs.monitors as monitors
    from repro.can.controller import CanController
    from repro.can.driver import CanStandardLayer
    from repro.core.failure_detector import FailureDetector
    from repro.core.fda import FdaProtocol
    from repro.core.rha import RhaProtocol
    from repro.sim.event import Event, EventQueue
    from repro.sim.kernel import Simulator
    from repro.sim.timers import TimerService
    from repro.sim.trace import ColumnarTraceRecorder, TraceRecorder
    from repro.workloads.builder import ScenarioBuilder

    for name in ("run_until", "run_for"):
        tracer.patch_method(Simulator, name, "sim.kernel")
    tracer.patch_registration(Simulator, "schedule", "event", 1, "action")
    tracer.patch_registration(Simulator, "schedule_at", "event", 1, "action")
    tracer.patch_method(Event, "cancel", "sim.kernel", "Event.cancel")
    _patch_reschedule(tracer, EventQueue)

    for name in ("restart_alarm", "cancel_alarm"):
        tracer.patch_method(TimerService, name, "sim.timers")
    start_alarm = TimerService.__dict__["start_alarm"]
    wrap_callback = tracer.wrap_callback

    def start_alarm_registering(self, duration, on_expire, *args, **kwargs):
        return start_alarm(
            self, duration, wrap_callback(on_expire, "alarm"), *args, **kwargs
        )

    tracer.patch(TimerService, "start_alarm", tracer.wrap(
        start_alarm_registering, "TimerService.start_alarm", "sim.timers"
    ))

    for name in ("submit", "deliver"):
        tracer.patch_method(CanController, name, "can.bus")
    for name in ("data_req", "rtr_req", "abort_req"):
        tracer.patch_method(CanStandardLayer, name, "can.driver")
    tracer.patch_registration(CanStandardLayer, "add_data_nty", "nty", 0, "listener")
    for name, kind in (
        ("add_data_ind", "ind"), ("add_rtr_ind", "rtr"),
        ("add_data_cnf", "cnf"), ("add_rtr_cnf", "rtrcnf"),
    ):
        tracer.patch_registration(CanStandardLayer, name, kind, 0, "listener")
    tracer.patch_registration(
        FailureDetector, "on_failure", "failure", 0, "callback"
    )
    tracer.patch_registration(
        FdaProtocol, "on_failure_sign", "failure_sign", 0, "callback"
    )
    tracer.patch_method(FdaProtocol, "request", "core.agreement")
    tracer.patch_method(RhaProtocol, "request", "core.agreement")

    for cls in (TraceRecorder, ColumnarTraceRecorder):
        for name in ("record", "record_row"):
            tracer.patch_method(cls, name, "sim.trace")
        for name in ("select", "category_columns"):
            _patch_trace_read(tracer, cls, name)

    for cls in _subclasses(monitors.InvariantMonitor):
        tracer.patch_method(cls, "observe", "obs.monitors", "monitor.observe")
    tracer.patch_function(check_runner, "trace_fingerprint", "check.runner")
    tracer.patch_method(ScenarioBuilder, "bootstrap", "workloads.builder")
    tracer.patch_function(check_sweep, "run_schedule", "check.runner")
    tracer.patch_function(check_sweep, "explore", "campaign.engine")
    tracer.patch_function(check_sweep, "run_campaign", "campaign.engine")

    # The analysis entry points, where the workloads and the library look
    # them up (the benchmark calls them through their home modules).
    import repro.analysis.latency as latency
    import repro.llc.properties as properties
    import repro.obs.critical_path as critical_path
    import repro.obs.qos as qos
    import repro.scenarios.runner as scenarios_runner

    tracer.patch_function(qos, "compute_qos", "obs.qos")
    tracer.patch_function(scenarios_runner, "compute_qos", "obs.qos")
    tracer.patch_function(scenarios_runner, "run_recipe", "scenarios.runner")
    tracer.patch_function(properties, "check_all_properties", "llc.properties")
    for name in ("detection_path", "notification_path", "view_update_path"):
        tracer.patch_function(critical_path, name, "obs.critical_path")
    tracer.patch_function(
        latency, "measured_detection_latencies", "analysis.latency"
    )


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _patch_reschedule(tracer: LayerTracer, queue_cls: type) -> None:
    """``EventQueue.reschedule``, counting a timer op only when it is not
    already inside ``restart_alarm`` (the failure detector's inlined
    re-arm calls it directly)."""
    original = queue_cls.__dict__["reschedule"]
    counts = tracer.counts
    caller_entry = tracer.caller_entry

    def reschedule(self, event, time):
        if caller_entry() != "TimerService.restart_alarm":
            counts["timer_ops.direct_reschedule"] += 1
        return original(self, event, time)

    tracer.patch(queue_cls, "reschedule", tracer.wrap(
        reschedule, "EventQueue.reschedule", "sim.kernel"
    ))


def _patch_trace_read(tracer: LayerTracer, cls: type, name: str) -> None:
    """A trace read, counting the rows it returns at the outermost read."""
    if name not in cls.__dict__:
        return
    original = cls.__dict__[name]
    counts = tracer.counts
    caller_entry = tracer.caller_entry
    column = name == "category_columns"

    def read(self, *args, **kwargs):
        outer = caller_entry() not in _TRACE_READS
        result = original(self, *args, **kwargs)
        if outer:
            counts["trace.rows_read"] += len(result[0] if column else result)
        return result

    tracer.patch(cls, name, tracer.wrap(
        read, f"{cls.__name__}.{name}", "sim.trace"
    ))


#: Per-layer metrics of the traced run: name -> unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "kernel.events": "count",
    "kernel.events_per_frame": "count/frame",
    "kernel.self_s": "s",
    "event.reschedules_per_frame": "count/frame",
    "timers.ops_per_frame": "count/frame",
    "timers.useful_share": "share",
    "timers.self_s": "s",
    "trace.rows_per_frame": "count/frame",
    "trace.deliver_row_share": "share",
    "trace.write_s": "s",
    "trace.read_s": "s",
    "trace.rows_read": "count",
    "bus.frames": "count",
    "bus.deliveries_per_frame": "count/frame",
    "bus.error_frames": "count",
    "bus.self_s": "s",
    "driver.nty_per_frame": "count/frame",
    "driver.self_s": "s",
    "errormodel.omissions": "count",
    "gateway.forwarded": "count",
    "gateway.dropped": "count",
    "fd.activity_per_frame": "count/frame",
    "fd.detections": "count",
    "fd.self_s": "s",
    "fda.requests": "count",
    "fda.delivered": "count",
    "rha.executions": "count",
    "agreement.self_s": "s",
    "msh.views_installed": "count",
    "msh.self_s": "s",
    "swim.suspects": "count",
    "swim.self_s": "s",
    "bootstrap.s_per_op": "s",
    "qos.s": "s",
    "properties.s": "s",
    "critical_path.s": "s",
    "spans.recorded": "count",
    "monitors.s": "s",
    "check.fingerprint_s": "s",
    "campaign.overhead_s": "s",
    "tracing.overhead_pct": "%",
}

_TRACE_WRITES = (
    "TraceRecorder.record", "TraceRecorder.record_row",
    "ColumnarTraceRecorder.record", "ColumnarTraceRecorder.record_row",
)


#: Standard-layer upcall registrations (can-data.nty, can-data.ind,
#: can-rtr.ind): every delivered frame fans out through one of them.
_UPCALLS = ("nty->", "ind->", "rtr->")


def exact_counts(tracer: LayerTracer, counters: Dict[str, int]) -> Dict[str, int]:
    """Everything a traced pass counts: must repeat exactly run to run."""
    counts = {f"calls:{name}": n for name, n in tracer.calls.items()}
    counts.update({f"count:{name}": n for name, n in tracer.counts.items()})
    counts.update({f"program:{name}": n for name, n in counters.items()})
    return dict(sorted(counts.items()))


def per_layer_metrics(
    tracers: List[LayerTracer],
    counters: Dict[str, int],
    traced_wall_s: float,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    Counts come from the first tracer (every traced pass counts the same);
    times are the mean over ``tracers``. ``traced_wall_s`` and
    ``untraced_wall_s`` are per pass.
    """
    first = tracers[0]
    passes = len(tracers)

    def self_of(layer: str) -> float:
        return sum(t.self_s.get(layer, 0.0) for t in tracers) / passes

    def inclusive(*names: str) -> float:
        return sum(t.inclusive(*names) for t in tracers) / passes

    def entry_self(*names: str) -> float:
        return sum(t.entry_self(*names) for t in tracers) / passes

    calls = first.calls
    frames = counters.get("bus.frames", 0)

    def per_frame(value: float) -> float:
        return value / frames if frames else 0.0

    timer_ops = (
        calls.get("TimerService.start_alarm", 0)
        + calls.get("TimerService.restart_alarm", 0)
        + calls.get("TimerService.cancel_alarm", 0)
        + first.counts.get("timer_ops.direct_reschedule", 0)
    )
    alarms_fired = first.calls_matching("alarm->")
    fd_activity = sum(
        n for name, n in calls.items()
        if name.endswith("->FailureDetector._on_activity")
    )
    rows = counters.get("trace.rows", 0)
    bootstraps = calls.get("ScenarioBuilder.bootstrap", 0)
    return {
        "kernel.events": counters.get("kernel.events", 0),
        "kernel.events_per_frame": per_frame(counters.get("kernel.events", 0)),
        "kernel.self_s": self_of("sim.kernel"),
        "event.reschedules_per_frame": per_frame(
            calls.get("EventQueue.reschedule", 0)
        ),
        "timers.ops_per_frame": per_frame(timer_ops),
        "timers.useful_share": alarms_fired / timer_ops if timer_ops else 0.0,
        "timers.self_s": self_of("sim.timers"),
        "trace.rows_per_frame": per_frame(rows),
        "trace.deliver_row_share": (
            counters.get("trace.deliver_rows", 0) / rows if rows else 0.0
        ),
        "trace.write_s": entry_self(*_TRACE_WRITES),
        "trace.read_s": entry_self(*_TRACE_READS),
        "trace.rows_read": first.counts.get("trace.rows_read", 0),
        "bus.frames": frames,
        "bus.deliveries_per_frame": per_frame(
            counters.get("trace.deliver_rows", 0)
        ),
        "bus.error_frames": counters.get("bus.error_frames", 0),
        "bus.self_s": self_of("can.bus"),
        "driver.nty_per_frame": per_frame(
            sum(first.calls_matching(kind) for kind in _UPCALLS)
        ),
        "driver.self_s": self_of("can.driver"),
        "errormodel.omissions": counters.get("errormodel.omissions", 0),
        "gateway.forwarded": counters.get("gateway.forwarded", 0),
        "gateway.dropped": counters.get("gateway.dropped", 0),
        "fd.activity_per_frame": per_frame(fd_activity),
        "fd.detections": counters.get("fd.detections", 0),
        "fd.self_s": self_of("core.failure_detector"),
        "fda.requests": counters.get("fda.requests", 0),
        "fda.delivered": counters.get("fda.delivered", 0),
        "rha.executions": counters.get("rha.executions", 0),
        "agreement.self_s": self_of("core.agreement"),
        "msh.views_installed": counters.get("msh.views_installed", 0),
        "msh.self_s": self_of("core.membership"),
        "swim.suspects": counters.get("swim.suspects", 0),
        "swim.self_s": self_of("swim.protocol"),
        "bootstrap.s_per_op": (
            inclusive("ScenarioBuilder.bootstrap") / bootstraps
            if bootstraps else 0.0
        ),
        "qos.s": inclusive("compute_qos"),
        "properties.s": inclusive("check_all_properties"),
        "critical_path.s": inclusive(
            "detection_path", "notification_path", "view_update_path"
        ),
        "spans.recorded": counters.get("spans.recorded", 0),
        "monitors.s": inclusive("monitor.observe"),
        "check.fingerprint_s": inclusive("trace_fingerprint"),
        "campaign.overhead_s": self_of("campaign.engine"),
        "tracing.overhead_pct": 100.0 * traced_wall_s / untraced_wall_s,
    }


def layer_shares(tracers: List[LayerTracer]) -> List[Tuple[str, float, float]]:
    """(layer, mean self seconds, share of the total), largest first."""
    totals: Dict[str, float] = defaultdict(float)
    for tracer in tracers:
        for layer, seconds in tracer.self_s.items():
            totals[layer] += seconds / len(tracers)
    whole = sum(totals.values()) or 1.0
    return sorted(
        ((layer, s, s / whole) for layer, s in totals.items()),
        key=lambda row: -row[1],
    )
