"""Trace post-processing: human-readable timelines and summaries.

The simulator records everything that happens on the bus and in the
protocol layers; this module turns a finished trace into things a human
(or a benchmark report) wants: a chronological event timeline, per-type
frame statistics and a bandwidth profile over time windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.can.records import SEED_DELIVER
from repro.sim.clock import format_time
from repro.sim.trace import TraceRecord, TraceRecorder


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics of one simulation trace.

    Attributes:
        duration: time of the last record, in ticks.
        physical_frames: transmissions on the bus.
        faulty_frames: transmissions hit by the injector.
        frames_by_type: physical frame count per message type name.
        crashes: nodes that crashed.
        view_changes: membership view updates recorded.
        change_notifications: ``msh-can.nty`` deliveries recorded.
    """

    duration: int
    physical_frames: int
    faulty_frames: int
    frames_by_type: Dict[str, int]
    crashes: List[int]
    view_changes: int
    change_notifications: int


def summarize(trace: TraceRecorder) -> TraceSummary:
    """Compute a :class:`TraceSummary` from a finished trace.

    Runs on the recorder's category indexes, so the cost is proportional
    to the bus transmissions, not the total record count.
    """
    faulty_frames = 0
    frames_by_type: Dict[str, int] = {}
    for record in trace.select(category="bus.tx"):
        if record.data["kind"] != "none":
            faulty_frames += 1
        type_name = record.data["mid"].mtype.name
        frames_by_type[type_name] = frames_by_type.get(type_name, 0) + 1
    return TraceSummary(
        duration=trace.last_time,
        physical_frames=trace.count("bus.tx"),
        faulty_frames=faulty_frames,
        frames_by_type=frames_by_type,
        crashes=[r.node for r in trace.select(category="node.crash")],
        view_changes=trace.count("msh.view"),
        change_notifications=trace.count("msh.change"),
    )


def _describe(record: TraceRecord) -> str:
    data = record.data
    if record.category == "bus.tx":
        mid = data["mid"]
        kind = "" if data["kind"] == "none" else f" [{data['kind'].upper()}]"
        cluster = (
            f" x{len(data['senders'])}" if len(data["senders"]) > 1 else ""
        )
        frame = "RTR" if data.get("remote") else "DATA"
        return (
            f"bus: {frame} {mid.mtype.name} node={mid.node} "
            f"ref={mid.ref}{cluster}{kind}"
        )
    if record.category == SEED_DELIVER:
        return ""  # the seed core's per-receiver rows; covered by bus.tx
    if record.category == "node.crash":
        return f"node {record.node} CRASHED"
    if record.category == "node.recover":
        return f"node {record.node} recovered"
    if record.category == "msh.view":
        members = sorted(data["members"])
        return f"node {record.node} view -> {members}"
    if record.category == "msh.change":
        active = sorted(data["active"])
        failed = sorted(data["failed"])
        return f"node {record.node} notified: active={active} failed={failed}"
    if record.category == "bus.inaccessible":
        return f"bus inaccessible for {data['bits']} bit-times"
    return f"{record.category} node={record.node} {data}"


#: Observability records (monitor/metrics feeds) mirror protocol events the
#: timeline already shows via ``bus.tx``/``msh.change``; rendering them too
#: would only duplicate lines, once per receiving node.
_OBSERVABILITY_CATEGORIES = frozenset(
    ("fd.detect", "fda.nty", "fda.reset", "fda.evict")
)


def timeline(
    trace: TraceRecorder,
    start: int = 0,
    end: Optional[int] = None,
    include_views: bool = False,
    limit: Optional[int] = None,
) -> List[str]:
    """Render the trace as chronological human-readable lines.

    Per-node view updates are suppressed unless ``include_views`` is set —
    they repeat once per node per cycle and drown everything else.
    """
    lines: List[str] = []
    for record in trace:
        if record.time < start:
            continue
        if end is not None and record.time > end:
            continue
        if record.category in _OBSERVABILITY_CATEGORIES:
            continue
        if record.category in ("msh.view",) and not include_views:
            continue
        description = _describe(record)
        if not description:
            continue
        lines.append(f"{format_time(record.time):>12}  {description}")
        if limit is not None and len(lines) >= limit:
            break
    return lines


def bandwidth_profile(
    trace: TraceRecorder, window: int
) -> List[Tuple[int, int]]:
    """Bus bits consumed per ``window`` of simulated time.

    Returns ``(window_start, bits)`` pairs covering the whole trace; useful
    for plotting load over a scenario.
    """
    buckets: Dict[int, int] = {}
    for record in trace.select(category="bus.tx"):
        bucket = (record.time // window) * window
        buckets[bucket] = buckets.get(bucket, 0) + record.data["bits"]
    if not buckets:
        return []
    last = max(buckets)
    return [(start, buckets.get(start, 0)) for start in range(0, last + window, window)]


def view_history(
    trace: TraceRecorder, node: int
) -> List[Tuple[int, List[int]]]:
    """The sequence of membership views one node held, ``(time, members)``.

    Consecutive identical views are collapsed, so the result is the node's
    *view change* history — handy for asserting view-synchrony-style
    properties in tests.
    """
    history: List[Tuple[int, List[int]]] = []
    for record in trace.select(category="msh.view", node=node):
        members = sorted(record.data["members"])
        if not history or history[-1][1] != members:
            history.append((record.time, members))
    return history
