"""Runtime monitors for the system-model properties (paper Figs. 2 and 3).

These monitors scan a finished simulation trace and report violations of the
MCAN (MAC-level) and LCAN (LLC-level) properties that the CANELy protocols
assume. They are used by integration and property-based tests to certify
that the simulated substrate really provides the modelled CAN semantics, and
that the fault injector respects the degree bounds.

Checked properties:

* **MCAN1 (Broadcast)** — all nodes accepting one uncorrupted physical
  transmission received the same frame.
* **MCAN2 (Error detection)** — no node delivers a frame from a consistently
  corrupted transmission.
* **MCAN3 (Bounded omission degree)** — at most ``k`` omissions per
  reference window.
* **LCAN1 (Validity)** — a message broadcast by a correct node is delivered
  to at least one correct node.
* **LCAN2 (Best-effort agreement)** — a message delivered to a correct node
  whose sender stayed correct is delivered to every correct node.
* **LCAN3 (At-least-once delivery)** — duplicates only ever follow an
  inconsistent transmission of the same identifier.
* **LCAN4 (Bounded inconsistent omission degree)** — at most ``j``
  inconsistent omissions per reference window.

MCAN4 (bounded transmission delay) is a timeliness property; it is verified
analytically by :mod:`repro.analysis.timing` and asserted in tests against
measured queue-to-wire latencies rather than from the trace alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.can.records import deliveries
from repro.sim.trace import TraceRecorder


@dataclass
class PropertyReport:
    """Outcome of a property-monitor pass."""

    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no property was violated."""
        return not self.violations

    def extend(self, other: "PropertyReport") -> None:
        self.violations.extend(other.violations)


class _Deliveries:
    """A trace's deliveries, read once: one entry per physical frame.

    The checks loop over frames and their receiver tuples; nothing here
    builds a record per delivery.
    """

    def __init__(self, trace: TraceRecorder) -> None:
        self.frames = list(deliveries(trace))
        #: mid -> the receiver tuple of every frame that carried it, in
        #: trace order (dict order: first delivery of each mid).
        self.by_mid: Dict[object, List[Tuple[int, ...]]] = {}
        for frame in self.frames:
            self.by_mid.setdefault(frame.mid, []).append(frame.receivers)
        self._reached: Dict[object, Set[int]] = {}

    def reached(self, mid: object) -> Set[int]:
        """Every node that received ``mid`` at least once."""
        nodes = self._reached.get(mid)
        if nodes is None:
            nodes = self._reached[mid] = set().union(
                *self.by_mid.get(mid, ())
            )
        return nodes


def _crashed_nodes(trace: TraceRecorder) -> Set[int]:
    return {record.node for record in trace.select(category="node.crash")}


def _tx_columns(trace: TraceRecorder) -> List[Tuple[int, dict]]:
    times, _nodes, payloads = trace.category_columns("bus.tx")
    return list(zip(times, payloads))


def check_mcan1_broadcast(trace: TraceRecorder) -> PropertyReport:
    """All deliveries at one completion instant carry the transmitted frame."""
    return _mcan1(trace, _Deliveries(trace))


def _mcan1(trace: TraceRecorder, index: _Deliveries) -> PropertyReport:
    report = PropertyReport()
    carried = {time: data["mid"] for time, data in _tx_columns(trace)}
    for frame in index.frames:
        if frame.time not in carried:
            report.violations.extend(
                f"MCAN1: delivery at t={frame.time} without a transmission"
                for _node in frame.receivers
            )
            continue
        if frame.mid != carried[frame.time]:
            report.violations.extend(
                f"MCAN1: node {node} received {frame.mid!r} but the bus "
                f"carried {carried[frame.time]!r} at t={frame.time}"
                for node in frame.receivers
            )
    return report


def check_mcan2_error_detection(trace: TraceRecorder) -> PropertyReport:
    """Consistently corrupted transmissions are delivered to nobody."""
    return _mcan2(trace, _Deliveries(trace))


def _mcan2(trace: TraceRecorder, index: _Deliveries) -> PropertyReport:
    report = PropertyReport()
    corrupted_times = {
        time
        for time, data in _tx_columns(trace)
        if data["kind"] == "consistent"
    }
    for frame in index.frames:
        if frame.time in corrupted_times:
            report.violations.extend(
                f"MCAN2: node {node} delivered a frame from a "
                f"corrupted transmission at t={frame.time}"
                for node in frame.receivers
            )
    return report


def _window_violation(
    times: List[int], bound: int, window: int, label: str
) -> Optional[str]:
    times = sorted(times)
    start = 0
    for end in range(len(times)):
        while times[end] - times[start] > window:
            start += 1
        if end - start + 1 > bound:
            return (
                f"{label}: {end - start + 1} omissions within a "
                f"{window}-tick window (bound {bound})"
            )
    return None


def check_mcan3_omission_degree(
    trace: TraceRecorder, omission_degree: int, window: int
) -> PropertyReport:
    """At most ``k`` omissions in any reference window."""
    report = PropertyReport()
    times = [
        time for time, data in _tx_columns(trace) if data["kind"] != "none"
    ]
    violation = _window_violation(times, omission_degree, window, "MCAN3")
    if violation:
        report.violations.append(violation)
    return report


def check_lcan4_inconsistent_degree(
    trace: TraceRecorder, inconsistent_degree: int, window: int
) -> PropertyReport:
    """At most ``j`` inconsistent omissions in any reference window."""
    report = PropertyReport()
    times = [
        time
        for time, data in _tx_columns(trace)
        if data["kind"] == "inconsistent"
    ]
    violation = _window_violation(times, inconsistent_degree, window, "LCAN4")
    if violation:
        report.violations.append(violation)
    return report


def check_lcan1_validity(
    trace: TraceRecorder, correct_nodes: Iterable[int]
) -> PropertyReport:
    """Messages sent by correct nodes reach at least one correct node."""
    return _lcan1(trace, _Deliveries(trace), set(correct_nodes))


def _lcan1(
    trace: TraceRecorder, index: _Deliveries, correct: Set[int]
) -> PropertyReport:
    report = PropertyReport()
    for _time, data in _tx_columns(trace):
        senders = set(data["senders"])
        if not senders & correct:
            continue
        mid = data["mid"]
        if not index.reached(mid) & correct:
            report.violations.append(
                f"LCAN1: {mid!r} sent by correct node(s) {sorted(senders)} "
                "was never delivered to any correct node"
            )
    return report


def check_lcan2_agreement(
    trace: TraceRecorder, correct_nodes: Iterable[int]
) -> PropertyReport:
    """Delivery at one correct node + correct sender => delivery at all."""
    return _lcan2(trace, _Deliveries(trace), set(correct_nodes))


def _lcan2(
    trace: TraceRecorder, index: _Deliveries, correct: Set[int]
) -> PropertyReport:
    report = PropertyReport()
    crashed = _crashed_nodes(trace)
    for mid in index.by_mid:
        sender = getattr(mid, "node", None)
        if sender is None or sender in crashed:
            continue  # LCAN2 only constrains messages whose sender stayed correct
        reached = index.reached(mid)
        delivered_to = reached & correct
        if not delivered_to:
            continue
        missing = correct - reached
        if missing:
            report.violations.append(
                f"LCAN2: {mid!r} (sender {sender} stayed correct) delivered "
                f"to {sorted(delivered_to)} but missing at {sorted(missing)}"
            )
    return report


def check_lcan3_duplicates(trace: TraceRecorder) -> PropertyReport:
    """Duplicates at a node only follow an inconsistent transmission.

    Control messages (ELS, resync, ring messages) legitimately reuse their
    identifier across logical sends, so a "duplicate" is only flagged when
    a node received *more copies than the bus carried transmissions* of
    that identifier — which can only happen through a delivery bug — or,
    for singly-transmitted identifiers, when no fault or clustering
    explains the extra copy.
    """
    return _lcan3(trace, _Deliveries(trace))


def _lcan3(trace: TraceRecorder, index: _Deliveries) -> PropertyReport:
    report = PropertyReport()
    tx_count: Dict[object, int] = {}
    for _time, data in _tx_columns(trace):
        mid = data["mid"]
        tx_count[mid] = tx_count.get(mid, 0) + 1
    for mid, runs in index.by_mid.items():
        transmissions = tx_count.get(mid, 0)
        # A node receives a frame at most once, so no node can hold more
        # copies than there were frames.
        if len(runs) <= transmissions:
            continue
        copies: Dict[int, int] = {}
        for receivers in runs:
            for node in receivers:
                copies[node] = copies.get(node, 0) + 1
        worst = max(copies.values())
        if worst > transmissions:
            report.violations.append(
                f"LCAN3: some node received {worst} copies of {mid!r} but the "
                f"bus only carried {transmissions} transmissions"
            )
    return report


def check_all_properties(
    trace: TraceRecorder,
    correct_nodes: Iterable[int],
    omission_degree: int,
    inconsistent_degree: int,
    window: int,
) -> PropertyReport:
    """Run every monitor; returns the merged report."""
    correct = set(correct_nodes)
    index = _Deliveries(trace)
    report = PropertyReport()
    report.extend(_mcan1(trace, index))
    report.extend(_mcan2(trace, index))
    report.extend(check_mcan3_omission_degree(trace, omission_degree, window))
    report.extend(_lcan1(trace, index, correct))
    report.extend(_lcan2(trace, index, correct))
    report.extend(_lcan3(trace, index))
    report.extend(
        check_lcan4_inconsistent_degree(trace, inconsistent_degree, window)
    )
    return report
