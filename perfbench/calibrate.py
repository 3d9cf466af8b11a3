"""A fixed unit of interpreter work that measures how fast the host is now.

The benchmark runs on shared hosts whose CPU speed drifts by tens of
percent within seconds and for minutes. Every timed operation is followed
by calibration units (:func:`after`, about one per 30 ms of operation)
and is reported at the speed its units show (:func:`scale`), so a slow
stretch slows the operation and its units alike and cancels out.

The unit stands alone — it imports nothing from the program, so a change
to the program cannot change it — and is shaped like the program's own
hot paths: a timer heap with re-arms, per-node dictionaries, slotted
event objects with attribute access and bound-method upcalls, and a ring
of small trace records.
"""

from __future__ import annotations

import heapq
import time
from typing import List

_clock = time.perf_counter

#: Seconds one unit takes on the reference host (the 2-vCPU "Intel Xeon
#: Processor" VM the bounds were tuned on, at its median speed). Reported
#: times are host seconds scaled to this speed.
REFERENCE_UNIT_S = 0.003

#: Operation time per calibration unit run after it, and the most units
#: one timing gets (the calibration costs about a tenth of the run).
SECONDS_PER_UNIT = 0.03
MAX_UNITS = 20

_NODES = 48
_RING = 65_536
_STEPS = 1_200


class _Event:
    __slots__ = ("time", "node", "kind", "seq")

    def __init__(self, time: int, node: int, kind: int, seq: int) -> None:
        self.time = time
        self.node = node
        self.kind = kind
        self.seq = seq


class _Node:
    __slots__ = ("node_id", "heard", "deadline")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.heard = {}
        self.deadline = 0

    def deliver(self, event: _Event) -> int:
        heard = self.heard
        heard[event.node] = heard.get(event.node, 0) + 1
        self.deadline = event.time + 10 + (event.seq & 7)
        return self.deadline


class _Unit:
    """State kept between units so each one does the same work."""

    def __init__(self) -> None:
        self.nodes = [_Node(index) for index in range(_NODES)]
        self.ring: List[tuple] = [()] * _RING
        self.cursor = 0

    def run(self) -> int:
        nodes = self.nodes
        ring = self.ring
        cursor = self.cursor
        heap = [(index * 13 % 97, index, _Event(0, index, 0, index))
                for index in range(_NODES)]
        heapq.heapify(heap)
        seq = _NODES
        checksum = 0
        for _ in range(_STEPS):
            when, _order, event = heapq.heappop(heap)
            target = nodes[(event.node * 7 + seq) % _NODES]
            deadline = target.deliver(event)
            ring[cursor] = (when, event.node, "bus.deliver",
                            {"id": event.node, "seq": seq})
            cursor = (cursor + 4099) & (_RING - 1)
            checksum ^= len(ring[(cursor * 31) & (_RING - 1)])
            seq += 1
            heapq.heappush(
                heap, (deadline, seq, _Event(deadline, event.node, 1, seq))
            )
        self.cursor = cursor
        return checksum


_UNIT = _Unit()


def unit_seconds() -> float:
    """Host seconds of one calibration unit, run now."""
    started = _clock()
    _UNIT.run()
    return _clock() - started


def after(seconds: float) -> List[float]:
    """Calibration units for a timing of ``seconds`` just taken: one per
    ``SECONDS_PER_UNIT`` of it, at least one and at most ``MAX_UNITS``."""
    count = min(MAX_UNITS, max(1, round(seconds / SECONDS_PER_UNIT)))
    return [unit_seconds() for _ in range(count)]


def warm_up(units: int = 50) -> None:
    """Run enough units that the first timed ones are not cold."""
    for _ in range(units):
        _UNIT.run()


def scale(unit_samples: List[float]) -> float:
    """Factor taking host seconds to reference seconds, from the units
    run alongside the timings it scales."""
    ordered = sorted(unit_samples)
    middle = len(ordered) // 2
    median = (ordered[middle] if len(ordered) % 2
              else (ordered[middle - 1] + ordered[middle]) / 2)
    return REFERENCE_UNIT_S / median
