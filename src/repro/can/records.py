"""The bus's trace schema: one ``bus.tx`` row per physical frame.

CAN is a broadcast medium, so one record per physical transmission
describes every delivery of it (MCAN1): the ``bus.tx`` row carries
``receivers``, the ids of the nodes that accepted the frame, in delivery
order (attach order). An inconsistent omission (LCAN2/LCAN4) delivers to a
subset only, and its row lists exactly that subset; a consistently
corrupted frame lists nobody.

This module owns that format. :func:`record_tx` writes the row (the bus
completion path is its only caller) and :func:`deliveries` is the one
reader: the property monitors, the timeline and the message sequence
chart all go through it. The reader also understands the per-receiver
``bus.deliver`` rows the seed core writes (one row per accepting node,
see :func:`repro.perf.legacy.legacy_core`), so traces of both cores read
the same.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple, Sequence, Tuple

#: Category of the per-frame row.
TX = "bus.tx"
#: Category of the seed core's per-receiver delivery rows.
SEED_DELIVER = "bus.deliver"


class Delivery(NamedTuple):
    """One physical frame as its receivers saw it."""

    #: Completion time of the frame, in kernel ticks.
    time: int
    #: The frame's :class:`~repro.can.identifiers.MessageId`.
    mid: Any
    #: True for a remote (RTR) frame.
    remote: bool
    #: Ids of the nodes that accepted the frame, in delivery order.
    receivers: Tuple[int, ...]
    #: True when the frame was hit by an inconsistent omission (only the
    #: listed subset accepted it; the senders retransmit).
    inconsistent: bool


def record_tx(
    trace,
    time: int,
    senders: Sequence[int],
    frame,
    bits: int,
    kind: str,
    attempt: int,
    receivers: Tuple[int, ...],
) -> None:
    """Append the ``bus.tx`` row of one completed physical frame."""
    trace.record(
        time,
        TX,
        node=senders[0] if senders else -1,
        mid=frame.mid,
        remote=frame.remote,
        senders=tuple(senders),
        bits=bits,
        kind=kind,
        attempt=attempt,
        receivers=receivers,
    )


def deliveries(trace) -> Iterator[Delivery]:
    """Every frame delivered to at least one node, in trace order.

    Reads the ``receivers`` of the ``bus.tx`` rows. A seed-core trace
    has per-receiver ``bus.deliver`` rows instead; they are folded into
    one :class:`Delivery` per frame — a run of consecutive rows with the
    same time and message id. Frames that reached nobody (consistent
    omissions) are not yielded.
    """
    if trace.count(SEED_DELIVER):
        return _seed(trace)
    return _native(trace)


def _native(trace) -> Iterator[Delivery]:
    times, _nodes, payloads = trace.category_columns(TX)
    for time, data in zip(times, payloads):
        receivers = data.get("receivers")
        if receivers:
            yield Delivery(
                time,
                data["mid"],
                data.get("remote", False),
                receivers,
                data["kind"] != "none",
            )


def _seed(trace) -> Iterator[Delivery]:
    times, nodes, payloads = trace.category_columns(SEED_DELIVER)
    frame = None
    for time, node, data in zip(times, nodes, payloads):
        mid = data.get("mid")
        if frame is None or time != frame.time or mid != frame.mid:
            if frame is not None:
                yield frame._replace(receivers=tuple(receivers))
            frame = Delivery(
                time,
                mid,
                data.get("remote", False),
                (),
                data.get("inconsistent", False),
            )
            receivers = []
        receivers.append(node)
    if frame is not None:
        yield frame._replace(receivers=tuple(receivers))
