"""Timer service exposing the ``start_alarm`` / ``cancel_alarm`` idiom.

The CANELy pseudocode (Figs. 7-9 of the paper) manipulates timers through
``tid := start_alarm(duration)`` and ``cancel_alarm(tid)``; expiry fires a
``when alarm(tid) expires`` clause. :class:`TimerService` reproduces exactly
that interface on top of the simulator.

:meth:`TimerService.restart_alarm` re-arms an alarm in place: it defers
the alarm's kernel event (O(1) field updates, no cancel/allocate/heappush
churn) whenever the queue supports it — ordering stays bit-identical to
cancel-and-start because the kernel allocates a fresh sequence number
either way. Toggle :data:`FAST_REARM` off to force the seed-faithful
cancel-and-start path for A/B equivalence runs.

:class:`SharedAlarm` is one kernel event standing in for the identical
alarms of several *members* — the surveillance timers every correct
observer re-arms for the same CAN node when one of its frames goes by,
which all expire at the same instant. The CAN bus advances it once per
fault-free frame (:mod:`repro.can.bus`); at expiry it runs each member's
callback in attach order and counts one kernel event per member, exactly
as the per-observer alarms would have fired. Members are not counted by
:attr:`TimerService.pending_count`, and the shared event counts once in
:attr:`~repro.sim.kernel.Simulator.pending_events`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.sim.event import Event
from repro.sim.kernel import Simulator

#: Default for the in-place alarm restart fast path; read at every restart
#: so tests can toggle it on a live module.
FAST_REARM = True

#: When True, new :class:`TimerService` instances file their alarms on the
#: simulator's shared hierarchical timer wheel (:mod:`repro.sim.wheel`)
#: instead of scheduling one kernel event per alarm: start, cancel and
#: restart become O(1) regardless of how many alarms are live, and the
#: kernel heap holds a single wheel cursor instead of one entry per alarm.
#: Off by default — the heap path is the seed-faithful reference, pinned
#: bit-identical by the golden-trace equivalence tests; the wheel is
#: outcome-equivalent (same alarms fire at the same simulated instants)
#: but interleaves kernel bookkeeping differently. Read at service
#: construction, so toggle it *before* building a network.
TIMER_WHEEL = False


class Alarm:
    """Handle for a pending alarm (the ``tid`` of the pseudocode).

    The handle itself carries the armed/fired state and the expiry
    callback: arming an alarm costs one object and one scheduled event,
    with no per-alarm closure and no registry bookkeeping.
    """

    __slots__ = (
        "alarm_id",
        "deadline",
        "_event",
        "_on_expire",
        "_service",
        "_active",
        "_span",
        # Wheel-backed alarms: intrusive bucket links + arm-order seq
        # (initialized only when the owning service uses the wheel).
        "_wbucket",
        "_wprev",
        "_wnext",
        "_wseq",
    )

    def __init__(
        self,
        alarm_id: int,
        deadline: int,
        on_expire: Callable[[], None],
        service: "TimerService",
    ) -> None:
        self.alarm_id = alarm_id
        self.deadline = deadline
        self._event: Optional[Event] = None
        self._on_expire = on_expire
        self._service = service
        self._active = True
        self._span: Optional[int] = None

    def _fire(self) -> None:
        # Cancelled events never reach here; just retire and deliver.
        self._active = False
        self._service._pending -= 1
        if self._span is None:
            self._on_expire()
            return
        # The timer span ends at expiry; everything the callback triggers
        # (failure-sign requests, membership cycles, ...) is causally *its*
        # consequence, so the span stays pushed as context around the call.
        spans = self._service._spans
        spans.end(self._span, outcome="fired")
        spans.push(self._span)
        try:
            self._on_expire()
        finally:
            spans.pop()

    def __repr__(self) -> str:
        return f"Alarm(id={self.alarm_id}, deadline={self.deadline})"


class TimerService:
    """Per-node alarm manager backed by a :class:`Simulator`.

    ``drift`` models the node's oscillator deviation: every armed duration
    is stretched by ``(1 + drift)`` — e.g. ``drift=1e-4`` (100 ppm) makes a
    10 ms alarm fire 1 µs late. Protocol timers in real CANELy nodes run on
    exactly such imperfect clocks; the integration tests assert the suite
    tolerates realistic drifts.
    """

    def __init__(self, sim: Simulator, drift: float = 0.0, node: int = -1) -> None:
        if drift <= -1.0:
            raise ValueError(f"drift must exceed -1: {drift}")
        self._sim = sim
        self._drift = drift
        self._ids = itertools.count(1)
        self._pending = 0
        self._node = node
        self._spans = sim.spans
        # The queue's reschedule capability is fixed for the simulator's
        # lifetime; resolving it here keeps the per-frame restart below
        # free of getattr probes.
        self._can_reschedule = getattr(
            sim._queue, "SUPPORTS_RESCHEDULE", False
        )
        #: The simulator-wide hierarchical wheel, or ``None`` on the
        #: seed-faithful per-alarm-event heap path. Resolved once at
        #: construction (module toggle), like the reschedule capability.
        self._wheel = sim.timer_wheel() if TIMER_WHEEL else None

    @property
    def drift(self) -> float:
        """The oscillator deviation applied to every duration."""
        return self._drift

    @property
    def shareable(self) -> bool:
        """True when this service's alarms can be stood in for by a
        :class:`SharedAlarm`: a kernel event per alarm on a queue that
        reschedules in place (no wheel, not the seed-faithful legacy
        queue) and no drift, so equal durations armed at one instant
        expire at one instant."""
        return self._can_reschedule and self._wheel is None and not self._drift

    @property
    def sim(self) -> Simulator:
        """The simulator this service schedules on."""
        return self._sim

    def start_alarm(
        self,
        duration: int,
        on_expire: Callable[[], None],
        name: str = "timer",
        tag: Optional[int] = None,
    ) -> Alarm:
        """Arm an alarm ``duration`` ticks from now; returns its handle.

        A zero-duration alarm fires at the current instant regardless of
        drift — drift stretches a *duration*, and a zero duration has
        nothing to stretch. Negative durations are a caller bug.

        ``name``/``tag`` label the alarm's causal span (e.g. the
        ``"fd.surveillance"`` span of the timer watching node ``tag``);
        they are ignored while span tracing is disabled.
        """
        duration = self._stretch(duration)
        alarm = Alarm(next(self._ids), self._sim.now + duration, on_expire, self)
        wheel = self._wheel
        if wheel is None:
            alarm._event = self._sim.schedule(duration, alarm._fire)
        else:
            alarm._wbucket = None
            alarm._wprev = None
            alarm._wnext = None
            alarm._wseq = 0
            wheel.insert(alarm, alarm.deadline)
        self._pending += 1
        if self._spans.enabled:
            if tag is None:
                alarm._span = self._spans.begin(name, "timers", node=self._node)
            else:
                alarm._span = self._spans.begin(
                    name, "timers", node=self._node, tag=tag
                )
        return alarm

    def _stretch(self, duration: int) -> int:
        if duration < 0:
            raise ValueError(f"alarm duration must be non-negative: {duration}")
        if self._drift and duration:
            # A nonzero duration never rounds below one tick: an alarm that
            # was armed to fire strictly later must not fire immediately
            # just because the oscillator runs fast.
            duration = max(1, round(duration * (1.0 + self._drift)))
        return duration

    def restart_alarm(self, alarm: Optional[Alarm], duration: int) -> bool:
        """Re-arm ``alarm`` to expire ``duration`` ticks from now, in place.

        The cancel-and-start idiom collapsed into O(1) field updates: the
        alarm keeps its handle, callback and span-free identity, and its
        kernel event is deferred without leaving a dead heap entry behind.
        Returns False — and touches nothing — when the fast path cannot
        apply (alarm inactive or ``None``, span tracing active, the
        seed-faithful legacy queue, or a deadline that would move
        *earlier*); the caller then falls back to
        :meth:`cancel_alarm` + :meth:`start_alarm`, which is exactly
        equivalent. Either path consumes one event sequence number, so
        simulated outcomes are bit-identical.
        """
        wheel = self._wheel
        if wheel is not None:
            # Wheel-backed restart: unlink + relink, O(1) in the number of
            # live alarms. Span-traced alarms fall back to cancel-and-start
            # so every arming keeps its own causal span, as on the heap
            # path.
            if (
                alarm is None
                or not alarm._active
                or alarm._span is not None
                or self._spans.enabled
            ):
                return False
            if duration < 0:
                raise ValueError(
                    f"alarm duration must be non-negative: {duration}"
                )
            if self._drift and duration:
                duration = max(1, round(duration * (1.0 + self._drift)))
            wheel.restart(alarm, self._sim._now + duration)
            return True
        if (
            not self._can_reschedule
            or not FAST_REARM
            or alarm is None
            or not alarm._active
            or alarm._span is not None
            or self._spans.enabled
        ):
            return False
        # Inlined ``_stretch``; ``duration >= 0`` already implies the new
        # deadline is not in the past.
        if duration < 0:
            raise ValueError(f"alarm duration must be non-negative: {duration}")
        if self._drift and duration:
            duration = max(1, round(duration * (1.0 + self._drift)))
        sim = self._sim
        event = alarm._event
        queue = sim._queue
        if event._queue is not queue or event.cancelled:
            return False
        deadline = sim._now + duration
        if deadline < event.time:
            return False
        queue.reschedule(event, deadline)
        alarm.deadline = deadline
        return True

    def cancel_alarm(self, alarm: Optional[Alarm]) -> None:
        """Disarm ``alarm``. Cancelling ``None`` or a fired alarm is a no-op."""
        if alarm is None or not alarm._active:
            return
        alarm._active = False
        service = alarm._service
        service._pending -= 1
        if alarm._event is not None:
            alarm._event.cancel()
        else:
            service._wheel.remove(alarm)
        if alarm._span is not None:
            service._spans.end(alarm._span, outcome="cancelled")

    def is_pending(self, alarm: Optional[Alarm]) -> bool:
        """True while ``alarm`` is armed and has not yet fired."""
        return alarm is not None and alarm._active

    @property
    def pending_count(self) -> int:
        """Number of currently armed alarms of this service.

        Observers following a :class:`SharedAlarm` hold no alarm here.
        """
        return self._pending


class SharedAlarm:
    """One kernel event standing in for the same alarm of many members.

    ``members`` maps each member to its order key (its controller's
    attach serial on the bus): at expiry, ``on_expire(member, tag)`` runs
    for every member still present, in key order, and each call counts as
    one fired kernel event. ``event`` is ``None`` once the alarm fired or
    was cancelled; its members keep it as their (expired) handle until
    they leave.

    The owner moves the deadline in two steps around a frame delivery:
    :meth:`arm` takes the new deadline's place in the event order where
    the first member's own alarm would have been re-armed, and
    :meth:`settle` hands the members the frame did not reach back their
    old deadline, on an alarm of their own.
    """

    __slots__ = (
        "duration",
        "tag",
        "members",
        "event",
        "removals",
        "_sim",
        "_on_expire",
        "_prior",
    )

    def __init__(
        self,
        sim: Simulator,
        duration: int,
        tag: int,
        on_expire: Callable[[object, int], None],
    ) -> None:
        self._sim = sim
        self.duration = duration
        self.tag = tag
        self._on_expire = on_expire
        self.members: dict = {}
        self.event: Optional[Event] = None
        #: Members removed so far (lets the owner notice removals during
        #: a delivery without tracking members one by one).
        self.removals = 0
        self._prior: Optional[tuple] = None

    def discard(self, member: object) -> None:
        """Remove ``member``; the last one out cancels the event."""
        members = self.members
        if members.pop(member, None) is None:
            return
        self.removals += 1
        if not members and self.event is not None:
            event = self.event
            self.event = None
            event.cancel()

    def arm(self, time: int) -> None:
        """Move the deadline to ``time``, ordered as of now.

        One in-place reschedule of the pending event — or a fresh event
        when it already fired, or was taken off the heap to fire at this
        very instant. Until :meth:`settle`, the queue watches ``time``
        (:meth:`~repro.sim.event.EventQueue.watch`): a member whose own
        alarm would have been re-armed after another event was filed at
        that instant must not follow this deadline.
        """
        sim = self._sim
        queue = sim._queue
        event = self.event
        if event is not None and event._queue is queue and not event.cancelled:
            self._prior = (event, event.time, event.seq)
            queue.reschedule(event, time)
        else:
            self._prior = (event, None, None)
            self.event = sim.schedule_at(time, self._fire)
        queue.watch(time)

    def settle(self, leaving) -> "Optional[SharedAlarm]":
        """Complete :meth:`arm`; ``leaving`` members keep the old deadline.

        Returns the alarm they now share (``None`` when nobody leaves):
        it holds the old event at its old place in the event order, so
        the leaving members expire exactly when and where they would have.
        """
        self._sim._queue.watch(-1)
        prior, old_time, old_seq = self._prior
        self._prior = None
        held = None
        if leaving:
            held = SharedAlarm(self._sim, self.duration, self.tag, self._on_expire)
            members = self.members
            for member in leaving:
                held.members[member] = members.pop(member)
            if old_time is not None:
                # The moved event goes back to the leaving members; the
                # staying ones take a new one with the moved event's place.
                time, seq = prior.time, prior.seq
                prior.time = old_time
                prior.seq = old_seq
                self.event = None
                if members:
                    self.event = self._sim._queue.push(time, self._fire, 0, seq)
            if prior is not None:
                held.event = prior
                prior.action = held._fire
        elif old_time is None and prior is not None:
            # The old event was due at this instant: superseded.
            prior.cancel()
        if not self.members and self.event is not None:
            self.event.cancel()
            self.event = None
        return held

    def _fire(self) -> None:
        self.event = None
        members = self.members
        fired = 0
        for member, _ in sorted(members.items(), key=_order_key):
            # An earlier member's expiry may have removed a later one
            # (its alarm would have been cancelled).
            if member in members:
                fired += 1
                self._on_expire(member, self.tag)
        # The kernel counted this event once; the per-member alarms it
        # stands for would have fired one event each.
        self._sim._events_processed += fired - 1

    def __repr__(self) -> str:
        deadline = None if self.event is None else self.event.time
        return (
            f"SharedAlarm(tag={self.tag}, members={len(self.members)}, "
            f"deadline={deadline})"
        )


def _order_key(item: tuple) -> int:
    return item[1]
