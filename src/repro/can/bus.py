"""The CAN bus: arbitration, clustering, transmission and fault resolution.

The bus is a single broadcast channel. Whenever it goes idle, every attached
controller offers its highest-priority pending request; the frame with the
lowest identifier wins (carrier sense multi-access with deterministic
collision resolution). Requests for *bit-identical* frames — in particular
identical remote frames, the CANELy control-message encapsulation — are
transmitted as **one** physical frame thanks to the wired-AND nature of the
medium; every co-sender sees its own request confirmed. This clustering is
what lets the FDA and membership protocols pay one frame for n logical
transmissions.

The fault injector decides the outcome of every physical transmission:
error-free, consistent omission (globalized error frame, automatic
retransmission) or inconsistent omission (a subset of recipients accepts
the frame; everyone else sees the error and the senders retransmit).

A fault-free frame reaches every correct receiver at the same instant, so
each correct failure detector watching its sender restarts that node's
surveillance timer to the same deadline (paper Fig. 8, f03-f05). The bus
keeps that deadline **once per monitored node** — a
:class:`~repro.sim.timers.SharedAlarm`, registered through the
``surveillance`` flag of the standard layer's ``add_data_nty`` /
``add_rtr_ind`` — and advances it with one kernel reschedule per frame
instead of one upcall and one timer restart per receiver. An observer
whose view diverges (it missed the frame, got it through an inconsistent
omission, restarted surveillance itself, ...) keeps an alarm of its own
until the node's next fault-free frame; see
:mod:`repro.core.failure_detector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.can.bitstream import (
    ERROR_FRAME_BITS,
    INTERFRAME_BITS,
    SUSPEND_TRANSMISSION_BITS,
)
from repro.can.controller import (
    BUS_OFF_THRESHOLD,
    CanController,
    ControllerState,
    TxRequest,
)
from repro.can.errormodel import (
    OK_VERDICT,
    FaultInjector,
    FaultKind,
    FaultVerdict,
)
from repro.can.frame import CanFrame
from repro.can.phy import BitTiming
from repro.errors import BusError
from repro.sim.kernel import Simulator
from repro.sim.timers import SharedAlarm

#: When True (the default), delivery resolves recipients through a cached
#: per-identifier dispatch plan instead of offering every frame to every
#: alive controller and re-checking its filter bank inline. The plan holds
#: one entry per accepting controller (so non-accepting nodes cost nothing
#: per delivery) and, for controllers driven by the standard layer, bakes
#: the listener tuples the layer would resolve — delivery then upcalls the
#: listeners directly instead of walking ``deliver`` -> ``on_rx`` ->
#: ``_handle_rx`` per recipient. Observable behaviour is identical to the
#: broadcast path (same deliveries, same REC bookkeeping, same trace
#: records, in the same order); with no filters installed the accepting
#: set is simply "every controller" and the two paths are bit-identical.
#: Read per delivery, so tests can toggle it on a live module.
FILTERED_DELIVERY = True

#: Delivery plans are dropped wholesale past this many distinct
#: identifiers (application refs roll, so the identifier space is not
#: bounded by the node count).
_ACCEPT_TABLE_LIMIT = 4096


@dataclass
class BusStats:
    """Aggregate bus accounting, all in bit-times.

    ``busy_bits`` counts every bit-time the bus was not idle (frames,
    interframe spaces, error frames, suspend penalties); ``bits_by_type``
    attributes frame + overhead bits to the message type that caused them,
    which is what the Fig. 10 bandwidth benchmark reads out.
    ``inaccessibility_bits`` counts injected inaccessibility periods —
    windows where the network refrains from providing service while
    remaining operational ([22]).
    """

    physical_frames: int = 0
    clustered_requests: int = 0
    error_frames: int = 0
    busy_bits: int = 0
    inaccessibility_bits: int = 0
    bus_off_recoveries: int = 0
    bits_by_type: Dict[str, int] = field(default_factory=dict)

    def charge(self, type_name: str, bits: int) -> None:
        self.busy_bits += bits
        self.bits_by_type[type_name] = self.bits_by_type.get(type_name, 0) + bits


@dataclass
class _Transmission:
    frame: CanFrame
    senders: List[CanController]
    requests: List[TxRequest]
    started_at: int
    #: Exact stuffed frame length (no interframe), computed once when
    #: arbitration resolves and reused by the completion path — each
    #: physical frame is encoded at most once.
    wire_bits: int = 0
    #: Causal span covering the wire occupancy of this physical frame
    #: (``None`` while span tracing is disabled).
    span_id: Optional[int] = None


class CanBus:
    """A single-channel CAN broadcast bus."""

    def __init__(
        self,
        sim: Simulator,
        timing: Optional[BitTiming] = None,
        injector: Optional[FaultInjector] = None,
        clustering: bool = True,
        bus_off_recovery: bool = False,
    ) -> None:
        self._sim = sim
        self.timing = timing if timing is not None else BitTiming()
        self.injector = injector if injector is not None else FaultInjector()
        self.clustering = clustering
        #: When True, a controller reaching bus-off rejoins after the ISO
        #: 11898 recovery sequence (128 x 11 recessive bits) instead of
        #: staying silent. Off by default: permanent bus-off is what
        #: enforces the system model's weak-fail-silent assumption.
        self.bus_off_recovery = bus_off_recovery
        self._controllers: Dict[int, CanController] = {}
        #: identifier -> delivery plan: one ``(controller, baked_on_rx,
        #: first_listeners, second_listeners)`` entry per controller whose
        #: acceptance filters pass it, in attach order (the delivery order
        #: of the broadcast path). Data and remote frames plan separately —
        #: the RTR bit is not part of the identifier, but it selects a
        #: different upcall. Aliveness is *not* baked in — it is re-checked
        #: inline at every delivery, so crashes and bus-off need no
        #: invalidation; attach, filter changes and listener registration
        #: do (:meth:`invalidate_delivery_tables`).
        self._plan_data: Dict[int, tuple] = {}
        self._plan_rtr: Dict[int, tuple] = {}
        #: monitored node -> the surveillance deadline its lockstep
        #: observers share on this segment.
        self._shared: Dict[int, SharedAlarm] = {}
        #: node id -> attach serial: the order shared-deadline members
        #: expire in (the order their own alarms would have been armed).
        self._attach_serial: Dict[int, int] = {}
        self._attaches = 0
        #: node id -> controller, for controllers that *may* hold a
        #: pending transmit request. A conservative superset, maintained
        #: at the two points requests enter a queue (submit and the
        #: error-retransmission requeue) and pruned lazily when
        #: arbitration finds an empty queue — so arbitration scans the
        #: handful of nodes with traffic instead of the whole membership.
        self._tx_pending: Dict[int, CanController] = {}
        self._busy = False
        self._arbitration_pending = False
        self._inaccessible_until = 0
        self._current: Optional[_Transmission] = None
        self._tx_index = 0
        self.stats = BusStats()
        #: The recorder, aliased once — completion guards every record call
        #: on ``wants(...)`` so disabled traces skip payload construction.
        self._trace = sim.trace
        #: The causal span tracer, aliased once for the same reason; every
        #: span site below guards on ``self._spans.enabled``.
        self._spans = sim.spans
        # Bound metric methods resolved once: the completion path runs per
        # frame, and ``registry.counter(...)`` plus attribute dispatch per
        # frame is measurable at campaign scale.
        metrics = sim.metrics
        self._m_frames_inc = metrics.counter("bus.frames").inc
        self._m_errors_inc = metrics.counter("bus.error_frames").inc
        self._m_clustered_inc = metrics.counter("bus.clustered_requests").inc
        self._m_busy_bits_inc = metrics.counter("bus.busy_bits").inc
        self._m_utilization_set = metrics.gauge("bus.utilization").set

    # -- topology -----------------------------------------------------------

    def attach(self, controller: CanController) -> None:
        """Connect ``controller`` to the bus."""
        if controller.node_id in self._controllers:
            raise BusError(f"node id {controller.node_id} already attached")
        self._controllers[controller.node_id] = controller
        self._attach_serial[controller.node_id] = self._attaches
        self._attaches += 1
        controller._bus = self
        controller._spans = self._spans
        self.invalidate_delivery_tables()

    def detach(self, controller: CanController) -> None:
        """Disconnect ``controller`` from the bus.

        The inverse of :meth:`attach`, used by gateways whose ports come
        and go. The cached delivery plans bake the accepting-controller
        set per identifier, so a detach *must* drop them — otherwise a
        stale plan keeps delivering to (or skipping) the departed port
        and FILTERED_DELIVERY diverges from the broadcast reference.
        """
        attached = self._controllers.get(controller.node_id)
        if attached is not controller:
            raise BusError(
                f"node id {controller.node_id} is not attached to this bus"
            )
        del self._controllers[controller.node_id]
        self._tx_pending.pop(controller.node_id, None)
        controller._bus = None
        self.invalidate_delivery_tables()

    def invalidate_delivery_tables(self) -> None:
        """Drop the cached per-identifier delivery plans.

        Called whenever the accepting set for any identifier — or the
        upcall a delivery must make — may have changed: a controller
        attached, a filter bank was installed, replaced or cleared, or a
        standard layer gained a listener. Plans rebuild lazily on the
        next delivery.
        """
        self._plan_data.clear()
        self._plan_rtr.clear()

    def controller(self, node_id: int) -> CanController:
        """The controller attached as ``node_id``."""
        return self._controllers[node_id]

    @property
    def node_ids(self) -> List[int]:
        """All attached node ids, sorted."""
        return sorted(self._controllers)

    def alive_controllers(self) -> List[CanController]:
        """Controllers currently participating in bus traffic."""
        # ``alive`` inlined (one property call per controller per frame
        # adds up at campaign scale).
        return [
            c
            for c in self._controllers.values()
            if not c.crashed and c.tec <= BUS_OFF_THRESHOLD
        ]

    # -- scheduling ------------------------------------------------------------

    def kick(self) -> None:
        """A controller queued a request: start arbitration if idle.

        Arbitration is deferred by a zero-delay event so every request
        submitted at the same instant (e.g. the echo requests an FDA
        delivery triggers at all recipients) contends in the same start-of-
        frame window — which is what lets identical remote frames cluster.
        """
        if self._busy or self._arbitration_pending:
            return
        self._arbitration_pending = True
        self._sim.schedule(0, self._arbitrate)

    def _arbitrate(self) -> None:
        self._arbitration_pending = False
        if self._busy:
            return
        if self._sim.now < self._inaccessible_until:
            # The network is in an inaccessibility window: service resumes
            # when it closes.
            self._arbitration_pending = True
            self._sim.schedule_at(self._inaccessible_until, self._arbitrate)
            return
        self._start_next()

    def inject_inaccessibility(self, bits: int) -> None:
        """Open an inaccessibility window of ``bits`` bit-times from now.

        Models the aftermath of error signalling ([22]): the network is
        operational but refrains from starting new transmissions. An
        ongoing transmission completes normally (its fate is governed by
        the fault injector); queued requests wait the window out.
        """
        until = self._sim.now + self.timing.bits_to_ticks(bits)
        if until <= self._inaccessible_until:
            return
        self._inaccessible_until = until
        self.stats.inaccessibility_bits += bits
        self._sim.trace.record(
            self._sim.now, "bus.inaccessible", bits=bits, until=until
        )
        self.kick()

    def _start_next(self) -> None:
        # Offers carry their owning controller so the take step below needs
        # no ownership scan (the seed's ``_owner_of`` walked every
        # controller per taken request). Only the pending-transmitter set
        # is polled — the outcome cannot depend on its registration order
        # because each offer leads with its sort key: ``priority_key``,
        # then the attach serial, so ties between nodes (identical
        # clustered frames with equal per-controller sequence numbers)
        # fall to attach order, the order the seed's controller scan saw.
        pending = self._tx_pending
        serial = self._attach_serial
        offers = []
        stale = None
        for controller in pending.values():
            request = controller.head_request()
            if request is not None:
                offers.append((
                    request.priority_key,
                    serial[controller.node_id],
                    request,
                    controller,
                ))
            elif not controller._queue:
                # Empty queue: nothing to offer until the next submit
                # re-registers the node. (A bus-off or crashed node with
                # queued requests stays registered — it may recover.)
                if stale is None:
                    stale = [controller.node_id]
                else:
                    stale.append(controller.node_id)
        if stale is not None:
            for node_id in stale:
                del pending[node_id]
        if not offers:
            return
        if len(offers) == 1:
            # Uncontended arbitration — the common case on a lightly
            # loaded bus: no sort, no clustering scan.
            winner = offers[0][2]
            taken = offers
        else:
            # No two offers share a serial, so the sort never compares
            # requests.
            offers.sort()
            winner = offers[0][2]

            # Wired-AND clustering: bit-identical frames transmit as one.
            taken = [offers[0]]
            for offer in offers[1:]:
                other = offer[2]
                same_id = other.frame.identifier == winner.frame.identifier
                if not same_id:
                    continue
                if other.frame == winner.frame:
                    if self.clustering:
                        taken.append(offer)
                    continue
                if not other.frame.remote and not winner.frame.remote:
                    raise BusError(
                        f"two different data frames contend with identifier "
                        f"{winner.frame.identifier:#x}: {winner.frame!r} vs "
                        f"{other.frame!r}"
                    )
                # Same identifier, one data / one remote: the data frame's
                # dominant RTR bit wins; the remote frame just loses
                # arbitration.

        requests = []
        senders = []
        for _, _, request, owner in taken:
            owner.take(request)
            requests.append(request)
            senders.append(owner)

        frame_bits = winner.frame.wire_bits(with_interframe=False)
        self._busy = True
        self._current = _Transmission(
            frame=winner.frame,
            senders=senders,
            requests=requests,
            started_at=self._sim.now,
            wire_bits=frame_bits,
        )
        if self._spans.enabled:
            # Frames that offered but were not taken lost this arbitration
            # round; their queue spans get one "arb-loss" point event each.
            taken_ids = {id(request) for request in requests}
            for _, _, offer, _ in offers:
                if id(offer) not in taken_ids:
                    self._spans.event(offer.span_id, "arb-loss")
            self._current.span_id = self._spans.begin(
                "can.tx",
                "bus",
                node=senders[0].node_id,
                parent=winner.span_id,
                mid=str(winner.frame.mid),
                remote=winner.frame.remote,
                cluster=len(requests),
            )
        self.stats.clustered_requests += len(requests) - 1
        if len(requests) > 1:
            self._m_clustered_inc(len(requests) - 1)
        duration = self.timing.bits_to_ticks(frame_bits)
        self._sim.schedule(duration, self._complete)

    def _owner_of(self, request: TxRequest) -> CanController:
        for controller in self._controllers.values():
            if controller.head_request() is request:
                return controller
        raise BusError(f"no controller owns request {request.frame!r}")

    # -- completion --------------------------------------------------------------

    def _complete(self) -> None:
        tx = self._current
        assert tx is not None
        self._current = None
        self._tx_index += 1
        self.stats.physical_frames += 1
        self._m_frames_inc()

        alive = self.alive_controllers()
        sender_ids = [c.node_id for c in tx.senders]
        if self.injector.armed:
            receiver_ids = [c.node_id for c in alive]
            verdict = self.injector.verdict(
                tx.frame, sender_ids, receiver_ids, self._tx_index - 1
            )
        else:
            # Fault-free bus: skip the receiver-id assembly and the
            # verdict scan — per frame, and O(membership) of it.
            verdict = OK_VERDICT
        if tx.span_id is not None:
            self._spans.end(tx.span_id, kind=verdict.kind.value)

        frame_bits = tx.wire_bits
        overhead_bits = INTERFRAME_BITS
        type_name = tx.frame.mid.mtype.name

        if verdict.kind is FaultKind.NONE:
            self._deliver_all(tx, alive)
        else:
            self.stats.error_frames += 1
            self._m_errors_inc()
            overhead_bits += ERROR_FRAME_BITS
            if any(
                s.state is ControllerState.ERROR_PASSIVE and s.alive
                for s in tx.senders
            ):
                overhead_bits += SUSPEND_TRANSMISSION_BITS
            self._resolve_fault(tx, alive, verdict)

        self.stats.charge(type_name, frame_bits + overhead_bits)
        self._m_busy_bits_inc(frame_bits + overhead_bits)
        self._m_utilization_set(self.utilization())
        if self._trace.wants("bus.tx"):
            self._trace.record(
                self._sim.now,
                "bus.tx",
                node=sender_ids[0] if sender_ids else -1,
                mid=tx.frame.mid,
                remote=tx.frame.remote,
                senders=tuple(sender_ids),
                bits=frame_bits + overhead_bits,
                kind=verdict.kind.value,
                attempt=tx.requests[0].attempts,
            )

        # Bus stays busy through the interframe space / error frame.
        self._sim.schedule(
            self.timing.bits_to_ticks(overhead_bits), self._go_idle
        )

    def _deliver_all(self, tx: _Transmission, alive: List[CanController]) -> None:
        for sender, request in zip(tx.senders, tx.requests):
            # ``alive`` inlined, as everywhere on the completion path.
            if not sender.crashed and sender.tec <= BUS_OFF_THRESHOLD:
                sender.finish_success(request)
        # Hoisted out of the per-recipient loop: delivery is the hottest
        # trace site (one record per alive controller per frame). The
        # span-disabled loop is kept branch-free per recipient for the
        # same reason.
        record_delivery = self._trace.wants("bus.deliver")
        if tx.span_id is None:
            frame = tx.frame
            ident = frame.identifier
            mid = frame.mid
            remote = frame.remote
            now = self._sim.now
            trace_record = self._trace.record
            if FILTERED_DELIVERY:
                # Plan path: the filter match and the upcall resolution
                # were paid once, when this identifier's plan was built.
                # Entries whose controller is driven by the standard layer
                # carry its listener tuples baked in, so the loop below
                # upcalls them directly — transcribing ``deliver`` (the
                # REC heal) and ``_handle_rx`` (nty before ind; rtr
                # listeners for remote frames) without the three call
                # frames per recipient. The baked handler is re-validated
                # by identity at every delivery; anything unexpected —
                # a rebound ``on_rx``, a facade, span tracing switched on
                # mid-flight — falls back to the generic ``deliver``.
                plans = self._plan_rtr if remote else self._plan_data
                plan = plans.get(ident)
                if plan is None:
                    plan = self._build_plan(frame, plans)
                entries, watched = plan
                data = frame.data
                fused_ok = not self._spans.enabled
                if record_delivery:
                    payload = {"mid": mid, "remote": remote}
                    record_row = self._trace.record_row
                # The sender's shared surveillance deadline moves once,
                # here — where the first of its lockstep observers' own
                # alarms would have been re-armed — and each of them costs
                # one probe below. ``queue`` (watching the new deadline)
                # doubles as the "deadline armed for this frame" flag.
                subject = mid.node
                shared = self._shared.get(subject) if watched else None
                queue = missed = None
                seen = 0
                if fused_ok and shared is not None and shared.members:
                    shared.arm(now + shared.duration)
                    queue = self._sim._queue
                    removals = shared.removals
                try:
                    for (
                        controller, baked_rx, first, second, watching, watcher
                    ) in entries:
                        # .ind includes own transmissions (paper Fig. 4).
                        # The aliveness re-check guards against a crash
                        # triggered by an earlier recipient's upcall;
                        # inlined like above.
                        if (
                            controller.crashed
                            or controller.tec > BUS_OFF_THRESHOLD
                        ):
                            if (
                                queue is not None
                                and watching is not None
                                and watching.get(subject) is shared
                            ):
                                missed = (missed or ()) + (watcher[0],)
                            continue
                        if (
                            fused_ok
                            and first is not None
                            and controller.on_rx is baked_rx
                        ):
                            if controller.rec:
                                controller.rec -= 1
                            if watching is not None:
                                handle = watching.get(subject)
                                if handle is None:
                                    pass  # not monitoring the sender
                                elif handle is shared and not queue.watched:
                                    # Lockstep (``shared`` has members, so
                                    # it was armed): nothing to do.
                                    seen += 1
                                elif subject == controller.node_id:
                                    watcher[1](mid)  # the sender's own timer
                                else:
                                    if queue is None:
                                        # The first observer to (re)join.
                                        if shared is None:
                                            shared = watcher[0].new_shared(
                                                subject
                                            )
                                            self._shared[subject] = shared
                                        shared.arm(now + shared.duration)
                                        queue = self._sim._queue
                                        removals = shared.removals
                                    if self._observe(
                                        watcher, mid, handle, shared, queue,
                                        controller.node_id,
                                    ):
                                        seen += 1
                            for listener in first:
                                listener(mid)
                            for listener in second:
                                listener(mid, data)
                        else:
                            if (
                                queue is not None
                                and watching is not None
                                and watching.get(subject) is shared
                            ):
                                # Unless this upcall reaches the detector
                                # (which then leaves), it missed the frame.
                                missed = (missed or ()) + (watcher[0],)
                            controller.deliver(frame)
                        if record_delivery:
                            record_row(
                                now, "bus.deliver", controller.node_id, payload
                            )
                finally:
                    if queue is not None:
                        if (
                            missed is None
                            and removals == shared.removals
                            and seen == len(shared.members)
                        ):
                            # Every member heard the frame.
                            shared.settle(())
                        else:
                            self._settle_shared(shared, missed, entries)
                return
            for controller in alive:
                # Broadcast path: same semantics, with the filter bank
                # consulted per delivery instead of per identifier.
                if (
                    not controller.crashed
                    and controller.tec <= BUS_OFF_THRESHOLD
                    and (
                        (bank := controller._filters) is None
                        or bank.accepts(ident)
                    )
                ):
                    controller.deliver(frame)
                    if record_delivery:
                        trace_record(
                            now,
                            "bus.deliver",
                            node=controller.node_id,
                            mid=mid,
                            remote=remote,
                        )
            return
        spans = self._spans
        ident = tx.frame.identifier
        for controller in alive:
            if controller.alive and controller.accepts(ident):
                rx_span = spans.begin(
                    "can.rx",
                    "bus",
                    node=controller.node_id,
                    parent=tx.span_id,
                )
                spans.push(rx_span)
                try:
                    controller.deliver(tx.frame)
                finally:
                    spans.pop()
                    spans.end(rx_span)
                if record_delivery:
                    self._trace.record(
                        self._sim.now,
                        "bus.deliver",
                        node=controller.node_id,
                        mid=tx.frame.mid,
                        remote=tx.frame.remote,
                    )

    def _observe(
        self,
        watcher: tuple,
        mid,
        handle,
        shared: SharedAlarm,
        queue,
        node_id: int,
    ) -> bool:
        """A life-sign reaches an observer outside the lockstep, or one
        that must leave it because an event was filed at the shared
        deadline since the first member's place. True when the observer
        now follows ``shared``; otherwise its activity clause ran and
        re-armed an alarm of its own."""
        detector, listener = watcher
        if (
            handle is not shared
            and not queue.watched
            and detector.join_shared(
                mid.node, shared, self._attach_serial[node_id]
            )
        ):
            return True
        listener(mid)
        return False

    def _settle_shared(
        self, shared: SharedAlarm, missed: Optional[tuple], entries: tuple
    ) -> None:
        """Finish moving the lockstep observers' deadline after a delivery
        that may have missed some of them.

        Members the frame did not reach (crashed, bus-off or filtered out)
        keep the deadline they had, on an alarm split off for them.
        """
        reached = {
            entry[5][0] for entry in entries if entry[5] is not None
        }.difference(missed or ())
        leaving = [member for member in shared.members if member not in reached]
        held = shared.settle(leaving)
        for member in leaving:
            member.watching[shared.tag] = held

    def _build_plan(self, frame: CanFrame, plans: Dict[int, tuple]) -> tuple:
        """Compile the delivery plan for ``frame``'s identifier.

        The plan is ``(entries, watched)``: one ``(controller,
        baked_on_rx, first, second, watching, watcher)`` entry per accepting
        controller, in attach order, and whether any entry has a watcher. When the controller's ``on_rx`` is the
        standard layer's ``_handle_rx``, the entry bakes the listener
        tuples that upcall would resolve — ``first`` is the nty tuple
        (data frames) or the rtr-ind tuple (remote frames), ``second`` the
        data-ind tuple (empty for remote) — and the delivery loop
        dispatches straight to them. When ``first`` opens with a listener
        registered with a ``surveillance`` flag, ``watcher`` is that
        ``(detector, listener)`` pair, ``watching`` the detector's table
        of surveillance handles, and ``first`` omits the listener: the
        loop serves it through the shared deadline. Any other receiver
        (no handler, a custom handler, a redundancy facade) keeps
        ``first is None`` and the generic ``controller.deliver``
        fallback. Listener registration, filter changes and attach all
        funnel through :meth:`invalidate_delivery_tables`.
        """
        # Deferred import: the driver imports the controller module, and
        # the bus is imported by layers below it — binding at build time
        # keeps the module graph acyclic.
        from repro.can.driver import CanStandardLayer

        handle_rx = CanStandardLayer._handle_rx
        resolve = CanStandardLayer._resolve
        mtype = frame.mid.mtype
        remote = frame.remote
        ident = frame.identifier
        entries = []
        watched = False
        for controller in self._controllers.values():
            if not controller.accepts(ident):
                continue
            handler = controller.on_rx
            first = second = watching = watcher = None
            if (
                handler is not None
                and getattr(handler, "__func__", None) is handle_rx
            ):
                layer = handler.__self__
                if remote:
                    first = layer._rtr_ind_cache.get(mtype)
                    if first is None:
                        first = resolve(
                            layer._rtr_ind, layer._rtr_ind_cache, mtype
                        )
                    second = ()
                else:
                    first = layer._data_nty
                    second = layer._data_ind_cache.get(mtype)
                    if second is None:
                        second = resolve(
                            layer._data_ind, layer._data_ind_cache, mtype
                        )
                watcher = layer._surveillance.get(mtype if remote else "nty")
                if watcher is not None and first and first[0] is watcher[1]:
                    first = first[1:]
                    watching = watcher[0].watching
                    watched = True
                else:
                    watcher = None
            entries.append(
                (controller, handler, first, second, watching, watcher)
            )
        if len(plans) >= _ACCEPT_TABLE_LIMIT:
            plans.clear()
        plan = plans[ident] = (tuple(entries), watched)
        return plan

    def _resolve_fault(
        self,
        tx: _Transmission,
        alive: List[CanController],
        verdict: FaultVerdict,
    ) -> None:
        sender_set = {c.node_id for c in tx.senders}
        record_delivery = self._trace.wants("bus.deliver")
        spans = self._spans if tx.span_id is not None else None
        ident = tx.frame.identifier
        for controller in alive:
            if controller.node_id in sender_set:
                continue
            if controller.node_id in verdict.accepting:
                if not controller.accepts(ident):
                    # Error signalling happens at the bit level, *before*
                    # acceptance filtering: this node saw a valid frame
                    # (no REC bump), its filter just dropped it.
                    continue
                if spans is not None:
                    rx_span = spans.begin(
                        "can.rx",
                        "bus",
                        node=controller.node_id,
                        parent=tx.span_id,
                        inconsistent=True,
                    )
                    spans.push(rx_span)
                    try:
                        controller.deliver(tx.frame)
                    finally:
                        spans.pop()
                        spans.end(rx_span)
                else:
                    controller.deliver(tx.frame)
                if record_delivery:
                    self._trace.record(
                        self._sim.now,
                        "bus.deliver",
                        node=controller.node_id,
                        mid=tx.frame.mid,
                        remote=tx.frame.remote,
                        inconsistent=True,
                    )
            else:
                controller.rx_error()
        # Senders see the error and schedule the automatic retransmission.
        for sender, request in zip(tx.senders, tx.requests):
            sender.finish_error(request)
            if (
                self.bus_off_recovery
                and not sender.crashed
                and sender.state is ControllerState.BUS_OFF
            ):
                self._schedule_bus_off_recovery(sender)
        if verdict.crash_sender:
            # The paper's inconsistent-omission scenario: the sender dies
            # before the retransmission goes out.
            for sender in tx.senders:
                sender.crash()
                if spans is not None:
                    spans.instant(
                        "node.crash",
                        "node",
                        node=sender.node_id,
                        parent=tx.span_id,
                    )
                self._sim.trace.record(
                    self._sim.now, "node.crash", node=sender.node_id
                )

    def _go_idle(self) -> None:
        self._busy = False
        self.kick()

    def _schedule_bus_off_recovery(self, controller: CanController) -> None:
        recovery_ticks = self.timing.bits_to_ticks(128 * 11)

        def recover() -> None:
            if controller.crashed:
                return
            controller.tec = 0
            controller.rec = 0
            self.stats.bus_off_recoveries += 1
            self._sim.trace.record(
                self._sim.now, "node.bus_off_recovery", node=controller.node_id
            )
            self.kick()

        self._sim.schedule(recovery_ticks, recover)

    # -- introspection --------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while a frame (or its interframe space) occupies the bus."""
        return self._busy

    @property
    def quiescent(self) -> bool:
        """True when the bus has no traffic it could start at this instant.

        Idle wire, no pending arbitration event, no open inaccessibility
        window, and no controller holding a transmit request: any future
        bus activity can only originate from an event already in the
        simulator's queue (a timer expiry, a scheduled workload send).
        This is the guard the analytic idle-skip uses before leaping the
        clock to the next scheduled event.
        """
        if self._busy or self._arbitration_pending:
            return False
        if self._sim.now < self._inaccessible_until:
            return False
        return all(
            controller.head_request() is None
            for controller in self._controllers.values()
        )

    def utilization(self, window_ticks: Optional[int] = None) -> float:
        """Fraction of bus capacity consumed so far (or over ``window_ticks``)."""
        elapsed = window_ticks if window_ticks is not None else self._sim.now
        if elapsed <= 0:
            return 0.0
        return self.timing.bits_to_ticks(self.stats.busy_bits) / elapsed
