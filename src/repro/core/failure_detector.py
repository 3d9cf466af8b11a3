"""Node failure detection protocol — paper Fig. 8.

One surveillance timer per monitored node. Node activity — *any* data frame
(tapped via the ``can-data.nty`` extension, own transmissions included) or
an explicit life-sign (ELS) remote frame — restarts the node's timer, so
normal traffic implicitly doubles as heartbeats and explicit life-signs are
only ever transmitted by nodes that stayed silent for a whole heartbeat
period.

* The timer of the **local** node runs for ``Thb``; its expiry broadcasts an
  ELS remote frame (which, arriving back as an indication, restarts the
  timer — Fig. 8 lines f03-f04).
* The timer of a **remote** node runs for ``Thb + Ttd`` (the transmission
  delay bound of MCAN4); its expiry signals a node crash, disseminated
  consistently through the FDA micro-protocol.

Pseudocode correspondence: ``i00`` initialization, ``a00-a06`` the
``fd-alarm-start`` auxiliary function, ``f00-f19`` the event clauses.

CAN delivers a fault-free frame to every correct receiver at once, so all
correct observers of a node restart its remote timer at the same instant,
to the same deadline. The bus therefore keeps **one shared deadline per
monitored node** (:class:`~repro.sim.timers.SharedAlarm`), advanced once
per fault-free frame instead of once per observer; observers in that
lockstep do not get the activity upcall at all. An observer keeps an
alarm of its own, exactly as Fig. 8 writes it, whenever its view of the
node diverges: it accepted a frame the others missed (inconsistent
omission), missed one the others accepted (crashed, bus-off or filtered
out), (re)started surveillance mid-period, or its alarm already fired —
until the node's next fault-free frame merges it back. Detectors on a
dual-channel layer, with oscillator drift, or on the timer wheel always
keep their own alarms, and span tracing turns the shared path off.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.can.driver import CanStandardLayer
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.fda import FdaProtocol
from repro.sim.timers import Alarm, SharedAlarm, TimerService

FailureCallback = Callable[[int], None]


class FailureDetector:
    """Per-node failure detection protocol entity."""

    def __init__(
        self,
        layer: CanStandardLayer,
        timers: TimerService,
        config: CanelyConfig,
        fda: FdaProtocol,
    ) -> None:
        self._layer = layer
        self._timers = timers
        self._sim = timers.sim
        self._config = config
        self._fda = fda
        # Surveillance durations resolved once (the config is frozen).
        self._local_id = layer.node_id
        self._duration_local = config.thb  # a02
        self._duration_remote = config.thb + config.ttd  # a04
        # i00: surveillance timer identifiers, kept per monitored node:
        # an alarm of this detector's own, or the bus's shared deadline
        # while this observer is in lockstep. Read by the bus's delivery
        # loop as ``watching``.
        self._tid: Dict[int, Union[Alarm, SharedAlarm]] = {}
        self.watching = self._tid
        self._listeners: List[FailureCallback] = []
        self.els_sent = 0
        # Bound metric methods resolved once — expiries run per heartbeat.
        metrics = self._sim.metrics
        self._inc_els_sent = metrics.counter("fd.els_sent").inc
        self._inc_detections = metrics.counter("fd.detections").inc
        self._spans = self._sim.spans
        # Offer the bus the shared deadline only where it cannot change an
        # outcome (see the module docstring).
        surveillance = self if timers.shareable else None
        # f03: implicit life-signs.
        layer.add_data_nty(self._on_activity, surveillance=surveillance)
        # f03: explicit life-signs share the activity clause (own
        # transmissions included, which is how the local heartbeat timer
        # re-arms after an ELS broadcast).
        layer.add_rtr_ind(
            self._on_activity, mtype=MessageType.ELS, surveillance=surveillance
        )
        fda.on_failure_sign(self._on_failure_sign)  # f13

    # -- upper-layer interface ----------------------------------------------------

    def on_failure(self, callback: FailureCallback) -> None:
        """Register an ``fd-can.nty`` listener, called with the failed id."""
        self._listeners.append(callback)

    def start(self, node_id: int) -> None:
        """``fd-can.req(START, r)``: begin surveillance of ``node_id``."""
        self._alarm_start(node_id)  # f00-f01

    def stop(self, node_id: int) -> None:
        """``fd-can.req(STOP, r)``: end surveillance of ``node_id``."""
        self._release(self._tid.pop(node_id, None))  # f17-f18

    def reset(self) -> None:
        """Stop every surveillance timer (node reboot)."""
        for node_id in list(self._tid):
            self.stop(node_id)

    def monitoring(self, node_id: int) -> bool:
        """True while the service is active for ``node_id``."""
        return node_id in self._tid

    @property
    def monitored_nodes(self) -> List[int]:
        """Nodes currently under surveillance."""
        return sorted(self._tid)

    # -- shared deadline (driven by the bus) ----------------------------------------

    def join_shared(self, node_id: int, shared: SharedAlarm, order: int) -> bool:
        """Give up this detector's own timer for ``node_id`` and follow
        ``shared`` instead; False (nothing changed) when this observer
        cannot: it does not monitor the node, is the node itself (the
        local timer runs for ``Thb``), or its remote duration differs."""
        handle = self._tid.get(node_id)
        if (
            handle is None
            or node_id == self._local_id
            or shared.duration != self._duration_remote
        ):
            return False
        self._release(handle)
        shared.members[self] = order
        self._tid[node_id] = shared
        return True

    def new_shared(self, node_id: int) -> SharedAlarm:
        """A fresh shared deadline for remote node ``node_id``."""
        return SharedAlarm(
            self._sim, self._duration_remote, node_id, expire_shared
        )

    def _release(self, handle: Union[Alarm, SharedAlarm, None]) -> None:
        if handle.__class__ is SharedAlarm:
            handle.discard(self)
        else:
            self._timers.cancel_alarm(handle)

    # -- fd-alarm-start (a00-a06) ---------------------------------------------------

    def _alarm_start(self, node_id: int) -> None:
        if node_id == self._local_id:  # a01
            duration = self._duration_local  # a02: local timer
        else:
            duration = self._duration_remote  # a04: remote
        # The in-place restart reuses the alarm handle and its expiry
        # closure; the cancel-and-start fallback below is the
        # seed-faithful idiom the restart is provably equivalent to.
        timers = self._timers
        handle = self._tid.get(node_id)
        if handle.__class__ is Alarm and timers.restart_alarm(handle, duration):
            return
        self._release(handle)
        self._tid[node_id] = timers.start_alarm(
            duration,
            lambda: self._on_expire(node_id),
            name="fd.surveillance",
            tag=node_id,
        )

    # -- event clauses ------------------------------------------------------------------

    def _on_activity(self, mid: MessageId) -> None:
        # f03-f05: any frame from a monitored node — a data frame (implicit
        # activity) or an explicit life-sign — restarts its surveillance
        # timer. Only observers outside the lockstep get here (see the
        # module docstring); one that was in it leaves it for its own
        # alarm.
        if mid.node in self._tid:
            self._alarm_start(mid.node)

    def _on_expire(self, node_id: int) -> None:
        if node_id not in self._tid:
            return
        if node_id == self._layer.node_id:  # f07
            # f08: the local node stayed silent for Thb — broadcast an
            # explicit life-sign. The returning indication restarts the timer.
            self.els_sent += 1
            self._inc_els_sent()
            els_span = None
            if self._spans.enabled:
                els_span = self._spans.instant(
                    "fd.els", "fd", node=node_id
                )
                self._spans.push(els_span)
            try:
                self._layer.rtr_req(MessageId(MessageType.ELS, node=node_id))
            finally:
                if els_span is not None:
                    self._spans.pop()
        else:
            # f10: a remote node stayed silent beyond Thb + Ttd — it failed.
            self._inc_detections()
            if self._sim.trace.wants("fd.detect"):
                self._sim.trace.record(
                    self._sim.now,
                    "fd.detect",
                    node=self._layer.node_id,
                    failed=node_id,
                )
            detect_span = None
            if self._spans.enabled:
                detect_span = self._spans.instant(
                    "fd.detect",
                    "fd",
                    node=self._layer.node_id,
                    failed=node_id,
                )
                self._spans.push(detect_span)
            try:
                self._fda.request(node_id)
            finally:
                if detect_span is not None:
                    self._spans.pop()

    def _on_failure_sign(self, node_id: int) -> None:
        # f13-f16: a consistent failure-sign arrived: stop surveillance and
        # notify the companion site membership protocol.
        self._release(self._tid.pop(node_id, None))  # f14
        for listener in list(self._listeners):  # f15
            listener(node_id)


def expire_shared(detector: FailureDetector, node_id: int) -> None:
    """A shared deadline's per-member expiry: ``detector``'s f07-f10,
    looked up when it runs (not bound when the deadline is made)."""
    detector._on_expire(node_id)
