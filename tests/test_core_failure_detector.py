"""Unit tests for the node failure detection protocol (paper Fig. 8)."""

from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.failure_detector import FailureDetector
from repro.core.fda import FdaProtocol
from repro.sim.clock import ms
from repro.sim.timers import Alarm, SharedAlarm

CONFIG = CanelyConfig(capacity=16, thb=ms(10), ttd=ms(1), tm=ms(50), tjoin_wait=ms(150))


def wire(net):
    detectors, failures = {}, {}
    for node_id, layer in net.layers.items():
        fda = FdaProtocol(layer)
        detector = FailureDetector(layer, net.timers[node_id], CONFIG, fda)
        log = []
        detector.on_failure(log.append)
        detectors[node_id] = detector
        failures[node_id] = log
    return detectors, failures


def start_all(detectors, nodes):
    for detector in detectors.values():
        for node_id in nodes:
            detector.start(node_id)


def test_local_timer_emits_explicit_lifesign(raw_bus):
    net = raw_bus(2)
    detectors, _ = wire(net)
    detectors[0].start(0)
    net.sim.run_until(ms(25))
    assert detectors[0].els_sent >= 2  # one per Thb of silence


def test_els_restarts_remote_timers_no_false_detection(raw_bus):
    net = raw_bus(3)
    detectors, failures = wire(net)
    start_all(detectors, [0, 1, 2])
    net.sim.run_until(ms(100))
    for log in failures.values():
        assert log == []


def test_implicit_lifesign_data_traffic_suppresses_els(raw_bus):
    """Section 6.1/6.3: periodic data faster than Thb needs no ELS."""
    net = raw_bus(2)
    detectors, _ = wire(net)
    detectors[0].start(0)
    detectors[1].start(0)

    def periodic(ref=[0]):
        net.layers[0].data_req(
            MessageId(MessageType.DATA, node=0, ref=ref[0] % 65536), b""
        )
        ref[0] += 1
        net.sim.schedule(ms(5), periodic)

    periodic()
    net.sim.run_until(ms(100))
    assert detectors[0].els_sent == 0


def test_crash_detected_within_bound(raw_bus):
    net = raw_bus(3)
    detectors, failures = wire(net)
    start_all(detectors, [0, 1, 2])
    net.sim.run_until(ms(30))
    net.controllers[2].crash()
    crash_time = net.sim.now
    net.sim.run_until(ms(100))
    assert failures[0] == [2]
    assert failures[1] == [2]
    # Detection within Thb + Ttd of the crash (plus FDA dissemination).
    detection = [
        r.time
        for r in net.sim.trace.select(category="bus.tx")
        if r.data["mid"].mtype.name == "FDA"
    ][0]
    assert detection - crash_time <= CONFIG.thb + CONFIG.ttd + ms(1)


def test_notification_consistent_at_all_correct_nodes(raw_bus):
    net = raw_bus(5)
    detectors, failures = wire(net)
    start_all(detectors, range(5))
    net.sim.run_until(ms(30))
    net.controllers[4].crash()
    net.sim.run_until(ms(120))
    for node_id in range(4):
        assert failures[node_id] == [4]


def test_stop_cancels_surveillance(raw_bus):
    net = raw_bus(3)
    detectors, failures = wire(net)
    start_all(detectors, [0, 1, 2])
    net.sim.run_until(ms(30))
    for detector in detectors.values():
        detector.stop(2)
    net.controllers[2].crash()
    net.sim.run_until(ms(150))
    for node_id in (0, 1):
        assert failures[node_id] == []


def test_monitoring_introspection(raw_bus):
    net = raw_bus(2)
    detectors, _ = wire(net)
    detectors[0].start(1)
    assert detectors[0].monitoring(1)
    assert detectors[0].monitored_nodes == [1]
    detectors[0].stop(1)
    assert not detectors[0].monitoring(1)


def test_failure_sign_stops_surveillance_of_failed_node(raw_bus):
    net = raw_bus(3)
    detectors, failures = wire(net)
    start_all(detectors, [0, 1, 2])
    net.sim.run_until(ms(30))
    net.controllers[2].crash()
    net.sim.run_until(ms(120))
    assert not detectors[0].monitoring(2)
    # No repeated notifications afterwards.
    net.sim.run_until(ms(300))
    assert failures[0] == [2]


def test_activity_of_unmonitored_node_ignored(raw_bus):
    net = raw_bus(3)
    detectors, failures = wire(net)
    # Only monitor node 1; node 2 traffic must not create timers.
    detectors[0].start(1)
    net.layers[2].data_req(MessageId(MessageType.DATA, node=2), b"")
    net.sim.run_until(ms(5))
    assert detectors[0].monitored_nodes == [1]


def test_remote_timer_longer_than_local(raw_bus):
    """Fig. 8 a01-a05: remote surveillance adds the Ttd bound."""
    net = raw_bus(2)
    detectors, failures = wire(net)
    detectors[1].start(0)  # remote surveillance of a silent node
    net.sim.run_until(CONFIG.thb + ms(0.5))
    # Not yet: the remote timer is Thb + Ttd.
    fda_frames = [
        r
        for r in net.sim.trace.select(category="bus.tx")
        if r.data["mid"].mtype.name == "FDA"
    ]
    assert fda_frames == []
    net.sim.run_until(CONFIG.thb + CONFIG.ttd + ms(1))
    assert failures[1] == [0]


# -- the shared surveillance deadline ------------------------------------------


def test_remote_observers_follow_one_shared_deadline(raw_bus):
    """After a fault-free frame every remote observer of its sender
    follows the bus's single shared deadline; the sender's own (local)
    timer stays an alarm of its own."""
    net = raw_bus(4)
    detectors, failures = wire(net)
    start_all(detectors, range(4))
    net.sim.run_until(ms(30))
    shared = detectors[1].watching[0]
    assert isinstance(shared, SharedAlarm)
    assert all(detectors[i].watching[0] is shared for i in (2, 3))
    assert isinstance(detectors[0].watching[0], Alarm)
    assert set(shared.members) == {detectors[1], detectors[2], detectors[3]}
    # Each detector's own timer service holds only its local timer.
    assert all(net.timers[i].pending_count == 1 for i in range(4))
    net.controllers[0].crash()
    net.sim.run_until(ms(100))
    assert failures[1] == failures[2] == failures[3] == [0]


def test_observer_missing_a_frame_keeps_its_old_deadline(raw_bus):
    """An observer that is bus-off while the others hear a frame leaves
    the shared deadline with the deadline it had."""
    net = raw_bus(3)
    detectors, failures = wire(net)
    start_all(detectors, range(3))
    net.sim.run_until(ms(30))
    net.controllers[2].tec = 256  # bus-off: hears nothing from now on
    net.sim.run_until(ms(35))
    assert detectors[2].watching[0] is not detectors[1].watching[0]
    net.sim.run_until(ms(60))
    # Cut off, node 2 suspects everyone; node 1 suspects only node 2.
    assert set(failures[1]) == {2}


def test_start_mid_period_detaches_then_merges(raw_bus):
    net = raw_bus(3)
    detectors, _ = wire(net)
    start_all(detectors, range(3))
    net.sim.run_until(ms(30))
    shared = detectors[1].watching[0]
    detectors[1].start(0)  # restart mid-period: an alarm of its own
    assert isinstance(detectors[1].watching[0], Alarm)
    assert detectors[1] not in shared.members
    net.sim.run_until(ms(45))  # node 0's next life-sign merges it back
    assert detectors[1].watching[0] is detectors[2].watching[0]


def test_drifting_detector_keeps_its_own_alarms():
    from repro.core.stack import CanelyNetwork

    net = CanelyNetwork(
        node_count=3, config=CONFIG, timer_drifts={1: 1e-4}
    )
    net.join_all()
    net.run_for(ms(300))
    watching = net.node(1).detector.watching
    assert watching and all(isinstance(h, Alarm) for h in watching.values())
    assert isinstance(net.node(2).detector.watching[0], SharedAlarm)


def test_dual_channel_detector_keeps_its_own_alarms():
    """The twin-suppressing layer sits between the buses and the
    detector, so no bus can serve it a shared deadline."""
    from repro.core.stack import DualChannelNetwork

    net = DualChannelNetwork(node_count=3, config=CONFIG)
    for node in net.nodes.values():
        node.join()
    net.sim.run_until(ms(300))
    watching = net.node(1).detector.watching
    assert watching and all(isinstance(h, Alarm) for h in watching.values())
