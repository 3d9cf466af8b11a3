"""Golden-trace equivalence: the fast core must change *nothing* observable.

Each scenario runs twice — once on the default fast core (table-driven
encoding, tuple-based event queue, single encode per transmission) and once
under ``legacy_core()`` (the seed-faithful bit-list encoder, dataclass heap
and double-encode bus path) — and the complete observable fingerprint must
match exactly: every trace record in order (event order and timing), the
per-type bus bit accounting (wire lengths), the event count and every
node's membership view.
"""

import pytest

from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.frame import data_frame, remote_frame
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.perf.legacy import legacy_core
from repro.sim.clock import ms
from repro.sim.trace import record_to_dict

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


def fingerprint(net):
    """Everything observable about a finished run, in comparable form."""
    views = {}
    for node in net.correct_nodes():
        view = node.view()
        views[node.node_id] = (sorted(view.members), view.round_index)
    return {
        "trace": [record_to_dict(record) for record in net.sim.trace],
        "events": net.sim.events_processed,
        "now": net.sim.now,
        "physical_frames": net.bus.stats.physical_frames,
        "error_frames": net.bus.stats.error_frames,
        "busy_bits": net.bus.stats.busy_bits,
        "bits_by_type": dict(net.bus.stats.bits_by_type),
        "views": views,
    }


def scenario_crash_detection():
    """10 nodes bootstrap; one crashes; detection and view change follow."""
    net = CanelyNetwork(node_count=10, config=CONFIG)
    net.join_all()
    net.run_for(ms(400))
    net.node(7).crash()
    net.run_for(ms(200))
    assert net.views_agree()
    return fingerprint(net)


def scenario_join_leave_churn():
    """Staggered joins and a voluntary leave exercise RHA and the cycle."""
    net = CanelyNetwork(node_count=6, config=CONFIG)
    for node_id in range(4):
        net.node(node_id).join()
    net.run_for(ms(400))
    net.node(4).join()
    net.node(5).join()
    net.run_for(ms(300))
    net.node(2).leave()
    net.run_for(ms(300))
    assert net.views_agree()
    return fingerprint(net)


def scenario_inconsistent_omissions():
    """FDA traffic hit by inconsistent omissions while a node crashes."""
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.FDA,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[2],
    )
    net = CanelyNetwork(node_count=8, config=CONFIG, injector=injector)
    net.join_all()
    net.run_for(ms(400))
    net.node(6).crash()
    net.run_for(ms(300))
    assert net.views_agree()
    return fingerprint(net)


# -- shared surveillance deadline: same-tick races and divergent observers ----
#
# Every correct observer of a node re-arms that node's surveillance timer
# when one of its fault-free frames goes by; the fast core keeps one
# shared deadline per node for them. These scenarios drive the cases
# where that deadline and the observers' own alarms must hand over
# exactly as the seed core's per-observer alarms would.


def _frame_ticks(net, frame):
    return net.bus.timing.bits_to_ticks(frame.wire_bits(with_interframe=False))


def _settled_net(node_count=4, injector=None):
    net = CanelyNetwork(node_count=node_count, config=CONFIG, injector=injector)
    net.join_all()
    net.run_for(ms(400))
    return net


def _detected_at_delivery(net, subject, kind):
    """Times at which ``subject`` was detected in the very tick one of its
    frames of ``kind`` (``"DATA"``/``"ELS"``) completed on the bus."""
    detections = {
        rec.time for rec in net.sim.trace
        if rec.category == "fd.detect" and rec.data["failed"] == subject
    }
    return [
        rec.time for rec in net.sim.trace
        if rec.category == "bus.tx"
        and rec.data["mid"].node == subject
        and rec.data["mid"].mtype.name == kind
        and rec.time in detections
    ]


def scenario_data_lifesign_at_deadline():
    """A data frame from a node completes in the very tick its observers'
    surveillance deadline expires: the expiries fire first (they were
    armed earlier), then the frame restarts surveillance."""
    net = _settled_net()
    subject = 2
    # The subject's life-signs come from the script alone from here on.
    net.node(subject).detector.stop(subject)
    duration = CONFIG.thb + CONFIG.ttd
    late = data_frame(MessageId(MessageType.DATA, node=subject, ref=901), b"z")

    def on_message(sender, ref, data):
        if sender == subject and ref == 900:
            net.sim.schedule(
                duration - _frame_ticks(net, late),
                lambda: net.node(subject).layer.data_req(late.mid, late.data),
            )

    net.node(0).on_message(on_message)
    net.node(subject).layer.data_req(
        MessageId(MessageType.DATA, node=subject, ref=900), b"a"
    )
    net.run_for(ms(200))
    assert _detected_at_delivery(net, subject, "DATA")
    return fingerprint(net)


def scenario_els_at_deadline():
    """An explicit life-sign completes in the very tick its sender's
    surveillance deadline expires at every observer."""
    net = _settled_net()
    subject = 1
    net.node(subject).detector.stop(subject)
    els_ticks = _frame_ticks(
        net, remote_frame(MessageId(MessageType.ELS, node=subject))
    )

    def on_message(sender, ref, data):
        if sender == subject and ref == 900:
            # The local timer then expires Thb later and its ELS ends
            # exactly Thb + Ttd after this frame.
            net.sim.schedule(
                CONFIG.ttd - els_ticks,
                lambda: net.node(subject).detector.start(subject),
            )

    net.node(0).on_message(on_message)
    net.node(subject).layer.data_req(
        MessageId(MessageType.DATA, node=subject, ref=900), b"a"
    )
    net.run_for(ms(200))
    assert _detected_at_delivery(net, subject, "ELS")
    return fingerprint(net)


def scenario_els_partially_accepted():
    """An ELS reaches only some observers (inconsistent omission): they
    keep alarms of their own until the retransmission reunites them."""
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.ELS and f.mid.node == 3,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[0, 4],
        count=2,
    )
    net = CanelyNetwork(node_count=6, config=CONFIG, injector=injector)
    net.join_all()
    net.run_for(ms(500))
    net.node(5).crash()
    net.run_for(ms(200))
    assert net.views_agree()
    return fingerprint(net)


def scenario_observer_bus_off_and_crash_sender():
    """One observer is driven bus-off by transmit errors, another crashes
    between a failed transmission and its retransmission; both stay
    nominal monitors that miss every later frame."""
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.node == 4 and f.mid.mtype is MessageType.ELS,
        FaultKind.CONSISTENT_OMISSION,
        count=40,
    )
    injector.fault_on_frame(
        lambda f: f.mid.node == 1 and f.mid.mtype is MessageType.ELS,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[0],
        crash_sender=True,
    )
    net = CanelyNetwork(node_count=6, config=CONFIG)
    net.join_all()
    net.run_for(ms(400))
    net.bus.injector = injector
    net.run_for(ms(300))
    assert net.bus.controller(4).tec > 255
    assert net.bus.controller(1).crashed
    return fingerprint(net)


def scenario_start_mid_period_then_merge():
    """Observers restart surveillance mid-period (own alarms, deadlines
    off the shared one) and merge back at the node's next frame. Then,
    while the node's last frame is delivered, one observer arms an alarm
    and another event at the very instant the frame's shared deadline
    moves to: the observers after it in delivery order must expire after
    that event, on alarms of their own."""
    net = _settled_net(node_count=5)
    duration = CONFIG.thb + CONFIG.ttd

    def on_message(sender, ref, data):
        if sender == 3:
            net.node(1).detector.start(4)
            net.sim.schedule(
                duration,
                lambda: net.sim.trace.record(net.sim.now, "probe", node=1),
            )
            net.sim.schedule(0, net.node(3).crash)

    net.node(1).on_message(on_message)
    net.sim.schedule(ms(3), lambda: net.node(0).detector.start(3))
    net.sim.schedule(ms(7), lambda: net.node(4).detector.start(3))
    net.sim.schedule(ms(7), lambda: net.node(2).detector.stop(1))
    net.sim.schedule(ms(9), lambda: net.node(2).detector.start(1))
    net.sim.schedule(ms(60), lambda: net.node(3).send(b"x"))
    net.run_for(ms(300))
    assert net.views_agree()
    return fingerprint(net)


def scenario_crash_then_recover():
    """A node crashes, is removed, reboots and rejoins: observers drop
    and later restart its surveillance."""
    net = _settled_net(node_count=5)
    net.node(2).crash()
    net.run_for(ms(300))
    net.node(2).recover()
    net.node(2).join()
    net.run_for(ms(500))
    assert net.views_agree()
    assert 2 in net.node(0).view().members
    return fingerprint(net)


def scenario_clustered_fda_sender_order():
    """Five survivors cluster the FDA frame announcing a crash, with equal
    per-controller sequence numbers, so arbitration ties: the senders are
    listed in attach order. (Node 4 registers as a transmitter after
    node 5 here, so breaking the tie in registration order would list it
    after node 5.)"""
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.FDA,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[4],
    )
    net = _settled_net(node_count=6)
    net.bus.injector = injector
    net.sim.schedule(ms(40), lambda: net.node(4).detector.start(3))
    net.sim.schedule(ms(43), net.node(3).crash)
    net.run_for(ms(300))
    clustered = [
        rec.data["senders"] for rec in net.sim.trace.select("bus.tx")
        if rec.data["mid"].mtype is MessageType.FDA
        and len(rec.data["senders"]) == 5
    ]
    assert (0, 1, 2, 4, 5) in clustered
    return fingerprint(net)


SHARED_DEADLINE_SCENARIOS = [
    scenario_data_lifesign_at_deadline,
    scenario_els_at_deadline,
    scenario_els_partially_accepted,
    scenario_observer_bus_off_and_crash_sender,
    scenario_start_mid_period_then_merge,
    scenario_crash_then_recover,
]

SCENARIOS = [
    scenario_crash_detection,
    scenario_join_leave_churn,
    scenario_inconsistent_omissions,
    scenario_clustered_fda_sender_order,
    *SHARED_DEADLINE_SCENARIOS,
]


def _assert_equivalent(scenario):
    fast = scenario()
    with legacy_core():
        legacy = scenario()
    assert fast["events"] == legacy["events"]
    assert fast["now"] == legacy["now"]
    assert fast["physical_frames"] == legacy["physical_frames"]
    assert fast["error_frames"] == legacy["error_frames"]
    # Wire lengths: identical per-type bit accounting implies every frame
    # was measured at the same stuffed length by both encoders.
    assert fast["busy_bits"] == legacy["busy_bits"]
    assert fast["bits_by_type"] == legacy["bits_by_type"]
    assert fast["views"] == legacy["views"]
    # Full event order and payloads, record by record.
    assert len(fast["trace"]) == len(legacy["trace"])
    for fast_rec, legacy_rec in zip(fast["trace"], legacy["trace"]):
        assert fast_rec == legacy_rec


def test_crash_detection_equivalent():
    _assert_equivalent(scenario_crash_detection)


def test_join_leave_churn_equivalent():
    _assert_equivalent(scenario_join_leave_churn)


def test_inconsistent_omissions_equivalent():
    _assert_equivalent(scenario_inconsistent_omissions)


def test_clustered_fda_sender_order_equivalent():
    _assert_equivalent(scenario_clustered_fda_sender_order)


@pytest.mark.parametrize(
    "scenario", SHARED_DEADLINE_SCENARIOS, ids=lambda f: f.__name__[9:]
)
def test_shared_deadline_scenario_equivalent(scenario):
    _assert_equivalent(scenario)


@pytest.mark.parametrize(
    "scenario", SHARED_DEADLINE_SCENARIOS, ids=lambda f: f.__name__[9:]
)
def test_shared_deadline_scenario_feature_toggles_change_nothing(
    monkeypatch, scenario
):
    on = scenario()
    off = _with_features_off(monkeypatch, scenario)
    assert on == off


def test_legacy_core_restores_the_fast_core():
    """The context manager must leave no patch behind."""
    from repro.can import bitstream, bus
    from repro.sim import kernel
    from repro.sim.event import EventQueue

    before_complete = bus.CanBus._complete
    with legacy_core():
        assert kernel.EventQueue is not EventQueue
        assert bus.CanBus._complete is not before_complete
        assert not bitstream._fast_encoding
    assert kernel.EventQueue is EventQueue
    assert bus.CanBus._complete is before_complete
    assert bitstream._fast_encoding


# -- feature toggles: filtered delivery --------------------------------------
#
# The bus ships its interest-filtered delivery plans behind a switch. Each
# scenario must produce an *identical* fingerprint with it forced off — the
# plans may only change wall-clock, never a simulated outcome. (COLUMNAR
# defaults off and is covered by the opt-in equivalence tests below.)


def _with_features_off(monkeypatch, scenario):
    import repro.can.bus as bus_mod

    monkeypatch.setattr(bus_mod, "FILTERED_DELIVERY", False)
    return scenario()


def test_crash_detection_feature_toggles_change_nothing(monkeypatch):
    on = scenario_crash_detection()
    off = _with_features_off(monkeypatch, scenario_crash_detection)
    assert on == off


def test_join_leave_churn_feature_toggles_change_nothing(monkeypatch):
    on = scenario_join_leave_churn()
    off = _with_features_off(monkeypatch, scenario_join_leave_churn)
    assert on == off


def test_inconsistent_omissions_feature_toggles_change_nothing(monkeypatch):
    on = scenario_inconsistent_omissions()
    off = _with_features_off(monkeypatch, scenario_inconsistent_omissions)
    assert on == off


def scenario_settled_after_mass_crash(idle_skip):
    """Every node but one crashes. The survivor's heartbeat keeps kernel
    deadlines within ``Thb``, so the settling loop's quiescence probe runs
    every cycle but never actually leaps — this pins the probe itself as
    outcome-neutral (the leap path is unit-tested on a stub network in
    ``test_scenario_builder.py``)."""
    net = CanelyNetwork(node_count=5, config=CONFIG)
    builder = net.scenario(seed=11).bootstrap()
    for node_id in range(1, 5):
        builder.crash(node_id, at=ms(5 * node_id))
    builder.run_until_settled(idle_skip=idle_skip)
    return fingerprint(net)


def test_idle_skip_changes_no_simulated_outcome():
    with_skip = scenario_settled_after_mass_crash(idle_skip=True)
    without = scenario_settled_after_mass_crash(idle_skip=False)
    # The skip leaps provably silent cycles, so fewer kernel events fire
    # and the runs may end at different instants — but every observable
    # protocol outcome (trace, wire accounting, views) is identical up to
    # the shorter run's horizon. Compare everything except the run length.
    assert with_skip["views"] == without["views"]
    assert with_skip["physical_frames"] == without["physical_frames"]
    assert with_skip["error_frames"] == without["error_frames"]
    assert with_skip["busy_bits"] == without["busy_bits"]
    assert with_skip["bits_by_type"] == without["bits_by_type"]
    assert with_skip["trace"] == without["trace"]


def test_feature_toggles_off_match_legacy_core(monkeypatch):
    """Transitivity check: features-off fast core == legacy core, so the
    three-way equivalence (features-on == features-off == legacy) holds."""
    off = _with_features_off(monkeypatch, scenario_crash_detection)
    with legacy_core():
        legacy = scenario_crash_detection()
    assert off["events"] == legacy["events"]
    assert off["trace"] == legacy["trace"]
    assert off["views"] == legacy["views"]


# -- opt-in columnar traces --------------------------------------------------
#
# COLUMNAR defaults off. It stores the very same records in arrays, so it
# changes nothing simulated — not even the event count.


def _with_columnar_trace(monkeypatch, scenario):
    import repro.sim.trace as trace_mod

    monkeypatch.setattr(trace_mod, "COLUMNAR", True)
    return scenario()


def test_columnar_trace_is_bit_identical(monkeypatch):
    """Columnar storage changes nothing simulated at all — even the event
    count — so the whole fingerprint must match record for record."""
    default = scenario_crash_detection()
    columnar = _with_columnar_trace(monkeypatch, scenario_crash_detection)
    assert columnar == default


def test_all_scaling_features_on_outcome_equivalent(monkeypatch):
    """The fast_config stack the scaling benchmarks run — columnar traces
    + filtered delivery — against the stock default core: the whole
    fingerprint, event count included, must match."""
    import repro.can.bus as bus_mod
    import repro.sim.trace as trace_mod

    default = scenario_inconsistent_omissions()
    monkeypatch.setattr(trace_mod, "COLUMNAR", True)
    monkeypatch.setattr(bus_mod, "FILTERED_DELIVERY", True)
    stacked = scenario_inconsistent_omissions()
    assert stacked == default
