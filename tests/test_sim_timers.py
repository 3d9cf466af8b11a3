"""Unit tests for the start_alarm / cancel_alarm timer service."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.timers import SharedAlarm, TimerService


def make():
    sim = Simulator()
    return sim, TimerService(sim)


def rearm(timers, alarm, duration, on_expire):
    """The failure-detector idiom: restart in place, else cancel + start."""
    if timers.restart_alarm(alarm, duration):
        return alarm
    timers.cancel_alarm(alarm)
    return timers.start_alarm(duration, on_expire)


def test_alarm_fires_at_deadline():
    sim, timers = make()
    fired = []
    timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [100]
    assert timers.pending_count == 0


def test_cancel_before_expiry():
    sim, timers = make()
    fired = []
    alarm = timers.start_alarm(100, lambda: fired.append(1))
    timers.cancel_alarm(alarm)
    sim.run()
    assert fired == []
    assert timers.pending_count == 0


def test_cancel_none_is_noop():
    _, timers = make()
    timers.cancel_alarm(None)


def test_cancel_after_fire_is_noop():
    sim, timers = make()
    alarm = timers.start_alarm(10, lambda: None)
    sim.run()
    timers.cancel_alarm(alarm)  # must not raise
    assert not timers.is_pending(alarm)


def test_is_pending_lifecycle():
    sim, timers = make()
    alarm = timers.start_alarm(10, lambda: None)
    assert timers.is_pending(alarm)
    sim.run()
    assert not timers.is_pending(alarm)


def test_is_pending_after_cancel():
    _, timers = make()
    alarm = timers.start_alarm(10, lambda: None)
    timers.cancel_alarm(alarm)
    assert not timers.is_pending(alarm)


def test_is_pending_none():
    _, timers = make()
    assert not timers.is_pending(None)


def test_pending_count():
    sim, timers = make()
    timers.start_alarm(10, lambda: None)
    timers.start_alarm(20, lambda: None)
    assert timers.pending_count == 2
    sim.run_until(15)
    assert timers.pending_count == 1


def test_alarm_ids_unique():
    _, timers = make()
    first = timers.start_alarm(10, lambda: None)
    second = timers.start_alarm(10, lambda: None)
    assert first.alarm_id != second.alarm_id


def test_deadline_recorded():
    sim, timers = make()
    sim.run_until(40)
    alarm = timers.start_alarm(60, lambda: None)
    assert alarm.deadline == 100


def test_negative_duration_rejected():
    _, timers = make()
    with pytest.raises(ValueError):
        timers.start_alarm(-1, lambda: None)


def test_zero_duration_fires_now_even_with_drift():
    sim = Simulator()
    timers = TimerService(sim, drift=1e-4)
    fired = []
    timers.start_alarm(0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0]


def test_zero_duration_alarm_fires_at_current_instant():
    sim, timers = make()
    fired = []
    sim.schedule_at(40, lambda: timers.start_alarm(0, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [40]


def test_drift_stretches_duration():
    sim = Simulator()
    timers = TimerService(sim, drift=0.5)
    fired = []
    timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [150]


def test_fast_clock_never_rounds_a_duration_to_zero():
    """duration=1 with a fast oscillator must still fire strictly later."""
    sim = Simulator()
    timers = TimerService(sim, drift=-0.9)
    alarm = timers.start_alarm(1, lambda: None)
    assert alarm.deadline == 1


def test_drifted_deadline_fires_at_the_stretched_instant():
    """drift=1e-4 (100 ppm): a 10 ms alarm fires exactly 1 us late."""
    sim = Simulator()
    timers = TimerService(sim, drift=1e-4)
    fired = []
    timers.start_alarm(10_000_000, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10_001_000]


def test_drifted_restart_matches_cancel_and_start():
    def drive(use_restart):
        sim = Simulator()
        timers = TimerService(sim, drift=1e-4)
        fired = []
        cb = lambda: fired.append(sim.now)
        alarm = timers.start_alarm(5_000_000, cb)
        sim.run_until(2_000_000)
        if use_restart:
            assert timers.restart_alarm(alarm, 5_000_000)
        else:
            timers.cancel_alarm(alarm)
            timers.start_alarm(5_000_000, cb)
        sim.run()
        return fired

    assert drive(True) == drive(False) == [7_000_500]


def test_sim_property_exposes_kernel():
    sim, timers = make()
    assert timers.sim is sim


def test_restart_pattern():
    """The failure-detector idiom: cancel + re-arm postpones expiry."""
    sim, timers = make()
    fired = []
    alarm = timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run_until(50)
    timers.cancel_alarm(alarm)
    timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [150]


# -- restart_alarm (the in-place surveillance rearm) --------------------------


def test_restart_alarm_defers_in_place():
    sim, timers = make()
    fired = []
    alarm = timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run_until(50)
    assert timers.restart_alarm(alarm, 100)
    assert alarm.deadline == 150
    sim.run()
    assert fired == [150]
    assert timers.pending_count == 0


def test_restart_alarm_keeps_handle_identity():
    sim, timers = make()
    alarm = timers.start_alarm(100, lambda: None)
    alarm_id = alarm.alarm_id
    assert timers.restart_alarm(alarm, 200)
    assert alarm.alarm_id == alarm_id
    assert timers.is_pending(alarm)


def test_restart_alarm_applies_drift():
    sim = Simulator()
    timers = TimerService(sim, drift=0.5)
    fired = []
    alarm = timers.start_alarm(100, lambda: fired.append(sim.now))
    assert timers.restart_alarm(alarm, 200)
    assert alarm.deadline == 300
    sim.run()
    assert fired == [300]


def test_restart_alarm_negative_duration_rejected():
    _, timers = make()
    alarm = timers.start_alarm(10, lambda: None)
    with pytest.raises(ValueError):
        timers.restart_alarm(alarm, -1)


def test_restart_alarm_refuses_none_and_inactive():
    sim, timers = make()
    assert not timers.restart_alarm(None, 10)
    fired_alarm = timers.start_alarm(10, lambda: None)
    sim.run()
    assert not timers.restart_alarm(fired_alarm, 10)
    cancelled_alarm = timers.start_alarm(10, lambda: None)
    timers.cancel_alarm(cancelled_alarm)
    assert not timers.restart_alarm(cancelled_alarm, 10)


def test_restart_alarm_refuses_earlier_deadline():
    sim, timers = make()
    alarm = timers.start_alarm(100, lambda: None)
    assert not timers.restart_alarm(alarm, 10)
    assert alarm.deadline == 100


def test_restart_alarm_refuses_legacy_queue():
    from repro.perf.legacy import LegacyEventQueue

    sim = Simulator()
    sim._queue = LegacyEventQueue()
    timers = TimerService(sim)
    alarm = timers.start_alarm(100, lambda: None)
    assert not timers.restart_alarm(alarm, 200)


def test_restart_alarm_refuses_when_spans_enabled():
    sim, timers = make()
    alarm = timers.start_alarm(100, lambda: None)
    sim.spans.enabled = True
    try:
        assert not timers.restart_alarm(alarm, 200)
    finally:
        sim.spans.enabled = False


def test_restart_equivalent_to_cancel_and_start():
    """Bit-identical outcome: restart vs the seed cancel-and-start idiom,
    including the interleaving with an independent same-deadline alarm."""

    def drive(use_restart):
        sim, timers = make()
        fired = []
        watched = timers.start_alarm(100, lambda: fired.append(("w", sim.now)))
        timers.start_alarm(150, lambda: fired.append(("peer", sim.now)))
        sim.run_until(50)
        if use_restart:
            assert timers.restart_alarm(watched, 100)
        else:
            timers.cancel_alarm(watched)
            timers.start_alarm(100, lambda: fired.append(("w", sim.now)))
        sim.run()
        return fired, sim.events_processed

    assert drive(True) == drive(False)


def test_restart_to_earlier_deadline():
    """Shrinking the remaining time takes effect: the in-place restart
    refuses and the cancel-and-start fallback re-arms."""
    sim, timers = make()
    fired = []
    alarm = timers.start_alarm(1_000_000, lambda: fired.append(sim.now))
    alarm = rearm(timers, alarm, 10, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10]
    assert timers.pending_count == 0


def test_restart_on_expired_alarm_falls_back_to_start():
    sim, timers = make()
    fired = []
    cb = lambda: fired.append(sim.now)
    alarm = timers.start_alarm(100, cb)
    sim.run()
    assert fired == [100]
    assert not timers.restart_alarm(alarm, 100)
    rearm(timers, alarm, 100, cb)
    sim.run()
    assert fired == [100, 200]


def test_repeated_surveillance_rearm():
    """Rearm on every observed frame: only the final arming fires, exactly
    one duration after the last rearm."""
    sim, timers = make()
    fired = []
    cb = lambda: fired.append(sim.now)
    alarm = timers.start_alarm(100, cb)
    for at in range(10, 500, 10):
        sim.run_until(at)
        alarm = rearm(timers, alarm, 100, cb)
    sim.run()
    assert fired == [590]
    assert timers.pending_count == 0


# -- same-instant expiries -----------------------------------------------------


def test_same_deadline_fires_in_arm_order():
    sim, timers = make()
    fired = []
    for label in "abcde":
        timers.start_alarm(100, lambda l=label: fired.append(l))
    sim.run()
    assert fired == list("abcde")


def test_same_deadline_order_survives_restart():
    """An alarm restarted onto a peer's deadline fires after that peer:
    rearming consumes a fresh sequence number, as cancel-and-start does."""

    def drive(use_restart):
        sim, timers = make()
        fired = []
        a = timers.start_alarm(50, lambda: fired.append("a"))
        timers.start_alarm(100, lambda: fired.append("b"))
        if use_restart:
            assert timers.restart_alarm(a, 100)
        else:
            timers.cancel_alarm(a)
            timers.start_alarm(100, lambda: fired.append("a"))
        sim.run()
        return fired

    assert drive(True) == drive(False) == ["b", "a"]


def test_cancel_during_fire_batch():
    """Two alarms due at the same instant; the first callback cancels the
    second, which the kernel already took off the heap for this batch."""
    sim, timers = make()
    fired = []
    second = [None]

    def first_cb():
        fired.append("first")
        timers.cancel_alarm(second[0])

    timers.start_alarm(100, first_cb)
    second[0] = timers.start_alarm(100, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first"]
    assert timers.pending_count == 0


def test_rearm_during_fire_batch():
    """A same-instant callback pushing a peer's deadline forward defers
    that peer's expiry."""
    sim, timers = make()
    fired = []
    peer = [None]

    def first_cb():
        fired.append(("first", sim.now))
        peer[0] = rearm(timers, peer[0], 50, peer_cb)

    def peer_cb():
        fired.append(("peer", sim.now))

    timers.start_alarm(100, first_cb)
    peer[0] = timers.start_alarm(100, peer_cb)
    sim.run()
    assert fired == [("first", 100), ("peer", 150)]


# -- distant deadlines ---------------------------------------------------------

#: About 36 simulated minutes at nanosecond ticks: far beyond any protocol
#: timer.
DISTANT = 2_199_023_267_897


def test_distant_deadline_fires_exactly():
    sim, timers = make()
    fired = []
    timers.start_alarm(DISTANT, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [DISTANT]


def test_cancel_distant_alarm():
    sim, timers = make()
    fired = []
    far = timers.start_alarm(DISTANT, lambda: fired.append("far"))
    timers.start_alarm(100, lambda: fired.append("near"))
    timers.cancel_alarm(far)
    sim.run()
    assert fired == ["near"]
    assert timers.pending_count == 0


# -- SharedAlarm (one deadline for many members) -------------------------------


def make_shared(sim, log, duration=100):
    return SharedAlarm(
        sim, duration, 7, lambda member, tag: log.append((sim.now, member, tag))
    )


def test_shared_alarm_fires_members_in_order_key_order():
    sim = Simulator()
    log = []
    shared = make_shared(sim, log)
    shared.members.update({"c": 2, "a": 0, "b": 1})
    shared.arm(100)
    shared.settle(())
    assert shared.event is not None
    sim.run()
    assert log == [(100, "a", 7), (100, "b", 7), (100, "c", 7)]
    assert shared.event is None
    # One kernel event stood for three alarms.
    assert sim.events_processed == 3


def test_shared_alarm_member_removed_by_an_earlier_expiry_does_not_fire():
    sim = Simulator()
    log = []
    shared = SharedAlarm(
        sim, 10, 0,
        lambda member, tag: (log.append(member), shared.discard("b")),
    )
    shared.members.update({"a": 0, "b": 1})
    shared.arm(10)
    shared.settle(())
    sim.run()
    assert log == ["a"]
    assert sim.events_processed == 1


def test_shared_alarm_last_member_out_cancels_the_event():
    sim = Simulator()
    log = []
    shared = make_shared(sim, log)
    shared.members.update({"a": 0, "b": 1})
    shared.arm(50)
    shared.settle(())
    shared.discard("a")
    assert shared.event is not None and sim.pending_events == 1
    shared.discard("b")
    shared.discard("b")  # not a member any more: no-op
    assert shared.event is None and sim.pending_events == 0
    assert shared.removals == 2
    sim.run()
    assert log == []


def test_shared_alarm_rearm_defers_in_place():
    sim = Simulator()
    log = []
    shared = make_shared(sim, log)
    shared.members["a"] = 0
    shared.arm(50)
    shared.settle(())
    event = shared.event
    sim.run_until(30)
    shared.arm(80)
    shared.settle(())
    assert shared.event is event  # rescheduled, not replaced
    sim.run()
    assert log == [(80, "a", 7)]


def test_shared_alarm_split_keeps_the_old_place_in_the_event_order():
    """Members a frame missed keep the deadline they had *and* its place
    among same-instant events; the others move on."""
    sim = Simulator()
    log = []
    shared = make_shared(sim, log)
    shared.members.update({"a": 0, "b": 1})
    shared.arm(50)
    shared.settle(())
    # Filed after the shared deadline, at the same instant.
    sim.schedule(50, lambda: log.append((sim.now, "peer", None)))
    sim.run_until(20)
    shared.arm(70)
    held = shared.settle(["b"])
    assert list(held.members) == ["b"] and list(shared.members) == ["a"]
    sim.run()
    assert log == [(50, "b", 7), (50, "peer", None), (70, "a", 7)]


def test_shared_alarm_rearm_after_expiry_starts_a_new_event():
    sim = Simulator()
    log = []
    shared = make_shared(sim, log, duration=10)
    shared.members["a"] = 0
    shared.arm(10)
    shared.settle(())
    sim.run()
    shared.arm(25)
    shared.settle(())
    sim.run()
    assert log == [(10, "a", 7), (25, "a", 7)]


def test_timer_service_shareable():
    sim = Simulator()
    assert TimerService(sim).shareable
    assert not TimerService(sim, drift=1e-4).shareable
