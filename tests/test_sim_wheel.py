"""Single-alarm edge cases of the timer service, by backend.

This module once ran every case on both the per-alarm-event heap and the
hierarchical timer wheel. The wheel is deleted, so ``heap`` is the only
backend left (``TIMER_WHEEL`` is a fixed ``False`` that the benchmark's
configuration stamp reads). The batch, drift and restart edge cases moved
to ``test_sim_timers.py``; these basics keep their ids here.
"""

import pytest

import repro.sim.timers as timers_mod
from repro.sim.kernel import Simulator
from repro.sim.timers import TimerService

BACKENDS = ["heap"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    assert timers_mod.TIMER_WHEEL is False
    return request.param


def make(drift=0.0):
    sim = Simulator()
    return sim, TimerService(sim, drift=drift)


def rearm(timers, alarm, duration, on_expire):
    """The failure-detector idiom: restart in place, else cancel + start."""
    if timers.restart_alarm(alarm, duration):
        return alarm
    timers.cancel_alarm(alarm)
    return timers.start_alarm(duration, on_expire)


def test_alarm_fires_at_exact_deadline(backend):
    sim, timers = make()
    fired = []
    timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [100]
    assert timers.pending_count == 0


def test_zero_duration_ignores_drift(backend):
    """Drift stretches a duration; a zero duration has nothing to stretch."""
    sim, timers = make(drift=1e-4)
    fired = []
    timers.start_alarm(0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0]


def test_cancel_before_expiry_never_fires(backend):
    sim, timers = make()
    fired = []
    alarm = timers.start_alarm(100, lambda: fired.append(1))
    timers.cancel_alarm(alarm)
    sim.run()
    assert fired == []
    assert timers.pending_count == 0


def test_cancel_after_fire_is_noop(backend):
    sim, timers = make()
    alarm = timers.start_alarm(10, lambda: None)
    sim.run()
    timers.cancel_alarm(alarm)  # must not raise
    assert not timers.is_pending(alarm)


def test_restart_postpones_expiry(backend):
    sim, timers = make()
    fired = []
    alarm = timers.start_alarm(100, lambda: fired.append(sim.now))
    sim.run_until(60)
    alarm = rearm(timers, alarm, 100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [160]
    assert timers.pending_count == 0
