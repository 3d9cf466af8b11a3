"""Unit tests for the event queue."""

from repro.sim.event import Event, EventQueue


def test_push_pop_single():
    queue = EventQueue()
    fired = []
    queue.push(10, lambda: fired.append(1))
    event = queue.pop()
    assert event.time == 10
    event.action()
    assert fired == [1]


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_time_ordering():
    queue = EventQueue()
    queue.push(30, lambda: None)
    queue.push(10, lambda: None)
    queue.push(20, lambda: None)
    times = [queue.pop().time for _ in range(3)]
    assert times == [10, 20, 30]


def test_fifo_tie_break_at_same_time():
    queue = EventQueue()
    order = []
    queue.push(5, lambda: order.append("first"))
    queue.push(5, lambda: order.append("second"))
    queue.push(5, lambda: order.append("third"))
    while (event := queue.pop()) is not None:
        event.action()
    assert order == ["first", "second", "third"]


def test_priority_beats_insertion_order():
    queue = EventQueue()
    order = []
    queue.push(5, lambda: order.append("low"), priority=1)
    queue.push(5, lambda: order.append("high"), priority=0)
    while (event := queue.pop()) is not None:
        event.action()
    assert order == ["high", "low"]


def test_cancelled_event_is_skipped():
    queue = EventQueue()
    event = queue.push(1, lambda: None)
    queue.push(2, lambda: None)
    event.cancel()
    assert queue.pop().time == 2


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(1, lambda: None)
    queue.push(7, lambda: None)
    assert queue.peek_time() == 1
    first.cancel()
    assert queue.peek_time() == 7


def test_peek_time_empty():
    assert EventQueue().peek_time() is None


def test_len_and_bool():
    queue = EventQueue()
    assert not queue
    assert len(queue) == 0
    queue.push(1, lambda: None)
    assert queue
    assert len(queue) == 1


def test_clear():
    queue = EventQueue()
    queue.push(1, lambda: None)
    queue.clear()
    assert queue.pop() is None


def test_len_excludes_cancelled():
    queue = EventQueue()
    keep = queue.push(1, lambda: None)
    drop = queue.push(2, lambda: None)
    drop.cancel()
    assert len(queue) == 1
    assert bool(queue)
    keep.cancel()
    assert len(queue) == 0
    assert not queue


def test_cancel_is_idempotent_for_the_count():
    queue = EventQueue()
    queue.push(1, lambda: None)
    event = queue.push(2, lambda: None)
    event.cancel()
    event.cancel()  # double cancel must not double-count
    assert len(queue) == 1


def test_cancel_after_pop_does_not_skew_count():
    queue = EventQueue()
    event = queue.push(1, lambda: None)
    queue.push(2, lambda: None)
    popped = queue.pop()
    assert popped is event
    event.cancel()  # the event already left the queue
    assert len(queue) == 1


def test_lazy_purge_compacts_dominating_dead_entries():
    queue = EventQueue()
    events = [queue.push(t, lambda: None) for t in range(200)]
    for event in events[:150]:
        event.cancel()
    # The purge rebuilt the heap: far fewer entries than were pushed.
    assert len(queue._heap) < 100
    assert len(queue) == 50
    times = []
    while (event := queue.pop()) is not None:
        times.append(event.time)
    assert times == list(range(150, 200))


def test_cancel_after_clear_is_safe():
    """clear() orphans its events; cancelling one later must neither raise
    nor corrupt the live count of events pushed afterwards."""
    queue = EventQueue()
    orphan = queue.push(1, lambda: None)
    queue.push(2, lambda: None)
    queue.clear()
    assert len(queue) == 0
    survivor = queue.push(3, lambda: None)
    orphan.cancel()  # already detached by clear(): a no-op
    assert len(queue) == 1
    assert queue.pop() is survivor
    assert queue.pop() is None


def test_clear_resets_cancelled_bookkeeping():
    queue = EventQueue()
    events = [queue.push(t, lambda: None) for t in range(10)]
    for event in events[:4]:
        event.cancel()
    queue.clear()
    assert len(queue) == 0
    assert queue._cancelled == 0
    queue.push(1, lambda: None)
    assert len(queue) == 1


def test_pop_all_after_mixed_cancellations():
    queue = EventQueue()
    events = [queue.push(t, lambda: None) for t in range(20)]
    for event in events[::2]:
        event.cancel()
    assert len(queue) == 10
    remaining = []
    while (event := queue.pop()) is not None:
        remaining.append(event.time)
    assert remaining == list(range(1, 20, 2))
    assert len(queue) == 0


def test_watch_flags_events_filed_at_the_watched_instant():
    queue = EventQueue()
    moved = queue.push(10, lambda: None)
    queue.watch(50)
    queue.push(40, lambda: None)
    queue.reschedule(moved, 45)
    assert not queue.watched
    queue.push(50, lambda: None)
    assert queue.watched
    queue.watch(60)  # a new watch starts unflagged
    assert not queue.watched
    queue.reschedule(moved, 60)
    assert queue.watched
    queue.watch(-1)
    queue.push(60, lambda: None)
    assert not queue.watched


def test_push_under_a_given_sequence_number_orders_by_it():
    """An event moved back to its old place hands its new sequence number
    to a fresh event (what a shared surveillance deadline does when some
    observers miss a frame)."""
    queue = EventQueue()
    moved = queue.push(10, lambda: None)
    peer = queue.push(20, lambda: None)
    old = (moved.time, moved.seq)
    queue.reschedule(moved, 20)
    new_seq = moved.seq
    moved.time, moved.seq = old
    fresh = queue.push(20, lambda: None, 0, new_seq)
    assert [queue.pop(), queue.pop(), queue.pop()] == [moved, peer, fresh]
