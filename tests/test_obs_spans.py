"""Unit and integration tests for the causal span tracer."""

import pytest

from repro.core.stack import CanelyNetwork
from repro.obs.spans import (
    NULL_TRACER,
    SpanTracer,
    render_span_tree,
    span_to_dict,
)
from repro.sim.clock import ms


# -- tracer unit tests ----------------------------------------------------------------


def test_begin_end_records_interval_and_attrs():
    tracer = SpanTracer(clock=lambda: 0)
    span_id = tracer.begin("can.tx", "bus", node=3, at=10, mid="X")
    tracer.end(span_id, at=25, kind="none")
    span = tracer.get(span_id)
    assert (span.start, span.end, span.duration) == (10, 25, 15)
    assert span.attrs == {"mid": "X", "kind": "none"}
    assert span.node == 3 and span.category == "bus"


def test_end_is_idempotent_and_none_safe():
    tracer = SpanTracer(clock=lambda: 0)
    span_id = tracer.begin("a", "x", at=1)
    tracer.end(span_id, at=2)
    tracer.end(span_id, at=99)  # double-end: no-op
    tracer.end(None, at=99)  # None handle: no-op
    assert tracer.get(span_id).end == 2


def test_context_stack_supplies_parent():
    tracer = SpanTracer(clock=lambda: 0)
    root = tracer.begin("root", "x", at=0)
    assert tracer.current is None
    tracer.push(root)
    child = tracer.begin("child", "x", at=1)
    tracer.pop()
    orphan = tracer.begin("orphan", "x", at=2)
    assert tracer.get(child).parent == root
    assert tracer.get(orphan).parent is None


def test_explicit_parent_wins_over_stack():
    tracer = SpanTracer(clock=lambda: 0)
    a = tracer.begin("a", "x", at=0)
    b = tracer.begin("b", "x", at=0)
    tracer.push(a)
    child = tracer.begin("child", "x", parent=b, at=1)
    tracer.pop()
    assert tracer.get(child).parent == b


def test_instant_is_zero_duration_and_can_parent():
    tracer = SpanTracer(clock=lambda: 7)
    point = tracer.instant("node.crash", "node", node=2)
    span = tracer.get(point)
    assert span.start == span.end == 7 and span.duration == 0
    tracer.push(point)
    child = tracer.begin("fd.detect", "fd", at=8)
    tracer.pop()
    assert tracer.get(child).parent == point


def test_events_attach_to_open_spans():
    tracer = SpanTracer(clock=lambda: 0)
    span_id = tracer.begin("can.frame", "can", at=0)
    tracer.event(span_id, "arb-loss", at=5)
    tracer.event(None, "ignored")
    assert tracer.get(span_id).events == [(5, "arb-loss")]


def test_spans_share_one_empty_event_tuple_until_their_first_event():
    tracer = SpanTracer(clock=lambda: 0)
    quiet = tracer.begin("a", "bus", at=0)
    busy = tracer.begin("b", "bus", at=0)
    assert tracer.get(quiet).events is tracer.get(busy).events == ()
    tracer.event(busy, "arb-loss", at=3)
    tracer.event(busy, "arb-loss", at=4)
    assert tracer.get(busy).events == [(3, "arb-loss"), (4, "arb-loss")]
    assert tracer.get(quiet).events == ()
    # The projection is a list either way.
    assert span_to_dict(tracer.get(quiet))["events"] == []
    assert span_to_dict(tracer.get(busy))["events"] == [
        (3, "arb-loss"), (4, "arb-loss")
    ]


def test_queries_select_children_ancestors_root():
    tracer = SpanTracer(clock=lambda: 0)
    a = tracer.begin("a", "bus", node=1, at=0)
    b = tracer.begin("b", "fd", node=2, parent=a, at=1)
    c = tracer.begin("c", "fd", node=2, parent=b, at=2)
    assert [s.span_id for s in tracer.select(category="fd")] == [b, c]
    assert [s.span_id for s in tracer.select(node=1)] == [a]
    assert [s.span_id for s in tracer.select(name="c")] == [c]
    assert [s.span_id for s in tracer.children(a)] == [b]
    assert [s.span_id for s in tracer.ancestors(c)] == [b, a]  # nearest first
    assert tracer.root(c).span_id == a
    assert tracer.root(a).span_id == a


def test_open_spans_summary_and_clear():
    tracer = SpanTracer(clock=lambda: 0)
    a = tracer.begin("a", "bus", at=0)
    tracer.begin("a", "bus", at=3)
    tracer.end(a, at=2)
    assert len(tracer.open_spans()) == 1
    assert tracer.summary() == {("bus", "a"): 2}
    assert tracer.max_time() == 3
    tracer.enabled = True
    tracer.clear()
    assert len(tracer) == 0 and tracer.enabled


def test_span_to_dict_is_jsonable():
    import json

    tracer = SpanTracer(clock=lambda: 0)
    span_id = tracer.begin("a", "bus", node=1, at=0, mid="M")
    tracer.event(span_id, "e", at=1)
    tracer.end(span_id, at=2)
    payload = span_to_dict(tracer.get(span_id))
    assert json.loads(json.dumps(payload)) == {
        "span_id": span_id,
        "name": "a",
        "category": "bus",
        "node": 1,
        "start": 0,
        "end": 2,
        "parent": None,
        "attrs": {"mid": "M"},
        "events": [[1, "e"]],
    }


def test_render_span_tree_indents_by_causal_depth():
    tracer = SpanTracer(clock=lambda: 0)
    a = tracer.begin("root", "x", node=0, at=0)
    b = tracer.begin("mid", "x", node=1, parent=a, at=1)
    tracer.begin("leaf", "x", node=2, parent=b, at=2)
    lines = render_span_tree(tracer, a)
    assert len(lines) == 3
    assert "root" in lines[0] and "mid" in lines[1] and "leaf" in lines[2]
    # Each causal level is indented two columns deeper than its parent.
    assert lines[1].index("mid") - lines[0].index("root") == 2
    assert lines[2].index("leaf") - lines[1].index("mid") == 2


def test_null_tracer_is_shared_and_disabled():
    assert not NULL_TRACER.enabled
    # The no-op entry points must be safe on the shared instance.
    NULL_TRACER.end(None)
    NULL_TRACER.event(None, "x")


# -- stack integration ----------------------------------------------------------------


@pytest.fixture(scope="module")
def crashed_net():
    """A bootstrapped 4-node network whose node 2 crashed, spans enabled."""
    net = CanelyNetwork(node_count=4, spans=True)
    (
        net.scenario(seed=7)
        .bootstrap()
        .crash(2, at=ms(2))
        .run_until_settled()
    )
    return net


def test_spans_disabled_by_default_records_nothing():
    net = CanelyNetwork(node_count=4)
    net.scenario().bootstrap().crash(2, at=ms(2)).run_until_settled()
    assert not net.sim.spans.enabled
    assert len(net.sim.spans) == 0


def test_crash_scenario_covers_the_span_taxonomy(crashed_net):
    names = {name for _category, name in crashed_net.sim.spans.summary()}
    assert {
        "msh.join",
        "msh.cycle",
        "fd.surveillance",
        "fd.els",
        "fd.detect",
        "can.frame",
        "can.tx",
        "can.rx",
        "fda.nty",
        "rha.timer",
        "rha.execution",
        "msh.view",
        "msh.change",
        "node.crash",
    } <= names


def test_detection_tree_roots_at_the_surveillance_timer(crashed_net):
    spans = crashed_net.sim.spans
    detects = spans.select(
        name="fd.detect", predicate=lambda s: s.attrs.get("failed") == 2
    )
    assert detects, "the crash of node 2 must be detected"
    detect = detects[0]
    parent = spans.get(detect.parent)
    # The detection is caused by the surveillance timer monitoring node 2.
    assert parent.name == "fd.surveillance"
    assert parent.attrs["tag"] == 2
    assert parent.attrs["outcome"] == "fired"
    # ... and that timer was armed by node 2's own last life-sign: walking
    # further up the chain always reaches node 2 traffic.
    assert any(
        span.node == 2 and span.name == "fd.els"
        for span in spans.ancestors(detect.span_id)
    )


def test_failure_sign_fans_out_to_every_survivor(crashed_net):
    spans = crashed_net.sim.spans
    nty_nodes = {
        span.node
        for span in spans.select(name="fda.nty")
        if span.attrs.get("failed") == 2
    }
    assert nty_nodes == {0, 1, 3}
    for span in spans.select(name="fda.nty"):
        if span.attrs.get("failed") != 2:
            continue
        ancestor_names = [a.name for a in spans.ancestors(span.span_id)]
        # Delivered over a per-node rx span of a physical transmission.
        assert ancestor_names[0] == "can.rx"
        assert "can.tx" in ancestor_names
        assert "fd.detect" in ancestor_names


def test_surveillance_timers_record_their_outcome(crashed_net):
    outcomes = {
        span.attrs.get("outcome")
        for span in crashed_net.sim.spans.select(name="fd.surveillance")
        if span.end is not None
    }
    # Life-sign arrivals cancel-and-rearm; the detection fires one.
    assert outcomes == {"fired", "cancelled"}


def test_crashed_node_queue_spans_are_accounted(crashed_net):
    spans = crashed_net.sim.spans
    crashed_frames = [
        span
        for span in spans.select(name="can.frame", node=2)
        if span.attrs.get("outcome") == "crashed"
    ]
    # Whatever node 2 still queued when it died is closed, not leaked.
    for span in crashed_frames:
        assert span.end is not None
    assert not [s for s in spans.open_spans() if s.name == "fd.detect"]


def test_span_ids_are_deterministic_across_same_seed_runs():
    def run():
        net = CanelyNetwork(node_count=4, spans=True)
        (
            net.scenario(seed=3)
            .bootstrap()
            .crash(1, at=ms(2))
            .run_until_settled()
        )
        return [span_to_dict(span) for span in net.sim.spans]

    assert run() == run()
