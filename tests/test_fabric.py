"""Fabric behavior: selectors, delivery, tokens, audit, backend choice."""

import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interconnect.errors import (
    EmptyObjective,
    InvalidMetadata,
    NoEligibleModel,
    NoSatisfyingBackend,
    SelectorSyntax,
    UnknownNode,
    UnknownTopic,
)
from interconnect.fabric import (
    AuditOp,
    BackendProfile,
    Fabric,
    InteractionSpec,
    Selector,
    Subscription,
    SubscriptionMode,
    TagPredicate,
    TokenState,
    parse_audit_line,
)
from interconnect.registry import ModelRegistry, parse_descriptor
from interconnect.trace import AuditEvent, EnvelopeEvent


def make_fabric(*nodes):
    fabric = Fabric()
    for node in nodes:
        fabric.register_node(node)
    return fabric


def data_envelope(fabric, topic, payload=b"x", **kwargs):
    kwargs.setdefault("kind", "data")
    kwargs.setdefault("session", "s1")
    kwargs.setdefault("origin", "node-a")
    return fabric.envelope(topic, payload, **kwargs)


def descriptor_doc(model_id, capabilities=("predict",), domains=(), latency=1):
    return json.dumps(
        {
            "modelId": model_id,
            "modelType": "analytics",
            "version": "1.0.0",
            "category": "Specialized",
            "architecture": {"family": "transformer", "parameterScaleLabel": "small"},
            "capabilities": [{"name": name} for name in capabilities],
            "domains": list(domains),
            "performance": {
                "rateLimitPerTick": 4,
                "latencyTicks": latency,
                "throughputPerTick": 4,
                "maxConcurrent": 2,
            },
            "security": {
                "authMethods": ["token"],
                "encryption": ["tls"],
                "privacyPolicy": "local-only",
            },
        }
    )


# -- selectors ---------------------------------------------------------------


def test_selector_parse_render_round_trip():
    text = "net/*/load kind=data origin-node!=ghost semantic-tags~=soil"
    selector = Selector.parse(text)
    assert selector.render() == text
    assert Selector.parse(selector.render()) == selector


@pytest.mark.parametrize(
    "text",
    [
        "",
        "net/**/load",
        "net/Load",
        "net/load kind=",
        "net/load Kind=data",
        "net//load",
    ],
)
def test_selector_parse_rejects_bad_input(text):
    with pytest.raises(SelectorSyntax):
        Selector.parse(text)


@pytest.mark.parametrize(
    "pattern,topic,match",
    [
        ("a/b", "a/b", True),
        ("a/b", "a/b/c", False),
        ("a/*", "a/b", True),
        ("a/*", "a/b/c", False),
        ("a/*/c", "a/b/c", True),
        ("a/**", "a", True),
        ("a/**", "a/b/c/d", True),
        ("a/**", "b/c", False),
        ("**", "anything/at/all", True),
    ],
)
def test_topic_glob_matching(pattern, topic, match):
    assert Selector.parse(pattern).matches(topic, {}) is match


def test_predicates_against_missing_keys():
    metadata = {"kind": "data"}
    assert Selector.parse("a kind=data").matches("a", metadata)
    assert not Selector.parse("a session=s1").matches("a", metadata)
    assert Selector.parse("a session!=s1").matches("a", metadata)
    assert not Selector.parse("a session~=s").matches("a", metadata)
    assert Selector.parse("a kind~=da").matches("a", metadata)
    assert not Selector.parse("a kind!=data").matches("a", metadata)


# -- topics and publish -------------------------------------------------------


def test_create_topic_is_idempotent():
    fabric = make_fabric()
    first = fabric.create_topic("net/cell-a/load")
    second = fabric.create_topic("net/cell-a/load")
    assert first == second
    assert fabric.topics() == ["net/cell-a/load"]


def test_create_topic_rejects_bad_segments():
    fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.create_topic("net/Cell/load")


def test_publish_to_missing_topic_raises():
    fabric = make_fabric("node-a")
    with pytest.raises(UnknownTopic):
        fabric.publish(data_envelope(fabric, "no/such"))


def test_publish_requires_metadata():
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    bad = data_envelope(fabric, "a/b")
    del bad.metadata["session"]
    with pytest.raises(InvalidMetadata):
        fabric.publish(bad)
    odd = data_envelope(fabric, "a/b", kind="gossip")
    with pytest.raises(InvalidMetadata):
        fabric.publish(odd)


def test_publish_assigns_sequential_ids_and_rejects_reuse():
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    first = data_envelope(fabric, "a/b")
    fabric.publish(first)
    assert first.id == "m1"
    second = data_envelope(fabric, "a/b")
    fabric.publish(second)
    assert second.id == "m2"
    stale = data_envelope(fabric, "a/b")
    stale.id = "m1"
    with pytest.raises(InvalidMetadata):
        fabric.publish(stale)


def test_publish_retains_latest_envelope():
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    assert fabric.last_envelope("a/b") is None
    fabric.publish(data_envelope(fabric, "a/b", b"one"))
    fabric.publish(data_envelope(fabric, "a/b", b"two"))
    assert fabric.last_envelope("a/b").payload == b"two"


def test_journal_orders_envelope_before_its_audits():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    fabric.subscribe(Subscription(Selector.parse("a/b"), "node-b"))
    fabric.publish(data_envelope(fabric, "a/b"))
    kinds = [type(e).__name__ for e in fabric.journal.events]
    assert kinds == ["AuditEvent", "EnvelopeEvent", "AuditEvent", "AuditEvent"]
    env = fabric.journal.events[1]
    pub = fabric.journal.events[2]
    dlv = fabric.journal.events[3]
    assert isinstance(env, EnvelopeEvent)
    assert (pub.op, dlv.op) == ("publish", "deliver")
    assert env.logical_time < pub.logical_time < dlv.logical_time


# -- subscriptions ------------------------------------------------------------


def test_durable_subscription_buffers_until_drained():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    sub_id = fabric.subscribe(Subscription(Selector.parse("a/b"), "node-b"))
    assert fabric.publish(data_envelope(fabric, "a/b", b"one")) == 1
    assert fabric.publish(data_envelope(fabric, "a/b", b"two")) == 1
    assert fabric.pending(sub_id) == 2
    drained = fabric.drain(sub_id)
    assert [e.payload for e in drained] == [b"one", b"two"]
    assert fabric.drain(sub_id) == []


def test_subscribe_requires_registered_node():
    fabric = make_fabric()
    with pytest.raises(UnknownNode):
        fabric.subscribe(Subscription(Selector.parse("a/b"), "ghost"))


def test_unsubscribe_stops_delivery_and_rejects_unknown_ids():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    sub_id = fabric.subscribe(Subscription(Selector.parse("a/b"), "node-b"))
    fabric.unsubscribe(sub_id)
    assert fabric.publish(data_envelope(fabric, "a/b")) == 0
    with pytest.raises(ValueError):
        fabric.unsubscribe(sub_id)


def test_one_shot_fires_once_via_handler():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    received = []
    fabric.subscribe(
        Subscription(Selector.parse("a/b"), "node-b", mode=SubscriptionMode.ONE_SHOT),
        handler=received.append,
    )
    assert fabric.publish(data_envelope(fabric, "a/b", b"first")) == 1
    assert fabric.publish(data_envelope(fabric, "a/b", b"second")) == 0
    assert [e.payload for e in received] == [b"first"]


def test_handler_may_publish_reentrantly():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    fabric.create_topic("a/echo")

    def echo(envelope):
        fabric.publish(
            data_envelope(fabric, "a/echo", envelope.payload, origin="node-b")
        )

    fabric.subscribe(Subscription(Selector.parse("a/b"), "node-b"), handler=echo)
    fabric.publish(data_envelope(fabric, "a/b", b"ping"))
    assert fabric.last_envelope("a/echo").payload == b"ping"


def test_selector_predicates_filter_deliveries():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    sub_id = fabric.subscribe(
        Subscription(Selector.parse("a/b semantic-tags~=soil"), "node-b")
    )
    fabric.publish(data_envelope(fabric, "a/b", tags="soil,moisture"))
    fabric.publish(data_envelope(fabric, "a/b", tags="weather"))
    assert fabric.pending(sub_id) == 1


# -- indexed dispatch against the reference scan --------------------------------

_SEGMENTS = ("a", "b")
_TOPICS = tuple(
    "/".join(parts) for n in (1, 2, 3) for parts in itertools.product(_SEGMENTS, repeat=n)
)
_pattern_segments = st.lists(st.sampled_from(_SEGMENTS + ("*",)), max_size=3)
_patterns = st.one_of(
    _pattern_segments.filter(bool).map("/".join),
    _pattern_segments.map(lambda segments: "/".join(segments + ["**"])),
    st.just("a/**/b"),
)
_predicates = st.sampled_from(
    [
        TagPredicate("session", "eq", "s1"),
        TagPredicate("session", "neq", "s1"),
        TagPredicate("session", "prefix", "s"),
        TagPredicate("zone", "eq", "north"),
        TagPredicate("zone", "neq", "north"),
        TagPredicate("zone", "prefix", "no"),
        TagPredicate("kind", "eq", "data"),
    ]
)
_selectors = st.builds(Selector, _patterns, st.lists(_predicates, max_size=2).map(tuple))
_handler_actions = st.one_of(
    st.none(),
    st.tuples(st.just("subscribe"), _selectors, st.booleans()),
    st.tuples(st.just("unsubscribe"), st.integers(min_value=0, max_value=50)),
)
_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("subscribe"),
            _selectors,
            st.booleans(),
            st.none() | st.integers(min_value=0, max_value=50),
            _handler_actions,
        ),
        st.tuples(st.just("unsubscribe"), st.integers(min_value=0, max_value=50)),
        st.tuples(
            st.just("publish"),
            st.sampled_from(("s1", "s2")),
            st.sampled_from((None, "north", "south")),
        ),
    ),
    min_size=10,
    max_size=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_operations)
@example(
    [
        ("subscribe", Selector("a/**/b"), False, None, None),
        ("subscribe", Selector("a/**"), False, None, None),
        ("subscribe", Selector("**"), True, None, None),
        ("publish", "s1", None),
    ]
)
def test_indexed_dispatch_equals_reference_scan(operations):
    """Delivered ids and their order equal a Selector.matches scan over the
    live subscriptions in creation order (dict order, as re-subscribing under
    an existing id keeps its place), through one-shots, re-subscribes,
    unsubscribes and (un)subscribes made from inside handlers."""
    fabric = make_fabric("pub", "sub")
    for topic in _TOPICS:
        fabric.create_topic(topic)
    reference: dict[str, tuple[Selector, bool]] = {}
    issued: list[str] = []
    events: list[tuple] = []

    def subscribe(selector, one_shot, sub_id="", action=None):
        mode = SubscriptionMode.ONE_SHOT if one_shot else SubscriptionMode.DURABLE
        subscription = Subscription(selector, "sub", mode=mode, id=sub_id)

        def handler(envelope):
            events.append(("deliver", subscription.id))
            if action is not None and action[0] == "subscribe":
                new_id = subscribe(action[1], action[2])
                events.append(("subscribed", new_id, action[1], action[2]))
            elif action is not None:
                target = issued[action[1] % len(issued)]
                try:
                    fabric.unsubscribe(target)
                    events.append(("unsubscribed", target, True))
                except ValueError:
                    events.append(("unsubscribed", target, False))

        new_id = fabric.subscribe(subscription, handler=handler)
        if new_id not in issued:
            issued.append(new_id)
        return new_id

    for op in operations:
        if op[0] == "subscribe":
            _, selector, one_shot, reuse, action = op
            sub_id = issued[reuse % len(issued)] if reuse is not None and issued else ""
            reference[subscribe(selector, one_shot, sub_id, action)] = (selector, one_shot)
        elif op[0] == "unsubscribe":
            target = issued[op[1] % len(issued)] if issued else "s0"
            if target in reference:
                fabric.unsubscribe(target)
                del reference[target]
            else:
                with pytest.raises(ValueError):
                    fabric.unsubscribe(target)
        else:
            _, session, zone = op
            for topic in _TOPICS:
                envelope = data_envelope(
                    fabric, topic, session=session, origin="pub",
                    extra={"zone": zone} if zone else None,
                )
                expected = [
                    sub_id
                    for sub_id, (selector, _) in reference.items()
                    if selector.matches(topic, envelope.metadata)
                ]
                events.clear()
                assert fabric.publish(envelope) == len(expected)
                assert [e[1] for e in events if e[0] == "deliver"] == expected
                for sub_id in expected:
                    if reference[sub_id][1]:
                        del reference[sub_id]
                for event in events:
                    if event[0] == "subscribed":
                        reference[event[1]] = (event[2], event[3])
                    elif event[0] == "unsubscribed":
                        assert event[2] is (event[1] in reference)
                        reference.pop(event[1], None)


def test_selector_is_read_once_at_subscribe():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    fabric.create_topic("a/c")
    subscription = Subscription(Selector.parse("a/b"), "node-b")
    sub_id = fabric.subscribe(subscription)
    subscription.selector = Selector.parse("a/c")
    fabric.publish(data_envelope(fabric, "a/b"))
    fabric.publish(data_envelope(fabric, "a/c"))
    assert [e.topic for e in fabric.drain(sub_id)] == ["a/b"]


# -- audit ---------------------------------------------------------------------


def test_audit_seq_dense_and_time_monotone():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    fabric.subscribe(Subscription(Selector.parse("a/b"), "node-b"))
    fabric.publish(data_envelope(fabric, "a/b"))
    fabric.publish(data_envelope(fabric, "a/b"))
    records = fabric.audit_log.records()
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    times = [r.logical_time for r in records]
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_audit_query_filters():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    fabric.subscribe(Subscription(Selector.parse("a/b"), "node-b"))
    fabric.publish(data_envelope(fabric, "a/b"))
    publishes = fabric.audit_query(ops=[AuditOp.PUBLISH])
    assert len(publishes) == 1 and publishes[0].actor == "node-a"
    assert fabric.audit_query(actor="node-b")[0].op is AuditOp.SUBSCRIBE
    assert fabric.audit_query(time_range=(1, 1))[0].seq == 1


def test_audit_line_round_trip():
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    fabric.publish(data_envelope(fabric, "a/b"))
    for record in fabric.audit_log.records():
        assert parse_audit_line(record.to_line()) == record
    with pytest.raises(ValueError):
        parse_audit_line("1|2|publish|node-a|-|-")


def test_audit_flush_writes_one_line_per_record(tmp_path):
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    fabric.publish(data_envelope(fabric, "a/b"))
    path = tmp_path / "audit.log"
    count = fabric.audit_log.flush(path)
    lines = path.read_text().splitlines()
    assert count == len(lines) == len(fabric.audit_log)


# -- participation -------------------------------------------------------------


def serve_one_request(fabric, host_sub, model_id):
    """Drain the model's request queue and answer on the result topic."""
    (request,) = fabric.drain(host_sub)
    reply = fabric.envelope(
        request.metadata["result-topic"],
        b"answer",
        kind="inference-result",
        session=request.metadata["session"],
        origin=fabric.model_host(model_id),
        model_id=model_id,
    )
    fabric.publish(reply)
    return request


def test_participate_inference_settles_token():
    fabric = make_fabric("app", "edge-1")
    registry = ModelRegistry(fabric)
    registry.register(parse_descriptor(descriptor_doc("forecaster")))
    host_sub = fabric.host_model("forecaster", "edge-1")
    fabric.create_topic("net/load")
    data = data_envelope(fabric, "net/load", b"41/50", origin="app", tags="predict")
    token = fabric.participate_inference(data, {"session": "job-1"})
    assert token.state is TokenState.PENDING
    request = serve_one_request(fabric, host_sub, "forecaster")
    assert request.metadata["capability"] == "predict"
    assert token.state is TokenState.NOTIFIED
    assert token.result.payload == b"answer"


def test_participate_inference_prefers_locality_hint():
    fabric = make_fabric("app", "edge-1", "edge-2")
    registry = ModelRegistry(fabric)
    registry.register(parse_descriptor(descriptor_doc("fast", latency=1)))
    registry.register(parse_descriptor(descriptor_doc("near", latency=5)))
    fabric.host_model("fast", "edge-1")
    fabric.host_model("near", "edge-2")
    fabric.create_topic("net/load")
    data = data_envelope(
        fabric, "net/load", origin="app", tags="predict", locality="edge-2"
    )
    token = fabric.participate_inference(data, {"session": "job-2"})
    assert token.state is TokenState.PENDING
    assert fabric.last_envelope("models/near/requests") is not None
    assert fabric.last_envelope("models/fast/requests") is None


def test_error_metadata_fails_the_token():
    fabric = make_fabric("app", "edge-1")
    registry = ModelRegistry(fabric)
    registry.register(parse_descriptor(descriptor_doc("forecaster")))
    fabric.host_model("forecaster", "edge-1")
    fabric.create_topic("net/load")
    data = data_envelope(fabric, "net/load", origin="app", tags="predict")
    token = fabric.participate_inference(data, {"session": "job-3"})
    reply = fabric.envelope(
        token.result_topic,
        b"",
        kind="inference-result",
        session="job-3",
        origin="edge-1",
        extra={"error": "ModelOverloaded"},
    )
    fabric.publish(reply)
    assert token.state is TokenState.FAILED
    assert token.failure == "ModelOverloaded"


def test_token_settles_exactly_once():
    fabric = make_fabric("app", "edge-1")
    registry = ModelRegistry(fabric)
    registry.register(parse_descriptor(descriptor_doc("forecaster")))
    host_sub = fabric.host_model("forecaster", "edge-1")
    fabric.create_topic("net/load")
    data = data_envelope(fabric, "net/load", origin="app", tags="predict")
    token = fabric.participate_inference(data, {"session": "job-4"})
    seen = []
    token.on_complete(lambda t: seen.append(t.state))
    serve_one_request(fabric, host_sub, "forecaster")
    token.fail("too late")
    assert token.state is TokenState.NOTIFIED
    assert seen == [TokenState.NOTIFIED]
    late = []
    token.on_complete(lambda t: late.append(t.state))
    assert late == [TokenState.NOTIFIED]


def test_settled_and_failed_tokens_leave_no_watches():
    fabric = make_fabric("app", "edge-1")
    registry = ModelRegistry(fabric)
    registry.register(parse_descriptor(descriptor_doc("forecaster")))
    host_sub = fabric.host_model("forecaster", "edge-1")
    fabric.create_topic("net/load")
    for k in range(100):
        data = data_envelope(fabric, "net/load", origin="app", tags="predict")
        token = fabric.participate_inference(data, {"session": f"job-{k}"})
        token.fail("no reply within settle budget")
        fabric.drain(host_sub)
    data = data_envelope(fabric, "net/load", origin="app", tags="predict")
    token = fabric.participate_inference(data, {"session": "served"})
    serve_one_request(fabric, host_sub, "forecaster")
    assert token.state is TokenState.NOTIFIED
    assert not fabric._watches


def test_participate_inference_requires_data_kind_and_session():
    fabric = make_fabric("app")
    ModelRegistry(fabric)
    fabric.create_topic("net/load")
    prompt = data_envelope(fabric, "net/load", kind="prompt", origin="app")
    with pytest.raises(InvalidMetadata):
        fabric.participate_inference(prompt, {"session": "s"})
    data = data_envelope(fabric, "net/load", origin="app", tags="predict")
    with pytest.raises(InvalidMetadata):
        fabric.participate_inference(data, {})


def test_participate_inference_without_capability_or_model():
    fabric = make_fabric("app")
    ModelRegistry(fabric)
    fabric.create_topic("net/load")
    bare = data_envelope(fabric, "net/load", origin="app")
    with pytest.raises(NoEligibleModel):
        fabric.participate_inference(bare, {"session": "s"})
    tagged = data_envelope(fabric, "net/load", origin="app", tags="levitate")
    with pytest.raises(NoEligibleModel):
        fabric.participate_inference(tagged, {"session": "s"})


def test_participate_learning_notifies_on_cycle_completion():
    fabric = make_fabric("app")
    registry = ModelRegistry(fabric, update_cycle_len=2)
    registry.register(parse_descriptor(descriptor_doc("forecaster")))
    fabric.create_topic("net/load")
    first = data_envelope(fabric, "net/load", origin="app", model_id="forecaster")
    fabric.publish(first)
    token_a = fabric.participate_learning(first, "improve range")
    assert token_a.state is TokenState.PENDING
    second = data_envelope(fabric, "net/load", origin="app", model_id="forecaster")
    fabric.publish(second)
    token_b = fabric.participate_learning(second, "improve range")
    assert token_a.state is TokenState.NOTIFIED
    assert token_b.state is TokenState.NOTIFIED
    assert registry.versions("forecaster") == ["1.0.0", "1.0.1"]


def test_participate_learning_rejects_empty_objective():
    fabric = make_fabric("app")
    registry = ModelRegistry(fabric)
    registry.register(parse_descriptor(descriptor_doc("forecaster")))
    fabric.create_topic("net/load")
    data = data_envelope(fabric, "net/load", origin="app", model_id="forecaster")
    with pytest.raises(EmptyObjective):
        fabric.participate_learning(data, "   ")


def test_participate_learning_unknown_model():
    fabric = make_fabric("app")
    ModelRegistry(fabric)
    fabric.create_topic("net/load")
    data = data_envelope(fabric, "net/load", origin="app", model_id="ghost")
    with pytest.raises(NoEligibleModel):
        fabric.participate_learning(data, "objective")


def test_host_model_requires_registered_node():
    fabric = make_fabric()
    with pytest.raises(UnknownNode):
        fabric.host_model("forecaster", "ghost")


# -- backend selection ----------------------------------------------------------


def test_select_backend_prefers_lowest_latency():
    fabric = make_fabric()
    spec = InteractionSpec(("a", "b"), realtime=True, guarantees=frozenset({"ordered"}))
    assert fabric.select_backend(spec).name == "mesh-rt"


def test_select_backend_respects_guarantees():
    fabric = make_fabric()
    spec = InteractionSpec(("a",), guarantees=frozenset({"ordered", "durable"}))
    assert fabric.select_backend(spec).name == "stream-log"


def test_select_backend_failure_modes():
    fabric = make_fabric()
    with pytest.raises(NoSatisfyingBackend):
        fabric.select_backend(InteractionSpec(("a",), guarantees=frozenset({"exactly-once"})))
    with pytest.raises(ValueError):
        fabric.select_backend(InteractionSpec(()))


def test_select_backend_breaks_latency_ties_by_name():
    profiles = (
        BackendProfile("zeta", frozenset({"ordered"}), 3),
        BackendProfile("alpha", frozenset({"ordered"}), 3),
    )
    fabric = Fabric(profiles=profiles)
    assert fabric.select_backend(InteractionSpec(("a",))).name == "alpha"
