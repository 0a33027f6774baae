"""Fabric behavior: selectors, delivery, tokens, audit."""

import itertools
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interconnect.errors import (
    EmptyObjective,
    GoldenParseError,
    InterconnectError,
    InvalidMetadata,
    ModelAlreadyHosted,
    NoEligibleModel,
    SelectorSyntax,
    UnknownNode,
    UnknownTopic,
)
from interconnect.fabric import (
    _RECORD_BREAK,
    AuditOp,
    CompletionToken,
    Fabric,
    MessageEnvelope,
    Selector,
    Subscription,
    SubscriptionMode,
    TagPredicate,
    TokenState,
    _filter,
    _TokenWatch,
)
from interconnect.registry import ModelRegistry, parse_descriptor
from interconnect.trace import AuditEvent, EnvelopeEvent, parse_trace


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
    fabric.create_topic("net/cell-a/load")
    assert fabric.topics() == ["net/cell-a/load"]
    fabric.create_topic("net/cell-a/load")
    assert fabric.topics() == ["net/cell-a/load"]


def test_create_topic_rejects_bad_segments():
    fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.create_topic("net/Cell/load")
    # A trailing line break would split the topic's journal lines.
    with pytest.raises(ValueError):
        fabric.create_topic("a/b\n")
    assert fabric.topics() == []


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


def test_caller_set_ids_cannot_claim_the_fabrics_own_ids():
    # A caller id `m1` used to be accepted and then made the next unnamed
    # publish fail as a duplicate of it.
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    for reserved in ("m1", "m2", "m10"):
        claimed = data_envelope(fabric, "a/b")
        claimed.id = reserved
        with pytest.raises(InvalidMetadata, match="reserved"):
            fabric.publish(claimed)
    assert fabric.journal.events == []
    named = data_envelope(fabric, "a/b")
    named.id = "msg-1"
    fabric.publish(named)
    unnamed = [data_envelope(fabric, "a/b") for _ in range(3)]
    for envelope in unnamed:
        fabric.publish(envelope)
    assert [e.id for e in unnamed] == ["m1", "m2", "m3"]
    again = data_envelope(fabric, "a/b")
    again.id = "msg-1"
    with pytest.raises(InvalidMetadata, match="duplicate"):
        fabric.publish(again)
    # Minted ids are unique by their counter; only caller ids are kept.
    assert fabric._seen_ids == {"msg-1"}


# The boundaries `str.splitlines` splits at besides "\n" and "\r".
_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("separator", ["|", "\n", "\r", *_LINE_BREAKS])
@pytest.mark.parametrize("field", ["origin", "session", "model_id", "detail", "id"])
def test_publish_rejects_record_separators_in_journaled_fields(field, separator):
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    fabric.publish(data_envelope(fabric, "a/b"))
    journaled = len(fabric.journal.events)
    value = f"node{separator}x"
    if field == "id":
        bad = data_envelope(fabric, "a/b")
        bad.id = value
    else:
        bad = data_envelope(fabric, "a/b", **{field: value})
    with pytest.raises(InvalidMetadata):
        fabric.publish(bad)
    assert len(fabric.journal.events) == journaled
    assert parse_trace(fabric.journal.render()).lines() == fabric.journal.lines()


@pytest.mark.parametrize("char", ["\t", "\x1f", "\xa0", "\u2027"], ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("field", ["origin", "session", "model_id", "detail", "id"])
def test_publish_accepts_characters_that_do_not_break_a_line(field, char):
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    value = f"x{char}y"
    envelope = data_envelope(fabric, "a/b", **({} if field == "id" else {field: value}))
    if field == "id":
        envelope.id = value
    fabric.publish(envelope)
    assert parse_trace(fabric.journal.render()).events == fabric.journal.events


@pytest.mark.parametrize("topic", ["telemetry/rogue/load", "managed/n0/knobs"])
def test_publish_rejects_a_payload_that_is_not_bytes(topic):
    # Handlers decode payloads; a str would reach them and crash the reader.
    fabric = make_fabric("node-a")
    fabric.create_topic(topic)
    handled = []
    sub_id = fabric.subscribe(
        Subscription(Selector.parse(topic), "node-a"), handler=handled.append
    )
    journaled = len(fabric.journal.events)
    rogue = data_envelope(fabric, topic)
    rogue.payload = "1/2"
    with pytest.raises(InvalidMetadata):
        fabric.publish(rogue)
    assert len(fabric.journal.events) == journaled
    assert (rogue.id, handled, fabric.drain(sub_id)) == ("", [], [])


@pytest.mark.parametrize("selector", ["a/b zone=n", "a/b zone~=n"])
def test_publish_rejects_an_id_or_metadata_value_that_is_not_a_str(selector):
    # Predicates and the eq index read values as strings: an int or a list
    # would raise partway through the publish, after it was journaled.
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    sub_id = fabric.subscribe(Subscription(Selector.parse(selector), "node-a"))
    journaled = len(fabric.journal.events)
    for value in (5, ["n"]):
        with pytest.raises(InvalidMetadata, match="not a str"):
            fabric.publish(data_envelope(fabric, "a/b", extra={"zone": value}))
    # An int id would be journaled and then fail `journal.render()`.
    bad_id = data_envelope(fabric, "a/b", extra={"zone": "n"})
    bad_id.id = 5
    with pytest.raises(InvalidMetadata, match="not a str"):
        fabric.publish(bad_id)
    assert len(fabric.journal.events) == journaled
    assert fabric.drain(sub_id) == []


@pytest.mark.parametrize(
    "topic,metadata,message",
    [
        ("a/b", None, "metadata must be a dict, got NoneType"),
        ("a/b", [("kind", "data")], "metadata must be a dict, got list"),
        (["a", "b"], {}, "topic ['a', 'b'] is not a str"),
    ],
)
def test_publish_rejects_malformed_envelopes_before_journaling(topic, metadata, message):
    # These used to escape from publish as AttributeError or TypeError.
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    journaled = len(fabric.journal.events)
    with pytest.raises(InvalidMetadata, match=f"^{re.escape(message)}$"):
        fabric.publish(MessageEnvelope(topic, b"x", metadata))
    assert len(fabric.journal.events) == journaled


_VALID = {"kind": "data", "session": "s1", "origin-node": "node-a"}


def _rejection(message, message_id="", **changes):
    """Valid metadata with `changes` applied (`_` in a key stands for `-`,
    None deletes the key), a message id, and the message its rejection
    must carry."""
    metadata = {**_VALID, **{key.replace("_", "-"): value for key, value in changes.items()}}
    return (
        {key: value for key, value in metadata.items() if value is not None},
        message_id,
        message,
    )


_JOURNALED = ("session", "origin-node", "model-id", "detail")
_SEPARATED = ("a|b", "a\rb", "a\nb")
_REJECTIONS = [
    _rejection("metadata 'zone' is not a str: 5", zone=5),
    *(_rejection(f"missing required metadata key {key!r}", **{key: None}) for key in _VALID),
    *(_rejection(f"missing required metadata key {key!r}", **{key: ""}) for key in _VALID),
    _rejection("unknown message kind 'gossip'", kind="gossip"),
    *(
        _rejection(f"metadata {key!r} holds a record separator: {value!r}", **{key: value})
        for key in _JOURNALED
        for value in _SEPARATED
    ),
    *(_rejection(f"message id {value!r} holds a record separator", value) for value in _SEPARATED),
    _rejection("message id 5 is not a str", 5),
    _rejection("message id 'm1' is reserved for minted ids", "m1"),
    _rejection("duplicate message id 'seen'", "seen"),
    # Several faults at once: the first check in the fixed order reports.
    _rejection("metadata 'zone' is not a str: 5", zone=5, session=None),
    _rejection("metadata 'zone' is not a str: [1]", zone=[1], kind="gossip", detail="a|b"),
    _rejection("missing required metadata key 'session'", session=None, kind="gossip"),
    _rejection("missing required metadata key 'kind'", 5, kind=None, origin_node="a|b"),
    _rejection("unknown message kind 'gossip'", kind="gossip", session="a|b"),
    _rejection("unknown message kind 'gossip'", "a|b", kind="gossip"),
    _rejection("metadata 'session' holds a record separator: 'a|b'", session="a|b", detail="c\nd"),
    _rejection("metadata 'detail' holds a record separator: 'a|b'", 5, detail="a|b"),
    _rejection("metadata 'model-id' holds a record separator: 'a\\rb'", "c|d", model_id="a\rb"),
    _rejection("message id 5 is not a str", 5, semantic_tags="a|b"),
    _rejection("message id 'm1|' holds a record separator", "m1|"),
    # Other line breaks, one per field, last so that the cases above keep
    # their ids.
    *(
        _rejection(f"metadata {key!r} holds a record separator: {value!r}", **{key: value})
        for key, value in zip(_JOURNALED, ("a\x0bb", "a\x85b", "a\u2028b", "a\u2029b"))
    ),
    _rejection("message id 'a\\x1cb' holds a record separator", "a\x1cb"),
    # Non-str values in first, middle and last position: the join-based type
    # check still names the first non-str key.
    *(
        (metadata, "", f"metadata {key!r} is not a str: {bad!r}")
        for bad in (5, b"x", None)
        for key, metadata in (
            ("zone", {"zone": bad, **_VALID}),
            ("session", {"kind": "data", "session": bad, "origin-node": "node-a"}),
            ("zone", {**_VALID, "zone": bad}),
        )
    ),
    (
        {"kind": "data", "a": None, "session": 5, "origin-node": b"x"},
        "",
        "metadata 'a' is not a str: None",
    ),
]


@pytest.mark.parametrize("metadata,message_id,message", _REJECTIONS)
def test_publish_rejection_messages_and_precedence(metadata, message_id, message):
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    fabric.publish(MessageEnvelope("a/b", b"x", dict(_VALID), id="seen"))
    journaled = len(fabric.journal.events)
    with pytest.raises(InvalidMetadata, match=f"^{re.escape(message)}$"):
        fabric.publish(MessageEnvelope("a/b", b"x", metadata, id=message_id))
    assert len(fabric.journal.events) == journaled


# The characters `_RECORD_BREAK` matches.
_BREAKS = "|\n\r" + "".join(_LINE_BREAKS)


def _journal_value(fabric, field, value):
    """Journal `value` in `field` of a publish, a channel send or an audit
    on `fabric`; raises what the fabric raises."""
    metadata = dict(_VALID)
    if field == "channel-detail":
        fabric.channel("a/b", metadata)(b"x", value)
    elif field.startswith("audit-"):
        fields = {"actor": "node-a", field[len("audit-"):].replace("-", "_"): value}
        fabric.audit(AuditOp.PLAN, **fields)
    elif field == "id":
        fabric.publish(MessageEnvelope("a/b", b"x", metadata, id=value))
    else:
        metadata[field] = value
        fabric.publish(MessageEnvelope("a/b", b"x", metadata))


@pytest.mark.parametrize(
    "field",
    [
        *_JOURNALED,
        "id",
        "channel-detail",
        "audit-actor",
        "audit-message-id",
        "audit-model-id",
        "audit-outcome",
    ],
)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.text())
@example("")
@example("\t")
@example("\x1f")
@example("\xa0")
@example("\u2027")
@example("\U0001f600")  # astral
@example(_BREAKS)
def test_a_journaled_value_is_accepted_exactly_when_no_record_break_is_found(field, text):
    """Each journaled field takes a value exactly when `_RECORD_BREAK` finds
    nothing in it: the fast test (no `|`, printable) never rejects what the
    search would accept, nor accepts what it would reject. An accepted value
    reads back as one field of one line."""
    for char in ("", *_BREAKS):  # each break character, also as the whole tail
        value = f"x{text}{char}"
        fabric = make_fabric("node-a")
        fabric.create_topic("a/b")
        if _RECORD_BREAK.search(value):
            with pytest.raises(InvalidMetadata, match="holds a record separator"):
                _journal_value(fabric, field, value)
            assert fabric.journal.events == []
        else:
            _journal_value(fabric, field, value)
            assert parse_trace(fabric.journal.render()).lines() == fabric.journal.lines()


_AUDIT_REJECTIONS = [
    ({"actor": "a|b"}, "actor 'a|b' holds a record separator"),
    ({"actor": "a\u2028b"}, "actor 'a\\u2028b' holds a record separator"),
    ({"actor": 5}, "actor 5 is not a str"),
    ({"message_id": "m\n1"}, "message id 'm\\n1' holds a record separator"),
    ({"message_id": 0}, "message id 0 is not a str"),
    ({"model_id": "a\x85b"}, "model id 'a\\x85b' holds a record separator"),
    ({"model_id": b"x"}, "model id b'x' is not a str"),
    ({"outcome": "error(a|b)"}, "outcome 'error(a|b)' holds a record separator"),
    ({"outcome": None}, "outcome None is not a str"),
    # Several bad fields: the first in argument order is named.
    ({"actor": "a|b", "outcome": 5}, "actor 'a|b' holds a record separator"),
    ({"model_id": 5, "message_id": "x\ry"}, "message id 'x\\ry' holds a record separator"),
]


@pytest.mark.parametrize("fields,message", _AUDIT_REJECTIONS)
def test_audit_rejects_a_field_that_would_split_its_line(fields, message):
    fabric = make_fabric("node-a")
    fabric.audit(AuditOp.PLAN, actor="node-a")
    journal = fabric.journal.render()
    with pytest.raises(InvalidMetadata, match=f"^{re.escape(message)}$"):
        fabric.audit(AuditOp.PLAN, **{"actor": "node-a", **fields})
    assert (fabric.journal.render(), fabric.now) == (journal, 1)
    fabric.audit(AuditOp.EXECUTE, "node-a", None, None, "ok")
    assert parse_trace(fabric.journal.render()).events == fabric.journal.events


# -- channels ------------------------------------------------------------------

_ORACLE_TOPIC = "telemetry/n1/load"
_oracle_text = st.one_of(
    st.text(alphabet=st.sampled_from(f"a1/-{_BREAKS}\t\xa0\u2027"), max_size=3),
    st.text(max_size=3),
)
_oracle_value = st.one_of(_oracle_text, st.integers(0, 2), st.none(), st.just(b"x"))


def _mostly(value):
    """`value` three times in four, else any oracle value."""
    return st.integers(0, 3).flatmap(lambda k: st.just(value) if k else _oracle_value)


@st.composite
def _templates(draw):
    """Valid and invalid templates: known and unknown kinds, journaled values
    with and without breaks, missing, empty and non-str values, an optional
    `detail` (replaced by every send) and extra keys, in any order."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([None, [("kind", "data")]]))
    pairs = [
        ("kind", draw(st.sampled_from(["data", "control", "gossip", ""]))),
        ("session", draw(_mostly(draw(st.sampled_from(["telemetry", "s1"]))))),
        ("origin-node", draw(_mostly(draw(st.sampled_from(["n1", "n2"]))))),
        ("model-id", draw(_mostly("mdl"))),
        ("detail", draw(_oracle_value)),
        ("semantic-tags", draw(_mostly("load"))),
        ("error", draw(st.sampled_from(["", "down"]))),
    ]
    kept = draw(st.lists(st.sampled_from(range(len(pairs))), unique=True))
    if draw(st.integers(0, 3)):  # mostly a valid core and few extras, in any order
        kept = [0, 1, 2, *(k for k in kept if k > 2 and draw(st.booleans()))]
        pairs[:3] = [("kind", "data"), ("session", "telemetry"), ("origin-node", "n1")]
    return dict(pairs[k] for k in draw(st.permutations(kept)))


def _oracle_fabric(log):
    """A fabric with durable, filtered and one-shot subscriptions, handlers
    and a token watch on the oracle topic; what they see goes to `log`."""
    fabric = make_fabric("w1", "w2", "w3")
    for topic in (_ORACLE_TOPIC, "other/t"):
        fabric.create_topic(topic)

    def seen(tag):
        return lambda e: log.append((tag, e.id, e.topic, e.payload, list(e.metadata.items())))

    subs = [
        fabric.subscribe(Subscription(Selector.parse("telemetry/**"), "w1"), seen("all")),
        fabric.subscribe(Subscription(Selector.parse("telemetry/*/load detail~=a"), "w2")),
        fabric.subscribe(
            Subscription(Selector.parse(f"{_ORACLE_TOPIC} origin-node=n1"), "w3",
                         mode=SubscriptionMode.ONE_SHOT),
            seen("once"),
        ),
        fabric.subscribe(Subscription(Selector.parse("telemetry/n1/* session!=s1"), "w2")),
    ]
    token = CompletionToken("tok-1", _ORACLE_TOPIC)
    fabric._watch(_TokenWatch(_ORACLE_TOPIC, "data", "telemetry", token))
    token.on_complete(lambda t: log.append(("token", t.state, t.result.id, t.failure)))
    return fabric, subs


def _outcome(call):
    try:
        return call()
    except InterconnectError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([*[_ORACLE_TOPIC] * 6, "other/t", "no/such", 5]),
    _templates(),
    st.lists(
        st.tuples(
            st.one_of(st.binary(max_size=2), _mostly(b"1/2")),
            st.one_of(_mostly("1/2"), _oracle_text),
        ),
        max_size=4,
    ),
    st.booleans(),
)
@example(_ORACLE_TOPIC, {"kind": "data", "session": "telemetry", "origin-node": "n1"},
         [(b"1/2", "a|b"), (b"1/2", "1/2"), ("1/2", "x"), (b"", 5)], True)
@example(_ORACLE_TOPIC, {"detail": 5, "kind": "data", "session": "s1", "origin-node": "n1"},
         [(b"1", "a\u2028"), (b"2", "\t\xa0\u2027")], False)
@example(_ORACLE_TOPIC, {"kind": "data", "x": 5, "session": "s|1", "origin-node": "n1"},
         [(b"1", "ok")], False)
@example(_ORACLE_TOPIC, {"kind": "data", "session": "s1", "origin-node": "n\u2028"},
         [(b"1", "ok")], False)
def test_a_channel_send_equals_the_publish_of_its_envelope(topic, template, sends, mutate):
    """Two fabrics with the same subscriptions, one-shots, handlers and token
    watch: one sends through `channel(topic, template)`, the other
    publishes `MessageEnvelope(topic, payload, {**template, "detail":
    detail})`. A channel refused at creation is refused with the error the
    publish raises for a bytes payload and a clean detail. Otherwise each
    send raises what its publish raises, or both deliver alike: equal
    journals, handler calls, token settlement, mailboxes (metadata key
    order included) and next minted id. Changing the caller's template
    after `channel()` changes nothing sent."""
    log_a, log_b = [], []
    (a, subs), (b, _) = _oracle_fabric(log_a), _oracle_fabric(log_b)
    caller = dict(template) if isinstance(template, dict) else template

    def envelope(payload, detail):
        metadata = {**template, "detail": detail} if isinstance(template, dict) else template
        return MessageEnvelope(topic, payload, metadata)

    made = _outcome(lambda: a.channel(topic, caller))
    if not callable(made):
        assert made == _outcome(lambda: b.publish(envelope(b"x", "ok")))
        assert a.journal.render() == b.journal.render() != ""  # only the subscribes
        return
    if mutate:
        caller.clear()
        caller.update({"kind": "gossip", "session": "a|b", "zone": 5})
    for payload, detail in sends:
        sent = _outcome(lambda: made(payload, detail))
        assert sent == _outcome(lambda: b.publish(envelope(payload, detail)))
        assert a.journal.render() == b.journal.render()
    assert log_a == log_b
    for sub in subs:
        assert [
            (e.id, e.topic, e.payload, list(e.metadata.items()), e.logical_time)
            for e in a.drain(sub)
        ] == [
            (e.id, e.topic, e.payload, list(e.metadata.items()), e.logical_time)
            for e in b.drain(sub)
        ]
    probes = [MessageEnvelope("other/t", b"", dict(_VALID)) for _ in (a, b)]
    a.publish(probes[0])
    b.publish(probes[1])
    assert probes[0].id == probes[1].id


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


@pytest.mark.parametrize("node_id", ["n|x", "n\nx", "n\u2028x", "a/b", "", "Node", 7])
def test_register_node_rejects_an_id_that_is_not_one_topic_segment(node_id):
    """A node id becomes the actor of subscribe, unsubscribe and deliver
    records, so one holding a `|` or a line break would split its trace
    line; it is refused before it is registered, and a subscription for it
    is then refused too."""
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    with pytest.raises(ValueError, match="must be a single topic segment"):
        fabric.register_node(node_id)
    with pytest.raises(UnknownNode):
        fabric.subscribe(Subscription(Selector.parse("a/b"), node_id))
    assert fabric.publish(data_envelope(fabric, "a/b")) == 0
    assert parse_trace(fabric.journal.render()).events == fabric.journal.events


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
_NORTH = TagPredicate("zone", "eq", "north")
_SOUTH = TagPredicate("zone", "eq", "south")
_NOT_X = TagPredicate("kind", "neq", "x")
_B_SOUTH = Selector("a/b", (_SOUTH,))
_predicates = st.sampled_from(
    [
        TagPredicate("session", "eq", "s1"),
        TagPredicate("session", "neq", "s1"),
        TagPredicate("session", "prefix", "s"),
        _NORTH,
        _SOUTH,
        TagPredicate("zone", "neq", "north"),
        TagPredicate("zone", "prefix", "no"),
        TagPredicate("kind", "eq", "data"),
    ]
)
_selectors = st.builds(Selector, _patterns, st.lists(_predicates, max_size=2).map(tuple))
_handler_actions = st.one_of(
    st.none(),
    st.tuples(
        st.just("subscribe"),
        _selectors,
        st.booleans(),
        st.none() | st.integers(min_value=0, max_value=50),
    ),
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
@example(
    [
        ("subscribe", Selector("a/*", (_NORTH, _SOUTH)), False, None, None),
        ("subscribe", Selector("a/*", (_NOT_X, _SOUTH)), False, None, None),
        ("subscribe", Selector("a/**", (_SOUTH,)), True, None, None),
        ("subscribe", Selector("**", (_NORTH,)), False, None, None),
        ("publish", "s1", "south"),
        ("publish", "s1", "north"),
    ]
)
@example(
    [
        ("subscribe", Selector("a/b", (_NORTH,)), False, None, None),
        ("subscribe", Selector("a/b"), False, None, ("subscribe", _B_SOUTH, False, 0)),
        ("subscribe", Selector("a/b"), False, None, ("unsubscribe", 0)),
        ("publish", "s1", "north"),
        ("publish", "s1", "south"),
    ]
)
@example(
    [
        ("publish", "s1", None),
        ("subscribe", Selector("a/b/*"), False, None, None),
        ("publish", "s1", None),
        ("subscribe", Selector("**"), False, None, None),
        ("publish", "s1", "north"),
    ]
)
@example(
    [
        ("subscribe", Selector("a/b"), True, None, None),
        ("subscribe", Selector("a/*/a"), True, None, None),
        ("subscribe", Selector("a/*"), False, None, None),
        ("publish", "s1", None),
        ("publish", "s2", None),
    ]
)
@example(
    [
        ("publish", "s1", None),
        ("subscribe", Selector("a"), False, None, ("subscribe", Selector("a/*/b"), False, None)),
        ("subscribe", Selector("b"), False, None, ("subscribe", Selector("b"), True, None)),
        ("publish", "s1", None),
        ("publish", "s2", None),
    ]
)
@example(
    [
        ("publish", "s1", None),
        ("subscribe", Selector("a/b"), True, None, None),
        ("subscribe", Selector("b/a", (_NOT_X,)), False, None, None),
        ("publish", "s1", None),
        ("subscribe", Selector("a"), False, None, ("unsubscribe", 1)),
        ("subscribe", Selector("a/b"), False, None, ("subscribe", Selector("b/a"), True, None)),
        ("subscribe", Selector("a/*"), True, None, None),
        ("publish", "s1", None),
        ("subscribe", Selector("**"), True, None, None),
        ("publish", "s2", "north"),
        ("publish", "s2", None),
    ]
)
def test_indexed_dispatch_equals_reference_scan(operations):
    """Delivered ids and their order equal a Selector.matches scan over the
    live subscriptions in creation order (dict order, as re-subscribing under
    an existing id keeps its place), through one-shots, re-subscribes,
    unsubscribes and (un)subscribes made from inside handlers. Unsubscribing
    the rest afterwards empties the index.

    The first examples pin the `eq` filing: two values on one key, two `eq`
    predicates on one key that no envelope satisfies, an `eq` after a
    non-`eq` predicate, and an `eq`-filed subscription moved to another
    value and then unsubscribed from inside handlers. The last four pin
    the route cache: every topic is published before a subscription grows
    a new trie branch to it (and a root `**`), one-shots empty and prune
    their buckets, handlers subscribe mid-publish to topics published later
    in the same round, and exact patterns, which drop only their own
    topic's route, come and go among cached predicate-free and filtered
    routes, through one-shots, handlers and `*` and `**` patterns. After
    every round each cached route equals a fresh walk of the index."""
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
                _, new_selector, new_one_shot, reuse = action
                reused = issued[reuse % len(issued)] if reuse is not None else ""
                new_id = subscribe(new_selector, new_one_shot, reused)
                events.append(("subscribed", new_id, new_selector, new_one_shot))
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
            _assert_cached_routes_are_fresh(fabric)
    # Once every subscription has left, nothing of the index is left behind.
    for sub_id in list(reference):
        fabric.unsubscribe(sub_id)
    root = fabric._index
    assert not (root.children or root.here or root.tail)
    assert all(route.keys is None and route.plan == ((), (), (), ())
               for route in fabric._routes.values())


# -- the journal against a reference model ---------------------------------------

_NODES = ("n0", "n1", "n2")
# Few topics, so the same topic is published with repeated and with changing
# predicate values and its route's kept plan is both reused and replaced.
_ORACLE_TOPICS = ("a", "a/b", "b/a", "a/b/a")
_envelope_values = st.tuples(
    st.sampled_from(_ORACLE_TOPICS),
    st.sampled_from(("s1", "s2")),
    st.sampled_from((None, "north", "south")),
)
_subscribe_args = (
    _selectors,
    st.sampled_from(_NODES),
    st.booleans(),
    st.none() | st.integers(min_value=0, max_value=50),
)
_oracle_actions = st.one_of(
    st.none(),
    st.tuples(st.just("publish"), _envelope_values),
    st.tuples(st.just("subscribe"), *_subscribe_args, st.none()),
    st.tuples(st.just("unsubscribe"), st.integers(min_value=0, max_value=50)),
)
_oracle_operations = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), *_subscribe_args, _oracle_actions),
        st.tuples(st.just("unsubscribe"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("publish"), _envelope_values, st.integers(min_value=1, max_value=3)),
    ),
    min_size=10,
    max_size=40,
)


def _run_against_model(operations, read_each):
    """Apply `operations` to a fresh fabric while a model tracks the live
    subscriptions in creation order; returns the fabric and, per message id,
    the subscriber nodes `Selector.matches` over the model gives. Handlers
    act on their first delivery only. With `read_each`, `journal.events` is
    read after every operation and before every handler action. After every
    operation each cached route is checked against a fresh one."""
    fabric = make_fabric("pub", *_NODES)
    for topic in _ORACLE_TOPICS:
        fabric.create_topic(topic)
    live: dict[str, tuple[Selector, str, bool]] = {}  # dict order is creation order
    issued: list[str] = []
    expected: dict[str, list[str]] = {}

    def read():
        if read_each:
            fabric.journal.events

    def publish(values):
        topic, session, zone = values
        envelope = data_envelope(
            fabric, topic, session=session, origin="pub", extra={"zone": zone} if zone else None
        )
        matched = [sid for sid, (sel, _, _) in live.items() if sel.matches(topic, envelope.metadata)]
        nodes = [live[sid][1] for sid in matched]
        for sid in matched:
            if live[sid][2]:
                del live[sid]
        assert fabric.publish(envelope) == len(nodes)
        expected[envelope.id] = nodes

    def unsubscribe(index):
        target = issued[index % len(issued)] if issued else "s0"
        if target in live:
            fabric.unsubscribe(target)
            del live[target]
        else:
            with pytest.raises(ValueError):
                fabric.unsubscribe(target)

    def subscribe(selector, node, one_shot, reuse, action):
        sub_id = issued[reuse % len(issued)] if reuse is not None and issued else ""
        mode = SubscriptionMode.ONE_SHOT if one_shot else SubscriptionMode.DURABLE
        acted = []

        def handler(envelope):
            if action is None or acted:
                return
            acted.append(True)
            read()
            if action[0] == "publish":
                publish(action[1])
            elif action[0] == "subscribe":
                subscribe(*action[1:])
            else:
                unsubscribe(action[1])

        sub_id = fabric.subscribe(Subscription(selector, node, mode=mode, id=sub_id), handler)
        live[sub_id] = (selector, node, one_shot)
        if sub_id not in issued:
            issued.append(sub_id)

    for op in operations:
        if op[0] == "subscribe":
            subscribe(*op[1:])
        elif op[0] == "unsubscribe":
            unsubscribe(op[1])
        else:
            for _ in range(op[2]):
                publish(op[1])
        read()
        _assert_cached_routes_are_fresh(fabric)
    return fabric, expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_oracle_operations)
@example(
    [
        ("subscribe", Selector("a/b", (_NORTH,)), "n0", False, None, None),
        ("subscribe", Selector("a/*", (TagPredicate("session", "eq", "s1"),)), "n1", False,
         None, None),
        ("publish", ("a/b", "s1", "north"), 2),
        ("publish", ("a/b", "s2", "north"), 1),
        ("publish", ("a/b", "s1", "south"), 2),
        ("subscribe", Selector("a/b"), "n2", True, None, ("publish", ("a/b", "s1", None))),
        ("publish", ("a/b", "s1", "north"), 2),
    ]
)
def test_journal_equals_the_reference_model_however_often_it_is_read(operations):
    """Two fabrics run the same operations; one reads `journal.events` after
    every operation (and inside handlers), the other only at the end. Both
    hold the same records; each publish record is preceded by its envelope
    record and followed by deliver records naming the reference subscribers
    in creation order; every record takes the next tick and every audit
    record the next seq; and the rendered journal parses back to the same
    records."""
    eager, expected = _run_against_model(operations, read_each=True)
    lazy, lazy_expected = _run_against_model(operations, read_each=False)
    assert lazy_expected == expected
    events = lazy.journal.events
    assert eager.journal.events == events
    assert [type(e) for e in eager.journal.events] == [type(e) for e in events]
    assert [e.logical_time for e in events] == list(range(1, len(events) + 1))
    audits = [e for e in events if type(e) is AuditEvent]
    assert [e.seq for e in audits] == list(range(1, len(audits) + 1))
    publishes = 0
    for position, event in enumerate(events):
        if type(event) is not AuditEvent or event.op is not AuditOp.PUBLISH:
            continue
        publishes += 1
        nodes = expected[event.message_id]
        envelope = events[position - 1]
        assert type(envelope) is EnvelopeEvent and envelope.message_id == event.message_id
        deliveries = events[position + 1 : position + 1 + len(nodes)]
        assert [(d.op, d.actor, d.message_id) for d in deliveries] == [
            (AuditOp.DELIVER, node, event.message_id) for node in nodes
        ]
        follower = events[position + 1 + len(nodes) : position + 2 + len(nodes)]
        assert not any(type(f) is AuditEvent and f.op is AuditOp.DELIVER for f in follower)
    assert publishes == len(expected)
    assert parse_trace(lazy.journal.render()).events == events


def _assert_cached_routes_are_fresh(fabric):
    """Every cached route reaches what a walk of the index reaches now, and
    its plan is what a fresh filter of that walk makes: for a predicate-free
    route the walk's own plan, for a filtered one the plan for the metadata
    values it was kept for."""
    for topic, route in fabric._routes.items():
        fresh = fabric._route(topic)
        assert {id(bucket) for bucket in route.buckets} == {id(b) for b in fresh.buckets}
        assert route.keys == fresh.keys
        if fresh.keys is None:
            _assert_same_plan(route.plan, fresh.plan)
        elif route.plan_key is not None:
            metadata = {k: v for k, v in zip(route.keys, route.plan_key) if v is not None}
            _assert_same_plan(route.plan, _filter(fresh.buckets, metadata))


def _assert_same_plan(kept, fresh):
    """Same entries, handlers and one-shots (by identity) and same nodes."""
    (entries, handlers, nodes, one_shots), (entries2, handlers2, nodes2, one_shots2) = kept, fresh
    assert nodes == nodes2
    for part, part2 in ((entries, entries2), (handlers, handlers2), (one_shots, one_shots2)):
        assert len(part) == len(part2) and all(a is b for a, b in zip(part, part2))


def test_exact_pattern_changes_keep_other_topics_routes(monkeypatch):
    """Subscribing and unsubscribing an exact result topic drops only that
    topic's cached route: a publish on another topic reuses its route, while
    one on the result topic walks the index again. A `*` pattern still
    clears every route."""
    fabric = make_fabric("pub", "mapek", "client")
    for topic in ("telemetry/n1/load", "sessions/s1/results", "sessions/s2/results"):
        fabric.create_topic(topic)
    collector = fabric.subscribe(Subscription(Selector.parse("telemetry/**"), "mapek"))
    walks = []
    route = Fabric._route

    def counted(self, topic):
        walks.append(topic)
        return route(self, topic)

    monkeypatch.setattr(Fabric, "_route", counted)
    assert fabric.publish(data_envelope(fabric, "telemetry/n1/load", origin="pub")) == 1
    assert walks == ["telemetry/n1/load"]
    results = fabric.subscribe(Subscription(Selector.parse("sessions/s1/results"), "client"))
    assert fabric.publish(data_envelope(fabric, "sessions/s1/results", origin="pub")) == 1
    fabric.unsubscribe(results)
    assert fabric.publish(data_envelope(fabric, "telemetry/n1/load", origin="pub")) == 1
    assert fabric.publish(data_envelope(fabric, "sessions/s1/results", origin="pub")) == 0
    assert walks == ["telemetry/n1/load", "sessions/s1/results", "sessions/s1/results"]
    fabric.subscribe(Subscription(Selector.parse("sessions/*/results"), "client"))
    assert fabric.publish(data_envelope(fabric, "telemetry/n1/load", origin="pub")) == 1
    assert fabric.publish(data_envelope(fabric, "sessions/s2/results", origin="pub")) == 1
    assert walks[3:] == ["telemetry/n1/load", "sessions/s2/results"]
    assert [e.metadata["origin-node"] for e in fabric.drain(collector)] == ["pub"] * 3


@pytest.mark.parametrize("subscribers", [32, 3_200])
def test_a_filtered_route_tests_its_predicates_only_when_their_values_change(
    monkeypatch, subscribers
):
    """The first publish on a topic tests each predicate subscription its
    route reaches once; later publishes with the same origin reuse the
    route's plan and test none, however many subscriptions it holds."""
    fabric = make_fabric("pub", "alarm")
    fabric.create_topic("telemetry/n1/load")
    for k in range(subscribers):
        selector = Selector.parse(f"telemetry/*/load origin-node=n{k}")
        fabric.subscribe(Subscription(selector, "alarm"))
    calls = []
    holds = TagPredicate.holds

    def counted(self, metadata):
        calls.append(self)
        return holds(self, metadata)

    monkeypatch.setattr(TagPredicate, "holds", counted)
    assert fabric.publish(data_envelope(fabric, "telemetry/n1/load", origin="n1")) == 1
    assert len(calls) == subscribers
    assert set(calls) == {TagPredicate("origin-node", "eq", f"n{k}") for k in range(subscribers)}
    calls.clear()
    for _ in range(3):
        assert fabric.publish(data_envelope(fabric, "telemetry/n1/load", origin="n1")) == 1
    assert calls == []


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


def test_subscriber_node_and_mode_are_read_once_at_subscribe():
    """Assigning `subscriber_node` or `mode` after `subscribe` changes
    nothing that is delivered or journaled: a fabric whose subscriptions
    are reassigned writes the same journal and fills the same mailboxes as
    one whose subscriptions are left alone."""
    journals, drained = [], []
    for reassign in (False, True):
        fabric = make_fabric("node-a", "node-b", "node-c")
        fabric.create_topic("a/b")
        durable = Subscription(Selector.parse("a/b"), "node-b")
        one_shot = Subscription(Selector.parse("a/*"), "node-c", mode=SubscriptionMode.ONE_SHOT)
        ids = [fabric.subscribe(durable), fabric.subscribe(one_shot)]
        if reassign:
            durable.subscriber_node, durable.mode = "node-c", SubscriptionMode.ONE_SHOT
            one_shot.subscriber_node, one_shot.mode = "node-b", SubscriptionMode.DURABLE
        assert [fabric.publish(data_envelope(fabric, "a/b")) for _ in range(3)] == [2, 1, 1]
        fabric.unsubscribe(ids[0])
        journals.append(fabric.journal.render())
        drained.append([len(fabric.drain(sub_id)) for sub_id in ids])
    assert journals[1] == journals[0]
    assert drained[1] == drained[0] == [0, 0]
    deliveries = [e.actor for e in parse_trace(journals[1]).events if e[2] == AuditOp.DELIVER]
    assert deliveries == ["node-b", "node-c", "node-b", "node-b"]


def test_publish_journals_one_entry_until_the_journal_is_read():
    """N publishes to 17 subscribers leave N journal entries; reading
    `journal.events` turns them into N x 19 records (an envelope record, a
    publish record and 17 deliver records each), at consecutive ticks, and
    a second read finds nothing left to build."""
    fabric = make_fabric("pub", *(f"watch-{k}" for k in range(17)))
    fabric.create_topic("telemetry/n1/load")
    for k in range(8):
        fabric.subscribe(Subscription(Selector.parse("telemetry/n1/load"), f"watch-{k}"))
    fabric.subscribe(
        Subscription(Selector.parse("telemetry/*/load origin-node=pub"), "watch-8")
    )
    for k in range(9, 17):
        fabric.subscribe(Subscription(Selector.parse("telemetry/**"), f"watch-{k}"))
    mark = len(fabric.journal.events)
    publishes = 25
    for _ in range(publishes):
        assert fabric.publish(data_envelope(fabric, "telemetry/n1/load", origin="pub")) == 17
    assert len(fabric.journal._entries) == mark + publishes
    events = fabric.journal.events
    assert len(events) == mark + publishes * 19
    assert [e.logical_time for e in events] == list(range(1, len(events) + 1))
    assert fabric.journal.events is events and len(events) == mark + publishes * 19
    delivered = [e.actor for e in events[mark + 2 : mark + 19]]
    assert delivered == [f"watch-{k}" for k in range(17)]


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


def test_audit_log_is_a_view_of_the_journal():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    fabric.subscribe(Subscription(Selector.parse("a/b"), "node-b"))
    fabric.publish(data_envelope(fabric, "a/b"))
    before = len(fabric.journal.events)
    returned = fabric.audit(AuditOp.HITL, actor="node-a")
    assert len(fabric.journal.events) == before + 1
    assert fabric.journal.events[-1] is returned
    audits = [e for e in fabric.journal.events if isinstance(e, AuditEvent)]
    records = fabric.audit_log.records()
    assert len(records) == len(audits) == len(fabric.audit_log) == 4
    assert all(r is e for r, e in zip(records, audits))
    assert all(type(r.op) is AuditOp for r in records)


def test_audit_query_filters():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    fabric.subscribe(Subscription(Selector.parse("a/b"), "node-b"))
    fabric.publish(data_envelope(fabric, "a/b"))
    publishes = fabric.audit_log.query(ops=[AuditOp.PUBLISH])
    assert len(publishes) == 1 and publishes[0].actor == "node-a"
    assert fabric.audit_log.query(actor="node-b")[0].op is AuditOp.SUBSCRIBE


def test_publish_journals_exact_records_equal_to_keyword_built_ones():
    """The envelope, publish and deliver records `publish` journals are exact
    `EnvelopeEvent` and `AuditEvent` instances, equal field by field to
    their keyword-built twins; an absent detail or model id renders `-`, and
    the rendered journal parses back to the same records."""
    fabric = make_fabric("node-a", "node-b", "node-c")
    fabric.create_topic("a/b")
    fabric.subscribe(Subscription(Selector.parse("a/b"), "node-b"))
    fabric.subscribe(Subscription(Selector.parse("a/* session=s1"), "node-c"))
    mark = len(fabric.journal.events)
    fabric.publish(data_envelope(fabric, "a/b", model_id="mdl", detail="first"))
    fabric.publish(data_envelope(fabric, "a/b"))
    records = fabric.journal.events[mark:]
    publish, deliver = AuditOp.PUBLISH, AuditOp.DELIVER
    twins = []
    for n, (model_id, detail) in enumerate((("mdl", "first"), (None, None))):
        seq, now, message_id = 3 + 3 * n, 3 + 4 * n, f"m{n + 1}"
        twins += [
            EnvelopeEvent(
                logical_time=now, topic="a/b", kind="data", session="s1", origin="node-a",
                message_id=message_id, detail=detail,
            ),
            AuditEvent(
                seq=seq, logical_time=now + 1, op=publish, actor="node-a",
                message_id=message_id, model_id=model_id, outcome="ok",
            ),
        ] + [
            AuditEvent(
                seq=seq + k, logical_time=now + 1 + k, op=deliver, actor=actor,
                message_id=message_id, model_id=model_id, outcome="ok",
            )
            for k, actor in ((1, "node-b"), (2, "node-c"))
        ]
    assert records == twins
    assert [type(r) for r in records] == [type(t) for t in twins]
    assert all(type(r.op) is AuditOp for r in records if type(r) is AuditEvent)
    assert [r.render() for r in records[4:6]] == [
        "M|7|a/b|data|s1|node-a|m2|-",
        "A|6|8|publish|node-a|m2|-|ok",
    ]
    assert records[0].render() == "M|3|a/b|data|s1|node-a|m1|first"
    rendered = "".join(f"{r.render()}\n" for r in records)
    assert parse_trace(rendered).events == records


def test_audit_line_round_trip():
    fabric = make_fabric("node-a")
    fabric.create_topic("a/b")
    fabric.publish(data_envelope(fabric, "a/b"))
    for record in fabric.audit_log.records():
        (parsed,) = parse_trace(record.render()).events
        assert parsed == record and type(parsed.op) is AuditOp
    with pytest.raises(GoldenParseError):
        parse_trace("A|1|2|publish|node-a|-|-")
    with pytest.raises(GoldenParseError):
        parse_trace("A|1|2|frobnicate|node-a|-|-|ok")


def test_journal_records_are_immutable():
    fabric = make_fabric("node-a", "node-b")
    fabric.create_topic("a/b")
    fabric.subscribe(Subscription(Selector.parse("a/b"), "node-b"))
    fabric.publish(data_envelope(fabric, "a/b"))
    events = fabric.journal.events
    assert [type(e).__name__ for e in events] == [
        "AuditEvent", "EnvelopeEvent", "AuditEvent", "AuditEvent"
    ]
    for event in events:
        with pytest.raises(AttributeError):
            event.logical_time = 0
        with pytest.raises(AttributeError):
            event.extra = "x"
    assert [e.logical_time for e in events] == [1, 2, 3, 4]


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
    # "near" ranks after the unhosted "cheap" and the hosted "fast", yet it
    # is hosted at the hint node; without a hint the first hosted model wins.
    fabric = make_fabric("app", "edge-1", "edge-2")
    registry = ModelRegistry(fabric)
    registry.register(parse_descriptor(descriptor_doc("cheap", latency=1)))
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
    data = data_envelope(fabric, "net/load", origin="app", tags="predict")
    fabric.participate_inference(data, {"session": "job-3"})
    assert fabric.last_envelope("models/fast/requests").metadata["session"] == "job-3"


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


def test_host_model_refuses_a_second_host_before_subscribing():
    fabric = make_fabric("edge-1", "edge-2")
    fabric.host_model("forecaster", "edge-1")
    before = fabric.journal.render()
    for node in ("edge-2", "edge-1"):
        with pytest.raises(ModelAlreadyHosted):
            fabric.host_model("forecaster", node)
    assert fabric.journal.render() == before
    assert fabric.model_host("forecaster") == "edge-1"


def test_host_model_requires_registered_node():
    fabric = make_fabric()
    with pytest.raises(UnknownNode):
        fabric.host_model("forecaster", "ghost")
