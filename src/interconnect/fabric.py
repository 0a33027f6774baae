"""Semantic publish/subscribe fabric with audited AI operations.

The fabric decouples applications across space (publishers never learn who
received a message beyond a delivery count), time (durable subscriptions
buffer messages until drained), and synchronization (one-shot requests and
participate* calls return completion tokens instead of blocking).

Every accepted operation is journaled, stamped with fabric-local logical
time: `audit` appends its record, and `publish` appends one entry that
stands for its envelope record, its publish record and one deliver record
per match, built when the journal is read (see `trace`). `audit_log` is a
read-only view of the audit records. There is no wall clock anywhere; a
single monotone counter orders everything, which makes whole runs
replayable byte for byte.
The fabric is single-threaded and holds no lock. Delivery handlers and token
callbacks run after a publish has updated every table, so a handler may
publish, subscribe or unsubscribe.

A publish is its checks and one delivery core (`_deliver`: journal entry,
mailboxes, retained envelope, token watches, handlers). `publish` checks
the whole envelope each time. A channel (`channel(topic, metadata)`, after
the DataWriter of OMG DDS 1.4, which is bound once to its topic) checks the
topic and the metadata once, when it is made, and its sender checks only
what varies per send, the payload and the `detail`, before it mints the id
and enters the same core; so what a send delivers and journals, and every
error it raises, are those of the equal `publish`. A journaled value is
checked for record breaks by a fast exact test first (`|` absent and the
text printable: every character `_RECORD_BREAK` matches is `|` or not
printable), and by the regex only when that test fails.

Dispatch is indexed by topic segments: `subscribe` files each subscription
in a segment trie (exact, `*` and final `**` segments, after MQTT v5.0 topic
filters), so a publish walks only the branches its topic can reach, and
checks the predicates of the subscriptions filed there. `Selector.matches`
remains the definition of a match: a publish reaches exactly the
subscriptions whose selector accepts the envelope, in subscription-creation
order. A subscription's selector, subscriber node and mode are read once,
at `subscribe`; assigning `subscription.selector`, `.subscriber_node` or
`.mode` afterwards changes nothing that is delivered or journaled.

The trie walk for a topic is cached: `_routes` maps each topic published
since its route last changed to a `_Route`, so a publish on a known topic
skips the walk. A route carries a delivery plan: the matched entries in
creation order, their handlers, their subscriber nodes (the tuple the
journal entry shares) and the one-shots among them. When no bucket the walk
reaches holds an entry with predicates, as for `telemetry/**` alone or a
result topic with one subscriber, every publish on the topic matches the
same subscriptions, and the plan is built with the route; a publish takes it
with no predicate test or sort. Any other route holds the non-empty buckets
and the metadata keys their predicates read. It keeps the plan of its last
filter, keyed by those keys' values (an absent key counts as `None`), which
decide every predicate on the route; so a filtered route tests its buckets'
entries again only when a publish's values for those keys differ from the
last filter's, and then replaces the plan.

A bucket's contents change, and a trie node appears or goes, only in
`_index_entry` and `_unindex` (subscribe, re-subscribe, unsubscribe and a
fired one-shot). A pattern without `*` is reached by one topic, the one
named like it, so those two drop only that topic's route, and its plan with
it; a pattern holding `*` may reach any number of topics and clears the
whole cache. It holds at most one route per created topic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from .errors import (
    EmptyObjective,
    InvalidMetadata,
    ModelAlreadyHosted,
    NoEligibleModel,
    SelectorSyntax,
    UnknownNode,
    UnknownTopic,
)
from .trace import AuditEvent, AuditOp, Trace

# Required metadata on every envelope.
KIND_KEY = "kind"
SESSION_KEY = "session"
ORIGIN_KEY = "origin-node"
REQUIRED_METADATA = (KIND_KEY, SESSION_KEY, ORIGIN_KEY)
# Metadata copied into journal records, which are `|`-separated lines.
_JOURNALED_METADATA = (SESSION_KEY, ORIGIN_KEY, "model-id", "detail")
# `|` and every boundary `str.splitlines` splits at, so `parse_trace` reads
# a journaled value back as one field of one line.
_RECORD_BREAK = re.compile(r"[|\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# The ids publish mints; a caller-set id may not take one.
_MINTED_ID = re.compile(r"m[0-9]+")


def _unbroken(text: str) -> bool:
    """Whether `parse_trace` reads `text` back as one field of one line.

    `|` absent and `text` printable is an exact accept, since every
    character `_RECORD_BREAK` matches is `|` or not printable; only text
    failing it is searched."""
    return ("|" not in text and text.isprintable()) or not _RECORD_BREAK.search(text)


def check_journaled(name: str, value: object) -> None:
    """Raise InvalidMetadata, naming the value as `name`, unless it is a
    `str` that `parse_trace` reads back as one field of one line.

    `Fabric.audit` applies it to every field it journals; a caller that
    changes state before it audits checks its values on entry with it."""
    if not isinstance(value, str):
        raise InvalidMetadata(f"{name} {value!r} is not a str")
    if not _unbroken(value):
        raise InvalidMetadata(f"{name} {value!r} holds a record separator")


KIND_DATA = "data"
KIND_PROMPT = "prompt"
KIND_INFERENCE_RESULT = "inference-result"
KIND_MODEL_UPDATE = "model-update"
KIND_CONTROL = "control"
MESSAGE_KINDS = frozenset(
    {KIND_DATA, KIND_PROMPT, KIND_INFERENCE_RESULT, KIND_MODEL_UPDATE, KIND_CONTROL}
)

# Matched with `fullmatch`: a `$` would let a trailing "\n" through, and a
# topic holding one would split its journal line.
_SEGMENT_RE = re.compile(r"[a-z0-9][a-z0-9._-]*")


@dataclass(slots=True)
class MessageEnvelope:
    """One message as accepted by the fabric.

    `id` and `logical_time` are assigned at publish when left empty/zero, so
    callers normally build envelopes with both unset.
    """

    topic: str
    payload: bytes
    metadata: dict[str, str]
    id: str = ""
    logical_time: int = 0


@dataclass(frozen=True)
class TagPredicate:
    """Flat predicate over one metadata key."""

    key: str
    op: str  # eq | neq | prefix
    value: str

    def holds(self, metadata: dict[str, str]) -> bool:
        """Evaluate against envelope metadata; missing keys satisfy only neq."""
        present = self.key in metadata
        actual = metadata.get(self.key, "")
        if self.op == "eq":
            return present and actual == self.value
        if self.op == "neq":
            return not present or actual != self.value
        return present and actual.startswith(self.value)

    def render(self) -> str:
        symbol = {"eq": "=", "neq": "!=", "prefix": "~="}[self.op]
        return f"{self.key}{symbol}{self.value}"


@dataclass(frozen=True)
class Selector:
    """Topic glob plus tag predicates.

    In the topic pattern `*` matches exactly one segment and `**` (final
    segment only) matches any suffix, including the empty one. Matching is a
    pure function of the selector, topic name, and metadata.
    """

    topic_pattern: str
    predicates: tuple[TagPredicate, ...] = ()

    @classmethod
    def parse(cls, text: str) -> Selector:
        """Parse `pattern [key=v key!=v key~=v ...]`; raises SelectorSyntax."""
        parts = text.split()
        if not parts:
            raise SelectorSyntax("empty selector")
        pattern = parts[0]
        segments = pattern.split("/")
        for i, seg in enumerate(segments):
            if seg == "**":
                if i != len(segments) - 1:
                    raise SelectorSyntax(f"'**' must be the final segment: {pattern!r}")
            elif seg != "*" and not _SEGMENT_RE.fullmatch(seg):
                raise SelectorSyntax(f"bad segment {seg!r} in pattern {pattern!r}")
        predicates = []
        for raw in parts[1:]:
            for symbol, op in (("!=", "neq"), ("~=", "prefix"), ("=", "eq")):
                if symbol in raw:
                    key, _, value = raw.partition(symbol)
                    if not _SEGMENT_RE.fullmatch(key) or not value:
                        raise SelectorSyntax(f"bad predicate {raw!r}")
                    predicates.append(TagPredicate(key, op, value))
                    break
            else:
                raise SelectorSyntax(f"bad predicate {raw!r}")
        return cls(pattern, tuple(predicates))

    def matches(self, topic: str, metadata: dict[str, str]) -> bool:
        """Pure match check against a topic name and envelope metadata."""
        want = self.topic_pattern.split("/")
        got = topic.split("/")
        if want and want[-1] == "**":
            head = want[:-1]
            if len(got) < len(head):
                return False
            pairs = zip(head, got)
        else:
            if len(want) != len(got):
                return False
            pairs = zip(want, got)
        for pat, seg in pairs:
            if pat != "*" and pat != seg:
                return False
        return all(p.holds(metadata) for p in self.predicates)

    def render(self) -> str:
        body = " ".join(p.render() for p in self.predicates)
        return f"{self.topic_pattern} {body}".strip()


class SubscriptionMode(str, Enum):
    DURABLE = "durable"
    ONE_SHOT = "one-shot"


class SubscriptionKind(str, Enum):
    DATA = "data"
    INFERENCE = "inference"
    MODEL_UPDATE = "model-update"


@dataclass
class Subscription:
    """A registered interest; `id` is assigned by the fabric."""

    selector: Selector
    subscriber_node: str
    mode: SubscriptionMode = SubscriptionMode.DURABLE
    kind: SubscriptionKind = SubscriptionKind.DATA
    params: dict[str, str] = field(default_factory=dict)
    id: str = ""


class TokenState(str, Enum):
    PENDING = "pending"
    NOTIFIED = "notified"
    FAILED = "failed"


class CompletionToken:
    """Asynchronous handle for participate* calls.

    Transitions pending -> notified or pending -> failed exactly once.
    Callbacks registered via on_complete run at (or after) the transition.
    """

    def __init__(self, token_id: str, result_topic: str):
        self.id = token_id
        self.result_topic = result_topic
        self.state = TokenState.PENDING
        self.result: MessageEnvelope | None = None
        self.failure: str | None = None
        self._callbacks: list[Callable[[CompletionToken], None]] = []

    def on_complete(self, callback: Callable[[CompletionToken], None]) -> None:
        """Register a callback; fires immediately if already completed."""
        if self.state is TokenState.PENDING:
            self._callbacks.append(callback)
        else:
            callback(self)

    def _settle(self, state: TokenState, result: MessageEnvelope | None, failure: str | None):
        if self.state is not TokenState.PENDING:
            return []
        self.state = state
        self.result = result
        self.failure = failure
        callbacks, self._callbacks = self._callbacks, []
        return callbacks

    def fail(self, reason: str) -> None:
        """Externally fail a still-pending token (e.g. settle budget spent)."""
        for cb in self._settle(TokenState.FAILED, None, reason):
            cb(self)


class AuditLog:
    """Read-only view of the audit records in a journal, in seq order."""

    def __init__(self, journal: Trace) -> None:
        self._journal = journal

    def records(self) -> tuple[AuditEvent, ...]:
        return tuple(self._journal.audit_events())

    def __len__(self) -> int:
        return len(self._journal.audit_events())

    def query(
        self,
        ops: Iterable[AuditOp | str] | None = None,
        actor: str | None = None,
    ) -> list[AuditEvent]:
        """Filter by op set and actor."""
        wanted = None
        if ops is not None:
            wanted = {AuditOp(o) for o in ops}
        out = []
        for rec in self._journal.audit_events():
            if wanted is not None and rec.op not in wanted:
                continue
            if actor is not None and rec.actor != actor:
                continue
            out.append(rec)
        return out


@dataclass(slots=True)
class _SubEntry:
    sub: Subscription
    handler: Callable[[MessageEnvelope], None] | None
    # Read at subscribe: the index files the entry by its selector's pattern,
    # filters read its predicates, and delivery plans copy its node and mode.
    selector: Selector
    node: str
    one_shot: bool
    seq: int  # creation order; delivery order sorts by it
    mailbox: list[MessageEnvelope] = field(default_factory=list)


class _TopicNode:
    """One trie level: children by exact segment (and `*`), plus the bucket
    of subscriptions whose pattern ends here (`here`) or ends here in a
    final `**` (`tail`), each a plain map of subscription id to entry."""

    __slots__ = ("children", "here", "tail")

    def __init__(self) -> None:
        self.children: dict[str, _TopicNode] = {}
        self.here: dict[str, _SubEntry] = {}
        self.tail: dict[str, _SubEntry] = {}


def _pattern_path(pattern: str) -> tuple[list[str], bool]:
    """Trie path of a topic pattern and whether it ends in `**`. Only a final
    `**` is a wildcard; a non-final one stays a literal segment, which no
    topic name has, so it never matches (as in `Selector.matches`)."""
    segments = pattern.split("/")
    if segments[-1] == "**":
        return segments[:-1], True
    return segments, False


# What one publish does: (matched entries in creation order, their
# handlers, their subscriber nodes, the one-shots among them).
_Plan = tuple[
    tuple[_SubEntry, ...],
    tuple[Callable[[MessageEnvelope], None], ...],
    tuple[str, ...],
    tuple[_SubEntry, ...],
]
_NO_PLAN: _Plan = ((), (), (), ())
_ONE_SHOT = SubscriptionMode.ONE_SHOT  # read per subscribe


def _plan(matched: Sequence[_SubEntry]) -> _Plan:
    if not matched:
        return _NO_PLAN
    handlers = []
    nodes = []
    one_shots = []
    for entry in matched:
        if entry.handler is not None:
            handlers.append(entry.handler)
        nodes.append(entry.node)
        if entry.one_shot:
            one_shots.append(entry)
    return tuple(matched), tuple(handlers), tuple(nodes), tuple(one_shots)


_by_seq = attrgetter("seq")


def _filter(buckets: tuple[dict[str, _SubEntry], ...], metadata: dict[str, str]) -> _Plan:
    """The plan of a publish with `metadata` over a route's buckets: every
    entry of every bucket whose predicates all hold, in creation order."""
    matched = []
    for bucket in buckets:
        for entry in bucket.values():
            for predicate in entry.selector.predicates:
                if not predicate.holds(metadata):
                    break
            else:
                matched.append(entry)
    matched.sort(key=_by_seq)
    return _plan(matched)


class _Route:
    """What a publish on one topic reaches.

    When none of the walk's buckets holds an entry with predicates, each
    publish matches all of their subscriptions: `keys` is None, `buckets`
    empty and `plan` theirs. Otherwise `buckets` holds the walk's non-empty
    buckets, `keys` the sorted metadata keys their predicates read, and
    `plan` the last filter's, made for the values `plan_key` (None before
    the first); `_deliver` filters again only when a publish's values for
    `keys` differ from `plan_key`."""

    __slots__ = ("buckets", "keys", "plan", "plan_key")

    def __init__(
        self,
        buckets: tuple[dict[str, _SubEntry], ...],
        keys: tuple[str, ...] | None,
        plan: _Plan | None,
    ) -> None:
        self.buckets = buckets
        self.keys = keys
        self.plan = plan
        self.plan_key: tuple[str | None, ...] | None = None


@dataclass(eq=False)
class _TokenWatch:
    topic: str
    kind: str
    session: str | None
    token: CompletionToken


class Fabric:
    """The message fabric: topics, subscriptions, tokens, audit, journal."""

    def __init__(self) -> None:
        self._topics: set[str] = set()
        self._nodes: set[str] = set()
        self._subs: dict[str, _SubEntry] = {}
        self._index = _TopicNode()
        self._routes: dict[str, _Route] = {}
        self._sub_seq = 0
        self._now = 0
        self._audit_seq = 0
        self._minted = 0  # message ids minted, `m<n>`
        self._counters = {"s": 0, "tok": 0}
        self._seen_ids: set[str] = set()  # caller-set ids already published
        self._retained: dict[str, MessageEnvelope] = {}
        self._watches: dict[str, list[_TokenWatch]] = {}
        self._model_hosts: dict[str, str] = {}
        self.journal = Trace()
        self.audit_log = AuditLog(self.journal)
        self.registry = None  # attached by ModelRegistry
        self.on_inference_subscription: Callable[[Subscription], object] | None = None

    # -- plumbing ----------------------------------------------------------

    @property
    def now(self) -> int:
        """Current logical time."""
        return self._now

    def _next_id(self, prefix: str) -> str:
        self._counters[prefix] += 1
        return f"{prefix}{self._counters[prefix]}"

    def create_topic(self, name: str) -> None:
        """Create a topic if it does not exist; names follow the selector
        segment rules."""
        if name in self._topics:
            return
        for seg in name.split("/"):
            if not _SEGMENT_RE.fullmatch(seg):
                raise ValueError(f"bad topic segment {seg!r} in {name!r}")
        self._topics.add(name)

    def has_topic(self, name: str) -> bool:
        return name in self._topics

    def topics(self) -> list[str]:
        """All topic names, sorted."""
        return sorted(self._topics)

    def register_node(self, node_id: str) -> None:
        """Idempotently register a node identity with the fabric.

        A node id becomes the actor of journal lines, so it must be one
        topic segment (see `create_topic`); any other id raises ValueError
        before it is registered."""
        if not isinstance(node_id, str) or not _SEGMENT_RE.fullmatch(node_id):
            raise ValueError(f"node id {node_id!r} must be a single topic segment")
        self._nodes.add(node_id)

    def host_model(
        self,
        model_id: str,
        node_id: str,
        handler: Callable[[MessageEnvelope], None] | None = None,
    ) -> str:
        """Bind a model to its hosting node; returns the host's request-queue
        subscription id (drain it to serve requests). `handler` is passed to
        `subscribe`, so it runs on each request delivered.

        A model has one host: hosting it again, on another node or on the
        same one, raises ModelAlreadyHosted before anything is subscribed,
        since a second request queue would deliver each request twice.
        """
        if node_id not in self._nodes:
            raise UnknownNode(f"node {node_id!r} not registered")
        host = self._model_hosts.get(model_id)
        if host is not None:
            raise ModelAlreadyHosted(f"model {model_id!r} is already hosted on {host!r}")
        request_topic = f"models/{model_id}/requests"
        self.create_topic(request_topic)
        self._model_hosts[model_id] = node_id
        sub = Subscription(
            selector=Selector(request_topic),
            subscriber_node=node_id,
            mode=SubscriptionMode.DURABLE,
            kind=SubscriptionKind.DATA,
        )
        return self.subscribe(sub, handler)

    def model_host(self, model_id: str) -> str | None:
        return self._model_hosts.get(model_id)

    def audit(
        self,
        op: AuditOp,
        actor: str,
        message_id: str | None = None,
        model_id: str | None = None,
        outcome: str = "ok",
    ) -> AuditEvent:
        """Journal one audit record at a fresh logical tick.

        Before anything is journaled, raises InvalidMetadata (see
        `check_journaled`) for an actor or outcome that is not a `str`, a
        message or model id that is neither a `str` nor None, and for a `|`
        or a line break in any of them, which would split the record's trace
        line. One fast test covers the four; only when it fails are they
        checked one by one, in argument order, to name the first bad one."""
        try:
            clean = _unbroken(
                "".join(
                    (
                        actor,
                        "" if message_id is None else message_id,
                        "" if model_id is None else model_id,
                        outcome,
                    )
                )
            )
        except TypeError:
            clean = False
        if not clean:
            check_journaled("actor", actor)
            for name, value in (("message id", message_id), ("model id", model_id)):
                if value is not None:
                    check_journaled(name, value)
            check_journaled("outcome", outcome)
        self._audit_seq += 1
        self._now += 1
        record = AuditEvent(self._audit_seq, self._now, op, actor, message_id, model_id, outcome)
        self.journal.append(record)
        return record

    # -- envelopes ----------------------------------------------------------

    def envelope(
        self,
        topic: str,
        payload: bytes | str,
        *,
        kind: str,
        session: str,
        origin: str,
        model_id: str | None = None,
        tags: str | None = None,
        locality: str | None = None,
        detail: str | None = None,
        extra: dict[str, str] | None = None,
    ) -> MessageEnvelope:
        """Convenience builder for a publishable envelope."""
        metadata = {KIND_KEY: kind, SESSION_KEY: session, ORIGIN_KEY: origin}
        if model_id is not None:
            metadata["model-id"] = model_id
        if tags is not None:
            metadata["semantic-tags"] = tags
        if locality is not None:
            metadata["locality-hint"] = locality
        if detail is not None:
            metadata["detail"] = detail
        if extra:
            metadata.update(extra)
        body = payload.encode("utf-8") if isinstance(payload, str) else payload
        return MessageEnvelope(topic=topic, payload=body, metadata=metadata)

    def _validate_metadata(self, metadata: dict[str, str], envelope_id: str) -> None:
        """Reject what cannot be journaled as one well-formed record, or
        matched: predicates read values as strings.

        Well-formed metadata passes two combined tests: every value a `str`
        (one C-level join of the values), then kind, session and origin-node
        together with one fast separator test (see `_unbroken`) over the
        journaled values and the id joined. Only when a test fails do the
        per-key checks run, in their fixed order, to raise the first error
        they meet."""
        if not isinstance(metadata, dict):
            raise InvalidMetadata(f"metadata must be a dict, got {type(metadata).__name__}")
        try:
            "".join(metadata.values())
        except TypeError:
            key, value = next((k, v) for k, v in metadata.items() if not isinstance(v, str))
            raise InvalidMetadata(f"metadata {key!r} is not a str: {value!r}") from None
        get = metadata.get
        session = get(SESSION_KEY)
        origin = get(ORIGIN_KEY)
        if (
            session
            and origin
            and get(KIND_KEY) in MESSAGE_KINDS
            and isinstance(envelope_id, str)
            and _unbroken(
                session + origin + (get("model-id") or "") + (get("detail") or "") + envelope_id
            )
        ):
            return
        for key in REQUIRED_METADATA:
            if not metadata.get(key):
                raise InvalidMetadata(f"missing required metadata key {key!r}")
        if metadata[KIND_KEY] not in MESSAGE_KINDS:
            raise InvalidMetadata(f"unknown message kind {metadata[KIND_KEY]!r}")
        for key in _JOURNALED_METADATA:
            value = metadata.get(key)
            if value is not None and _RECORD_BREAK.search(value):
                raise InvalidMetadata(f"metadata {key!r} holds a record separator: {value!r}")
        if not isinstance(envelope_id, str):
            raise InvalidMetadata(f"message id {envelope_id!r} is not a str")
        if _RECORD_BREAK.search(envelope_id):
            raise InvalidMetadata(f"message id {envelope_id!r} holds a record separator")

    def publish(self, envelope: MessageEnvelope) -> int:
        """Deliver an envelope to every matching subscription.

        Returns the delivery count. Assigns id and logical time, retains the
        envelope as the topic's latest, removes fired one-shot subscriptions
        before any handler runs, and settles tokens watching this topic.
        Before anything is journaled, raises InvalidMetadata for a topic
        that is not a `str`, a payload that is not `bytes`, metadata that is
        not a `dict`, an id or a metadata value that is not a `str`, for
        missing or unknown metadata and for a `|` or a line break (any
        boundary `str.splitlines` splits at) in the id, session,
        origin-node, model-id or detail, which would split its trace line.
        A caller-set id of the form `m<digits>` is rejected as reserved, and
        one already published as a duplicate; minted ids are unique by
        their counter, so only caller-set ids are remembered. These checks
        run on every call; a sender that publishes many envelopes on one
        topic with one metadata template can take a `channel` instead.

        Matches are found through the topic-segment index, so a publish
        costs the subscriptions its topic can reach, not every subscription.
        They are exactly the subscriptions whose selector, as read at
        `subscribe`, accepts the envelope under `Selector.matches`. Mailboxes
        fill, deliver records are journaled and handlers run in
        subscription-creation order; re-subscribing under an existing id
        keeps the original place. The journal gets one entry, which stands
        for the envelope record, the publish record and one deliver record
        per match, at consecutive ticks and audit seqs, naming each
        subscriber node as read at `subscribe`; reading `journal.events`
        builds them.
        """
        topic = envelope.topic
        if not isinstance(topic, str):
            raise InvalidMetadata(f"topic {topic!r} is not a str")
        if topic not in self._topics:
            raise UnknownTopic(f"topic {topic!r} does not exist")
        if not isinstance(envelope.payload, bytes):
            raise InvalidMetadata(f"payload must be bytes, got {type(envelope.payload).__name__}")
        metadata = envelope.metadata
        self._validate_metadata(metadata, envelope.id)
        if not envelope.id:
            self._minted += 1
            envelope.id = f"m{self._minted}"
        elif _MINTED_ID.fullmatch(envelope.id):
            raise InvalidMetadata(f"message id {envelope.id!r} is reserved for minted ids")
        elif envelope.id in self._seen_ids:
            raise InvalidMetadata(f"duplicate message id {envelope.id!r}")
        else:
            self._seen_ids.add(envelope.id)
        return self._deliver(envelope, topic, metadata)

    def channel(self, topic: str, metadata: dict[str, str]) -> Callable[[bytes, str], int]:
        """A sender for many envelopes on one topic with one metadata
        template; `send(payload, detail)` publishes one and returns its
        delivery count.

        What `publish` would check of the topic and the metadata is checked
        here, once, with its exceptions and messages: the topic is a `str`
        and exists, the metadata is a `dict` of `str`s with the required
        keys and a known kind, and no journaled value holds a record break.
        A `detail` in `metadata` is left out of these checks, since every
        send replaces it. The topic check keeps holding because the fabric
        never deletes a topic. The template is copied here, so changing the
        caller's dict afterwards changes nothing sent.

        Each send checks only the payload (`bytes`) and `detail` (a `str`
        with no record break), with `publish`'s exceptions and messages,
        before anything is counted or journaled. It then copies the
        template, sets `detail` (last, unless the template holds one), mints
        the next id and enters the delivery core `publish` uses. So a send
        delivers, journals and raises exactly what `publish` does for
        `MessageEnvelope(topic, payload, {**metadata, "detail": detail})`.
        """
        if not isinstance(topic, str):
            raise InvalidMetadata(f"topic {topic!r} is not a str")
        if topic not in self._topics:
            raise UnknownTopic(f"topic {topic!r} does not exist")
        template = {**metadata, "detail": ""} if isinstance(metadata, dict) else metadata
        self._validate_metadata(template, "")
        deliver = self._deliver

        def send(payload: bytes, detail: str) -> int:
            if not isinstance(payload, bytes):
                raise InvalidMetadata(f"payload must be bytes, got {type(payload).__name__}")
            if not isinstance(detail, str):
                raise InvalidMetadata(f"metadata 'detail' is not a str: {detail!r}")
            # `not _unbroken(detail)`, inlined: sends are the hot path.
            if ("|" in detail or not detail.isprintable()) and _RECORD_BREAK.search(detail):
                raise InvalidMetadata(f"metadata 'detail' holds a record separator: {detail!r}")
            sent = template.copy()
            sent["detail"] = detail
            self._minted += 1
            return deliver(MessageEnvelope(topic, payload, sent, f"m{self._minted}"), topic, sent)

        return send

    def _deliver(self, envelope: MessageEnvelope, topic: str, metadata: dict[str, str]) -> int:
        """Deliver a checked envelope with its id set: the delivery core of
        `publish` and of every channel's sender. The plan comes from the
        topic's cached route (see the module docstring)."""
        route = self._routes.get(topic)
        if route is None:
            route = self._routes[topic] = self._route(topic)
        keys = route.keys
        if keys is not None:
            values = tuple(map(metadata.get, keys))
            if values != route.plan_key:
                route.plan = _filter(route.buckets, metadata)
                route.plan_key = values
        entries, handlers, nodes, one_shots = route.plan

        # The envelope record takes the next tick, the publish record the
        # next audit seq and tick, and each delivery one more of both, as
        # `audit` would stamp them. Fired one-shots leave the index before
        # any handler runs.
        seq, now = self._audit_seq + 1, self._now + 1
        envelope.logical_time = now
        self.journal.append(
            (
                now, topic, metadata[KIND_KEY], metadata[SESSION_KEY], metadata[ORIGIN_KEY],
                envelope.id, metadata.get("detail"), seq, metadata.get("model-id"), nodes,
            )
        )
        self._audit_seq, self._now = seq + len(nodes), now + 1 + len(nodes)
        for entry in one_shots:
            del self._subs[entry.sub.id]
            self._unindex(entry)
        for entry in entries:
            entry.mailbox.append(envelope)
        self._retained[topic] = envelope

        settled: list[tuple[Callable[[CompletionToken], None], CompletionToken]] = []
        watches = self._watches.pop(topic, None)
        if watches:
            still: list[_TokenWatch] = []
            for watch in watches:
                if metadata[KIND_KEY] != watch.kind or (
                    watch.session is not None and metadata[SESSION_KEY] != watch.session
                ):
                    still.append(watch)
                    continue
                error = metadata.get("error")
                if error:
                    callbacks = watch.token._settle(TokenState.FAILED, envelope, error)
                else:
                    callbacks = watch.token._settle(TokenState.NOTIFIED, envelope, None)
                settled.extend((callback, watch.token) for callback in callbacks)
            if still:
                self._watches[topic] = still

        for handler in handlers:
            handler(envelope)
        for callback, token in settled:
            callback(token)
        return len(entries)

    def _route(self, topic: str) -> _Route:
        """Walk the index along a topic's segments, following the exact and
        the `*` child at each level and taking every `**` bucket passed and
        the final level's own bucket; the non-empty ones make the route."""
        segments = topic.split("/")
        buckets: list[dict[str, _SubEntry]] = []
        frontier = [(self._index, 0)]
        while frontier:
            node, depth = frontier.pop()
            if node.tail:
                buckets.append(node.tail)
            if depth == len(segments):
                if node.here:
                    buckets.append(node.here)
                continue
            for key in (segments[depth], "*"):
                child = node.children.get(key)
                if child is not None:
                    frontier.append((child, depth + 1))
        subscribers: list[_SubEntry] = []
        for bucket in buckets:
            if any(entry.selector.predicates for entry in bucket.values()):
                break
            subscribers.extend(bucket.values())
        else:
            subscribers.sort(key=_by_seq)
            return _Route((), None, _plan(subscribers))
        keys = {
            predicate.key
            for filtered in buckets
            for entry in filtered.values()
            for predicate in entry.selector.predicates
        }
        return _Route(tuple(buckets), tuple(sorted(keys)), None)

    def _drop_routes(self, pattern: str) -> None:
        """Forget the cached routes an (un)indexed pattern can reach."""
        if "*" in pattern:
            self._routes.clear()
        else:
            self._routes.pop(pattern, None)

    def _index_entry(self, entry: _SubEntry) -> None:
        pattern = entry.selector.topic_pattern
        self._drop_routes(pattern)
        path, tail = _pattern_path(pattern)
        node = self._index
        for segment in path:
            child = node.children.get(segment)
            if child is None:
                child = node.children[segment] = _TopicNode()
            node = child
        (node.tail if tail else node.here)[entry.sub.id] = entry

    def _unindex(self, entry: _SubEntry) -> None:
        """Remove an entry from the index, pruning nodes left empty."""
        pattern = entry.selector.topic_pattern
        self._drop_routes(pattern)
        path, tail = _pattern_path(pattern)
        trail = [self._index]
        for segment in path:
            trail.append(trail[-1].children[segment])
        del (trail[-1].tail if tail else trail[-1].here)[entry.sub.id]
        for depth in range(len(path), 0, -1):
            node = trail[depth]
            if node.children or node.here or node.tail:
                break
            del trail[depth - 1].children[path[depth - 1]]

    def last_envelope(self, topic: str) -> MessageEnvelope | None:
        """Latest envelope retained on a topic, if any."""
        return self._retained.get(topic)

    # -- subscriptions -----------------------------------------------------

    def subscribe(
        self,
        subscription: Subscription,
        handler: Callable[[MessageEnvelope], None] | None = None,
    ) -> str:
        """Register a subscription; returns its id.

        The selector must already parse (pass a Selector, or text via
        Selector.parse). Subscriptions of kind `inference` additionally hand
        the subscription to the attached broker hook, which turns the carried
        prompt into a task plan. The selector, subscriber node and mode are
        read here, once: assigning `subscription.selector`,
        `.subscriber_node` or `.mode` later changes nothing that is
        delivered or journaled.
        Re-subscribing under an existing id replaces that subscription and
        keeps its place in delivery order.
        """
        selector = subscription.selector
        if isinstance(selector, str):
            selector = Selector.parse(selector)
            subscription.selector = selector
        if subscription.subscriber_node not in self._nodes:
            raise UnknownNode(f"node {subscription.subscriber_node!r} not registered")
        if not subscription.id:
            subscription.id = self._next_id("s")
        old = self._subs.get(subscription.id)
        if old is None:
            self._sub_seq += 1
            seq = self._sub_seq
        else:
            self._unindex(old)
            seq = old.seq
        entry = _SubEntry(
            subscription,
            handler,
            selector,
            subscription.subscriber_node,
            subscription.mode is _ONE_SHOT,
            seq,
        )
        self._subs[subscription.id] = entry
        self._index_entry(entry)
        self.audit(AuditOp.SUBSCRIBE, actor=subscription.subscriber_node)
        if subscription.kind is SubscriptionKind.INFERENCE and self.on_inference_subscription:
            self.on_inference_subscription(subscription)
        return subscription.id

    def unsubscribe(self, subscription_id: str) -> None:
        """Remove a subscription; unknown ids raise ValueError."""
        entry = self._subs.pop(subscription_id, None)
        if entry is None:
            raise ValueError(f"unknown subscription {subscription_id!r}")
        self._unindex(entry)
        self.audit(AuditOp.UNSUBSCRIBE, actor=entry.node)

    def drain(self, subscription_id: str) -> list[MessageEnvelope]:
        """Pop and return everything buffered for a subscription."""
        entry = self._subs.get(subscription_id)
        if entry is None:
            return []
        out, entry.mailbox = entry.mailbox, []
        return out

    def pending(self, subscription_id: str) -> int:
        """Number of undrained envelopes for a subscription."""
        entry = self._subs.get(subscription_id)
        return len(entry.mailbox) if entry else 0

    # -- AI participation ----------------------------------------------------

    def _required_capability(self, metadata: dict[str, str], session_meta: dict[str, str]) -> str | None:
        if session_meta.get("capability"):
            return session_meta["capability"]
        tags = metadata.get("semantic-tags", "")
        if tags:
            return tags.split(",")[0].strip()
        return None

    def _select_model(self, capability: str, metadata: dict[str, str], domain_hint: str | None):
        """The first model of the registry's walk hosted at the locality-hint
        node, else the first one hosted anywhere; the walk stops there."""
        if self.registry is None:
            raise NoEligibleModel("no model registry attached to the fabric")
        hint = metadata.get("locality-hint")
        offered = False
        first_hosted = None
        for descriptor in self.registry.walk_by_capability({capability}, domain_hint):
            offered = True
            host = self._model_hosts.get(descriptor.model_id)
            if host is None:
                continue
            if not hint or host == hint:
                return descriptor
            if first_hosted is None:
                first_hosted = descriptor
        if first_hosted is not None:
            return first_hosted
        if not offered:
            raise NoEligibleModel(f"no registered model offers capability {capability!r}")
        raise NoEligibleModel(f"no eligible model for {capability!r} is hosted anywhere")

    def _watch(self, watch: _TokenWatch) -> None:
        """Settle `watch.token` from the next matching publish on its topic.

        The watch is dropped as soon as the token leaves pending: by that
        publish, or through the token's first callback when it is failed
        from outside (e.g. a spent settle budget).
        """
        self._watches.setdefault(watch.topic, []).append(watch)
        watch.token.on_complete(lambda _token: self._unwatch(watch))

    def _unwatch(self, watch: _TokenWatch) -> None:
        watches = self._watches.get(watch.topic)
        if watches and watch in watches:
            watches.remove(watch)
            if not watches:
                del self._watches[watch.topic]

    def participate_inference(
        self, data: MessageEnvelope, session_meta: dict[str, str]
    ) -> CompletionToken:
        """Route data to a registry-selected model; returns a pending token.

        The caller never names the model: the registry picks by required
        capability (session_meta["capability"], falling back to the first
        semantic tag), preferring a model hosted on the locality-hint node.
        The token settles when the serving node publishes an
        inference-result for this session on the token's result topic.
        """
        if not session_meta.get(SESSION_KEY):
            raise InvalidMetadata("session metadata must carry a non-empty 'session'")
        if data.metadata.get(KIND_KEY) != KIND_DATA:
            raise InvalidMetadata("participate_inference requires a kind=data envelope")
        capability = self._required_capability(data.metadata, session_meta)
        if capability is None:
            raise NoEligibleModel("no capability requirement could be derived")
        descriptor = self._select_model(capability, data.metadata, session_meta.get("domain"))
        session = session_meta[SESSION_KEY]
        result_topic = f"sessions/{session}/results"
        self.create_topic(result_topic)
        token = CompletionToken(self._next_id("tok"), result_topic)
        self._watch(_TokenWatch(result_topic, KIND_INFERENCE_RESULT, session, token))
        self.audit(
            AuditOp.PARTICIPATE_INFERENCE,
            actor=data.metadata[ORIGIN_KEY],
            model_id=descriptor.model_id,
        )
        request = self.envelope(
            f"models/{descriptor.model_id}/requests",
            data.payload,
            kind=KIND_DATA,
            session=session,
            origin=data.metadata[ORIGIN_KEY],
            model_id=descriptor.model_id,
            tags=data.metadata.get("semantic-tags"),
            extra={"result-topic": result_topic, "capability": capability},
        )
        self.publish(request)
        return token

    def participate_learning(self, data: MessageEnvelope, objective: str) -> CompletionToken:
        """Contribute data toward a model's next update cycle.

        The token settles when the registry announces the resulting version
        bump on registry/<modelId>; subscribers of kind model-update see the
        same announcement through normal delivery.
        """
        if not objective or not objective.strip():
            raise EmptyObjective("learning objective must be non-empty")
        if data.metadata.get(KIND_KEY) != KIND_DATA:
            raise InvalidMetadata("participate_learning requires a kind=data envelope")
        if self.registry is None:
            raise NoEligibleModel("no model registry attached to the fabric")
        model_id = data.metadata.get("model-id")
        if model_id:
            if not self.registry.has_model(model_id):
                raise NoEligibleModel(f"model {model_id!r} is not registered")
        else:
            capability = self._required_capability(data.metadata, {})
            if capability is None:
                raise NoEligibleModel("no capability requirement could be derived")
            best = next(self.registry.walk_by_capability({capability}), None)
            if best is None:
                raise NoEligibleModel(f"no registered model offers capability {capability!r}")
            model_id = best.model_id
        update_topic = f"registry/{model_id}"
        self.create_topic(update_topic)
        token = CompletionToken(self._next_id("tok"), update_topic)
        self._watch(_TokenWatch(update_topic, KIND_MODEL_UPDATE, None, token))
        self.audit(
            AuditOp.PARTICIPATE_LEARNING,
            actor=data.metadata[ORIGIN_KEY],
            model_id=model_id,
        )
        self.registry.contribute_learning(model_id, data, objective)
        return token
