"""Semantic publish/subscribe fabric with audited AI operations.

The fabric decouples applications across space (publishers never learn who
received a message beyond a delivery count), time (durable subscriptions
buffer messages until drained), and synchronization (one-shot requests and
participate* calls return completion tokens instead of blocking).

Every accepted operation appends exactly one record to an append-only audit
log stamped with fabric-local logical time. There is no wall clock anywhere;
a single monotone counter orders everything, which makes whole runs
replayable byte for byte. Used single-threaded the fabric is deterministic;
a lock still guards the tables so concurrent publishers are safe, and
delivery handlers always run outside fabric-internal critical sections.

Dispatch is indexed by topic segments: `subscribe` files each subscription
in a segment trie (exact, `*` and final `**` segments, after MQTT v5.0 topic
filters), so a publish walks only the branches its topic can reach and then
checks tag predicates on those candidates alone. `Selector.matches` remains
the definition of a match: a publish reaches exactly the subscriptions whose
selector accepts the envelope, in subscription-creation order. A
subscription's selector is read once, at `subscribe`; assigning
`subscription.selector` afterwards does not change what it receives.
"""

from __future__ import annotations

import logging
import re
import threading
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable

from .errors import (
    EmptyObjective,
    InvalidMetadata,
    NoEligibleModel,
    NoSatisfyingBackend,
    SelectorSyntax,
    UnknownNode,
    UnknownTopic,
)
from .trace import AuditEvent, EnvelopeEvent, Trace

log = logging.getLogger(__name__)

# Required metadata on every envelope.
KIND_KEY = "kind"
SESSION_KEY = "session"
ORIGIN_KEY = "origin-node"
REQUIRED_METADATA = (KIND_KEY, SESSION_KEY, ORIGIN_KEY)

KIND_DATA = "data"
KIND_PROMPT = "prompt"
KIND_INFERENCE_RESULT = "inference-result"
KIND_MODEL_UPDATE = "model-update"
KIND_CONTROL = "control"
MESSAGE_KINDS = frozenset(
    {KIND_DATA, KIND_PROMPT, KIND_INFERENCE_RESULT, KIND_MODEL_UPDATE, KIND_CONTROL}
)

_SEGMENT_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")
_KEY_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")


class AuditOp(str, Enum):
    """Closed set of auditable operations."""

    PUBLISH = "publish"
    SUBSCRIBE = "subscribe"
    UNSUBSCRIBE = "unsubscribe"
    DELIVER = "deliver"
    PARTICIPATE_INFERENCE = "participate-inference"
    PARTICIPATE_LEARNING = "participate-learning"
    NEGOTIATE = "negotiate"
    PLAN = "plan"
    EXECUTE = "execute"
    SANDBOX = "sandbox"
    ROLLBACK = "rollback"
    HITL = "hitl"


@dataclass(frozen=True)
class TopicId:
    """Hierarchical topic name plus its sharing scope."""

    name: str
    scope: str = "application"  # application | shared


@dataclass
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
            elif seg != "*" and not _SEGMENT_RE.match(seg):
                raise SelectorSyntax(f"bad segment {seg!r} in pattern {pattern!r}")
        predicates = []
        for raw in parts[1:]:
            for symbol, op in (("!=", "neq"), ("~=", "prefix"), ("=", "eq")):
                if symbol in raw:
                    key, _, value = raw.partition(symbol)
                    if not _KEY_RE.match(key) or not value:
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
    LEARNING = "learning"
    MODEL_UPDATE = "model-update"
    SEMANTICS_AWARE = "semantics-aware"


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


@dataclass(frozen=True)
class AuditRecord:
    """One immutable audit entry."""

    seq: int
    logical_time: int
    op: AuditOp
    actor: str
    message_id: str | None
    model_id: str | None
    outcome: str

    def to_line(self) -> str:
        """Flush format: seq|logicalTime|op|actor|messageId|modelId|outcome."""
        return "|".join(
            [
                str(self.seq),
                str(self.logical_time),
                self.op.value,
                self.actor,
                self.message_id or "-",
                self.model_id or "-",
                self.outcome,
            ]
        )


class AuditLog:
    """Append-only audit store with dense seq numbers starting at 1."""

    def __init__(self) -> None:
        self._records: list[AuditRecord] = []

    def append(self, record: AuditRecord) -> None:
        self._records.append(record)

    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def query(
        self,
        ops: Iterable[AuditOp | str] | None = None,
        actor: str | None = None,
        time_range: tuple[int, int] | None = None,
    ) -> list[AuditRecord]:
        """Filter by op set, actor, and inclusive logical-time range."""
        wanted = None
        if ops is not None:
            wanted = {AuditOp(o) for o in ops}
        out = []
        for rec in self._records:
            if wanted is not None and rec.op not in wanted:
                continue
            if actor is not None and rec.actor != actor:
                continue
            if time_range is not None and not (time_range[0] <= rec.logical_time <= time_range[1]):
                continue
            out.append(rec)
        return out

    def flush(self, path) -> int:
        """Write all records to a file, one line each; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self._records:
                fh.write(rec.to_line() + "\n")
        return len(self._records)


def parse_audit_line(line: str) -> AuditRecord:
    """Inverse of AuditRecord.to_line; raises ValueError on malformed input."""
    fields = line.rstrip("\n").split("|")
    if len(fields) != 7:
        raise ValueError(f"expected 7 fields, got {len(fields)}: {line!r}")
    return AuditRecord(
        seq=int(fields[0]),
        logical_time=int(fields[1]),
        op=AuditOp(fields[2]),
        actor=fields[3],
        message_id=None if fields[4] == "-" else fields[4],
        model_id=None if fields[5] == "-" else fields[5],
        outcome=fields[6],
    )


@dataclass(frozen=True)
class BackendProfile:
    """One transport option in the backend table."""

    name: str
    guarantees: frozenset[str]
    max_latency_budget: int  # ticks


@dataclass(frozen=True)
class InteractionSpec:
    """What a flow needs from its transport."""

    participants: tuple[str, ...]
    realtime: bool = False
    guarantees: frozenset[str] = frozenset()


DEFAULT_PROFILES = (
    BackendProfile("mesh-rt", frozenset({"ordered", "at-most-once"}), 2),
    BackendProfile("stream-log", frozenset({"ordered", "at-least-once", "durable"}), 8),
    BackendProfile("batch-queue", frozenset({"at-least-once", "durable"}), 20),
)


@dataclass
class _SubEntry:
    sub: Subscription
    handler: Callable[[MessageEnvelope], None] | None
    selector: Selector  # as read at subscribe; the index files it by this
    seq: int  # creation order; delivery order sorts by it
    mailbox: list[MessageEnvelope] = field(default_factory=list)


class _TopicNode:
    """One trie level: children by exact segment (and `*`), plus the
    subscriptions whose pattern ends here (`here`) or ends here in a final
    `**` (`tail`), each keyed by subscription id."""

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


_by_seq = attrgetter("seq")


@dataclass(eq=False)
class _TokenWatch:
    topic: str
    kind: str
    session: str | None
    token: CompletionToken


class Fabric:
    """The message fabric: topics, subscriptions, tokens, audit, journal."""

    def __init__(self, profiles: tuple[BackendProfile, ...] | None = None):
        self._lock = threading.RLock()
        self._topics: dict[str, TopicId] = {}
        self._nodes: set[str] = set()
        self._subs: dict[str, _SubEntry] = {}
        self._index = _TopicNode()
        self._sub_seq = 0
        self._now = 0
        self._counters = {"m": 0, "s": 0, "tok": 0}
        self._seen_ids: set[str] = set()
        self._retained: dict[str, MessageEnvelope] = {}
        self._watches: dict[str, list[_TokenWatch]] = {}
        self._model_hosts: dict[str, str] = {}
        self._profiles = tuple(profiles) if profiles is not None else DEFAULT_PROFILES
        self.audit_log = AuditLog()
        self.journal = Trace()
        self.registry = None  # attached by ModelRegistry
        self.on_inference_subscription: Callable[[Subscription], object] | None = None

    # -- plumbing ----------------------------------------------------------

    def _tick(self) -> int:
        self._now += 1
        return self._now

    @property
    def now(self) -> int:
        """Current logical time."""
        return self._now

    def _next_id(self, prefix: str) -> str:
        self._counters[prefix] += 1
        return f"{prefix}{self._counters[prefix]}"

    def create_topic(self, name: str, scope: str = "application") -> TopicId:
        """Create (or return) a topic; names follow the selector segment rules."""
        with self._lock:
            existing = self._topics.get(name)
            if existing is not None:
                return existing
            for seg in name.split("/"):
                if not _SEGMENT_RE.match(seg):
                    raise ValueError(f"bad topic segment {seg!r} in {name!r}")
            tid = TopicId(name, scope)
            self._topics[name] = tid
            return tid

    def has_topic(self, name: str) -> bool:
        return name in self._topics

    def topics(self) -> list[str]:
        """All topic names, sorted."""
        return sorted(self._topics)

    def register_node(self, node_id: str) -> None:
        """Idempotently register a node identity with the fabric."""
        with self._lock:
            self._nodes.add(node_id)

    def host_model(self, model_id: str, node_id: str) -> str:
        """Bind a model to its hosting node; returns the host's request-queue
        subscription id (drain it to serve requests)."""
        if node_id not in self._nodes:
            raise UnknownNode(f"node {node_id!r} not registered")
        request_topic = f"models/{model_id}/requests"
        self.create_topic(request_topic)
        with self._lock:
            self._model_hosts[model_id] = node_id
        sub = Subscription(
            selector=Selector(request_topic),
            subscriber_node=node_id,
            mode=SubscriptionMode.DURABLE,
            kind=SubscriptionKind.DATA,
        )
        return self.subscribe(sub)

    def model_host(self, model_id: str) -> str | None:
        return self._model_hosts.get(model_id)

    def audit(
        self,
        op: AuditOp,
        actor: str,
        message_id: str | None = None,
        model_id: str | None = None,
        outcome: str = "ok",
    ) -> AuditRecord:
        """Append one audit record at a fresh logical tick."""
        with self._lock:
            record = AuditRecord(
                seq=len(self.audit_log) + 1,
                logical_time=self._tick(),
                op=op,
                actor=actor,
                message_id=message_id,
                model_id=model_id,
                outcome=outcome,
            )
            self.audit_log.append(record)
            self.journal.append(
                AuditEvent(
                    seq=record.seq,
                    logical_time=record.logical_time,
                    op=record.op.value,
                    actor=record.actor,
                    message_id=record.message_id,
                    model_id=record.model_id,
                    outcome=record.outcome,
                )
            )
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

    def _validate_metadata(self, metadata: dict[str, str]) -> None:
        for key in REQUIRED_METADATA:
            if not metadata.get(key):
                raise InvalidMetadata(f"missing required metadata key {key!r}")
        if metadata[KIND_KEY] not in MESSAGE_KINDS:
            raise InvalidMetadata(f"unknown message kind {metadata[KIND_KEY]!r}")

    def publish(self, envelope: MessageEnvelope) -> int:
        """Deliver an envelope to every matching subscription.

        Returns the delivery count. Assigns id and logical time, retains the
        envelope as the topic's latest, removes fired one-shot subscriptions
        before any handler runs, and settles tokens watching this topic.

        Matches are found through the topic-segment index, so a publish
        costs the subscriptions its topic can reach, not every subscription.
        They are exactly the subscriptions whose selector, as read at
        `subscribe`, accepts the envelope under `Selector.matches`. Mailboxes
        fill, deliver records are audited and handlers run in
        subscription-creation order; re-subscribing under an existing id
        keeps the original place.
        """
        with self._lock:
            if envelope.topic not in self._topics:
                raise UnknownTopic(f"topic {envelope.topic!r} does not exist")
            self._validate_metadata(envelope.metadata)
            if not envelope.id:
                envelope.id = self._next_id("m")
            if envelope.id in self._seen_ids:
                raise InvalidMetadata(f"duplicate message id {envelope.id!r}")
            self._seen_ids.add(envelope.id)
            envelope.logical_time = self._tick()

            self.journal.append(
                EnvelopeEvent(
                    logical_time=envelope.logical_time,
                    topic=envelope.topic,
                    kind=envelope.metadata[KIND_KEY],
                    session=envelope.metadata[SESSION_KEY],
                    origin=envelope.metadata[ORIGIN_KEY],
                    message_id=envelope.id,
                    detail=envelope.metadata.get("detail"),
                )
            )
            self.audit(
                AuditOp.PUBLISH,
                actor=envelope.metadata[ORIGIN_KEY],
                message_id=envelope.id,
                model_id=envelope.metadata.get("model-id"),
            )

            matched = self._matching(envelope.topic, envelope.metadata)
            for entry in matched:
                if entry.sub.mode is SubscriptionMode.ONE_SHOT:
                    del self._subs[entry.sub.id]
                    self._unindex(entry)
            callbacks: list[Callable[[], None]] = []
            for entry in matched:
                entry.mailbox.append(envelope)
                self.audit(
                    AuditOp.DELIVER,
                    actor=entry.sub.subscriber_node,
                    message_id=envelope.id,
                    model_id=envelope.metadata.get("model-id"),
                )
                if entry.handler is not None:
                    handler = entry.handler
                    callbacks.append(lambda h=handler, e=envelope: h(e))
            self._retained[envelope.topic] = envelope

            watches = self._watches.pop(envelope.topic, None)
            if watches:
                still: list[_TokenWatch] = []
                for watch in watches:
                    if envelope.metadata[KIND_KEY] != watch.kind or (
                        watch.session is not None
                        and envelope.metadata[SESSION_KEY] != watch.session
                    ):
                        still.append(watch)
                        continue
                    error = envelope.metadata.get("error")
                    if error:
                        settled = watch.token._settle(TokenState.FAILED, envelope, error)
                    else:
                        settled = watch.token._settle(TokenState.NOTIFIED, envelope, None)
                    token = watch.token
                    callbacks.extend(lambda cb=cb, t=token: cb(t) for cb in settled)
                if still:
                    self._watches[envelope.topic] = still

        for callback in callbacks:
            callback()
        return len(matched)

    def _matching(self, topic: str, metadata: dict[str, str]) -> list[_SubEntry]:
        """Subscriptions accepting `topic` and `metadata`, in creation order.

        Walks the index along the topic's segments, following the exact and
        the `*` child at each level and collecting every `**` bucket passed;
        only the patterns reached this way have their predicates checked.
        """
        segments = topic.split("/")
        candidates: list[_SubEntry] = []
        frontier = [(self._index, 0)]
        while frontier:
            node, depth = frontier.pop()
            candidates.extend(node.tail.values())
            if depth == len(segments):
                candidates.extend(node.here.values())
                continue
            for key in (segments[depth], "*"):
                child = node.children.get(key)
                if child is not None:
                    frontier.append((child, depth + 1))
        matched = []
        for entry in candidates:
            for predicate in entry.selector.predicates:
                if not predicate.holds(metadata):
                    break
            else:
                matched.append(entry)
        matched.sort(key=_by_seq)
        return matched

    def _index_entry(self, entry: _SubEntry) -> None:
        path, tail = _pattern_path(entry.selector.topic_pattern)
        node = self._index
        for segment in path:
            child = node.children.get(segment)
            if child is None:
                child = node.children[segment] = _TopicNode()
            node = child
        (node.tail if tail else node.here)[entry.sub.id] = entry

    def _unindex(self, entry: _SubEntry) -> None:
        """Remove an entry from the index, pruning nodes left empty."""
        path, tail = _pattern_path(entry.selector.topic_pattern)
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
        prompt into a task plan. The selector is read here, once: assigning
        `subscription.selector` later does not change what it receives.
        Re-subscribing under an existing id replaces that subscription and
        keeps its place in delivery order.
        """
        selector = subscription.selector
        if isinstance(selector, str):
            selector = Selector.parse(selector)
            subscription.selector = selector
        with self._lock:
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
            entry = _SubEntry(subscription, handler, selector, seq)
            self._subs[subscription.id] = entry
            self._index_entry(entry)
            self.audit(AuditOp.SUBSCRIBE, actor=subscription.subscriber_node)
        if subscription.kind is SubscriptionKind.INFERENCE and self.on_inference_subscription:
            self.on_inference_subscription(subscription)
        return subscription.id

    def unsubscribe(self, subscription_id: str) -> None:
        """Remove a subscription; unknown ids raise ValueError."""
        with self._lock:
            entry = self._subs.pop(subscription_id, None)
            if entry is None:
                raise ValueError(f"unknown subscription {subscription_id!r}")
            self._unindex(entry)
            self.audit(AuditOp.UNSUBSCRIBE, actor=entry.sub.subscriber_node)

    def drain(self, subscription_id: str) -> list[MessageEnvelope]:
        """Pop and return everything buffered for a subscription."""
        with self._lock:
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
        if self.registry is None:
            raise NoEligibleModel("no model registry attached to the fabric")
        eligible = self.registry.query_by_capability({capability}, domain_hint=domain_hint)
        if not eligible:
            raise NoEligibleModel(f"no registered model offers capability {capability!r}")
        hint = metadata.get("locality-hint")
        if hint:
            for descriptor in eligible:
                if self._model_hosts.get(descriptor.model_id) == hint:
                    return descriptor
        for descriptor in eligible:
            if descriptor.model_id in self._model_hosts:
                return descriptor
        raise NoEligibleModel(f"no eligible model for {capability!r} is hosted anywhere")

    def _watch(self, watch: _TokenWatch) -> None:
        """Settle `watch.token` from the next matching publish on its topic.

        The watch is dropped as soon as the token leaves pending: by that
        publish, or through the token's first callback when it is failed
        from outside (e.g. a spent settle budget).
        """
        with self._lock:
            self._watches.setdefault(watch.topic, []).append(watch)
        watch.token.on_complete(lambda _token: self._unwatch(watch))

    def _unwatch(self, watch: _TokenWatch) -> None:
        with self._lock:
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
            eligible = self.registry.query_by_capability({capability})
            if not eligible:
                raise NoEligibleModel(f"no registered model offers capability {capability!r}")
            model_id = eligible[0].model_id
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

    # -- backend selection ---------------------------------------------------

    def select_backend(self, interaction: InteractionSpec) -> BackendProfile:
        """Pick the lowest-latency profile covering the requested guarantees.

        Ranking is (maxLatencyBudget, name); the realtime flag rides along in
        the interaction spec but adds nothing beyond the latency-first order.
        """
        if not interaction.participants:
            raise ValueError("interaction spec needs at least one participant")
        candidates = [
            p for p in self._profiles if interaction.guarantees <= p.guarantees
        ]
        if not candidates:
            raise NoSatisfyingBackend(
                f"no profile satisfies guarantees {sorted(interaction.guarantees)}"
            )
        return min(candidates, key=lambda p: (p.max_latency_budget, p.name))

    # -- audit ----------------------------------------------------------------

    def audit_query(
        self,
        ops: Iterable[AuditOp | str] | None = None,
        actor: str | None = None,
        time_range: tuple[int, int] | None = None,
    ) -> list[AuditRecord]:
        """Read-only filtered view of the audit log, in seq order."""
        return self.audit_log.query(ops=ops, actor=actor, time_range=time_range)
