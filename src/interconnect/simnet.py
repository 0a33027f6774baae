"""Deterministic simulated network under the fabric.

The world is a discrete-event system: each tick of a step runs node
handlers in node-id order, so runs are reproducible given the same
construction sequence and seed. Nodes with a load model publish one telemetry
envelope per tick; model-host nodes reply to their requests with inference
results; every node accepts control envelopes on managed/<nodeId>/knobs that
set knobs (clamped to their declared ranges).

A tick costs the requests it serves, not the models hosted (the reactor
pattern: Schmidt, "Reactor", PLoPD 1995). Each hosted model's request queue
has a fabric handler that marks the model pending on its node, and a tick
drains only pending models: in model-id order within a node, in node-id
order across nodes. A model leaves pending before its replies go out, and
pending is read again after each model, so a request published during a
tick is served in this tick when its model comes later in that order, and
in the next tick when it is this model or an earlier one.

All trace-visible values are integers or exact rationals rendered as
fraction strings; there are no floats anywhere in the state. A knob is a
Fraction (an int knob is stored as one), a load's offered load and service
rate are ints or Fractions and its service rate is positive; `_exact` is the
one check that refuses any other number. Text becomes a value only through
`parse_exact` (at most EXACT_DIGITS digits a part, no exponent): DSL values,
control payloads, telemetry readings and scale endpoints, though a stored
value has no digit bound. The optional telemetry jitter draws from the
world's single seeded generator and is off by default.
A jittered reading is the utilization `n/d` times `(1000 + k)/1000`, with `k`
drawn from -10..10 once per tick, worked in ints: `n*(1000 + k)` over
`d*1000`, both divided once by their gcd and rendered as `str(Fraction)`
renders them (`n/d`, or `n` when the denominator is 1). So a tick builds no
`Fraction` for it.

Node state is an immutable value shared between worlds (structural sharing:
Driscoll, Sarnak, Sleator and Tarjan, "Making Data Structures Persistent",
JCSS 1989). A `NodeState`'s knob and range maps are read-only, its
`LoadModel` is frozen, and a write (`set_knob`, `shift_load`) puts a new
node under the id in the written world's `nodes` dict. So a clone, a
snapshot and a restore copy that dict of references and nothing more, and a
write to one world never reaches another. Each node renders its
`config_hash` and `state_hash` lines once, for the id it is hashed under,
and keeps them while that id stays the same; the world hashes join the
nodes' texts.

A node's telemetry reading is recomputed only when it changed: each node
keeps its last `(offered load, admission knob, service rate)` with the
utilization and its text, and a tick whose tuple compares equal reuses them.
Every write replaces immutable values (a node, its `LoadModel`, a
`Fraction`), and the tuple compares by value, so the memo cannot go stale
and needs no invalidation. A jittered node still draws from the generator
every tick.

A telemetry envelope differs from tick to tick only in its payload and its
`detail`. So each loaded node sends through a fabric channel
(`Fabric.channel`) on its telemetry topic, whose template is the rest of its
metadata (`kind`, `session`, `origin-node` and `semantic-tags`, in the order
`Fabric.envelope` writes them). The node's first reading makes the channel,
which checks the topic and template once, and every tick's send checks only
its payload and `detail`. Each send copies the template, so a handler that
changes a delivered envelope's metadata changes no other tick's.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import DuplicateNode, ModelAlreadyHosted
from .fabric import (
    KIND_DATA,
    KIND_INFERENCE_RESULT,
    KIND_KEY,
    ORIGIN_KEY,
    SESSION_KEY,
    AuditOp,
    Fabric,
    MessageEnvelope,
    Selector,
    Subscription,
    SubscriptionKind,
    SubscriptionMode,
)

ADMISSION_KNOB = "admission-rate"
RATE_LIMIT_KNOB = "rate-limit"
# Metric suffix of the world total; no node may take it as its id.
TOTAL = "total"
_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_KNOB_RANGES: dict[str, tuple[Fraction, Fraction]] = {
    ADMISSION_KNOB: (_ZERO, _ONE),
    RATE_LIMIT_KNOB: (_ZERO, Fraction(1000)),
    "probe-rate": (_ZERO, _ONE),
}

# The most digits one part of an exact value's text may have.
EXACT_DIGITS = 64
_EXACT_LIMIT = 10**EXACT_DIGITS
_EXACT_TEXT = re.compile(
    rf"([+-]?)(\d{{1,{EXACT_DIGITS}}})(?:/(\d{{1,{EXACT_DIGITS}}})|\.(\d{{1,{EXACT_DIGITS}}}))?",
    re.ASCII,
)


def parse_exact(text: str) -> Fraction:
    """The exact value `text` writes: an optional sign, then an integer
    (`3`), a fraction (`9/10`) or a plain decimal (`0.25`), each part of at
    most EXACT_DIGITS ASCII digits. Built from ints, so the cost is bounded
    by the text's length; where it accepts, it equals `Fraction(text)`.

    Raises ValueError for anything else, an exponent, whitespace or a zero
    denominator included.
    """
    match = _EXACT_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"not an exact value: {text!r}")
    sign, whole, over, decimals = match.groups()
    numerator = int(whole + decimals) if decimals is not None else int(whole)
    if sign == "-":
        numerator = -numerator
    if over is not None:
        denominator = int(over)
        if not denominator:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(numerator, denominator)
    if decimals is not None:
        return Fraction(numerator, 10 ** len(decimals))
    return Fraction(numerator)


def _readable(value: Fraction) -> bool:
    """Whether `parse_exact` reads `str(value)`: both parts of at most EXACT_DIGITS digits."""
    return -_EXACT_LIMIT < value.numerator < _EXACT_LIMIT and value.denominator < _EXACT_LIMIT


class NodeKind(str, Enum):
    NWDAF = "nwdaf"
    RIC = "ric"
    UE_GEN = "ue-gen"
    MODEL_HOST = "model-host"
    APP = "app"


@dataclass(frozen=True, slots=True)
class LoadModel:
    """M/M/1-flavoured load summary: enough to expose utilization pressure.

    Frozen: a load change is a new `LoadModel` in a new `NodeState`.
    """

    offered_load: Fraction
    service_rate: Fraction = Fraction(1)
    queue_depth: int = 0


def _exact(name: str, value: object) -> Fraction:
    """`value` as a Fraction if it is an int (not a bool) or a Fraction: the
    one type check a number passes to become an exact value. Raises
    ValueError, naming `name`, for anything else."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{name} must be an int or a Fraction, not {value!r}")
    return Fraction(value)


class NodeState:
    """The managed, snapshot-able part of a node: an immutable value.

    `knobs` and `knob_ranges` are read-only views of maps the node owns (the
    constructor copies its arguments) and `load` is a frozen `LoadModel` or
    None; setting an attribute raises `FrozenInstanceError`. A change is a
    new node put under the id in one world's `nodes`, so worlds share every
    node neither has written since they parted. The constructor stores an int
    knob or range endpoint as a Fraction and raises ValueError for a knob, a
    range endpoint, or a load's offered load or service rate, that `_exact`
    refuses, or for a service rate that is not positive.
    """

    __slots__ = ("knobs", "knob_ranges", "load", "_texts")

    def __new__(
        cls,
        knobs: Mapping[str, Fraction] | None = None,
        knob_ranges: Mapping[str, tuple[Fraction, Fraction]] | None = None,
        load: LoadModel | None = None,
    ) -> NodeState:
        if load is not None:
            _exact("offered_load", load.offered_load)
            if _exact("service_rate", load.service_rate) <= 0:
                raise ValueError(f"service_rate must be positive, not {load.service_rate}")
        knobs = {knob: _exact(knob, value) for knob, value in (knobs or {}).items()}
        ranges = {
            knob: (_exact(f"{knob} range", lo), _exact(f"{knob} range", hi))
            for knob, (lo, hi) in (knob_ranges or {}).items()
        }
        return _node(MappingProxyType(knobs), MappingProxyType(ranges), load)

    def __reduce__(self) -> tuple:  # so that copy, deepcopy and pickle rebuild the node
        return NodeState, (dict(self.knobs), dict(self.knob_ranges), self.load)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}; replace the node instead")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}; replace the node instead")

    def _hash_texts(self, node_id: str) -> tuple[str, str, str]:
        """`(node_id, config text, state text)`: the node's lines of
        `WorldState.config_hash` and `state_hash` under `node_id`.

        Rendered on first use and kept while the node is hashed under the
        same id; a node under two ids renders again when the id changes.
        """
        texts = self._texts
        if texts is None or texts[0] != node_id:
            knobs = self.knobs
            lines = [f"{node_id}/{knob}={knobs[knob]}" for knob in sorted(knobs)]
            config = "\n".join(lines)
            load = self.load
            if load is not None:
                lines.append(
                    f"{node_id}/load={load.offered_load}:{load.service_rate}:{load.queue_depth}"
                )
            texts = (node_id, config, "\n".join(lines))
            _set_texts(self, texts)
        return texts


_new_node = object.__new__
_set_knobs = NodeState.knobs.__set__
_set_knob_ranges = NodeState.knob_ranges.__set__
_set_load = NodeState.load.__set__
_set_texts = NodeState._texts.__set__


def _node(knobs: Mapping, knob_ranges: Mapping, load: LoadModel | None) -> NodeState:
    """A node over read-only maps no one can write through, which other
    nodes may share; unlike `NodeState(...)`, nothing is copied."""
    node = _new_node(NodeState)
    _set_knobs(node, knobs)
    _set_knob_ranges(node, knob_ranges)
    _set_load(node, load)
    _set_texts(node, None)
    return node


def _with_offered_load(node: NodeState, offered_load: Fraction) -> NodeState:
    load = node.load
    return _node(
        node.knobs, node.knob_ranges, LoadModel(offered_load, load.service_rate, load.queue_depth)
    )


def _digest(nodes: dict[str, NodeState], part: int) -> str:
    """Hash of every node's text `part` (1: config, 2: state), by node id."""
    texts = []
    for node_id in sorted(nodes):
        node = nodes[node_id]
        cached = node._texts  # `_hash_texts` inlined for a node it rendered
        if cached is None or cached[0] != node_id:
            cached = node._hash_texts(node_id)
        if cached[part]:
            texts.append(cached[part])
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()[:16]


class WorldState:
    """Pure state container the guard interpreter and MAPE-K act upon."""

    def __init__(self) -> None:
        self.nodes: dict[str, NodeState] = {}

    def clone(self) -> WorldState:
        """A world that shares every node with this one.

        Only the `nodes` dict of references is copied. Nodes are immutable
        and a write replaces the node in its own world's dict, so writes to
        either side never reach the other.
        """
        copied = WorldState()
        copied.nodes = self.nodes.copy()
        return copied

    def get_knob(self, node_id: str, knob: str) -> Fraction:
        node = self.nodes[node_id]
        if knob not in node.knobs:
            raise KeyError(f"node {node_id!r} declares no knob {knob!r}")
        return node.knobs[knob]

    def set_knob(self, node_id: str, knob: str, value: Fraction) -> Fraction:
        """Assign a knob, clamped into its declared range; returns the value set.

        The node is replaced in this world only (see `NodeState`). Raises
        KeyError for an undeclared knob, ValueError for a value `_exact`
        refuses, before anything changes.
        """
        node = self.nodes[node_id]
        if knob not in node.knobs:
            raise KeyError(f"node {node_id!r} declares no knob {knob!r}")
        value = _exact(knob, value)
        lo, hi = node.knob_ranges.get(knob, (None, None))
        if lo is not None:
            value = max(lo, min(hi, value))
        knobs = node.knobs.copy()
        knobs[knob] = value
        self.nodes[node_id] = _node(MappingProxyType(knobs), node.knob_ranges, node.load)
        return value

    def shift_load(self, src: str, dst: str, fraction: Fraction) -> Fraction:
        """Move a fraction of offered load between nodes; returns the amount.

        Both nodes are replaced in this world only; a node rerouted to
        itself keeps its load, and is not replaced. Raises ValueError for a
        fraction `_exact` refuses, before anything changes.
        """
        source, target = self.nodes[src], self.nodes[dst]
        if source.load is None or target.load is None:
            raise KeyError("both reroute endpoints need a load model")
        fraction = max(_ZERO, min(_ONE, _exact("fraction", fraction)))
        moved = source.load.offered_load * fraction
        if src != dst:
            self.nodes[src] = _with_offered_load(source, source.load.offered_load - moved)
            self.nodes[dst] = _with_offered_load(target, target.load.offered_load + moved)
        return moved

    def utilization(self, node_id: str) -> Fraction:
        node = self.nodes[node_id]
        if node.load is None:
            return _ZERO
        admission = node.knobs.get(ADMISSION_KNOB, _ONE)
        return node.load.offered_load * admission / node.load.service_rate

    def throughput(self, node_id: str) -> Fraction:
        node = self.nodes[node_id]
        if node.load is None:
            return _ZERO
        admission = node.knobs.get(ADMISSION_KNOB, _ONE)
        served = min(node.load.offered_load * admission, node.load.service_rate)
        if RATE_LIMIT_KNOB in node.knobs:
            served = min(served, node.knobs[RATE_LIMIT_KNOB])
        return served

    def total_throughput(self) -> Fraction:
        return sum((self.throughput(n) for n in self.nodes), _ZERO)

    def metrics(self) -> dict[str, Fraction]:
        """Named rational metrics for sandbox delta reporting."""
        out: dict[str, Fraction] = {}
        for node_id in sorted(self.nodes):
            out[f"utilization.{node_id}"] = self.utilization(node_id)
            out[f"throughput.{node_id}"] = self.throughput(node_id)
        out[f"throughput.{TOTAL}"] = self.total_throughput()
        return out

    def config_hash(self) -> str:
        """Hash of all knob settings (the managed configuration)."""
        return _digest(self.nodes, 1)

    def state_hash(self) -> str:
        """Hash of knobs plus load state; sandbox runs must never change it."""
        return _digest(self.nodes, 2)


@dataclass
class _NodeRuntime:
    node_id: str
    kind: NodeKind
    hosted: dict[str, str] = field(default_factory=dict)  # model id -> request sub id
    pending: set[str] = field(default_factory=set)  # hosted models with requests queued
    jitter: bool = False
    fail_requests: int = 0
    # The node's telemetry channel, `send(payload, detail)`; None until the
    # node's first reading.
    send: Callable[[bytes, str], int] | None = None
    # Last telemetry reading: its inputs (offered load, admission knob or
    # None, service rate), the utilization they give, that value's text and
    # the text's UTF-8 payload.
    reading: tuple = (None, None, None, None)


class SimWorld:
    """Nodes plus the fabric they talk over, stepped tick by tick."""

    def __init__(self, fabric: Fabric, seed: int = 0):
        self.fabric = fabric
        self.state = WorldState()
        self.rng = random.Random(seed)
        self._runtimes: dict[str, _NodeRuntime] = {}
        # Node ids in step order. spawn_node rebinds it to a new list, so a
        # tick in progress keeps the order it started with.
        self._order: list[str] = []

    # -- construction ---------------------------------------------------------

    def spawn_node(
        self,
        node_id: str,
        kind: NodeKind,
        *,
        knobs: dict[str, Fraction] | None = None,
        knob_ranges: dict[str, tuple[Fraction, Fraction]] | None = None,
        load: LoadModel | None = None,
        hosted_models: tuple[str, ...] = (),
        jitter: bool = False,
    ) -> None:
        """Add a node; registers it with the fabric and wires its topics.

        The id must be one topic segment (see `Fabric.create_topic`) other
        than `total`, whose metric keys would collide with the world total
        in `WorldState.metrics()`. An int knob is stored as a Fraction.
        Raises DuplicateNode for an id already spawned, ValueError for a bad
        one or for a knob, knob range or load `NodeState` refuses, and
        ModelAlreadyHosted for a model another node hosts or
        `hosted_models` names twice (see `Fabric.host_model`), before
        anything is added.
        """
        if node_id in self._runtimes:
            raise DuplicateNode(f"node {node_id!r} already exists")
        if node_id == TOTAL:
            raise ValueError(f"node id {TOTAL!r} is reserved for the world total")
        if "/" in node_id:
            raise ValueError(f"node id {node_id!r} must be a single topic segment")
        knobs, ranges = knobs or {}, {**DEFAULT_KNOB_RANGES, **(knob_ranges or {})}
        node_state = NodeState(knobs, {k: ranges[k] for k in knobs if k in ranges}, load)
        named: set[str] = set()
        for model_id in hosted_models:
            host = node_id if model_id in named else self.fabric.model_host(model_id)
            if host is not None:
                raise ModelAlreadyHosted(f"model {model_id!r} is already hosted on {host!r}")
            named.add(model_id)
        control_topic = f"managed/{node_id}/knobs"
        self.fabric.create_topic(control_topic)  # rejects a bad segment
        runtime = _NodeRuntime(node_id=node_id, kind=kind, jitter=jitter)
        self.fabric.register_node(node_id)
        self.state.nodes[node_id] = node_state
        self._runtimes[node_id] = runtime
        self._order = sorted(self._runtimes)

        self.fabric.subscribe(
            Subscription(
                selector=Selector(control_topic),
                subscriber_node=node_id,
                mode=SubscriptionMode.DURABLE,
                kind=SubscriptionKind.DATA,
            ),
            handler=lambda env, nid=node_id: self._apply_control(nid, env),
        )
        if load is not None:
            self.fabric.create_topic(f"telemetry/{node_id}/load")
        for model_id in hosted_models:
            runtime.hosted[model_id] = self.fabric.host_model(
                model_id, node_id, handler=lambda _env, mid=model_id: runtime.pending.add(mid)
            )

    def node_kind(self, node_id: str) -> NodeKind:
        return self._runtimes[node_id].kind

    def node_ids(self) -> list[str]:
        return list(self._order)

    def fail_next_requests(self, node_id: str, count: int) -> None:
        """Make a model host answer its next requests with an error."""
        self._runtimes[node_id].fail_requests = count

    # -- control & stepping -----------------------------------------------------

    def _apply_control(self, node_id: str, envelope: MessageEnvelope) -> None:
        """Apply `knob=value; ...` assignments. Each one naming no declared
        knob or holding a value outside `parse_exact`'s grammar (`1e-5000`
        included) is skipped and audited as `execute` with
        `error(BadControlAssignment)`, and so is a payload that is not
        UTF-8, once; the other assignments still apply."""

        def reject() -> None:
            self.fabric.audit(
                AuditOp.EXECUTE,
                actor=node_id,
                message_id=envelope.id,
                outcome="error(BadControlAssignment)",
            )

        try:
            text = envelope.payload.decode("utf-8")
        except UnicodeDecodeError:
            reject()
            return
        for assignment in text.split(";"):
            assignment = assignment.strip()
            if not assignment:
                continue
            knob, _, raw = assignment.partition("=")
            try:
                self.state.set_knob(node_id, knob.strip(), parse_exact(raw.strip()))
            except (KeyError, ValueError):
                reject()

    def step(self, ticks: int = 1) -> None:
        """Advance the world; handlers run per tick in node-id order."""
        for _ in range(ticks):
            for node_id in self._order:
                runtime = self._runtimes[node_id]
                node = self.state.nodes[node_id]
                if node.load is not None:
                    self._emit_telemetry(node_id, runtime, node)
                if runtime.pending:
                    self._serve_requests(runtime)

    def _emit_telemetry(self, node_id: str, runtime: _NodeRuntime, node: NodeState) -> None:
        """Send the node's utilization on its telemetry channel, recomputed
        only when its inputs compare unequal to the last reading's (see the
        module docstring). The first reading makes the node's channel; for
        a node spawned without a load, and so without a telemetry topic,
        that raises UnknownTopic, as a publish on the topic would."""
        inputs = (node.load.offered_load, node.knobs.get(ADMISSION_KNOB), node.load.service_rate)
        if inputs != runtime.reading[0]:
            value = self.state.utilization(node_id)
            text = str(value)
            runtime.reading = (inputs, value, text, text.encode("utf-8"))
        _, value, text, payload = runtime.reading
        if runtime.jitter:
            numerator = value.numerator * (1000 + self.rng.randint(-10, 10))
            denominator = value.denominator * 1000
            divisor = gcd(numerator, denominator)
            numerator //= divisor
            denominator //= divisor
            text = f"{numerator}/{denominator}" if denominator != 1 else str(numerator)
            payload = text.encode("utf-8")
        send = runtime.send
        if send is None:
            send = runtime.send = self.fabric.channel(
                f"telemetry/{node_id}/load",
                {
                    KIND_KEY: KIND_DATA,
                    SESSION_KEY: "telemetry",
                    ORIGIN_KEY: node_id,
                    "semantic-tags": "load",
                },
            )
        send(payload, text)

    def _serve_requests(self, runtime: _NodeRuntime) -> None:
        """Serve the node's pending models in model-id order (see the module
        docstring); a model marked pending again by a reply waits a tick."""
        served = ""  # model ids are topic segments, never empty
        while True:
            model_id = min((m for m in runtime.pending if m > served), default=None)
            if model_id is None:
                return
            runtime.pending.discard(model_id)
            for request in self.fabric.drain(runtime.hosted[model_id]):
                self._reply(runtime, model_id, request)
            served = model_id

    def _reply(self, runtime: _NodeRuntime, model_id: str, request: MessageEnvelope) -> None:
        result_topic = request.metadata.get("result-topic")
        if not result_topic:
            self.fabric.audit(
                AuditOp.PARTICIPATE_INFERENCE,
                actor=runtime.node_id,
                message_id=request.id,
                model_id=model_id,
                outcome="error(MissingResultTopic)",
            )
            return
        self.fabric.create_topic(result_topic)
        session = request.metadata["session"]
        if runtime.fail_requests > 0:
            runtime.fail_requests -= 1
            self.fabric.publish(
                self.fabric.envelope(
                    result_topic,
                    b"{}",
                    kind=KIND_INFERENCE_RESULT,
                    session=session,
                    origin=runtime.node_id,
                    model_id=model_id,
                    detail=f"error {model_id}",
                    extra={"error": "model-unavailable"},
                )
            )
            return
        digest = hashlib.sha256(request.payload).hexdigest()[:12]
        payload = json.dumps(
            {"model": model_id, "input-digest": digest, "status": "complete"},
            sort_keys=True,
        )
        self.fabric.publish(
            self.fabric.envelope(
                result_topic,
                payload,
                kind=KIND_INFERENCE_RESULT,
                session=session,
                origin=runtime.node_id,
                model_id=model_id,
                detail=f"reply {model_id}",
            )
        )

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> WorldState:
        """A clone of the world state; the world keeps no reference to it.

        The clone shares the live nodes (see `WorldState.clone`), so it
        costs a copy of the `nodes` dict, and no later write on either side
        reaches the other.
        """
        return self.state.clone()

    def restore(self, snapshot: WorldState) -> None:
        """Replace live state with a clone of a snapshot, exactly, except
        for nodes spawned after it.

        The snapshot is cloned again, not handed over, so restoring it twice
        yields the same state both times. A node this world has spawned but
        the snapshot lacks keeps its live state: its runtime and its fabric
        wiring are not rolled back either, and without its state `step`
        could not run it nor `spawn_node` add it again.
        """
        state = snapshot.clone()
        nodes = state.nodes
        if not self._runtimes.keys() <= nodes.keys():
            live = self.state.nodes
            for node_id in self._order:
                if node_id not in nodes and node_id in live:
                    nodes[node_id] = live[node_id]
        self.state = state

    def config_hash(self) -> str:
        return self.state.config_hash()

    def state_hash(self) -> str:
        return self.state.state_hash()
