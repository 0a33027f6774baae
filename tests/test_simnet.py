"""Simulated network: stepping, telemetry, control, serving, snapshots."""

import copy
import dataclasses
import hashlib
import json
import pickle
import random
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interconnect.errors import DuplicateNode, ModelAlreadyHosted, UnknownTopic
from interconnect.fabric import Fabric, Selector, Subscription, TokenState
from interconnect.guard import Guard, GuardedProgram, NamedInvariant
from interconnect.registry import ModelRegistry, parse_descriptor
from interconnect.simnet import (
    EXACT_DIGITS,
    LoadModel,
    NodeKind,
    NodeState,
    SimWorld,
    WorldState,
    _readable,
    parse_exact,
)
from interconnect.trace import AuditOp


def make_world():
    return SimWorld(Fabric(), seed=0)


def loaded_node(world, node_id="cell-1", offered="9/10", admission="1"):
    world.spawn_node(
        node_id,
        NodeKind.UE_GEN,
        knobs={"admission-rate": Fraction(admission)},
        load=LoadModel(offered_load=Fraction(offered)),
    )


def replace_load(state, node_id, **fields):
    """Put a node with its load model's `fields` replaced under `node_id`;
    nodes are immutable, so this is how a test moves one node's load."""
    node = state.nodes[node_id]
    state.nodes[node_id] = NodeState(
        node.knobs, node.knob_ranges, dataclasses.replace(node.load, **fields)
    )


def watch_telemetry(world, node_id, watcher="watcher"):
    world.fabric.register_node(watcher)
    return world.fabric.subscribe(
        Subscription(Selector.parse(f"telemetry/{node_id}/load"), watcher)
    )


# -- construction -------------------------------------------------------------


def test_spawn_rejects_duplicate_ids():
    world = make_world()
    loaded_node(world)
    with pytest.raises(DuplicateNode):
        loaded_node(world)


@pytest.mark.parametrize("node_id", ["total", "ran/1", "Ran-1", ""])
def test_spawn_rejects_a_bad_node_id_before_adding_anything(node_id):
    # `total` would put its throughput under the world total's metric key;
    # `ran/1` would publish where `telemetry/*/load` never looks; `Ran-1`
    # and `` are no topic segment, and a half-added node would make every
    # later step raise UnknownTopic.
    world = make_world()
    with pytest.raises(ValueError):
        world.spawn_node(
            node_id, NodeKind.UE_GEN, load=LoadModel(offered_load=Fraction(1, 2))
        )
    assert world.node_ids() == [] and world.fabric.topics() == []
    world.step(1)
    loaded_node(world, "ran-1", offered="1/4")
    metrics = world.state.metrics()
    assert metrics["throughput.total"] == Fraction(1, 4)
    assert sorted(metrics) == ["throughput.ran-1", "throughput.total", "utilization.ran-1"]


_BAD_LOADS = [
    pytest.param(LoadModel(0.5), id="float-load"),
    pytest.param(LoadModel(True), id="bool-load"),
    pytest.param(LoadModel("1/2"), id="str-load"),
    pytest.param(LoadModel(Fraction(1, 2), service_rate=0.5), id="float-rate"),
    pytest.param(LoadModel(Fraction(1, 2), service_rate=True), id="bool-rate"),
    pytest.param(LoadModel(Fraction(1, 2), service_rate=Fraction(0)), id="zero-rate"),
    pytest.param(LoadModel(Fraction(1, 2), service_rate=-1), id="negative-rate"),
]


@pytest.mark.parametrize("load", _BAD_LOADS)
def test_spawn_rejects_an_inexact_or_zero_rate_load_before_adding_anything(load):
    # A float load once sent `b'0.497'` when jittered, and a zero service
    # rate raised ZeroDivisionError mid-tick, after an earlier node's
    # telemetry was delivered and journaled.
    world = make_world()
    loaded_node(world, "cell-0", offered="1/2")
    before = (world.node_ids(), world.fabric.topics(), len(world.fabric.journal.events))
    with pytest.raises(ValueError):
        world.spawn_node("cell-1", NodeKind.UE_GEN, load=load, jitter=True)
    assert (world.node_ids(), world.fabric.topics(), len(world.fabric.journal.events)) == before
    assert "cell-1" not in world.state.nodes
    world.step(1)
    loaded_node(world, "cell-1", offered="1/4")
    world.step(1)


@pytest.mark.parametrize("load", _BAD_LOADS)
def test_node_state_rejects_an_inexact_or_zero_rate_load(load):
    with pytest.raises(ValueError):
        NodeState(load=load)


def test_an_int_load_is_exact():
    world = make_world()
    world.spawn_node("cell-1", NodeKind.UE_GEN, load=LoadModel(1, service_rate=2), jitter=True)
    assert NodeState(load=LoadModel(0, service_rate=1)).load == LoadModel(0, 1)
    sub_id = watch_telemetry(world, "cell-1")
    world.step(1)
    mirror = random.Random(0)
    expected = Fraction(1, 2) * (1 + Fraction(mirror.randint(-10, 10), 1000))
    assert [s.payload.decode() for s in world.fabric.drain(sub_id)] == [str(expected)]


_BAD_KNOBS = [
    pytest.param(0.9, id="float"),
    pytest.param(True, id="bool"),
    pytest.param("1/2", id="str"),
    pytest.param(Decimal("0.5"), id="decimal"),
    pytest.param(None, id="none"),
]


@pytest.mark.parametrize("value", _BAD_KNOBS)
def test_spawn_and_node_state_reject_an_inexact_knob_before_adding_anything(value):
    # A float knob was once stored as its 53-bit binary fraction.
    world = make_world()
    before = (world.node_ids(), world.fabric.topics(), len(world.fabric.journal.events))
    with pytest.raises(ValueError, match="admission-rate"):
        world.spawn_node("cell-1", NodeKind.RIC, knobs={"admission-rate": value})
    assert (world.node_ids(), world.fabric.topics(), len(world.fabric.journal.events)) == before
    assert "cell-1" not in world.state.nodes
    with pytest.raises(ValueError, match="admission-rate"):
        NodeState({"admission-rate": value})


def test_an_int_knob_is_stored_as_a_fraction():
    # An int knob once made utilization the float 0.5.
    state = WorldState()
    state.nodes["cell-1"] = NodeState({"admission-rate": 1}, {}, LoadModel(1, 2))
    assert type(state.nodes["cell-1"].knobs["admission-rate"]) is Fraction
    assert type(state.utilization("cell-1")) is Fraction
    assert state.utilization("cell-1") == Fraction(1, 2)
    world = make_world()
    world.spawn_node("cell-1", NodeKind.RIC, knobs={"admission-rate": 1}, load=LoadModel(1, 2))
    assert type(world.state.get_knob("cell-1", "admission-rate")) is Fraction
    assert type(world.state.utilization("cell-1")) is Fraction


# -- exact value text --------------------------------------------------------------


_VALUE_SHAPED = st.from_regex(r"\A[+-]?[0-9]{1,70}(/[0-9]{1,70}|\.[0-9]{1,70})?\Z")


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text(),
        st.text(alphabet="0123456789+-./eE_ \u0661", max_size=12),
        _VALUE_SHAPED,
    )
)
@example("1e-5000")
@example("1/0")
@example("1" * 65)
def test_parse_exact_rejects_a_text_or_reads_what_fraction_reads(text):
    try:
        value = parse_exact(text)
    except ValueError:
        return
    assert type(value) is Fraction
    assert value == Fraction(text)
    # Every accepted text is bounded: a sign and two parts of EXACT_DIGITS.
    assert len(text) <= 2 + 2 * EXACT_DIGITS


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.fractions(min_value=-(10**20), max_value=10**20, max_denominator=10**20))
def test_parse_exact_reads_what_str_fraction_writes(value):
    assert parse_exact(str(value)) == value


def test_spawn_wires_control_and_telemetry_topics():
    world = make_world()
    loaded_node(world, "cell-1")
    assert world.fabric.has_topic("managed/cell-1/knobs")
    assert world.fabric.has_topic("telemetry/cell-1/load")
    world.spawn_node("app-1", NodeKind.APP)
    assert world.fabric.has_topic("managed/app-1/knobs")
    assert not world.fabric.has_topic("telemetry/app-1/load")
    assert world.node_ids() == ["app-1", "cell-1"]
    assert world.node_kind("app-1") is NodeKind.APP


# -- stepping and telemetry ------------------------------------------------------


def test_a_node_spawned_without_a_load_has_no_telemetry_topic_to_send_on():
    # Only a node spawned with a load gets a telemetry topic. One given a
    # load later fails its first reading, which makes its channel, as a
    # publish on the missing topic would, before anything is journaled.
    world = make_world()
    world.spawn_node("app-1", NodeKind.APP)
    world.state.nodes["app-1"] = NodeState(load=LoadModel(Fraction(1, 2)))
    journaled = len(world.fabric.journal.events)
    with pytest.raises(UnknownTopic, match="telemetry/app-1/load"):
        world.step(1)
    assert len(world.fabric.journal.events) == journaled


def test_step_zero_ticks_is_a_no_op():
    world = make_world()
    loaded_node(world)
    before = len(world.fabric.journal.events), world.state_hash()
    world.step(0)
    assert (len(world.fabric.journal.events), world.state_hash()) == before


def test_loaded_nodes_emit_one_sample_per_tick():
    world = make_world()
    loaded_node(world, offered="9/10")
    sub_id = watch_telemetry(world, "cell-1")
    world.step(3)
    samples = world.fabric.drain(sub_id)
    assert [s.payload.decode() for s in samples] == ["9/10"] * 3


def test_telemetry_reflects_admission_knob():
    world = make_world()
    loaded_node(world, offered="9/10")
    sub_id = watch_telemetry(world, "cell-1")
    world.fabric.publish(
        world.fabric.envelope(
            "managed/cell-1/knobs",
            "admission-rate=3/4",
            kind="control",
            session="ops",
            origin="operator",
        )
    )
    world.step(1)
    (sample,) = world.fabric.drain(sub_id)
    assert sample.payload.decode() == "27/40"


def test_handlers_run_in_node_id_order():
    world = make_world()
    loaded_node(world, "node-b", offered="1/2")
    loaded_node(world, "node-a", offered="1/4")
    world.fabric.register_node("watcher")
    sub_id = world.fabric.subscribe(
        Subscription(Selector.parse("telemetry/*/load"), "watcher")
    )
    world.step(1)
    origins = [s.metadata["origin-node"] for s in world.fabric.drain(sub_id)]
    assert origins == ["node-a", "node-b"]


def test_jitter_draws_from_the_world_seed():
    def run(seed):
        world = SimWorld(Fabric(), seed=seed)
        world.spawn_node(
            "cell-1",
            NodeKind.UE_GEN,
            load=LoadModel(offered_load=Fraction(1, 2)),
            jitter=True,
        )
        sub_id = watch_telemetry(world, "cell-1")
        world.step(4)
        return [s.payload.decode() for s in world.fabric.drain(sub_id)]

    assert run(7) == run(7)
    assert run(7) != run(8)


@pytest.mark.parametrize("jitter", [False, True], ids=["steady", "jittered"])
def test_telemetry_envelope_equals_the_keyword_built_one(jitter):
    """Each tick's telemetry envelope has the payload and the metadata, keys
    in the same order, that `Fabric.envelope` builds for the same reading.
    A handler that rewrites a delivered envelope's metadata does not change
    the next tick's envelope."""
    world = SimWorld(Fabric(), seed=5)
    mirror = random.Random(5)
    loaded_node(world, offered="9/10", admission="4/5")
    world.spawn_node("cell-2", NodeKind.UE_GEN, load=LoadModel(Fraction(1, 3)), jitter=jitter)
    fabric = world.fabric
    delivered = []

    def record(envelope):
        delivered.append((envelope.topic, envelope.payload, list(envelope.metadata.items())))

    def vandalize(envelope):
        envelope.metadata["session"] = "vandalized"
        envelope.metadata["detail"] = "0"
        del envelope.metadata["origin-node"]
        envelope.metadata["extra"] = "1"

    fabric.register_node("watcher")
    for handler in (record, vandalize):
        fabric.subscribe(Subscription(Selector.parse("telemetry/*/load"), "watcher"), handler)
    world.step(3)
    expected = []
    for _ in range(3):
        for node_id, value in (("cell-1", Fraction(18, 25)), ("cell-2", Fraction(1, 3))):
            if node_id == "cell-2" and jitter:
                value *= 1 + Fraction(mirror.randint(-10, 10), 1000)
            built = fabric.envelope(
                f"telemetry/{node_id}/load",
                str(value),
                kind="data",
                session="telemetry",
                origin=node_id,
                tags="load",
                detail=str(value),
            )
            expected.append((built.topic, built.payload, list(built.metadata.items())))
    assert delivered == expected


_ORACLE_NODES = ("n0", "n1", "n2")  # n2 declares no admission knob
_exact = st.one_of(
    st.fractions(min_value=0, max_value=2, max_denominator=12),
    # numerators and denominators of 26 to 39 digits, as after many
    # adaptations at 19/20
    st.builds(lambda k: Fraction(19, 20) ** k, st.integers(20, 30)),
    # denominators that share factors with the jitter's 1000
    st.builds(
        Fraction,
        st.integers(0, 3000),
        st.sampled_from((8, 16, 25, 125, 250, 400, 1000, 2000, 3000, 10**6)),
    ),
    st.just(Fraction(0)),
)
_write = st.one_of(
    st.tuples(st.just("control"), st.sampled_from(_ORACLE_NODES), _exact),
    st.tuples(
        st.just("shift"), st.sampled_from(_ORACLE_NODES), st.sampled_from(_ORACLE_NODES), _exact
    ),
    st.tuples(st.just("offered"), st.sampled_from(_ORACLE_NODES), _exact),
    st.tuples(
        st.just("service"),
        st.sampled_from(_ORACLE_NODES),
        st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=12),
    ),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"), st.integers(0, 3)),
    st.tuples(st.just("step"), st.integers(0, 3)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.tuples(st.booleans(), st.booleans(), st.booleans()), st.lists(_write, max_size=25))
@example(
    (True, True, True),
    [
        ("offered", "n0", Fraction(0)),  # a zero reading
        ("control", "n1", Fraction(19, 20) ** 24),  # a 31-digit numerator
        ("offered", "n2", Fraction(7, 1000)),  # the jitter's own denominator
        ("service", "n2", Fraction(5, 8)),
        ("step", 3),
    ],
)
def test_telemetry_is_a_fresh_reading_after_any_write(jitters, writes):
    """After every step, each payload (and its detail) is str() of the
    node's utilization computed afresh, times the jitter factor a mirror of
    the world's generator draws, whichever writes came before it. Every
    write is followed by a checked tick."""
    world = SimWorld(Fabric(), seed=11)
    mirror = random.Random(11)
    for node_id, jitter in zip(_ORACLE_NODES, jitters):
        world.spawn_node(
            node_id,
            NodeKind.UE_GEN,
            knobs={} if node_id == "n2" else {"admission-rate": Fraction(1)},
            load=LoadModel(offered_load=Fraction(4, 5)),
            jitter=jitter,
        )
    world.fabric.register_node("watcher")
    sub_id = world.fabric.subscribe(Subscription(Selector.parse("telemetry/*/load"), "watcher"))
    snapshots = []

    def step_and_check(ticks):
        world.step(ticks)
        expected = []
        for _ in range(ticks):
            for node_id, jitter in zip(_ORACLE_NODES, jitters):
                value = world.state.utilization(node_id)
                if jitter:
                    value *= 1 + Fraction(mirror.randint(-10, 10), 1000)
                expected.append(str(value))
        samples = world.fabric.drain(sub_id)
        assert [s.payload.decode() for s in samples] == expected
        assert [s.metadata["detail"] for s in samples] == expected

    for write in writes:
        kind, args = write[0], write[1:]
        if kind == "control":
            world.fabric.publish(
                world.fabric.envelope(
                    f"managed/{args[0]}/knobs",
                    f"admission-rate={args[1]}",
                    kind="control",
                    session="ops",
                    origin="operator",
                )
            )
        elif kind == "shift":
            world.state.shift_load(*args)
        elif kind == "offered":
            replace_load(world.state, args[0], offered_load=args[1])
        elif kind == "service":
            replace_load(world.state, args[0], service_rate=args[1])
        elif kind == "snapshot":
            snapshots.append(world.snapshot())
        elif kind == "restore" and snapshots:
            world.restore(snapshots[args[0] % len(snapshots)])
        elif kind == "step":
            step_and_check(args[0])
        step_and_check(1)  # so the next write meets a memoised reading


# -- control envelopes -------------------------------------------------------------


def test_control_assignments_are_clamped():
    world = make_world()
    loaded_node(world)
    world.fabric.publish(
        world.fabric.envelope(
            "managed/cell-1/knobs",
            "admission-rate=7/2",
            kind="control",
            session="ops",
            origin="operator",
        )
    )
    assert world.state.get_knob("cell-1", "admission-rate") == Fraction(1)


def test_bad_control_assignments_are_ignored():
    world = make_world()
    loaded_node(world)
    world.fabric.publish(
        world.fabric.envelope(
            "managed/cell-1/knobs",
            "ghost-knob=1; admission-rate=not-a-number; admission-rate=1/2;;",
            kind="control",
            session="ops",
            origin="operator",
        )
    )
    assert world.state.get_knob("cell-1", "admission-rate") == Fraction(1, 2)


def test_bad_control_assignments_are_audited():
    world = make_world()
    loaded_node(world)
    envelope = world.fabric.envelope(
        "managed/cell-1/knobs",
        "ghost-knob=1; admission-rate=not-a-number; admission-rate=1/2",
        kind="control",
        session="ops",
        origin="operator",
    )
    world.fabric.publish(envelope)
    errors = world.fabric.audit_log.query(ops=[AuditOp.EXECUTE])
    assert [(r.actor, r.message_id, r.outcome) for r in errors] == [
        ("cell-1", envelope.id, "error(BadControlAssignment)")
    ] * 2
    assert world.state.get_knob("cell-1", "admission-rate") == Fraction(1, 2)


def test_control_payload_that_is_not_utf8_is_audited():
    world = make_world()
    loaded_node(world)
    envelope = world.fabric.envelope(
        "managed/cell-1/knobs", b"\xff\xfe", kind="control", session="ops", origin="operator"
    )
    assert world.fabric.publish(envelope) == 1
    record = world.fabric.journal.events[-1]
    assert (record.op, record.message_id, record.outcome) == (
        AuditOp.EXECUTE,
        envelope.id,
        "error(BadControlAssignment)",
    )
    assert world.state.get_knob("cell-1", "admission-rate") == Fraction(1)


@pytest.mark.parametrize(
    "value",
    ["1e-5000", "1e320000", "1_0/2_0", ".5", "1" * (EXACT_DIGITS + 1)],
    ids=["exponent", "large-exponent", "underscores", "bare-decimal", "65-digit-numerator"],
)
def test_a_control_value_outside_the_grammar_cannot_stop_the_world(value):
    # `Fraction(str)` once kept `1e-5000` inside the knob's range with a
    # 16,610-bit denominator; rendering it made every later step and
    # config_hash raise, and no audit record said why.
    world = make_world()
    loaded_node(world, admission="1/4")
    envelope = world.fabric.envelope(
        "managed/cell-1/knobs",
        f"admission-rate={value}",
        kind="control",
        session="ops",
        origin="operator",
    )
    world.fabric.publish(envelope)
    (record,) = world.fabric.audit_log.query(ops=[AuditOp.EXECUTE])
    assert (record.actor, record.message_id, record.outcome) == (
        "cell-1",
        envelope.id,
        "error(BadControlAssignment)",
    )
    assert world.state.get_knob("cell-1", "admission-rate") == Fraction(1, 4)
    world.step(2)
    world.config_hash()


@pytest.mark.parametrize("value", [0.9, "1/2", True], ids=["float", "text", "bool"])
@pytest.mark.parametrize(
    "write",
    [
        lambda state, value: state.set_knob("cell-1", "admission-rate", value),
        lambda state, value: state.shift_load("cell-1", "cell-2", value),
    ],
    ids=["set_knob", "shift_load"],
)
def test_world_writes_take_only_exact_numbers(write, value):
    # `set_knob(..., 0.9)` once stored 8106479329266893/9007199254740992, and
    # `shift_load(..., 0.5)` made both nodes' offered loads floats.
    world = make_world()
    loaded_node(world)
    loaded_node(world, "cell-2")
    nodes = dict(world.state.nodes)
    with pytest.raises(ValueError):
        write(world.state, value)
    assert all(world.state.nodes[node_id] is node for node_id, node in nodes.items())


def test_a_knob_clamped_to_an_int_range_endpoint_is_a_fraction():
    state = WorldState()
    state.nodes["cell-1"] = NodeState(
        {"admission-rate": 0}, {"admission-rate": (0, 1)}, LoadModel(1, 2)
    )
    assert all(type(end) is Fraction for end in state.nodes["cell-1"].knob_ranges["admission-rate"])
    assert type(state.set_knob("cell-1", "admission-rate", 5)) is Fraction
    assert type(state.get_knob("cell-1", "admission-rate")) is Fraction
    assert type(state.utilization("cell-1")) is Fraction


def test_a_knob_range_endpoint_is_checked_where_it_enters():
    # A float endpoint was once stored, and surfaced only when a clamp picked
    # it, as a ValueError that named the endpoint as if it were the value set.
    with pytest.raises(ValueError, match="admission-rate range must be an int or a Fraction"):
        NodeState({"admission-rate": 0}, {"admission-rate": (0, 0.5)}, LoadModel(1, 2))
    world = make_world()
    with pytest.raises(ValueError, match="admission-rate range"):
        world.spawn_node(
            "cell-1",
            NodeKind.UE_GEN,
            knobs={"admission-rate": Fraction(1)},
            knob_ranges={"admission-rate": (Fraction(0), 1.0)},
            load=LoadModel(offered_load=Fraction(9, 10)),
        )
    assert world.node_ids() == [] and not world.fabric.has_topic("managed/cell-1/knobs")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-(10**66), 10**66), st.integers(1, 10**66))
@example(10**EXACT_DIGITS - 1, 10**EXACT_DIGITS - 2)
@example(-(10**EXACT_DIGITS) + 1, 1)
@example(-(10**EXACT_DIGITS), 3)
@example(1, 10**EXACT_DIGITS)
def test_readable_says_whether_parse_exact_reads_a_values_text(numerator, denominator):
    value = Fraction(numerator, denominator)
    try:
        read = parse_exact(str(value)) == value
    except ValueError:
        read = False
    assert _readable(value) is read


# -- world state accounting ----------------------------------------------------------


def test_utilization_and_throughput_math():
    state = WorldState()
    world = make_world()
    world.spawn_node(
        "cell-1",
        NodeKind.UE_GEN,
        knobs={"admission-rate": Fraction(1, 2), "rate-limit": Fraction(1, 5)},
        load=LoadModel(offered_load=Fraction(9, 10), service_rate=Fraction(3, 2)),
    )
    state = world.state
    assert state.utilization("cell-1") == Fraction(9, 10) * Fraction(1, 2) / Fraction(3, 2)
    # throughput = min(offered * admission, service rate, rate limit)
    assert state.throughput("cell-1") == Fraction(1, 5)
    world.spawn_node("app-1", NodeKind.APP)
    assert state.utilization("app-1") == 0
    assert state.total_throughput() == Fraction(1, 5)
    metrics = state.metrics()
    assert metrics["throughput.total"] == Fraction(1, 5)
    assert set(metrics) == {
        "utilization.app-1",
        "throughput.app-1",
        "utilization.cell-1",
        "throughput.cell-1",
        "throughput.total",
    }


def test_shift_load_moves_offered_traffic():
    world = make_world()
    loaded_node(world, "cell-1", offered="4/5")
    loaded_node(world, "cell-2", offered="1/5")
    moved = world.state.shift_load("cell-1", "cell-2", Fraction(1, 2))
    assert moved == Fraction(2, 5)
    assert world.state.nodes["cell-1"].load.offered_load == Fraction(2, 5)
    assert world.state.nodes["cell-2"].load.offered_load == Fraction(3, 5)
    world.spawn_node("app-1", NodeKind.APP)
    with pytest.raises(KeyError):
        world.state.shift_load("cell-1", "app-1", Fraction(1, 2))


def test_unknown_knob_raises():
    world = make_world()
    loaded_node(world)
    with pytest.raises(KeyError):
        world.state.get_knob("cell-1", "tilt")
    with pytest.raises(KeyError):
        world.state.set_knob("cell-1", "tilt", Fraction(1))


# -- model hosting ----------------------------------------------------------------------


def host_forecaster(world, fail=0):
    registry = ModelRegistry(world.fabric)
    registry.register(
        parse_descriptor(
            json.dumps(
                {
                    "modelId": "forecaster",
                    "modelType": "analytics",
                    "version": "1.0.0",
                    "category": "Specialized",
                    "architecture": {
                        "family": "transformer",
                        "parameterScaleLabel": "small",
                    },
                    "capabilities": [{"name": "predict"}],
                    "performance": {
                        "rateLimitPerTick": 4,
                        "latencyTicks": 1,
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
        )
    )
    world.spawn_node("edge-1", NodeKind.MODEL_HOST, hosted_models=("forecaster",))
    if fail:
        world.fail_next_requests("edge-1", fail)


def test_hosted_model_serves_requests_on_step():
    world = make_world()
    host_forecaster(world)
    world.spawn_node("app-1", NodeKind.APP)
    world.fabric.create_topic("farm/data")
    data = world.fabric.envelope(
        "farm/data", b"readings", kind="data", session="s1", origin="app-1", tags="predict"
    )
    token = world.fabric.participate_inference(data, {"session": "job-1"})
    assert token.state is TokenState.PENDING
    world.step(1)
    assert token.state is TokenState.NOTIFIED
    body = json.loads(token.result.payload)
    assert body["model"] == "forecaster"
    assert body["status"] == "complete"
    assert len(body["input-digest"]) == 12


def test_fail_next_requests_produces_error_replies():
    world = make_world()
    host_forecaster(world, fail=1)
    world.spawn_node("app-1", NodeKind.APP)
    world.fabric.create_topic("farm/data")

    def ask():
        data = world.fabric.envelope(
            "farm/data", b"x", kind="data", session="s1", origin="app-1", tags="predict"
        )
        token = world.fabric.participate_inference(data, {"session": "job-2"})
        world.step(1)
        return token

    first = ask()
    assert first.state is TokenState.FAILED
    assert first.failure == "model-unavailable"
    second = ask()
    assert second.state is TokenState.NOTIFIED


def test_request_without_result_topic_is_audited_and_dropped():
    world = make_world()
    host_forecaster(world)
    request_topic = "models/forecaster/requests"
    request = world.fabric.envelope(
        request_topic, b"x", kind="data", session="s1", origin="edge-1", model_id="forecaster"
    )
    world.fabric.publish(request)
    published = len(world.fabric.journal.envelope_events())
    world.step(1)
    assert len(world.fabric.journal.envelope_events()) == published
    record = world.fabric.journal.events[-1]
    assert (record.op, record.actor, record.message_id, record.model_id, record.outcome) == (
        AuditOp.PARTICIPATE_INFERENCE,
        "edge-1",
        request.id,
        "forecaster",
        "error(MissingResultTopic)",
    )


def test_a_model_has_one_host_and_one_reply_per_request():
    world = make_world()
    world.spawn_node("a", NodeKind.MODEL_HOST, hosted_models=("m",))
    with pytest.raises(ModelAlreadyHosted):
        world.spawn_node("b", NodeKind.MODEL_HOST, hosted_models=("m",))
    with pytest.raises(ModelAlreadyHosted):
        world.spawn_node("c", NodeKind.MODEL_HOST, hosted_models=("n", "n"))
    assert world.node_ids() == ["a"] and world.fabric.model_host("m") == "a"
    world.fabric.publish(
        world.fabric.envelope(
            "models/m/requests", b"x", kind="data", session="s1", origin="a",
            extra={"result-topic": "sessions/s1/results"},
        )
    )
    world.step(1)
    replies = [e for e in world.fabric.journal.envelope_events() if e.kind == "inference-result"]
    assert [(e.origin, e.detail) for e in replies] == [("a", "reply m")]


# -- serve order against draining every mailbox --------------------------------


_SERVED_MODELS = ("m0", "m1", "m2", "m3", "m4")
_SERVING_HOSTS = ("h0", "h1", "h2")


def _serving_world(hosts_of, requests, fails):
    """Hosts `_SERVED_MODELS[i]` on `hosts_of[i]` and publishes one request
    per `(model, chain)` in `requests`; the reply to a request's k-th link
    publishes a request to `chain[k]`, from the client's result handler."""
    world = SimWorld(Fabric(), seed=0)
    fabric = world.fabric
    for host in _SERVING_HOSTS:
        world.spawn_node(
            host,
            NodeKind.MODEL_HOST,
            load=LoadModel(offered_load=Fraction(1, 2)) if host == "h1" else None,
            hosted_models=tuple(m for m, h in zip(_SERVED_MODELS, hosts_of) if h == host),
        )
    for host, count in fails.items():
        world.fail_next_requests(host, count)
    fabric.register_node("client")

    def ask(model_id, session):
        fabric.publish(
            fabric.envelope(
                f"models/{model_id}/requests", session, kind="data", session=session,
                origin="client", extra={"result-topic": f"sessions/{session}/results"},
            )
        )

    def follow(reply):
        i, k = map(int, reply.metadata["session"][1:].split("-"))
        chain = requests[i][1]
        if k < len(chain):
            ask(chain[k], f"r{i}-{k + 1}")

    fabric.subscribe(Subscription(Selector.parse("sessions/**"), "client"), handler=follow)
    for i, (model_id, _) in enumerate(requests):
        ask(model_id, f"r{i}-0")
    return world


def _drain_every_mailbox(world):
    """One tick of the reference loop: drain every hosted model's request
    queue, in model-id order within a node and node-id order across nodes."""
    for node_id in sorted(world._runtimes):
        runtime = world._runtimes[node_id]
        node = world.state.nodes[node_id]
        if node.load is not None:
            world._emit_telemetry(node_id, runtime, node)
        for model_id in sorted(runtime.hosted):
            for request in world.fabric.drain(runtime.hosted[model_id]):
                world._reply(runtime, model_id, request)


_models = st.sampled_from(_SERVED_MODELS)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(
        st.sampled_from(_SERVING_HOSTS), min_size=len(_SERVED_MODELS), max_size=len(_SERVED_MODELS)
    ),
    st.lists(st.tuples(_models, st.lists(_models, max_size=3)), max_size=6),
    st.dictionaries(st.sampled_from(_SERVING_HOSTS), st.integers(1, 2), max_size=2),
    st.integers(1, 3),
)
@example(  # replies from m1 on h1 ask an earlier, the same and a later model
    # on h1, a model on the earlier node h0 and one on the later node h2
    ["h1", "h1", "h1", "h0", "h2"],
    [("m1", ["m0"]), ("m1", ["m1"]), ("m1", ["m2"]), ("m1", ["m3"]), ("m1", ["m4", "m2"])],
    {"h1": 1},
    2,
)
def test_step_serves_requests_as_draining_every_mailbox_would(hosts_of, requests, fails, ticks):
    """A tick that serves only pending models journals exactly what a tick
    that drains every hosted mailbox does, including for requests that
    reply handlers publish during the tick."""
    served = _serving_world(hosts_of, requests, fails)
    served.step(ticks)
    reference = _serving_world(hosts_of, requests, fails)
    for _ in range(ticks):
        _drain_every_mailbox(reference)
    assert served.fabric.journal.render() == reference.fabric.journal.render()


# -- snapshots ------------------------------------------------------------------------------


def test_snapshot_restore_round_trip():
    world = make_world()
    loaded_node(world)
    snap = world.snapshot()
    before = world.state_hash()
    assert isinstance(snap, WorldState) and snap is not world.state
    world.state.set_knob("cell-1", "admission-rate", Fraction(1, 4))
    replace_load(world.state, "cell-1", offered_load=Fraction(1, 100))
    assert world.state_hash() != before
    assert snap.state_hash() == before  # live writes never reach a snapshot
    world.restore(snap)
    assert world.state_hash() == before
    assert world.state.get_knob("cell-1", "admission-rate") == Fraction(1)
    # The world installs a copy, so writes after restore leave the snapshot alone.
    assert world.state is not snap
    world.state.set_knob("cell-1", "admission-rate", Fraction(1, 2))
    assert snap.state_hash() == before


def two_node_world():
    world = make_world()
    loaded_node(world, "cell-1")
    loaded_node(world, "cell-2", offered="1/2", admission="3/4")
    world.spawn_node("app-1", NodeKind.APP)
    return world


def test_clone_hashes_equal_the_original():
    state = two_node_world().state
    # Immutable nodes still rebuild through copy, deepcopy and pickle.
    for clone in (state.clone(), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert clone is not state
        assert clone.state_hash() == state.state_hash()
        assert clone.config_hash() == state.config_hash()
        assert clone.metrics() == state.metrics()


def _with_knob(s, node_id, knob, value, bounds):
    node = s.nodes[node_id]
    s.nodes[node_id] = NodeState(
        {**node.knobs, knob: value}, {**node.knob_ranges, knob: bounds}, node.load
    )


_IN_PLACE = (AttributeError, TypeError)  # FrozenInstanceError is an AttributeError


@pytest.mark.parametrize(
    "mutate, raises",
    [
        (lambda s: s.set_knob("cell-1", "admission-rate", Fraction(1, 5)), None),
        (lambda s: s.nodes["cell-2"].knobs.update({"probe-rate": Fraction(1)}), _IN_PLACE),
        (lambda s: _with_knob(s, "cell-2", "probe-rate", Fraction(1), (0, 1)), None),
        (
            lambda s: s.nodes["cell-1"].knob_ranges.update(
                {"admission-rate": (Fraction(0), Fraction(1, 10))}
            ),
            _IN_PLACE,
        ),
        (
            lambda s: _with_knob(
                s, "cell-1", "admission-rate", Fraction(1, 10), (Fraction(0), Fraction(1, 10))
            ),
            None,
        ),
        (
            lambda s: setattr(s.nodes["cell-1"].load, "offered_load", Fraction(7)),
            FrozenInstanceError,
        ),
        (lambda s: replace_load(s, "cell-1", offered_load=Fraction(7)), None),
        (lambda s: setattr(s.nodes["cell-2"].load, "queue_depth", 3), FrozenInstanceError),
        (lambda s: replace_load(s, "cell-2", queue_depth=3), None),
        (lambda s: setattr(s.nodes["cell-1"], "load", None), FrozenInstanceError),
        (lambda s: s.shift_load("cell-1", "cell-2", Fraction(1, 2)), None),
        (lambda s: s.nodes.pop("app-1"), None),
    ],
    ids=[
        "knob",
        "new-knob",
        "new-knob-by-replace",
        "knob-range",
        "knob-range-by-replace",
        "offered-load",
        "offered-load-by-replace",
        "queue-depth",
        "queue-depth-by-replace",
        "node-field",
        "shift",
        "node",
    ],
)
def test_mutating_a_clone_leaves_the_original_unchanged(mutate, raises):
    """A write to a clone never reaches the original. Nodes are immutable:
    an in-place write raises and changes neither world, and its
    replace-the-node twin changes the clone only."""
    state = two_node_world().state
    before = state.state_hash()
    ranges = {n: dict(node.knob_ranges) for n, node in state.nodes.items()}
    clone = state.clone()
    if raises is None:
        mutate(clone)
    else:
        with pytest.raises(raises):
            mutate(clone)
        assert clone.state_hash() == before
    assert state.state_hash() == before
    assert {n: node.knob_ranges for n, node in state.nodes.items()} == ranges
    assert state.set_knob("cell-1", "admission-rate", Fraction(1, 2)) == Fraction(1, 2)


def test_restoring_one_snapshot_twice_gives_the_same_state():
    world = two_node_world()
    snap = world.snapshot()
    saved = world.state_hash()
    for offered in (Fraction(3), Fraction(5)):
        world.state.set_knob("cell-1", "admission-rate", Fraction(1, 8))
        replace_load(world.state, "cell-2", offered_load=offered)
        assert world.state_hash() != saved
        world.restore(snap)
        assert world.state_hash() == saved


def test_config_hash_tracks_knobs_only():
    world = make_world()
    loaded_node(world)
    config_before = world.config_hash()
    replace_load(world.state, "cell-1", offered_load=Fraction(1, 3))
    assert world.config_hash() == config_before
    world.state.set_knob("cell-1", "admission-rate", Fraction(1, 3))
    assert world.config_hash() != config_before


def test_restore_keeps_the_state_of_a_node_spawned_after_the_snapshot():
    """`restore` rolls back the nodes the snapshot holds. A node spawned
    after the snapshot keeps its live state, as its runtime and fabric
    wiring stay, and the snapshot itself gains nothing."""
    world = make_world()
    loaded_node(world, "cell-1")
    snap = world.snapshot()
    world.state.set_knob("cell-1", "admission-rate", Fraction(1, 2))
    loaded_node(world, "cell-2", offered="1/2", admission="3/4")
    world.state.set_knob("cell-2", "admission-rate", Fraction(1, 4))
    sub_id = watch_telemetry(world, "cell-2")
    for _ in range(2):
        world.restore(snap)
        assert world.state.get_knob("cell-1", "admission-rate") == Fraction(1)
        assert world.state.get_knob("cell-2", "admission-rate") == Fraction(1, 4)
        assert list(snap.nodes) == ["cell-1"]
        world.step(1)
        assert [s.payload for s in world.fabric.drain(sub_id)] == [b"1/8"]
    with pytest.raises(DuplicateNode):
        loaded_node(world, "cell-2")


# -- structural sharing ----------------------------------------------------------------


_SHARED = ("n0", "n1", "n2", "n3")  # n2 declares no knob, n3 has no load model
_SHARED_KNOBS = ("admission-rate", "rate-limit", "probe-rate")


def _sharing_world():
    world = SimWorld(Fabric(), seed=0)
    nodes = {
        "n0": ({"admission-rate": 1, "rate-limit": 100}, LoadModel(Fraction(4, 5))),
        "n1": ({"admission-rate": Fraction(1, 2)}, LoadModel(Fraction(1, 3), Fraction(3, 2), 2)),
        "n2": ({}, LoadModel(Fraction(1, 2))),
        "n3": ({"probe-rate": 0}, None),
    }
    for node_id, (knobs, load) in nodes.items():
        world.spawn_node(node_id, NodeKind.RIC, knobs=knobs, load=load)
    return world


def _plain(state):
    """Each node as independent plain copies: knob dict, range dict and a
    `[offered, service, depth]` list or None."""
    return {
        node_id: (
            dict(node.knobs),
            dict(node.knob_ranges),
            None if node.load is None else list(dataclasses.astuple(node.load)),
        )
        for node_id, node in state.nodes.items()
    }


def _copy(model):
    return {
        node_id: (dict(knobs), dict(ranges), None if load is None else list(load))
        for node_id, (knobs, ranges, load) in model.items()
    }


def _ref_set(model, node_id, knob, value):
    knobs, ranges, _ = model[node_id]
    if knob not in knobs:
        raise KeyError(knob)
    lo, hi = ranges[knob]
    knobs[knob] = max(lo, min(hi, Fraction(value)))


def _ref_texts(model, node_id):
    knobs, _, load = model[node_id]
    config = [f"{node_id}/{knob}={knobs[knob]}" for knob in sorted(knobs)]
    state = config + ([] if load is None else [f"{node_id}/load={load[0]}:{load[1]}:{load[2]}"])
    return "\n".join(config), "\n".join(state)


def _ref_hash(model, part):
    lines = [_ref_texts(model, node_id)[part] for node_id in sorted(model)]
    text = "\n".join(line for line in lines if line)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _ref_metrics(model):
    out, total = {}, Fraction(0)
    for node_id in sorted(model):
        knobs, _, load = model[node_id]
        util = served = Fraction(0)
        if load is not None:
            admitted = load[0] * knobs.get("admission-rate", 1)
            util = admitted / load[1]
            served = min(admitted, load[1], knobs.get("rate-limit", load[1]))
        out[f"utilization.{node_id}"], out[f"throughput.{node_id}"] = util, served
        total += served
    out["throughput.total"] = total
    return out


def _meddle(state):
    """An invariant that writes its sandbox world and passes."""
    for node_id in list(state.nodes):
        if "admission-rate" in state.nodes[node_id].knobs:
            state.set_knob(node_id, "admission-rate", Fraction(0))
    try:
        state.shift_load("n0", "n2", Fraction(1, 2))
    except KeyError:  # an alias may have put a node without load there
        pass
    return True


_shared_node = st.sampled_from(_SHARED)
_share_value = st.fractions(min_value=0, max_value=2, max_denominator=12)
_world_index = st.integers(0, 7)  # taken modulo the number of worlds
_share_op = st.one_of(
    st.tuples(st.just("set"), _world_index, _shared_node, st.sampled_from(_SHARED_KNOBS),
              _share_value),
    st.tuples(st.just("shift"), _world_index, _shared_node, _shared_node, _share_value),
    st.tuples(st.just("control"), _shared_node, _share_value),
    st.tuples(st.just("replace"), _world_index, _shared_node, _share_value, _share_value),
    st.tuples(st.just("alias"), _world_index, _shared_node, _shared_node),
    st.tuples(st.just("clone"), _world_index),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"), _world_index),
    st.tuples(st.just("sandbox"), _world_index, _shared_node, _share_value),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(_share_op, max_size=30))
@example(  # one node object under two ids, hashed under each in turn
    [("alias", 0, "n1", "n0"), ("clone", 0), ("set", 1, "n0", "admission-rate", Fraction(1, 3))]
)
def test_worlds_sharing_nodes_equal_worlds_of_plain_copies(ops):
    """Worlds that share immutable nodes (the live world, its clones, its
    snapshots) read exactly as worlds of independent plain copies after
    every write, clone, snapshot, restore and sandbox run: same state and
    config hashes, same metrics, and each node's cached hash lines equal a
    from-scratch render under every id it sits under."""
    world = _sharing_world()
    guard = Guard(world.fabric, world)
    others = [None]  # index 0 is the live world, whose state `restore` rebinds
    models = [_plain(world.state)]

    def state(i):
        return world.state if i == 0 else others[i]

    for n, (kind, *args) in enumerate(ops):
        w = args[0] % len(models) if args and kind not in ("control", "snapshot") else 0
        if kind == "set":
            _, node_id, knob, value = args
            try:
                _ref_set(models[w], node_id, knob, value)
            except KeyError:
                with pytest.raises(KeyError):
                    state(w).set_knob(node_id, knob, value)
            else:
                state(w).set_knob(node_id, knob, value)
        elif kind == "shift":
            _, src, dst, fraction = args
            source, target = models[w][src][2], models[w][dst][2]
            if source is None or target is None:
                with pytest.raises(KeyError):
                    state(w).shift_load(src, dst, fraction)
            else:
                moved = source[0] * max(0, min(1, fraction))
                source[0] -= moved
                target[0] += moved
                assert state(w).shift_load(src, dst, fraction) == moved
        elif kind == "control":
            node_id, value = args
            world.fabric.publish(
                world.fabric.envelope(
                    f"managed/{node_id}/knobs", f"admission-rate={value}", kind="control",
                    session="ops", origin="operator",
                )
            )
            try:
                _ref_set(models[0], node_id, "admission-rate", value)
            except KeyError:
                pass
        elif kind == "replace":
            _, node_id, offered, probe = args
            old = state(w).nodes[node_id]
            state(w).nodes[node_id] = NodeState(
                {**old.knobs, "probe-rate": probe},
                {**old.knob_ranges, "probe-rate": (0, 1)},
                LoadModel(offered),
            )
            knobs, ranges, _ = models[w][node_id]
            models[w][node_id] = ({**knobs, "probe-rate": probe},
                                  {**ranges, "probe-rate": (0, 1)}, [offered, 1, 0])
        elif kind == "alias":
            _, src, dst = args
            state(w).nodes[dst] = state(w).nodes[src]
            models[w][dst] = _copy({src: models[w][src]})[src]
        elif kind == "clone":
            others.append(state(w).clone())
            models.append(_copy(models[w]))
        elif kind == "snapshot":
            others.append(world.snapshot())
            models.append(_copy(models[0]))
        elif kind == "restore":
            world.restore(state(w))
            models[0] = _copy(models[w])
        elif kind == "sandbox":
            _, node_id, value = args
            source = f"set {node_id} admission-rate {value}"
            guard.sandbox_run(
                GuardedProgram(f"p-{n}", source, (), "planner"),
                [NamedInvariant("meddles", _meddle)],
                model=state(w),
            )
        for i, model in enumerate(models):
            assert state(i).state_hash() == _ref_hash(model, 1)
            assert state(i).config_hash() == _ref_hash(model, 0)
            assert state(i).metrics() == _ref_metrics(model)
            for node_id, node in state(i).nodes.items():
                assert node._hash_texts(node_id) == (node_id, *_ref_texts(model, node_id))
