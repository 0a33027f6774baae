"""Guarded deployment: DSL, sandbox, deploy/rollback, consensus, tickets."""

import dataclasses
import gc
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import FunctionType, ModuleType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interconnect.errors import (
    DeployWithoutVerdict,
    ExecutionFailed,
    InvalidMetadata,
    TicketClosed,
    TicketStoreCorrupt,
    UnknownDeployment,
    UnknownTicket,
)
from interconnect.fabric import Fabric, Selector, Subscription
from interconnect.guard import (
    Guard,
    GuardedProgram,
    NamedInvariant,
    ProgramSyntaxError,
    TicketBook,
    TicketState,
    knob_within,
    min_total_throughput,
    parse_program,
    structural_hash,
)
import interconnect
import interconnect.guard as guard_module
from interconnect.simnet import LoadModel, NodeKind, NodeState, SimWorld, WorldState
from interconnect.trace import parse_trace


def make_rig(policy="escalate-only", ticket_store=None, budget=10_000):
    fabric = Fabric()
    world = SimWorld(fabric, seed=0)
    world.spawn_node(
        "ran-1",
        NodeKind.RIC,
        knobs={"admission-rate": Fraction(1), "rate-limit": Fraction(100)},
        load=LoadModel(offered_load=Fraction(4, 5)),
    )
    guard = Guard(
        fabric,
        world,
        policy=policy,
        ticket_store=ticket_store,
        instruction_budget=budget,
    )
    return fabric, world, guard


def program(source, program_id="prog-1", author="planner-0"):
    return GuardedProgram(
        program_id=program_id,
        source=source,
        declared_effects=("relieve-congestion",),
        author=author,
    )


# -- DSL parsing ----------------------------------------------------------------


def test_parse_program_shapes():
    instructions = parse_program(
        "# comment only\n"
        "set ran-1 admission-rate 1/2\n"
        "scale ran-1 admission-rate 9/10   # trailing comment\n"
        "limit ran-1 admission-rate 0 1\n"
        "reroute ran-1 ran-2 1/4\n"
    )
    assert [i.op for i in instructions] == ["set", "scale", "limit", "reroute"]
    assert instructions[0].values == (Fraction(1, 2),)
    assert instructions[2].values == (Fraction(0), Fraction(1))


def test_parse_rejects_unknown_instruction():
    with pytest.raises(ProgramSyntaxError) as err:
        parse_program("boost ran-1 admission-rate 2")
    assert err.value.kind == "IllegalInstruction"


@pytest.mark.parametrize(
    "source",
    [
        "set ran-1 admission-rate",
        "set ran-1 admission-rate 1/2 extra",
        "set RAN_1! admission-rate 1/2",
        "set ran-1 admission-rate one-half",
        "set ran-1 admission-rate 1/0",
        "set ran-1 admission-rate 1e-3",
        "set ran-1 admission-rate .5",
        "set ran-1 admission-rate 1_000",
        "set ran-1 admission-rate " + "1" * 65,
    ],
)
def test_parse_rejects_malformed_lines(source):
    with pytest.raises(ProgramSyntaxError) as err:
        parse_program(source)
    assert err.value.kind == "ParseError"


def test_structural_hash_ignores_formatting_and_case():
    a = "set ran-1 admission-rate 1/2\nscale ran-1 admission-rate 9/10\n"
    b = "# candidate B\nSET Ran-1 Admission-Rate 2/4\n\n  scale ran-1 admission-rate 81/90\n"
    c = "set ran-1 admission-rate 1/3"
    assert structural_hash(a) == structural_hash(b)
    assert structural_hash(a) != structural_hash(c)


def test_structural_hash_distinguishes_unparseable_kinds():
    bad = "boost ran-1 admission-rate 2"
    assert structural_hash(bad) == structural_hash(bad)
    assert structural_hash(bad) != structural_hash("set ran-1")
    assert structural_hash(bad) != structural_hash("boost ran-1 admission-rate 3")


# -- sandbox -----------------------------------------------------------------------


def test_sandbox_never_touches_live_state():
    fabric, world, guard = make_rig()
    before = world.state_hash()
    verdict = guard.sandbox_run(program("set ran-1 admission-rate 1/2"))
    assert verdict.accepted
    assert verdict.status == "Accepted"
    assert world.state_hash() == before
    assert verdict.metric_deltas["utilization.ran-1"] == Fraction(-2, 5)


_KNOBS = ("admission-rate", "rate-limit", "probe-rate")
_SMALL = st.fractions(min_value=0, max_value=4, max_denominator=8)
_VALUE = st.fractions(min_value=-1, max_value=4, max_denominator=12)


@st.composite
def sandbox_cases(draw):
    """A world of 1-12 nodes, a program over it, and how to sandbox it.

    Returns (nodes, source, use_model, bound): nodes are (id, knobs, load)
    with load None or (offered, service); bound is None or the bound of a
    `min_total_throughput` invariant.
    """
    nodes = []
    for i in range(draw(st.integers(1, 12))):
        knobs = {k: draw(_SMALL) for k in sorted(draw(st.sets(st.sampled_from(_KNOBS))))}
        load = None
        if draw(st.integers(0, 3)):
            load = (draw(_SMALL), draw(st.fractions(Fraction(1, 4), 4, max_denominator=8)))
        nodes.append((f"n{i}", knobs, load))
    # A well-formed program names only declared knobs and loaded reroute
    # endpoints; the others may name anything, a missing node included.
    well_formed = draw(st.integers(0, 3)) > 0
    anything = [(n, _KNOBS) for n, _, _ in nodes] + [("ghost", _KNOBS)]
    with_knobs = [(n, tuple(k)) for n, k, _ in nodes if k] if well_formed else anything
    loaded = [n for n, _, load in nodes if load] if well_formed else [n for n, _ in anything]
    ops = ["set", "scale", "limit"] * bool(with_knobs) + ["reroute"] * bool(loaded)
    lines = []
    for _ in range(draw(st.integers(1, 6)) if ops else 0):
        op = draw(st.sampled_from(ops))
        if op == "reroute":
            src, dst = draw(st.sampled_from(loaded)), draw(st.sampled_from(loaded))
            lines.append(f"reroute {src} {dst} {draw(_VALUE)}")
            continue
        node_id, knobs = draw(st.sampled_from(with_knobs))
        knob = draw(st.sampled_from(knobs))
        if op == "limit":
            lo, hi = sorted((draw(_VALUE), draw(_VALUE)))
            lines.append(f"limit {node_id} {knob} {lo} {hi}")
        else:
            lines.append(f"{op} {node_id} {knob} {draw(_VALUE)}")
    return nodes, "\n".join(lines), draw(st.booleans()), draw(st.none() | _SMALL)


def _reference_run(state, source):
    """The DSL's meaning through the public WorldState API, for the oracle."""
    for ins in parse_program(source):
        a, b = ins.idents
        if ins.op == "reroute":
            state.shift_load(a, b, ins.values[0])
        elif ins.op == "set":
            state.set_knob(a, b, ins.values[0])
        elif ins.op == "scale":
            state.set_knob(a, b, state.get_knob(a, b) * ins.values[0])
        else:
            lo, hi = ins.values
            state.set_knob(a, b, max(lo, min(hi, state.get_knob(a, b))))


_SELF_REROUTE = (
    [("n0", {"rate-limit": Fraction(1, 2)}, (Fraction(3), Fraction(2)))],
    "reroute n0 n0 1/2\nset n0 rate-limit 1",
    False,
    None,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sandbox_cases())
@example(_SELF_REROUTE)
@example((_SELF_REROUTE[0], _SELF_REROUTE[1], True, Fraction(1, 8)))
def test_sandbox_deltas_equal_full_metrics_of_a_brute_force_clone(case):
    """Written-node deltas equal `after.metrics() - before.metrics()` of a
    reference run, with the same keys in the same order; rejected programs
    carry no deltas; neither the live world nor the model moves."""
    nodes, source, use_model, bound = case
    fabric = Fabric()
    world = SimWorld(fabric, seed=0)
    for node_id, knobs, load in nodes:
        world.spawn_node(
            node_id, NodeKind.RIC, knobs=knobs, load=load and LoadModel(*load)
        )
    model = None
    if use_model:
        model = world.state.clone()
        for node_id, node in list(model.nodes.items()):
            if node.load is not None:
                load = dataclasses.replace(node.load, offered_load=node.load.offered_load * 2)
                model.nodes[node_id] = NodeState(node.knobs, node.knob_ranges, load)
    base = model if model is not None else world.state
    live_hash, base_hash = world.state_hash(), base.state_hash()
    invariants = [] if bound is None else [min_total_throughput(bound)]

    verdict = Guard(fabric, world).sandbox_run(program(source), invariants, model=model)

    assert (world.state_hash(), base.state_hash()) == (live_hash, base_hash)
    after = base.clone()
    try:
        _reference_run(after, source)
    except KeyError:
        assert (verdict.accepted, verdict.reason) == (False, "IllegalInstruction")
        assert verdict.metric_deltas == {}
        return
    if bound is not None and not after.total_throughput() > bound:
        assert not verdict.accepted
        assert verdict.reason == f"InvariantViolation(total-throughput>{bound})"
        assert verdict.metric_deltas == {}
        return
    before, after = base.metrics(), after.metrics()
    expected = {key: after[key] - before[key] for key in sorted(before)}
    assert verdict.accepted
    assert list(verdict.metric_deltas.items()) == list(expected.items())


def test_an_invariant_that_writes_cannot_reach_live_state():
    fabric, world, guard = make_rig()
    world.spawn_node(
        "ran-2",
        NodeKind.RIC,
        knobs={"admission-rate": Fraction(1)},
        load=LoadModel(offered_load=Fraction(1, 2)),
    )
    live = world.state_hash()

    def meddle(state):
        state.set_knob("ran-2", "admission-rate", Fraction(0))
        return True

    verdict = guard.sandbox_run(
        program("set ran-1 admission-rate 1/2"), [NamedInvariant("meddles", meddle)]
    )
    assert verdict.accepted
    assert world.state_hash() == live
    assert world.state.get_knob("ran-2", "admission-rate") == Fraction(1)
    # Invariants only read: a write to a node the program does not write is
    # neither measured nor kept.
    assert verdict.metric_deltas["utilization.ran-2"] == 0


def test_one_guard_measures_each_run_over_its_own_worlds_nodes():
    """Every accepted verdict's delta keys are those of the world its run
    cloned, however the node sets of one guard's runs differ, and each
    verdict owns its deltas."""
    fabric, world, guard = make_rig()
    smaller = world.state.clone()
    world.spawn_node("ran-2", NodeKind.RIC, load=LoadModel(offered_load=Fraction(1, 2)))
    both, one = ["ran-1", "ran-2"], ["ran-1"]
    for i, (model, ids) in enumerate([(None, both), (None, both), (smaller, one), (None, both)]):
        verdict = guard.sandbox_run(
            program("set ran-1 admission-rate 1/2", program_id=f"p-{i}"), model=model
        )
        keys = sorted([*(f"{m}.{n}" for m in ("throughput", "utilization") for n in ids),
                       "throughput.total"])
        written = ("throughput.ran-1", "utilization.ran-1", "throughput.total")
        expected = {**dict.fromkeys(keys, 0), **dict.fromkeys(written, Fraction(-2, 5))}
        assert list(verdict.metric_deltas.items()) == list(expected.items())
        verdict.metric_deltas.update(dict.fromkeys(keys, Fraction(99)))


def test_sandbox_rejects_bad_programs_and_audits():
    fabric, world, guard = make_rig()
    verdict = guard.sandbox_run(program("boost ran-1 admission-rate 2"))
    assert not verdict.accepted
    assert verdict.reason == "IllegalInstruction"
    (record,) = fabric.audit_log.query(ops=["sandbox"])
    assert record.outcome == "error(IllegalInstruction)"


def test_sandbox_rejects_unknown_knob_at_execution():
    fabric, world, guard = make_rig()
    verdict = guard.sandbox_run(program("set ran-1 tilt 2"))
    assert not verdict.accepted
    assert verdict.reason == "IllegalInstruction"


def test_sandbox_enforces_invariants():
    fabric, world, guard = make_rig()
    verdict = guard.sandbox_run(
        program("set ran-1 admission-rate 0"),
        invariants=[min_total_throughput(0)],
    )
    assert not verdict.accepted
    assert verdict.reason == "InvariantViolation(total-throughput>0)"
    ok = guard.sandbox_run(
        program("set ran-1 admission-rate 1/2", program_id="prog-2"),
        invariants=[min_total_throughput(0), knob_within("ran-1", "admission-rate", 0, 1)],
    )
    assert ok.accepted


def test_sandbox_budget_produces_timeout():
    fabric, world, guard = make_rig(budget=3)
    source = "scale ran-1 admission-rate 9/10\n" * 4
    verdict = guard.sandbox_run(program(source))
    assert verdict.reason == "Timeout"


def test_rejection_feeds_back_to_the_author():
    fabric, world, guard = make_rig()
    fabric.register_node("planner-0")
    fabric.create_topic("planner/planner-0/feedback")
    sub_id = fabric.subscribe(
        Subscription(Selector.parse("planner/planner-0/feedback"), "planner-0")
    )
    guard.sandbox_run(program("boost ran-1 admission-rate 2"))
    (feedback,) = fabric.drain(sub_id)
    assert feedback.metadata["kind"] == "prompt"
    assert b"refine prog-1" in feedback.payload


def test_an_invariant_that_raises_rejects_the_run_and_drops_the_earlier_verdict():
    """A predicate that raises fails closed: the run is rejected, audited and
    fed back like a violation, and an earlier acceptance of the id cannot
    deploy."""
    fabric, world, guard = make_rig()
    fabric.register_node("planner-0")
    fabric.create_topic("planner/planner-0/feedback")
    sub_id = fabric.subscribe(
        Subscription(Selector.parse("planner/planner-0/feedback"), "planner-0")
    )
    accepted = program("set ran-1 admission-rate 1/2")
    assert guard.sandbox_run(accepted).accepted
    reads_a_missing_node = NamedInvariant(
        "ran-9-admits", lambda state: state.get_knob("ran-9", "admission-rate") > 0
    )
    live = world.state_hash()

    verdict = guard.sandbox_run(
        program("set ran-1 admission-rate 0"), [reads_a_missing_node]
    )

    assert (verdict.accepted, verdict.reason) == (False, "InvariantError(ran-9-admits)")
    assert verdict.metric_deltas == {}
    assert world.state_hash() == live
    outcomes = [r.outcome for r in fabric.audit_log.query(ops=["sandbox"])]
    assert outcomes == ["ok", "error(InvariantError(ran-9-admits))"]
    (feedback,) = fabric.drain(sub_id)
    assert feedback.metadata["detail"] == "refine InvariantError(ran-9-admits)"
    with pytest.raises(DeployWithoutVerdict):
        guard.deploy(accepted, "ran-1")
    assert world.state_hash() == live


# -- deploy and rollback ----------------------------------------------------------------


def test_deploy_requires_accepted_verdict():
    fabric, world, guard = make_rig()
    good = program("set ran-1 admission-rate 1/2")
    with pytest.raises(DeployWithoutVerdict):
        guard.deploy(good, "ran-1")
    bad = program("boost ran-1 admission-rate 2", program_id="prog-9")
    guard.sandbox_run(bad)
    with pytest.raises(DeployWithoutVerdict):
        guard.deploy(bad, "ran-1")


def test_deploy_applies_and_rollback_restores():
    fabric, world, guard = make_rig()
    good = program("set ran-1 admission-rate 1/2")
    guard.sandbox_run(good)
    before = world.config_hash()
    record = guard.deploy(good, "ran-1")
    assert record.status == "Applied"
    assert record.config_hash_before == before
    assert record.config_hash_after == world.config_hash() != before
    assert world.state.get_knob("ran-1", "admission-rate") == Fraction(1, 2)

    rolled = guard.rollback(record.deployment_id)
    assert rolled is record
    assert rolled.status == "RolledBack"
    assert world.config_hash() == before
    assert world.state.get_knob("ran-1", "admission-rate") == Fraction(1)
    with pytest.raises(UnknownDeployment):
        guard.rollback(record.deployment_id)
    with pytest.raises(UnknownDeployment):
        guard.rollback("dep-99")


def test_rollback_keeps_a_node_spawned_after_the_deploy():
    # The spawn's runtime and fabric wiring outlive the rollback, so its
    # state must too: otherwise `step` cannot run the node and
    # `spawn_node` cannot add it again.
    fabric, world, guard = make_rig()
    good = program("set ran-1 admission-rate 1/2")
    assert guard.sandbox_run(good).accepted
    record = guard.deploy(good, "ran-1")
    world.spawn_node(
        "ran-2", NodeKind.RIC, knobs={"admission-rate": Fraction(3, 4)},
        load=LoadModel(offered_load=Fraction(1, 2)),
    )
    guard.rollback(record.deployment_id)
    assert world.state.get_knob("ran-1", "admission-rate") == Fraction(1)
    assert world.state.get_knob("ran-2", "admission-rate") == Fraction(3, 4)
    assert world.state.utilization("ran-2") == Fraction(3, 8)
    world.step(1)
    assert fabric.last_envelope("telemetry/ran-2/load").payload == b"3/8"


def test_deploy_audits_execute_and_rollback_audits_rollback():
    fabric, world, guard = make_rig()
    good = program("set ran-1 admission-rate 1/2")
    guard.sandbox_run(good)
    record = guard.deploy(good, "ran-1")
    guard.rollback(record.deployment_id)
    assert [r.actor for r in fabric.audit_log.query(ops=["execute"])] == ["ran-1"]
    assert [r.actor for r in fabric.audit_log.query(ops=["rollback"])] == ["ran-1"]


# A `|` and a line break `str.splitlines` splits at: either would split the
# audit line that journals the value.
_SPLITTING = ["a|b", "a\u2028b"]


@pytest.mark.parametrize("author", _SPLITTING, ids=["pipe", "U+2028"])
def test_sandbox_run_rejects_an_author_that_would_split_its_audit_line(author):
    fabric, world, guard = make_rig()
    journal = fabric.journal.render()
    sneaky = program("set ran-1 admission-rate 1/2", author=author)
    with pytest.raises(InvalidMetadata, match="^author .* holds a record separator$"):
        guard.sandbox_run(sneaky)
    assert fabric.journal.render() == journal
    assert parse_trace(fabric.journal.render()).lines() == fabric.journal.lines()
    with pytest.raises(DeployWithoutVerdict):  # no verdict was recorded
        guard.deploy(sneaky, "ran-1")


@pytest.mark.parametrize("name", _SPLITTING, ids=["pipe", "U+2028"])
def test_sandbox_run_rejects_an_invariant_name_that_would_split_its_audit_line(name):
    # A failing invariant's name is journaled in the rejection's outcome.
    fabric, world, guard = make_rig()
    good = program("set ran-1 admission-rate 1/2")
    assert guard.sandbox_run(good).accepted
    journal = fabric.journal.render()
    with pytest.raises(InvalidMetadata, match="^invariant name .* holds a record separator$"):
        guard.sandbox_run(good, [NamedInvariant(name, lambda state: False)])
    assert fabric.journal.render() == journal
    # The earlier acceptance still stands.
    assert guard.deploy(good, "ran-1").status == "Applied"


def test_deploy_rejects_a_target_that_would_split_its_audit_line():
    fabric, world, guard = make_rig()
    good = program("set ran-1 admission-rate 1/2")
    assert guard.sandbox_run(good).accepted
    before = world.config_hash()
    journal = fabric.journal.render()
    with pytest.raises(InvalidMetadata, match=re.escape("target 'x\\ny' holds a record separator")):
        guard.deploy(good, "x\ny")
    assert world.config_hash() == before
    assert fabric.journal.render() == journal
    with pytest.raises(UnknownDeployment):  # no applied record
        guard.rollback("dep-1")
    # The verdict is not used up: a deploy to a good target is the first.
    assert guard.deploy(good, "ran-1").deployment_id == "dep-1"


def test_hitl_resolve_rejects_a_resolver_that_would_split_its_audit_line(tmp_path):
    fabric, world, guard = make_rig(ticket_store=tmp_path / "tickets.ndjson")
    ticket = guard.open_ticket("ConsensusDisagreement", "prog-1")
    journal = fabric.journal.render()
    with pytest.raises(InvalidMetadata, match="^resolver 'a\\|b' holds a record separator$"):
        guard.hitl_resolve(ticket.ticket_id, "approve", resolver="a|b")
    assert fabric.journal.render() == journal
    assert [t.state for t in guard.tickets()] == [TicketState.OPEN]


def _guard_state(fabric, guard):
    return fabric.journal.render(), dict(guard._verdicts), guard.tickets()


def test_sandbox_run_rejects_an_author_that_is_not_a_topic_segment():
    # A rejection feeds back on `planner/<author>/feedback`: an author that
    # cannot be one segment of it fails before the verdict or the journal
    # changes, and the earlier acceptance of the id stands.
    fabric, world, guard = make_rig()
    assert guard.sandbox_run(program("set ran-1 admission-rate 1/2")).accepted
    before = _guard_state(fabric, guard)
    rejected = program("boost ran-1 admission-rate 2", author="Planner A")
    with pytest.raises(InvalidMetadata, match="^author 'Planner A' is not a single topic segment$"):
        guard.sandbox_run(rejected)
    assert _guard_state(fabric, guard) == before


def test_consensus_check_rejects_an_author_that_is_not_a_topic_segment():
    fabric, world, guard = make_rig()
    outputs = [
        program("set ran-1 admission-rate 1/2", program_id="c-1"),
        program("set ran-1 admission-rate 1/4", program_id="c-2", author="Planner A"),
    ]
    before = _guard_state(fabric, guard)
    with pytest.raises(InvalidMetadata, match="^author 'Planner A' is not a single topic segment$"):
        guard.consensus_check(outputs)
    assert _guard_state(fabric, guard) == before
    assert before[2] == []  # no ticket was opened


def test_consensus_check_rejects_a_program_id_that_would_split_its_feedback():
    # The program id is the session of the feedback envelope.
    fabric, world, guard = make_rig()
    outputs = [
        program("set ran-1 admission-rate 1/2", program_id="c|1"),
        program("set ran-1 admission-rate 1/4", program_id="c-2"),
    ]
    before = _guard_state(fabric, guard)
    with pytest.raises(InvalidMetadata, match="^program id 'c\\|1' holds a record separator$"):
        guard.consensus_check(outputs)
    assert _guard_state(fabric, guard) == before
    assert before[2] == []


@pytest.mark.parametrize("program_id", ["", 7], ids=["empty", "not-a-str"])
def test_sandbox_run_rejects_a_program_id_that_cannot_be_a_session(program_id):
    fabric, world, guard = make_rig()
    before = _guard_state(fabric, guard)
    with pytest.raises(InvalidMetadata, match="^program id "):
        guard.sandbox_run(program("boost ran-1 admission-rate 2", program_id=program_id))
    assert _guard_state(fabric, guard) == before


def test_deploy_rejects_a_source_other_than_the_one_sandboxed():
    # A verdict judges one program: a different source deployed under the
    # same program id must not ride on it, however harmless the first was.
    fabric, world, guard = make_rig()
    assert guard.sandbox_run(program("set ran-1 rate-limit 50")).accepted
    before = world.state_hash()
    for swapped in ("set ran-1 admission-rate 0", "boost ran-1 admission-rate 0"):
        with pytest.raises(DeployWithoutVerdict):
            guard.deploy(program(swapped), "ran-1")
    assert world.state_hash() == before
    assert fabric.audit_log.query(ops=["execute"]) == []
    # The same instructions, reformatted, are the program that was judged.
    record = guard.deploy(program("# reformatted\nSET Ran-1 Rate-Limit 100/2"), "ran-1")
    assert record.status == "Applied"
    assert world.state.get_knob("ran-1", "rate-limit") == Fraction(50)


# -- one parse per program ---------------------------------------------------------


@pytest.fixture
def parse_calls(monkeypatch):
    """The sources `parse_program` is called on from here on, in order."""
    calls = []
    real = guard_module.parse_program

    def counted(source):
        calls.append(source)
        return real(source)

    monkeypatch.setattr(guard_module, "parse_program", counted)
    return calls


@pytest.mark.parametrize("factor, accepted", [("9/10", True), ("0", False)])
def test_a_codegen_op_parses_each_candidate_once(parse_calls, factor, accepted):
    # Three candidates, consensus, sandbox, and for an accepted program
    # deploy and rollback: the three constructions are the only parses.
    fabric, world, guard = make_rig()
    template = f"limit ran-1 admission-rate 0 1\nscale ran-1 admission-rate {factor}"
    candidates = [
        program(template, "cg-a", "planner-0"),
        program("# reformatted\n" + template.upper(), "cg-b", "planner-1"),
        program("set ran-1 admission-rate 1/2", "cg-c", "planner-2"),
    ]
    assert parse_calls == [p.source for p in candidates]
    consensus = guard.consensus_check(candidates)
    assert consensus.chosen is candidates[0]
    invariant = knob_within("ran-1", "admission-rate", Fraction(1, 10), Fraction(1))
    verdict = guard.sandbox_run(consensus.chosen, [invariant])
    assert verdict.accepted is accepted
    if accepted:
        record = guard.deploy(consensus.chosen, "ran-1")
        guard.rollback(record.deployment_id)
    assert len(parse_calls) == 3


@pytest.mark.parametrize("bounds", [(0.1, 1), (0, "1"), (False, 1)], ids=["float", "text", "bool"])
def test_knob_within_takes_only_exact_bounds(bounds):
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        knob_within("ran-1", "admission-rate", *bounds)


def test_deploy_reads_the_parse_and_refuses_another_source_under_the_judged_id(parse_calls):
    fabric, world, guard = make_rig()
    judged = program("set ran-1 rate-limit 50")
    assert guard.sandbox_run(judged).accepted
    swapped = program("set ran-1 rate-limit 60")
    assert swapped.program_id == judged.program_id
    with pytest.raises(DeployWithoutVerdict):
        guard.deploy(swapped, "ran-1")
    assert guard.deploy(judged, "ran-1").status == "Applied"
    assert parse_calls == [judged.source, swapped.source]


def test_the_parse_takes_no_part_in_equality_hash_or_repr():
    a, b = program("set ran-1 rate-limit 50"), program("set ran-1 rate-limit 50")
    assert a.parsed == b.parsed and a.parsed is not b.parsed
    assert a == b and hash(a) == hash(b)
    assert "parsed" not in repr(a)
    kind, message = dataclasses.replace(a, source="boost").parsed
    assert (kind, message) == ("IllegalInstruction", "line 1: unknown instruction 'boost'")
    with pytest.raises(TypeError):
        GuardedProgram("p", "set ran-1 rate-limit 50", (), "planner-0", parsed=())


@pytest.mark.parametrize("source", [None, b"set ran-1 rate-limit 50", 50])
def test_a_source_that_is_not_a_str_is_refused_before_any_parse(parse_calls, source):
    with pytest.raises(InvalidMetadata, match="source"):
        GuardedProgram("prog-1", source, (), "planner-0")
    assert parse_calls == []


def test_an_exponent_value_is_a_parse_error_and_never_reaches_live_state():
    # `1e-5000` lies in the knob's range, but its denominator has 16,610
    # bits: accepted, its deploy wrote the live knob and then raised from
    # `config_hash`, with no deployment record to roll back.
    fabric, world, guard = make_rig()
    before = world.config_hash()
    verdict = guard.sandbox_run(program("set ran-1 admission-rate 1e-5000"))
    assert (verdict.accepted, verdict.reason) == (False, "ParseError")
    with pytest.raises(DeployWithoutVerdict):
        guard.deploy(program("set ran-1 admission-rate 1e-5000"), "ran-1")
    assert world.config_hash() == before
    assert fabric.audit_log.query(ops=["execute"]) == []


# 2,200 in-range scalings: the knob ends with a 4,400-digit denominator,
# past the 4,300-digit limit of `str(int)` that `config_hash` renders with.
_UNREADABLE_SCALING = "scale ran-1 admission-rate 99/100\n" * 2_200


def test_a_program_that_writes_an_unreadable_value_is_rejected_before_live_state():
    # Accepted, its deploy wrote the knob into the live world and then raised
    # `ValueError` from `config_hash`; every later `config_hash` and `step`
    # raised the same.
    fabric, world, guard = make_rig()
    before = world.config_hash()
    verdict = guard.sandbox_run(program(_UNREADABLE_SCALING))
    assert (verdict.accepted, verdict.reason) == (False, "UnreadableValue")
    with pytest.raises(DeployWithoutVerdict):
        guard.deploy(program(_UNREADABLE_SCALING), "ran-1")
    assert world.config_hash() == before
    world.step(1)
    assert world.config_hash() == before
    assert fabric.audit_log.query(ops=["execute"]) == []


def test_a_deploy_that_writes_an_unreadable_value_restores_the_live_world():
    # Judged against a model whose knob is 0, which the scaling keeps at 0,
    # the program leaves the live knob, 1, unreadable.
    fabric, world, guard = make_rig()
    zeroed = world.state.clone()
    zeroed.set_knob("ran-1", "admission-rate", 0)
    prog = program(_UNREADABLE_SCALING)
    assert guard.sandbox_run(prog, model=zeroed).accepted
    before = world.state_hash()
    with pytest.raises(ExecutionFailed, match="ran-1"):
        guard.deploy(prog, "ran-1")
    assert world.state_hash() == before
    world.step(1)
    world.config_hash()
    assert fabric.audit_log.query(ops=["execute"]) == []


def with_tilt(state):
    """The state with a `tilt` knob declared on ran-1, by replacing the node."""
    node = state.nodes["ran-1"]
    knobs = {**node.knobs, "tilt": Fraction(0)}
    state.nodes["ran-1"] = NodeState(knobs, node.knob_ranges, node.load)
    return state


def test_failed_live_execution_restores_snapshot():
    # A program can pass the sandbox against a permissive model and still
    # fail against the live world; the deploy must then leave no trace.
    fabric, world, guard = make_rig()
    richer = with_tilt(world.state.clone())
    prog = program("set ran-1 tilt 1/2")
    assert guard.sandbox_run(prog, model=richer).accepted
    before = world.config_hash()
    with pytest.raises(ExecutionFailed):
        guard.deploy(prog, "ran-1")
    assert world.config_hash() == before
    with pytest.raises(UnknownDeployment):
        guard.rollback("dep-1")


def test_partly_executed_live_deploy_is_undone():
    # The first instruction writes live state before the second fails on a
    # knob only the sandbox model declares; the deploy must leave no trace.
    fabric, world, guard = make_rig()
    richer = with_tilt(world.state.clone())
    prog = program("set ran-1 admission-rate 1/2\nset ran-1 tilt 1/2")
    assert guard.sandbox_run(prog, model=richer).accepted
    before = world.state_hash()
    for _ in range(2):  # a failed deploy leaves the verdict in place
        with pytest.raises(ExecutionFailed):
            guard.deploy(prog, "ran-1")
        assert world.state_hash() == before
    assert world.state.get_knob("ran-1", "admission-rate") == Fraction(1)
    assert fabric.audit_log.query(ops=["execute"]) == []
    with pytest.raises(UnknownDeployment):
        guard.rollback("dep-1")


def test_redeploy_after_rollback_needs_a_fresh_sandbox_run():
    fabric, world, guard = make_rig()
    good = program("set ran-1 admission-rate 1/2")
    guard.sandbox_run(good)
    guard.rollback(guard.deploy(good, "ran-1").deployment_id)
    with pytest.raises(DeployWithoutVerdict, match="no Accepted sandbox verdict"):
        guard.deploy(good, "ran-1")
    assert guard.sandbox_run(good).accepted
    assert guard.deploy(good, "ran-1").deployment_id == "dep-2"


def test_a_rejection_withdraws_an_earlier_acceptance():
    fabric, world, guard = make_rig()
    good = program("set ran-1 admission-rate 1/2")
    assert guard.sandbox_run(good).accepted
    assert not guard.sandbox_run(program("boost ran-1 admission-rate 2")).accepted
    before = world.state_hash()
    with pytest.raises(DeployWithoutVerdict, match="no Accepted sandbox verdict"):
        guard.deploy(good, "ran-1")
    assert world.state_hash() == before


def test_guard_retains_no_verdict_or_snapshot_after_many_deploys():
    fabric, world, guard = make_rig()
    gc.collect()
    states = sum(isinstance(o, WorldState) for o in gc.get_objects())
    config = world.config_hash()
    for i in range(1_000):
        good = program("scale ran-1 admission-rate 1/2", program_id=f"ok-{i}")
        assert guard.sandbox_run(good).accepted
        guard.rollback(guard.deploy(good, "ran-1").deployment_id)
        bad = program("boost ran-1 admission-rate 2", program_id=f"bad-{i}")
        assert not guard.sandbox_run(bad).accepted
    assert world.config_hash() == config
    gc.collect()
    assert sum(isinstance(o, WorldState) for o in gc.get_objects()) == states
    assert len(guard._verdicts) == 0


def _reachable(root, cls):
    """Ids of the `cls` instances reachable from `root`, not through
    types, modules or functions (whose globals reach everything)."""
    seen, found, stack = {id(root)}, set(), [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, cls):
            found.add(id(obj))
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, (type, ModuleType, FunctionType)):
                seen.add(id(ref))
                stack.append(ref)
    return found


def test_applied_deployments_retain_the_nodes_they_wrote_not_the_world():
    """A deploy's snapshot shares every node it did not write with the live
    world: 100 applied deploys on a 100-node world keep 100 + 100 node
    states reachable from the guard, not 100 per deploy."""
    fabric, world, guard = make_rig()
    nodes, cycles = 100, 100
    for k in range(2, nodes + 1):
        world.spawn_node(
            f"ran-{k}", NodeKind.RIC, knobs={"admission-rate": Fraction(1)},
            load=LoadModel(offered_load=Fraction(1, 2)),
        )
    for i in range(cycles):
        good = program(f"set ran-{i % nodes + 1} admission-rate 1/{i + 2}", program_id=f"p-{i}")
        assert guard.sandbox_run(good).accepted
        guard.deploy(good, "ran-1")
    assert len(guard._applied) == cycles
    assert len(_reachable(guard, NodeState)) == nodes + cycles


# -- consensus -----------------------------------------------------------------------------


def test_consensus_majority_wins():
    fabric, world, guard = make_rig()
    base = "set ran-1 admission-rate 1/2"
    outputs = [
        program(base, "prog-a", "planner-0"),
        program("# same intent\nSET ran-1 admission-rate 2/4", "prog-b", "planner-1"),
        program("set ran-1 admission-rate 1/3", "prog-c", "planner-2"),
    ]
    result = guard.consensus_check(outputs)
    assert result.status == "Consensus"
    assert result.agreement == Fraction(2, 3)
    assert result.chosen.program_id == "prog-a"
    assert result.ticket is None


def test_consensus_all_distinct_escalates():
    fabric, world, guard = make_rig()
    outputs = [
        program("set ran-1 admission-rate 1/2", "prog-a", "planner-0"),
        program("set ran-1 admission-rate 1/3", "prog-b", "planner-1"),
        program("set ran-1 admission-rate 1/4", "prog-c", "planner-2"),
    ]
    result = guard.consensus_check(outputs)
    assert result.status == "Escalate"
    assert result.agreement == Fraction(1, 3)
    assert result.ticket.reason == "ConsensusDisagreement"
    assert result.ticket.subject == "prog-a"
    assert [t.ticket_id for t in guard.tickets()] == [result.ticket.ticket_id]
    feedback = fabric.audit_log.query(ops=["publish"], actor="guard")
    assert len(feedback) == 3


def test_consensus_even_split_escalates():
    fabric, world, guard = make_rig()
    outputs = [
        program("set ran-1 admission-rate 1/2", "prog-a", "planner-0"),
        program("set ran-1 admission-rate 1/3", "prog-b", "planner-1"),
    ]
    result = guard.consensus_check(outputs)
    assert result.status == "Escalate"
    assert result.agreement == Fraction(1, 2)


def test_consensus_needs_two_candidates():
    fabric, world, guard = make_rig()
    with pytest.raises(ValueError):
        guard.consensus_check([program("set ran-1 admission-rate 1/2")])


# -- human-in-the-loop ---------------------------------------------------------------------


def test_strict_policy_needs_approval():
    fabric, world, guard = make_rig(policy="strict")
    good = program("set ran-1 admission-rate 1/2")
    guard.sandbox_run(good)
    with pytest.raises(DeployWithoutVerdict):
        guard.deploy(good, "ran-1")
    ticket = guard.open_ticket("ManualGate", good.program_id)
    guard.hitl_resolve(ticket.ticket_id, "approve", note="reviewed")
    record = guard.deploy(good, "ran-1")
    assert record.status == "Applied"
    (hitl,) = fabric.audit_log.query(ops=["hitl"])
    assert hitl.actor == "operator"


def test_denied_ticket_blocks_even_when_escalate_only():
    fabric, world, guard = make_rig(policy="escalate-only")
    good = program("set ran-1 admission-rate 1/2")
    guard.sandbox_run(good)
    ticket = guard.open_ticket("Challenge", good.program_id)
    guard.hitl_resolve(ticket.ticket_id, "deny")
    with pytest.raises(DeployWithoutVerdict):
        guard.deploy(good, "ran-1")


def test_off_policy_skips_the_gate():
    fabric, world, guard = make_rig(policy="off")
    good = program("set ran-1 admission-rate 1/2")
    guard.sandbox_run(good)
    ticket = guard.open_ticket("Challenge", good.program_id)
    guard.hitl_resolve(ticket.ticket_id, "deny")
    assert guard.deploy(good, "ran-1").status == "Applied"


def test_tickets_resolve_exactly_once():
    fabric, world, guard = make_rig()
    ticket = guard.open_ticket("Check", "prog-1")
    with pytest.raises(ValueError):
        guard.hitl_resolve(ticket.ticket_id, "maybe")
    guard.hitl_resolve(ticket.ticket_id, "approve")
    with pytest.raises(TicketClosed):
        guard.hitl_resolve(ticket.ticket_id, "deny")
    with pytest.raises(UnknownTicket):
        guard.hitl_resolve("ticket-99", "approve")


def test_unknown_policy_rejected():
    fabric = Fabric()
    world = SimWorld(fabric)
    with pytest.raises(ValueError):
        Guard(fabric, world, policy="lenient")


# -- ticket book persistence ------------------------------------------------------------------


def test_ticket_book_round_trips_through_the_file(tmp_path):
    store = tmp_path / "tickets.ndjson"
    fabric, world, guard = make_rig(ticket_store=store)
    ticket = guard.open_ticket("ConsensusDisagreement", "prog-1")
    guard.hitl_resolve(ticket.ticket_id, "approve", note="looks right")

    book = TicketBook(store)
    loaded = book.load()
    assert loaded[ticket.ticket_id].state is TicketState.APPROVED
    assert loaded[ticket.ticket_id].note == "looks right"


def test_ticket_book_resolve_is_the_operator_path(tmp_path):
    store = tmp_path / "tickets.ndjson"
    fabric, world, guard = make_rig(ticket_store=store)
    ticket = guard.open_ticket("ConsensusDisagreement", "prog-1")

    book = TicketBook(store)
    with pytest.raises(ValueError):
        book.resolve(ticket.ticket_id, TicketState.OPEN)
    resolved = book.resolve(ticket.ticket_id, TicketState.DENIED, note="too risky")
    assert resolved.state is TicketState.DENIED
    with pytest.raises(TicketClosed):
        book.resolve(ticket.ticket_id, TicketState.APPROVED)
    with pytest.raises(UnknownTicket):
        book.resolve("ticket-99", TicketState.APPROVED)

    # A fresh guard over the same store sees the operator's decision.
    guard2 = Guard(fabric, world, ticket_store=store)
    good = program("set ran-1 admission-rate 1/2")
    guard2.sandbox_run(good)
    with pytest.raises(DeployWithoutVerdict):
        guard2.deploy(good, "ran-1")


def test_ticket_numbering_continues_after_reload(tmp_path):
    store = tmp_path / "tickets.ndjson"
    fabric, world, guard = make_rig(ticket_store=store)
    guard.open_ticket("First", "prog-1")
    guard2 = Guard(fabric, world, ticket_store=store)
    ticket = guard2.open_ticket("Second", "prog-2")
    assert ticket.ticket_id == "ticket-2"


def test_a_running_strict_guard_sees_an_approval_made_through_the_book(tmp_path):
    store = tmp_path / "tickets.ndjson"
    fabric, world, guard = make_rig(policy="strict", ticket_store=store)
    good = program("set ran-1 admission-rate 1/2")
    guard.sandbox_run(good)
    ticket = guard.open_ticket("ManualGate", good.program_id)
    TicketBook(store).resolve(ticket.ticket_id, TicketState.APPROVED, note="reviewed")
    assert guard.deploy(good, "ran-1").status == "Applied"
    assert [t.state for t in guard.tickets()] == [TicketState.APPROVED]


def test_two_guards_on_one_store_mint_distinct_ticket_ids(tmp_path):
    store = tmp_path / "tickets.ndjson"
    fabric, world, first = make_rig(ticket_store=store)
    second = Guard(fabric, world, ticket_store=store)
    assert first.open_ticket("First", "prog-1").ticket_id == "ticket-1"
    assert second.open_ticket("Second", "prog-2").ticket_id == "ticket-2"
    assert [t.subject for t in first.tickets()] == ["prog-1", "prog-2"]


def test_minting_skips_an_id_the_store_already_holds(tmp_path):
    # A ticket opened twice would come back Open and so undo a denial.
    store = tmp_path / "tickets.ndjson"
    book = TicketBook(store)
    book.append({"event": "open", "ticket": "ticket-2", "reason": "r", "subject": "prog-2"})
    book.resolve("ticket-2", TicketState.DENIED)
    fabric, world, guard = make_rig(ticket_store=store)
    assert guard.open_ticket("Other", "prog-1").ticket_id == "ticket-3"
    assert book.load()["ticket-2"].state is TicketState.DENIED


@pytest.mark.parametrize("decisions", [("Denied", "Approved"), ("Approved", "Denied")])
def test_a_denial_wins_over_any_other_resolution(tmp_path, decisions):
    # Two operators resolving at once could write both lines; the one
    # that denies must hold whichever came first.
    store = tmp_path / "tickets.ndjson"
    book = TicketBook(store)
    book.append({"event": "open", "ticket": "ticket-1", "reason": "r", "subject": "prog-1"})
    for decision in decisions:
        book.append(
            {"event": "resolve", "ticket": "ticket-1", "decision": decision, "note": decision}
        )
    ticket = book.load()["ticket-1"]
    assert (ticket.state, ticket.note) == (TicketState.DENIED, "Denied")
    fabric, world, guard = make_rig(ticket_store=store)
    good = program("set ran-1 admission-rate 1/2")
    guard.sandbox_run(good)
    before = world.state_hash()
    with pytest.raises(DeployWithoutVerdict, match="denied by ticket"):
        guard.deploy(good, "ran-1")
    assert world.state_hash() == before


_OPEN_25 = """
import os, sys, time
from interconnect.guard import TicketBook
store, go = sys.argv[1], sys.argv[2]
deadline = time.monotonic() + 30
while not os.path.exists(go) and time.monotonic() < deadline:
    time.sleep(0.001)
book = TicketBook(store)
for i in range(25):
    book.open_ticket("Load", f"prog-{os.getpid()}-{i}")
"""


def test_two_processes_opening_tickets_on_one_store_mint_distinct_ids(tmp_path):
    store, go = tmp_path / "tickets.ndjson", tmp_path / "go"
    src = str(Path(interconnect.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    workers = [
        subprocess.Popen([sys.executable, "-c", _OPEN_25, str(store), str(go)], env=env)
        for _ in range(2)
    ]
    go.touch()
    for worker in workers:
        assert worker.wait(timeout=60) == 0
    lines = store.read_text(encoding="utf-8").splitlines()
    tickets = TicketBook(store).load()
    assert len(lines) == len(tickets) == 50
    assert sorted(tickets) == sorted(f"ticket-{n}" for n in range(1, 51))


_OPENED = '{"event": "open", "reason": "r", "subject": "prog-1", "ticket": "ticket-1"}\n'


@pytest.mark.parametrize(
    "line",
    [
        b"not json",
        b"\xff\xfe not utf-8",
        b'{"event": "open"}',
        b"[1, 2]",
        b'{"event": "close", "ticket": "ticket-1"}',
        b'{"event": "resolve", "ticket": "ticket-1", "decision": "Maybe", "note": ""}',
        b'{"event": "open", "ticket": 7, "reason": "r", "subject": "s"}',
        b'{"event": "resolve", "ticket": "ticket-1", "decision": "Denied", "note": 5}',
        b'{"event": "resolve", "ticket": "ticket-9", "decision": "Denied", "note": ""}',
    ],
    ids=[
        "not-json",
        "not-utf8",
        "missing-fields",
        "not-an-object",
        "unknown-event",
        "bad-decision",
        "int-id",
        "int-note",
        "resolve-before-open",
    ],
)
def test_a_malformed_store_raises_a_typed_error_naming_the_line(tmp_path, line):
    store = tmp_path / "tickets.ndjson"
    store.write_bytes(_OPENED.encode() + b"\n" + line + b"\n")
    with pytest.raises(TicketStoreCorrupt, match="line 3: "):
        TicketBook(store).load()


def test_a_malformed_store_blocks_deploy_and_leaves_live_state(tmp_path):
    store = tmp_path / "tickets.ndjson"
    fabric, world, guard = make_rig(ticket_store=store)
    good = program("set ran-1 admission-rate 1/2")
    assert guard.sandbox_run(good).accepted
    store.write_text(_OPENED + "not json\n", encoding="utf-8")
    before = world.state_hash()
    with pytest.raises(TicketStoreCorrupt):
        guard.deploy(good, "ran-1")
    assert world.state_hash() == before
    assert fabric.audit_log.query(ops=["execute"]) == []


def test_a_guard_without_a_store_opens_no_file(monkeypatch):
    fabric, world, guard = make_rig(policy="strict")
    good = program("set ran-1 admission-rate 1/2")
    guard.sandbox_run(good)

    def no_file(*args, **kwargs):
        raise AssertionError("file I/O without a ticket store")

    monkeypatch.setattr("builtins.open", no_file)
    ticket = guard.open_ticket("ManualGate", good.program_id)
    guard.hitl_resolve(ticket.ticket_id, "approve")
    assert guard.deploy(good, "ran-1").status == "Applied"
    assert [t.ticket_id for t in guard.tickets()] == ["ticket-1"]
