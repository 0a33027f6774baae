"""MAPE-K loop stages and the convergence oracle."""

import dataclasses
import gc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interconnect.errors import ExecutionFailed, InsufficientData, NoApplicableAction
from interconnect import mapek
from interconnect.fabric import KIND_DATA, Fabric, Selector, Subscription
from interconnect.mapek import (
    AdaptationPlan,
    Finding,
    ManagedAction,
    MapeKLoop,
    convergence_oracle,
)
from interconnect.simnet import LoadModel, NodeKind, NodeState, SimWorld, WorldState


def make_loop(offered="19/20", **kwargs):
    fabric = Fabric()
    world = SimWorld(fabric, seed=0)
    loop = MapeKLoop(fabric, world, **kwargs)
    world.spawn_node(
        "core-1",
        NodeKind.NWDAF,
        knobs={"admission-rate": Fraction(1)},
        load=LoadModel(offered_load=Fraction(offered)),
    )
    return fabric, world, loop


# -- knowledge -----------------------------------------------------------------


def _knowledge_after(rounds):
    """Values knowledge holds after `rounds` one-iteration rounds on two
    congested nodes, whose admission resets whenever analysis is clean."""
    fabric = Fabric()
    world = SimWorld(fabric, seed=0)
    loop = MapeKLoop(fabric, world, window=4)
    for node_id in ("cell-0", "cell-1"):
        world.spawn_node(
            node_id,
            NodeKind.RIC,
            knobs={"admission-rate": Fraction(1)},
            load=LoadModel(offered_load=Fraction(19, 20)),
        )
    for _ in range(rounds):
        if loop.run_loop(max_iterations=1).converged:
            for node_id in world.node_ids():
                world.state.set_knob(node_id, "admission-rate", Fraction(1))
    return len(loop.knowledge)


def test_knowledge_holds_one_window_per_origin_however_long_the_loop_runs():
    assert _knowledge_after(10) == _knowledge_after(40) == 2 * 4


# -- monitor ---------------------------------------------------------------------


def test_monitor_folds_telemetry_once_per_envelope():
    fabric, world, loop = make_loop()
    world.step(3)
    assert loop.monitor() == 3
    assert loop.knowledge.series("core-1") == [Fraction(19, 20)] * 3
    # The drain emptied the mailbox, so a second monitor sees nothing new.
    assert loop.monitor() == 0


@pytest.mark.parametrize(
    "payload",
    [
        "not-a-number", "1/0", b"\xff", "1e60000", "5E-1",
        "1_0/2_0", " 1/2", ".5", "5.", "1" * 65 + "/2",
    ],
    ids=[
        "ValueError", "ZeroDivisionError", "UnicodeDecodeError", "Exponent", "UpperExponent",
        "Underscores", "Whitespace", "BareDecimal", "TrailingPoint", "65Digits",
    ],
)
def test_monitor_skips_malformed_telemetry_and_audits_it(payload):
    fabric, world, loop = make_loop()
    fabric.register_node("rogue")
    fabric.create_topic("telemetry/rogue/load")
    world.step(1)
    bad = fabric.envelope(
        "telemetry/rogue/load", payload, kind=KIND_DATA, session="telemetry", origin="rogue"
    )
    fabric.publish(bad)
    world.step(1)
    # The bad envelope sits between two good ones; the whole batch is read.
    assert loop.monitor() == 2
    assert loop.knowledge.series("core-1") == [Fraction(19, 20)] * 2
    assert loop.knowledge.series("rogue") == []
    (audit,) = fabric.audit_log.query(ops=["monitor"])
    assert (audit.actor, audit.message_id, audit.outcome) == (
        "mapek",
        bad.id,
        "error(MalformedTelemetry)",
    )
    # The skipped origin is not analyzed.
    assert [f.target for f in loop.analyze()] == ["core-1"]


def test_monitor_reads_repeated_payloads_and_audits_each_malformed_envelope():
    fabric, world, loop = make_loop()
    fabric.register_node("rogue")
    fabric.create_topic("telemetry/rogue/load")
    payloads = ["1/2", "bad", "1/2", "3/4", "bad", "1/2", b"\xff", b"\xff"]
    envelopes = [
        fabric.envelope(
            "telemetry/rogue/load", p, kind=KIND_DATA, session="telemetry", origin="rogue"
        )
        for p in payloads
    ]
    for envelope in envelopes:
        fabric.publish(envelope)
    world.step(3)
    assert loop.monitor() == 4 + 3
    series = loop.knowledge.series("rogue")
    assert series == [Fraction(1, 2), Fraction(1, 2), Fraction(3, 4), Fraction(1, 2)]
    # One parse per distinct payload: repeats share the parsed value.
    assert series[0] is series[1] is series[3]
    assert loop.knowledge.series("core-1") == [Fraction(19, 20)] * 3
    audits = fabric.audit_log.query(ops=["monitor"])
    assert [a.message_id for a in audits] == [envelopes[i].id for i in (1, 4, 6, 7)]
    assert {a.outcome for a in audits} == {"error(MalformedTelemetry)"}


def test_monitor_reuses_the_last_batchs_parses(monkeypatch):
    """A payload the previous batch held is not parsed again: equal payloads
    in consecutive batches share one value. A batch replaces the memo, so a
    payload two batches back is parsed anew. Each malformed envelope is
    still audited."""
    fabric, world, loop = make_loop()
    parses = []
    parse = mapek._parse_reading
    monkeypatch.setattr(mapek, "_parse_reading", lambda p: parses.append(p) or parse(p))

    def monitor(*payloads):
        batch = [
            fabric.envelope(
                "telemetry/core-1/load", p, kind=KIND_DATA, session="telemetry", origin="core-1"
            )
            for p in payloads
        ]
        for envelope in batch:
            fabric.publish(envelope)
        loop.monitor()
        return [e.id for e in batch]

    bad = monitor(b"1/2", b"bad", b"1/2")[1:2]
    bad += monitor(b"bad", b"1/2", b"3/4")[:1]
    assert parses == [b"1/2", b"bad", b"3/4"]
    series = loop.knowledge.series("core-1")
    assert series == [Fraction(1, 2)] * 3 + [Fraction(3, 4)]
    assert series[0] is series[1] is series[2]
    assert loop._parsed.keys() == {b"bad", b"1/2", b"3/4"}
    monitor(b"5/8", b"3/4")
    assert loop._parsed.keys() == {b"5/8", b"3/4"}
    bad += monitor(b"1/2", b"bad")[1:]
    assert parses == [b"1/2", b"bad", b"3/4", b"5/8", b"1/2", b"bad"]
    assert loop.knowledge.series("core-1")[-1] is not series[0]
    audits = fabric.audit_log.query(ops=["monitor"])
    assert [a.message_id for a in audits] == bad


_FOLD_ORIGINS = ("core-1", "rogue", "late")
_FOLD_PAYLOADS = (b"19/20", b"1/2", b"3/4", b"bad", b"\xff", b"1e3", b"1/0")
_FOLD_POOL = [(o, p) for o in _FOLD_ORIGINS for p in _FOLD_PAYLOADS]
_FOLD_WINDOW = 4


def _reference_reading(payload):
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if "e" in text.lower():
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


_fold_batches = st.lists(
    st.lists(st.integers(0, len(_FOLD_POOL) - 1), max_size=12), min_size=1, max_size=5
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fold_batches)
@example([[0, 0, 3, 0], [0, 0, 3, 0]])  # one batch's payloads published twice
@example([[1, 4, 8, 11, 12], [8, 14, 15, 1, 19, 20]])  # malformed; "late" first seen mid-batch
@example([[0, 1, 2, 0, 1, 2, 7, 8], [2, 1]])  # core-1 overflows its window
def test_monitor_equals_a_reference_fold(batches):
    """Batches of telemetry drawn from a pool of (origin, payload) pairs,
    each published through the fabric and then monitored, leave the ingested
    counts, parse memo, windows, knowledge size, analyzed origins and
    `monitor` audit records that a per-envelope reference fold into each
    origin's unbounded list does, read through the last `window` values."""
    fabric, world, loop = make_loop(window=_FOLD_WINDOW)
    for origin in _FOLD_ORIGINS[1:]:
        fabric.register_node(origin)
        fabric.create_topic(f"telemetry/{origin}/load")
    reference: dict[str, list] = {}
    audits = []
    for batch in batches:
        envelopes = [
            fabric.envelope(
                f"telemetry/{origin}/load", payload, kind=KIND_DATA, session="telemetry",
                origin=origin,
            )
            for origin, payload in (_FOLD_POOL[k] for k in batch)
        ]
        ingested = 0
        for envelope in envelopes:
            fabric.publish(envelope)
            value = _reference_reading(envelope.payload)
            if value is None:
                audits.append(("mapek", envelope.id, "error(MalformedTelemetry)"))
                continue
            reference.setdefault(envelope.metadata["origin-node"], []).append(value)
            ingested += 1
        assert loop.monitor() == ingested
        # The memo holds this batch's payloads only.
        assert loop._parsed.keys() == {e.payload for e in envelopes}
    for origin in _FOLD_ORIGINS:
        assert loop.knowledge.series(origin) == reference.get(origin, [])[-_FOLD_WINDOW:]
    assert len(loop.knowledge) == sum(
        min(len(values), _FOLD_WINDOW) for values in reference.values()
    )
    monitored = fabric.audit_log.query(ops=["monitor"])
    assert [(a.actor, a.message_id, a.outcome) for a in monitored] == audits
    if reference:
        assert sorted(loop.knowledge.loads) == sorted(reference)
        assert {f.target for f in loop.analyze()} <= reference.keys() | {""}
    else:
        with pytest.raises(InsufficientData):
            loop.analyze()


def test_run_loop_survives_malformed_telemetry():
    fabric, world, loop = make_loop()
    fabric.register_node("rogue")
    fabric.create_topic("telemetry/rogue/load")
    fabric.publish(
        fabric.envelope(
            "telemetry/rogue/load", "1/0", kind=KIND_DATA, session="telemetry", origin="rogue"
        )
    )
    report = loop.run_loop()
    assert report.converged and report.adaptations == 2


# -- analyze ----------------------------------------------------------------------


def test_analyze_requires_monitoring_data():
    fabric, world, loop = make_loop()
    with pytest.raises(InsufficientData):
        loop.analyze()


def test_analyze_reports_exact_severity():
    fabric, world, loop = make_loop(offered="19/20")
    world.step(2)
    loop.monitor()
    (finding,) = loop.analyze()
    assert finding.kind == "congestion"
    assert finding.target == "core-1"
    # severity = (19/20 - 4/5) / (1 - 4/5)
    assert finding.severity == Fraction(3, 4)
    assert "mean=19/20" in finding.evidence


_denominators = st.sampled_from((1, 2, 3, 4, 6, 7, 10, 12, 999, 1000, 1001))
_fractions = st.one_of(
    st.builds(Fraction, st.integers(-(10**6), 10**6), _denominators),
    st.fractions(),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_fractions, min_size=1, max_size=25), st.integers(1, 30))
def test_windowed_mean_equals_a_fraction_sum(values, window):
    """The per-denominator mean `total/denominator` equals
    `sum(series, Fraction(0)) / len`, by value and by its text, over a
    positive denominator, over mixed and repeated denominators, for a window
    shorter than, equal to and longer than the series, and 1."""
    for size in (window, 1):
        fabric, world, loop = make_loop(window=size)
        loop.knowledge.loads["core-1"] = deque(values, maxlen=size)
        series = values[-size:]
        expected = sum(series, Fraction(0)) / len(series)
        total, denominator, samples = loop._windowed_mean("core-1")
        mean = Fraction(total, denominator)
        assert denominator > 0
        assert (mean, str(mean), samples) == (expected, str(expected), len(series))


_ORIGINS = ("cell-0", "cell-1", "cell-2")
_loads = st.one_of(
    st.fractions(min_value=0, max_value=2, max_denominator=1000),
    st.builds(Fraction, st.integers(0, 2000), st.sampled_from((1, 4, 5, 20, 1000, 3000))),
)
_windows = st.dictionaries(
    st.sampled_from(_ORIGINS), st.lists(_loads, max_size=12), min_size=1
)


def _reference_mean(series):
    return sum(series, Fraction(0)) / len(series) if series else None


def _reference_findings(windows, theta):
    """What analyze reports, worked in `Fraction` arithmetic."""
    findings = []
    for origin in sorted(windows):
        mean = _reference_mean(windows[origin])
        if mean is not None and mean > theta:
            severity = max(Fraction(0), min(Fraction(1), (mean - theta) / (1 - theta)))
            evidence = (f"load.{origin}", f"samples={len(windows[origin])}", f"mean={mean}")
            findings.append(Finding("congestion", origin, severity, evidence))
    findings.sort(key=lambda f: (-f.severity, f.target))
    return findings or [Finding(kind="none", target="", severity=Fraction(0))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_windows, _windows, st.integers(1, 12))
@example({"cell-0": [Fraction(4, 5)]}, {"cell-0": [Fraction(3, 4)]}, 10)  # mean at theta
@example({"cell-0": [Fraction(2), Fraction(1)]}, {"cell-0": [Fraction(2)]}, 10)  # capped at 1
@example({"cell-0": [Fraction(17, 20)]}, {"cell-0": [Fraction(4, 5)]}, 1)  # one-sample window
def test_analyze_and_execute_equal_a_fraction_reference(before, after, window):
    """analyze's findings (kind, target, severity, evidence) and execute's
    verdict equal a reference worked in `Fraction` arithmetic over the same
    windows: the windows knowledge holds before, and after, the settle."""
    fabric = Fabric()
    world = SimWorld(fabric, seed=0)
    loop = MapeKLoop(fabric, world, window=window)
    for origin in _ORIGINS:
        world.spawn_node(origin, NodeKind.RIC, knobs={"admission-rate": Fraction(1)})

    def install(windows):
        loop.knowledge.loads = {o: deque(v, maxlen=window) for o, v in windows.items()}
        return {o: v[-window:] for o, v in windows.items()}

    before = install(before)
    findings = loop.analyze()
    expected = _reference_findings(before, MapeKLoop.theta)
    assert findings == expected
    assert repr(findings) == repr(expected)  # each severity a Fraction, as in the reference
    targets = sorted(before)
    plan = AdaptationPlan(
        "adapt-1",
        tuple(ManagedAction(t, "admission-rate", Fraction(1, 2)) for t in targets),
        "",
    )
    settled = {}
    loop.monitor = lambda: settled.update(install(after))
    report = loop.execute(plan)
    held = all(
        _reference_mean(before[t]) is not None
        and _reference_mean(settled.get(t, [])) is not None
        and _reference_mean(settled[t]) < _reference_mean(before[t])
        for t in targets
    )
    assert (report.effect_held, report.rolled_back) == (held, not held)


def test_analyze_mean_at_threshold_is_healthy():
    fabric, world, loop = make_loop(offered="4/5")
    world.step(2)
    loop.monitor()
    (finding,) = loop.analyze()
    assert finding.kind == "none"
    assert finding.severity == 0


def test_analyze_orders_findings_by_severity_then_target():
    fabric, world, loop = make_loop(offered="9/10")
    world.spawn_node(
        "core-2",
        NodeKind.NWDAF,
        knobs={"admission-rate": Fraction(1)},
        load=LoadModel(offered_load=Fraction(99, 100)),
    )
    world.spawn_node(
        "core-3",
        NodeKind.NWDAF,
        knobs={"admission-rate": Fraction(1)},
        load=LoadModel(offered_load=Fraction(9, 10)),
    )
    world.step(1)
    loop.monitor()
    findings = loop.analyze()
    assert [f.target for f in findings] == ["core-2", "core-1", "core-3"]
    assert findings[0].severity == Fraction(19, 20)


def test_analyze_severity_clamps_at_one():
    fabric, world, loop = make_loop(offered="3/2")
    world.step(1)
    loop.monitor()
    (finding,) = loop.analyze()
    assert finding.severity == Fraction(1)


def test_knowledge_holds_only_monitored_loads():
    fabric, world, loop = make_loop()
    report = loop.run_loop()
    assert report.adaptations == 2
    telemetry = [
        e for e in fabric.journal.envelope_events() if e.topic == "telemetry/core-1/load"
    ]
    assert len(telemetry) > loop.window
    assert len(loop.knowledge) == loop.window
    loads = [Fraction(e.detail) for e in telemetry]
    assert loop.knowledge.series("core-1") == loads[-loop.window:]


# -- plan -------------------------------------------------------------------------


def test_plan_scales_the_admission_knob():
    fabric, world, loop = make_loop()
    world.step(1)
    loop.monitor()
    state, before = world.state, world.state_hash()
    plan = loop.plan(loop.analyze())
    assert plan.plan_id == "adapt-1"
    (action,) = plan.actions
    assert action == ManagedAction("core-1", "admission-rate", Fraction(9, 10))
    assert action.render() == "core-1.admission-rate=9/10"
    # Planning only reads the world.
    assert world.state is state and world.state_hash() == before
    (audit,) = fabric.audit_log.query(ops=["plan"])
    assert audit.actor == "mapek"


def test_plan_rejects_clean_findings():
    fabric, world, loop = make_loop()
    with pytest.raises(NoApplicableAction):
        loop.plan([Finding(kind="none", target="", severity=Fraction(0))])


def test_plan_rejects_targets_without_knobs():
    fabric, world, loop = make_loop()
    with pytest.raises(NoApplicableAction, match="ghost"):
        loop.plan([Finding(kind="congestion", target="ghost", severity=Fraction(1))])


def surge(state):
    """Replace core-1 by a node whose offered load is 3."""
    node = state.nodes["core-1"]
    load = dataclasses.replace(node.load, offered_load=Fraction(3))
    state.nodes["core-1"] = NodeState(node.knobs, node.knob_ranges, load)


def test_rollback_restores_the_state_execute_started_from():
    fabric, world, loop = make_loop()
    world.step(1)
    loop.monitor()
    plan = loop.plan(loop.analyze())
    # Writes between plan and execute belong to the state execute starts
    # from; the surge defeats the adaptation, so execute rolls back to it.
    world.state.set_knob("core-1", "admission-rate", Fraction(19, 20))
    surge(world.state)
    started = world.state_hash()
    report = loop.execute(plan)
    assert report.rolled_back
    assert world.state_hash() == started
    assert world.state.get_knob("core-1", "admission-rate") == Fraction(19, 20)


# -- execute -----------------------------------------------------------------------


def test_execute_applies_and_verifies_effect():
    fabric, world, loop = make_loop()
    world.step(1)
    loop.monitor()
    plan = loop.plan(loop.analyze())
    report = loop.execute(plan)
    assert report.effect_held and not report.rolled_back
    assert world.state.get_knob("core-1", "admission-rate") == Fraction(9, 10)
    (execute,) = fabric.audit_log.query(ops=["execute"])
    assert execute.outcome == "ok"
    control = fabric.last_envelope("managed/core-1/knobs")
    assert control.payload.decode() == "admission-rate=9/10"
    assert control.metadata["session"] == "mapek"


def test_execute_rolls_back_when_effect_not_observed():
    fabric, world, loop = make_loop()
    world.step(1)
    loop.monitor()
    plan = loop.plan(loop.analyze())
    # Counteract the adaptation before the settle window: offered load rises
    # so the windowed mean cannot strictly decrease.
    surge(world.state)
    report = loop.execute(plan)
    assert not report.effect_held and report.rolled_back
    assert world.state.get_knob("core-1", "admission-rate") == Fraction(1)
    (execute,) = fabric.audit_log.query(ops=["execute"])
    assert execute.outcome == "error(EffectNotObserved)"
    (rollback,) = fabric.audit_log.query(ops=["rollback"])
    assert rollback.actor == "mapek"


def test_execute_fails_on_unmanaged_target():
    fabric, world, loop = make_loop()
    world.step(1)
    loop.monitor()
    plan = loop.plan(loop.analyze())
    ghost = plan.actions[0]
    bad = type(plan)(
        plan_id=plan.plan_id,
        actions=(ManagedAction("ghost", ghost.knob, ghost.value),),
        expected_effect=plan.expected_effect,
    )
    with pytest.raises(ExecutionFailed):
        loop.execute(bad)


def test_execute_refuses_a_plan_with_an_unmanaged_target_before_publishing():
    """Every action's control topic is checked before the first publish: a
    later action naming a node with no control topic leaves the earlier
    node's knobs and the journal untouched."""
    fabric, world, loop = make_loop()
    half = Fraction(1, 2)
    mixed = AdaptationPlan(
        plan_id="adapt-1",
        actions=(
            ManagedAction("core-1", "admission-rate", half),
            ManagedAction("ghost", "admission-rate", half),
        ),
        expected_effect="",
    )
    config = world.config_hash()
    journaled = len(fabric.journal.events)
    with pytest.raises(ExecutionFailed, match=r"^execution failed: ghost\.admission-rate=1/2$"):
        loop.execute(mixed)
    assert world.config_hash() == config
    assert world.state.get_knob("core-1", "admission-rate") == Fraction(1)
    assert len(fabric.journal.events) == journaled


# -- convergence oracle ----------------------------------------------------------------


def test_convergence_oracle_exact_counts():
    theta = Fraction(4, 5)
    step = Fraction(9, 10)
    assert convergence_oracle(Fraction(19, 20), theta, step) == 2
    assert convergence_oracle(Fraction(4, 5), theta, step) == 0
    assert convergence_oracle(Fraction(1, 2), theta, step) == 0
    # 81/100 -> 729/1000 after one step, which is at most 4/5.
    assert convergence_oracle(Fraction(81, 100), theta, step) == 1


def test_convergence_oracle_boundary_is_exclusive():
    # u0 * step == theta exactly: one step reaches but does not pass theta,
    # and reaching it is enough because congestion needs mean > theta.
    theta = Fraction(9, 10) * Fraction(8, 9)
    assert convergence_oracle(Fraction(9, 10), theta, Fraction(8, 9)) == 1


def test_convergence_oracle_rejects_bad_step():
    with pytest.raises(ValueError):
        convergence_oracle(Fraction(1), Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        convergence_oracle(Fraction(1), Fraction(1, 2), Fraction(0))


# -- the whole loop ---------------------------------------------------------------------


def test_run_loop_converges_in_oracle_steps():
    fabric, world, loop = make_loop(offered="19/20")
    report = loop.run_loop()
    expected = convergence_oracle(Fraction(19, 20), loop.theta, loop.knob_step)
    assert report.converged
    assert report.adaptations == expected == 2
    assert report.iterations == expected + 1
    assert all(r.effect_held for r in report.reports)
    assert world.state.get_knob("core-1", "admission-rate") == Fraction(81, 100)
    assert world.state.utilization("core-1") <= loop.theta
    assert [f.kind for f in report.findings] == ["none"]


def test_run_loop_healthy_world_converges_immediately():
    fabric, world, loop = make_loop(offered="1/2")
    report = loop.run_loop()
    assert report.converged
    assert (report.iterations, report.adaptations) == (1, 0)
    assert world.state.get_knob("core-1", "admission-rate") == Fraction(1)


def test_run_loop_respects_iteration_budget():
    fabric, world, loop = make_loop(offered="19/20", knob_step=Fraction(999, 1000))
    report = loop.run_loop(max_iterations=2)
    assert not report.converged
    assert report.iterations == 2


def test_run_loop_stops_with_an_error_when_its_telemetry_outgrows_the_grammar():
    # From 19/20 at 999/1000, the 21st adaptation makes a reading whose
    # denominator, 2 * 10**64, has 65 digits. The monitor cannot read it, and
    # the loop once rolled that adaptation back and planned it again until
    # its budget ran out.
    fabric, world, loop = make_loop(offered="19/20", knob_step=Fraction(999, 1000))
    with pytest.raises(ExecutionFailed, match="adapt-21: no readable telemetry from core-1"):
        loop.run_loop(max_iterations=400)
    assert world.state.get_knob("core-1", "admission-rate") == Fraction(999, 1000) ** 20
    executions = fabric.audit_log.query(ops=["execute"], actor="mapek")
    assert [r.outcome for r in executions] == ["ok"] * 20 + ["error(EffectNotObserved)"]
    assert len(fabric.audit_log.query(ops=["rollback"])) == 1


def test_run_loop_stops_before_its_knob_outgrows_the_grammar():
    # At an offered load of 10**10 every reading stays readable, but the 22nd
    # adaptation's knob has a 67-digit denominator. The world refused it as
    # BadControlAssignment, and the loop once rolled back and sent it again
    # until its budget ran out.
    fabric, world, loop = make_loop(offered="10000000000", knob_step=Fraction(999, 1000))
    with pytest.raises(NoApplicableAction, match="core-1: next admission-rate is not readable"):
        loop.run_loop(max_iterations=400)
    assert world.state.get_knob("core-1", "admission-rate") == Fraction(999, 1000) ** 21
    assert len(fabric.audit_log.query(ops=["rollback"])) == 0
    assert len(fabric.audit_log.query(ops=["plan"])) == 21


def test_a_malformed_reading_beside_readable_ones_does_not_stop_the_loop():
    # Only an origin none of whose settle readings could be read fails
    # `execute`; here a rogue adds a malformed reading under core-1's name
    # to every settle.
    fabric, world, loop = make_loop()
    fabric.register_node("rogue")

    def inject(_envelope):
        fabric.publish(
            fabric.envelope(
                "telemetry/core-1/load", "1/0", kind=KIND_DATA, session="telemetry", origin="core-1"
            )
        )

    fabric.subscribe(Subscription(Selector.parse("managed/core-1/knobs"), "rogue"), handler=inject)
    report = loop.run_loop()
    assert report.converged and report.adaptations == 2
    assert len(fabric.audit_log.query(ops=["monitor"])) == 2


def test_knob_step_must_contract():
    fabric = Fabric()
    world = SimWorld(fabric)
    with pytest.raises(ValueError):
        MapeKLoop(fabric, world, knob_step=Fraction(3, 2))


def test_knob_step_must_be_an_exact_fraction():
    # A float 0.9 once became 8106479329266893/9007199254740992, journaled in
    # the first control payload, its denominator doubling in digits with
    # every adaptation. It is refused before the loop registers or subscribes.
    fabric = Fabric()
    world = SimWorld(fabric)
    with pytest.raises(ValueError, match="knob_step"):
        MapeKLoop(fabric, world, knob_step=0.9)
    assert len(fabric.journal.events) == 0 and "mapek" not in fabric._nodes


@pytest.mark.parametrize("window", [0, -1])
def test_window_must_be_positive(window):
    fabric = Fabric()
    world = SimWorld(fabric)
    with pytest.raises(ValueError, match="window"):
        MapeKLoop(fabric, world, window=window)


def _live_world_states_after(rounds):
    """Live `WorldState` objects a loop adds over `rounds` one-iteration
    rounds on two congested nodes. A rival shifts load onto `cell-0` during
    every other settle window of its adaptations, so those roll back, and a
    surge resets admission whenever analysis comes back clean."""
    gc.collect()
    baseline = sum(isinstance(o, WorldState) for o in gc.get_objects())
    fabric = Fabric()
    world = SimWorld(fabric, seed=0)
    loop = MapeKLoop(fabric, world, window=4)
    for node_id in ("cell-0", "cell-1"):
        world.spawn_node(
            node_id,
            NodeKind.RIC,
            knobs={"admission-rate": Fraction(1)},
            load=LoadModel(offered_load=Fraction(19, 20)),
        )
    adaptations = []

    def compete(_envelope):
        adaptations.append(1)
        if len(adaptations) % 2:
            world.state.shift_load("cell-1", "cell-0", Fraction(1, 4))

    fabric.register_node("rival")
    fabric.subscribe(
        Subscription(Selector.parse("managed/cell-0/knobs origin-node=mapek"), "rival"),
        handler=compete,
    )
    rollbacks = 0
    for _ in range(rounds):
        report = loop.run_loop(max_iterations=1)
        rollbacks += sum(r.rolled_back for r in report.reports)
        if report.converged:
            for node_id in world.node_ids():
                world.state.set_knob(node_id, "admission-rate", Fraction(1))
    assert rollbacks >= rounds // 8
    gc.collect()
    return sum(isinstance(o, WorldState) for o in gc.get_objects()) - baseline


def test_loop_retains_no_snapshot_across_rounds():
    """A snapshot lives only while `execute` judges its plan: however many
    rounds and rollbacks ran, the world's one live state is all that is left."""
    assert _live_world_states_after(10) == _live_world_states_after(40) == 1
