"""Acceptance gate: one test per shipped guarantee, each at full scale.

Every test here runs a complete criterion and reports a single pass/fail
line under `pytest -v`. Scales, seeds, and exact-match expectations are
pinned below; loosening any of them weakens the gate, so treat this module
as read-only once green.

1. Pub/sub contract: four property suites of 1,000 generated cases each
   (one-shot exactly-once, durable temporal decoupling, selector purity,
   audit completeness), together under sixty seconds.
2. Negotiation: exhaustive enumeration over a small scope (four capability
   names, three scale units, majors 1..3) proving forward-only phases,
   agreement implies a shared capability, exact scale round-trips, and
   peer-order symmetry; zero counterexamples.
3. Scenario replay: all ten registered scenarios render byte-identical
   traces across two runs and diff empty against the packaged goldens;
   the mismatch scenario ends agreed on the one shared capability and the
   ossification scenario fails first, then agrees through an adapter.
4. Adaptation loop: the congestion setup converges in exactly the number
   of adaptations the symbolic oracle predicts, with no tolerance.
5. Deployment gate: ten thousand fuzzed programs; no rejected or
   unreviewed program ever reaches the live world and no sandbox run
   moves the live state hash.
6. Registry: parse/serialize/parse identity over a thousand generated
   descriptors, and capability queries match a brute-force scan on every
   case.
7. Agriculture flows: one result delivery per stream batch during
   inference, and one version bump notifying every contributor during
   learning.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from interconnect.cli import golden_path
from interconnect.errors import DeployWithoutVerdict
from interconnect.fabric import (
    AuditOp,
    Fabric,
    Selector,
    Subscription,
    SubscriptionMode,
    TokenState,
)
from interconnect.guard import Guard, GuardedProgram, knob_within, min_total_throughput
from interconnect.mapek import MapeKLoop, convergence_oracle
from interconnect.negotiation import Negotiator, Phase, SchemaMapping
from interconnect.registry import (
    ModelRegistry,
    Version,
    parse_descriptor,
    serialize_descriptor,
)
from interconnect.scenarios import run_scenario
from interconnect.simnet import LoadModel, NodeKind, SimWorld
from interconnect.trace import compare_traces, parse_trace

PROPERTY_CASES = 1_000
PROPERTY_BUDGET_SECONDS = 60.0
FUZZ_CASES = 10_000
OVERSIZED_EVERY = 2_500
OVERSIZED_LINES = 12_000
DESCRIPTOR_CASES = 1_000

SCENARIO_NAMES = (
    "fig7-decompose",
    "fig9-nwdaf-pair",
    "fig10-oran-pair",
    "fig11-capability-mismatch",
    "fig12-scale",
    "fig13-ossification",
    "fig16-codegen",
    "mapek-congestion",
    "agri-inference",
    "agri-learning",
)

_gate = settings(
    max_examples=PROPERTY_CASES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


# -- criterion 1: pub/sub contract properties ----------------------------------


def _wired_fabric():
    fabric = Fabric()
    for node in ("node-a", "node-b", "node-c"):
        fabric.register_node(node)
    return fabric


@_gate
@given(
    first=st.binary(max_size=8),
    rest=st.lists(st.binary(max_size=8), max_size=4),
    durable_subs=st.integers(min_value=0, max_value=3),
)
def _prop_one_shot_exactly_once(first, rest, durable_subs):
    fabric = _wired_fabric()
    fabric.create_topic("feed/updates")
    seen = []
    fabric.subscribe(
        Subscription(Selector.parse("feed/updates"), "node-b", mode=SubscriptionMode.ONE_SHOT),
        handler=seen.append,
    )
    durable = [
        fabric.subscribe(Subscription(Selector.parse("feed/**"), "node-c"))
        for _ in range(durable_subs)
    ]
    payloads = [first, *rest]
    for payload in payloads:
        fabric.publish(
            fabric.envelope("feed/updates", payload, kind="data", session="s1", origin="node-a")
        )
    assert [e.payload for e in seen] == [first]
    for sub_id in durable:
        assert [e.payload for e in fabric.drain(sub_id)] == payloads


@_gate
@given(
    batches=st.lists(
        st.lists(st.binary(max_size=6), min_size=1, max_size=4), min_size=1, max_size=3
    ),
    drain_between=st.booleans(),
)
def _prop_durable_temporal_decoupling(batches, drain_between):
    fabric = _wired_fabric()
    fabric.create_topic("feed/updates")
    sub_id = fabric.subscribe(Subscription(Selector.parse("feed/updates"), "node-b"))
    sent = []
    received = []
    for batch in batches:
        for payload in batch:
            fabric.publish(
                fabric.envelope(
                    "feed/updates", payload, kind="data", session="s1", origin="node-a"
                )
            )
            sent.append(payload)
        if drain_between:
            received.extend(fabric.drain(sub_id))
    received.extend(fabric.drain(sub_id))
    assert [e.payload for e in received] == sent
    assert fabric.drain(sub_id) == []


_seg = st.sampled_from(["net", "load", "a", "b", "cell-1"])
_pred_key = st.sampled_from(["kind", "session", "origin-node", "x-mark"])
_pred_value = st.sampled_from(["data", "s1", "node-a", "x"])


@_gate
@given(
    head=st.lists(st.one_of(_seg, st.just("*")), min_size=1, max_size=3),
    tail=st.sampled_from(["", "**"]),
    predicates=st.dictionaries(
        _pred_key, st.tuples(st.sampled_from(["=", "!=", "~="]), _pred_value), max_size=2
    ),
    topic_parts=st.lists(st.one_of(_seg, st.just("zone")), min_size=1, max_size=4),
    metadata=st.dictionaries(_pred_key, _pred_value, max_size=3),
)
def _prop_selector_purity(head, tail, predicates, topic_parts, metadata):
    pattern = "/".join(head + ([tail] if tail else []))
    clauses = " ".join(f"{key}{op}{value}" for key, (op, value) in predicates.items())
    text = f"{pattern} {clauses}".strip()
    selector = Selector.parse(text)
    topic = "/".join(topic_parts)
    frozen = dict(metadata)

    first = selector.matches(topic, metadata)
    assert selector.matches(topic, metadata) == first
    assert metadata == frozen
    assert Selector.parse(text) == selector

    reparsed = Selector.parse(selector.render())
    assert reparsed == selector
    assert reparsed.matches(topic, metadata) == first


@_gate
@given(
    subs=st.lists(
        st.tuples(
            st.sampled_from(["alpha/one", "alpha/two", "alpha/*"]),
            st.sampled_from(["node-b", "node-c"]),
        ),
        max_size=3,
    ),
    publishes=st.lists(st.sampled_from(["alpha/one", "alpha/two"]), min_size=1, max_size=6),
)
def _prop_audit_completeness(subs, publishes):
    fabric = _wired_fabric()
    fabric.create_topic("alpha/one")
    fabric.create_topic("alpha/two")
    sub_ids = [
        fabric.subscribe(Subscription(Selector.parse(pattern), node)) for pattern, node in subs
    ]
    published_ids = []
    delivered = 0
    for topic in publishes:
        envelope = fabric.envelope(topic, b"x", kind="data", session="s1", origin="node-a")
        delivered += fabric.publish(envelope)
        published_ids.append(envelope.id)

    records = fabric.audit_log.query()
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    times = [r.logical_time for r in records]
    assert all(a < b for a, b in zip(times, times[1:]))

    publish_records = [r for r in records if r.op is AuditOp.PUBLISH]
    assert [r.message_id for r in publish_records] == published_ids
    deliver_records = [r for r in records if r.op is AuditOp.DELIVER]
    assert len(deliver_records) == delivered
    assert all(r.message_id in set(published_ids) for r in deliver_records)
    assert sum(len(fabric.drain(s)) for s in sub_ids) == delivered


def test_criterion_1_pubsub_contract_properties():
    started = time.monotonic()
    _prop_one_shot_exactly_once()
    _prop_durable_temporal_decoupling()
    _prop_selector_purity()
    _prop_audit_completeness()
    elapsed = time.monotonic() - started
    assert elapsed < PROPERTY_BUDGET_SECONDS, f"property suites took {elapsed:.1f}s"


# -- criterion 2: exhaustive negotiation scope ----------------------------------

_CAP_NAMES = ("predict", "summarize", "optimize", "rank")
_SCALES = ("fraction:0..1", "percent:0..100", "permille:0..1000")
_PHASE_RANK = {
    "Opened": 1,
    "CapabilitiesExchanged": 2,
    "ScaleAligned": 3,
    "VersionChecked": 4,
    "Agreed": 5,
    "Failed": 99,
}


def _bench_specs():
    specs = []
    for size in range(1, len(_CAP_NAMES) + 1):
        for names in itertools.combinations(_CAP_NAMES, size):
            if "optimize" in names:
                specs.extend((names, scale) for scale in _SCALES)
            else:
                specs.append((names, None))
    return [(names, scale, major) for major in (1, 2, 3) for names, scale in specs]


def _bench_descriptor(model_id, names, scale, major):
    capabilities = []
    for name in names:
        params = {"scale": scale} if name == "optimize" and scale else {}
        capabilities.append({"name": name, "params": params})
    return parse_descriptor(
        json.dumps(
            {
                "modelId": model_id,
                "modelType": "bench",
                "version": f"{major}.0.0",
                "category": "Specialized",
                "architecture": {"family": "transformer", "parameterScaleLabel": "small"},
                "capabilities": capabilities,
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


def _scale_endpoints(declaration):
    unit, span = declaration.split(":")
    lo, hi = span.split("..")
    return unit, Fraction(lo), Fraction(hi)


def _expected_outcome(left, right):
    """Independent oracle for the final phase and failure reason of a pair."""
    names_a, _, major_a = left
    names_b, _, major_b = right
    if not set(names_a) & set(names_b):
        return Phase.FAILED, "EmptyIntersection"
    if major_a == major_b:
        return Phase.AGREED, None
    if {major_a, major_b} == {1, 2}:
        return Phase.AGREED, None
    return Phase.FAILED, "VersionIncompatible"


def _negotiate_once(a, b):
    negotiator = Negotiator(Fabric())
    negotiator.register_schema_mapping(SchemaMapping("bench", 1, 2))
    return negotiator.run_to_completion(negotiator.open_session(a, b))


def test_criterion_2_negotiation_exhaustive_small_scope():
    specs = _bench_specs()
    assert len(specs) == 93
    lefts = [_bench_descriptor(f"left-{i}", *spec) for i, spec in enumerate(specs)]
    rights = [_bench_descriptor(f"right-{j}", *spec) for j, spec in enumerate(specs)]
    pairs = 0

    for (left_spec, a), (right_spec, b) in itertools.product(
        zip(specs, lefts), zip(specs, rights)
    ):
        pairs += 1
        forward = _negotiate_once(a, b)
        backward = _negotiate_once(b, a)
        label = f"{a.model_id} vs {b.model_id}"

        for session in (forward, backward):
            ranks = [_PHASE_RANK[e.phase] for e in session.transcript]
            assert ranks[0] == _PHASE_RANK["Opened"], label
            assert all(x < y for x, y in zip(ranks, ranks[1:])), f"phase regression: {label}"

        expected_phase, expected_reason = _expected_outcome(left_spec, right_spec)
        assert forward.phase is expected_phase, f"{label}: ended {forward.phase}"
        assert forward.failure_reason == expected_reason, label

        shared = sorted(set(left_spec[0]) & set(right_spec[0]))
        if forward.phase is Phase.AGREED:
            agreed = sorted(forward.agreed_capability_names())
            assert agreed == shared and agreed, f"{label}: agreed on {agreed}"

            both_scaled = left_spec[1] and right_spec[1] and "optimize" in shared
            assert (forward.agreed_scale is not None) == bool(both_scaled), label
            if both_scaled:
                scale = forward.agreed_scale
                for descriptor, declaration in ((a, left_spec[1]), (b, right_spec[1])):
                    _, lo, hi = _scale_endpoints(declaration)
                    probes = (lo, hi, (lo + hi) / 2, lo + (hi - lo) * Fraction(3, 7))
                    for value in probes:
                        canonical = scale.to_canonical(descriptor.model_id, value)
                        round_tripped = scale.from_canonical(descriptor.model_id, canonical)
                        assert round_tripped == value, f"{label}: {value} round-tripped badly"

        # Opening the same pair in the other order must change nothing
        # observable: same phase, same reason, same capability set, same scale.
        assert backward.phase is forward.phase, label
        assert backward.failure_reason == forward.failure_reason, label
        assert sorted(backward.agreed_capability_names()) == sorted(
            forward.agreed_capability_names()
        ), label
        if forward.agreed_scale is not None:
            f_scale, b_scale = forward.agreed_scale, backward.agreed_scale
            assert b_scale is not None, label
            assert (b_scale.unit, b_scale.lo, b_scale.hi) == (
                f_scale.unit,
                f_scale.lo,
                f_scale.hi,
            ), label
            midpoint = (f_scale.lo + f_scale.hi) / 2
            for peer in (a.model_id, b.model_id):
                assert b_scale.from_canonical(peer, midpoint) == f_scale.from_canonical(
                    peer, midpoint
                ), label

    assert pairs == 93 * 93


# -- criterion 3: scenario replay against goldens --------------------------------


def test_criterion_3_scenarios_replay_byte_identical_and_match_goldens():
    for name in SCENARIO_NAMES:
        first = run_scenario(name).render()
        second = run_scenario(name).render()
        assert first == second, f"{name}: runs differ"
        golden = parse_trace(golden_path(name).read_text(encoding="utf-8"))
        diff = compare_traces(parse_trace(first), golden)
        assert diff.empty, f"{name}: {diff.size} differing lines\n{diff.render()}"

    mismatch = run_scenario("fig11-capability-mismatch")
    details = [e.detail or "" for e in mismatch.envelope_events()]
    assert any(d.startswith("agreed optimize") for d in details)
    assert not any(d.startswith("failed") for d in details)

    ossification = run_scenario("fig13-ossification")
    details = [e.detail or "" for e in ossification.envelope_events()]
    failed_at = next(i for i, d in enumerate(details) if d.startswith("failed VersionIncompatible"))
    agreed_at = next(i for i, d in enumerate(details) if d.startswith("agreed summarize (adapter"))
    assert failed_at < agreed_at


# -- criterion 4: adaptation loop convergence ------------------------------------


def test_criterion_4_mapek_converges_in_exactly_oracle_iterations():
    fabric = Fabric()
    world = SimWorld(fabric, seed=0)
    loop = MapeKLoop(fabric, world)
    world.spawn_node(
        "core-1",
        NodeKind.NWDAF,
        knobs={"admission-rate": Fraction(1)},
        load=LoadModel(offered_load=Fraction(19, 20)),
    )
    assert (loop.theta, loop.knob_step) == (Fraction(4, 5), Fraction(9, 10))

    expected = convergence_oracle(Fraction(19, 20), loop.theta, loop.knob_step)
    assert expected == 2
    assert expected == math.ceil(math.log(0.8 / 0.95) / math.log(0.9))

    report = loop.run_loop()
    assert report.converged
    assert report.adaptations == expected
    assert all(r.effect_held for r in report.reports)
    assert world.state.utilization("core-1") <= loop.theta


# -- criterion 5: deployment gate under fuzz --------------------------------------


def _fuzz_rig():
    fabric = Fabric()
    world = SimWorld(fabric, seed=0)
    world.spawn_node(
        "ran-1",
        NodeKind.RIC,
        knobs={"admission-rate": Fraction(1), "rate-limit": Fraction(100)},
        load=LoadModel(offered_load=Fraction(4, 5)),
    )
    world.spawn_node(
        "ran-2",
        NodeKind.RIC,
        knobs={"admission-rate": Fraction(1)},
        load=LoadModel(offered_load=Fraction(1, 2)),
    )
    return world, Guard(fabric, world)


def _fuzz_line(rng):
    roll = rng.random()
    if roll < 0.30:
        return f"set ran-1 admission-rate {rng.randint(0, 6)}/{rng.randint(1, 5)}"
    if roll < 0.50:
        return f"scale ran-1 admission-rate {rng.randint(1, 12)}/10"
    if roll < 0.60:
        return "limit ran-1 admission-rate 0 1"
    if roll < 0.68:
        return f"reroute ran-1 ran-2 {rng.randint(1, 4)}/8"
    if roll < 0.74:
        return "set ran-1 ghost-knob 1/2"
    if roll < 0.80:
        return "reroute ran-1 ghost-9 1/8"
    if roll < 0.86:
        return "boost ran-1 admission-rate 2"
    if roll < 0.92:
        return "set ran-1 admission-rate"
    if roll < 0.96:
        return "# operator note"
    return "set ran-1 admission-rate 1/0"


def test_criterion_5_guard_gate_survives_fuzzing():
    rng = random.Random(0xA11CE)
    # Admission sets are clamped into the knob's declared range, so the
    # armed bound starts above the clamp floor to keep violations reachable.
    guards = [
        knob_within("ran-1", "admission-rate", Fraction(1, 4), Fraction(1)),
        min_total_throughput(Fraction(0)),
    ]
    accepted = rejected = 0
    oversized_outcomes = []
    reasons = set()

    for case in range(FUZZ_CASES):
        world, guard = _fuzz_rig()
        if (case + 1) % OVERSIZED_EVERY == 0:
            source = "\n".join(["scale ran-1 admission-rate 99/100"] * OVERSIZED_LINES)
        else:
            source = "\n".join(_fuzz_line(rng) for _ in range(rng.randint(1, 6)))
        program = GuardedProgram(
            program_id=f"fz-{case}",
            source=source,
            declared_effects=("fuzz",),
            author=f"planner-{case % 5}",
        )
        invariants = guards if rng.random() < 0.5 else []

        live_before = world.state_hash()
        verdict = guard.sandbox_run(program, invariants)
        assert world.state_hash() == live_before, f"case {case}: sandbox touched live state"

        if (case + 1) % OVERSIZED_EVERY == 0:
            oversized_outcomes.append(verdict.reason)

        if verdict.accepted:
            accepted += 1
            if case % 11 == 0:
                config_before = world.config_hash()
                record = guard.deploy(program, "ran-1")
                assert record.status == "Applied"
                guard.rollback(record.deployment_id)
                assert world.config_hash() == config_before
        else:
            rejected += 1
            reasons.add(verdict.reason or "")
            config_before = world.config_hash()
            with pytest.raises(DeployWithoutVerdict):
                guard.deploy(program, "ran-1")
            assert world.config_hash() == config_before, f"case {case}: rejected deploy applied"

        if case % 97 == 0:
            unreviewed = GuardedProgram(
                program_id=f"unreviewed-{case}",
                source="set ran-1 admission-rate 1/2",
                declared_effects=("fuzz",),
                author="planner-0",
            )
            with pytest.raises(DeployWithoutVerdict):
                guard.deploy(unreviewed, "ran-1")

    assert accepted + rejected == FUZZ_CASES
    assert accepted > 0 and rejected > 0
    assert oversized_outcomes == ["Timeout"] * (FUZZ_CASES // OVERSIZED_EVERY)
    assert {"ParseError", "IllegalInstruction"} <= reasons
    assert any(r.startswith("InvariantViolation") for r in reasons)


# -- criterion 6: registry round-trip and query oracle -----------------------------

_CAP_POOL = ("predict", "summarize", "optimize", "rank", "compare", "translate")
_DOMAIN_POOL = ("traffic", "agriculture", "energy", "radio")


def _random_descriptor_doc(rng, model_id, major=None):
    capabilities = []
    for name in rng.sample(_CAP_POOL, k=rng.randint(0, 4)):
        cap = {"name": name}
        if rng.random() < 0.5:
            cap["params"] = {"window": str(rng.randint(1, 64))}
        if rng.random() < 0.25:
            cap["x-cost"] = rng.randint(0, 9)
        capabilities.append(cap)
    doc = {
        "modelId": model_id,
        "modelType": rng.choice(("analytics", "bench", "vision")),
        "version": f"{major or rng.randint(1, 3)}.{rng.randint(0, 9)}.{rng.randint(0, 9)}",
        "category": rng.choice(("Foundation", "Specialized", "Hybrid", "Controller")),
        "architecture": {
            "family": rng.choice(("transformer", "statistical")),
            "parameterScaleLabel": rng.choice(("small", "medium", "large")),
        },
        "capabilities": capabilities,
        "domains": rng.sample(_DOMAIN_POOL, k=rng.randint(0, 2)),
        "performance": {
            "rateLimitPerTick": rng.randint(1, 9),
            "latencyTicks": rng.randint(1, 9),
            "throughputPerTick": rng.randint(1, 9),
            "maxConcurrent": rng.randint(1, 4),
        },
        "security": {
            "authMethods": ["token"],
            "encryption": ["tls"],
            "privacyPolicy": rng.choice(("local-only", "federated")),
        },
    }
    if rng.random() < 0.3:
        doc["hyperparameters"] = {"context": rng.randint(16, 512)}
    if rng.random() < 0.3:
        doc["x-ring"] = rng.randint(0, 3)
    if rng.random() < 0.2:
        doc["architecture"]["x-accelerator"] = "npu"
    if rng.random() < 0.2:
        doc["performance"]["x-burst"] = rng.randint(1, 5)
    if rng.random() < 0.2:
        doc["security"]["x-audited"] = True
    return doc


def test_criterion_6_registry_round_trip_and_query_oracle():
    rng = random.Random(0x5EED)
    registry = ModelRegistry(fabric=None)
    by_model = {}

    for index in range(DESCRIPTOR_CASES):
        model_id = f"m-{index:04d}"
        descriptor = parse_descriptor(json.dumps(_random_descriptor_doc(rng, model_id)))
        reparsed = parse_descriptor(serialize_descriptor(descriptor))
        assert reparsed == descriptor, f"{model_id}: round trip changed the document"
        assert serialize_descriptor(reparsed) == serialize_descriptor(descriptor)

        registry.register(descriptor)
        by_model.setdefault(model_id, []).append(descriptor)
        if index % 10 == 0:
            newer = parse_descriptor(
                json.dumps(_random_descriptor_doc(rng, model_id, major=4))
            )
            registry.register(newer)
            by_model[model_id].append(newer)

    latest = {
        model_id: max(versions, key=lambda d: d.version)
        for model_id, versions in by_model.items()
    }

    for _ in range(DESCRIPTOR_CASES):
        required = set(rng.sample(_CAP_POOL, k=rng.randint(1, 3)))
        hint = rng.choice((None,) + _DOMAIN_POOL)
        got = registry.query_by_capability(required, domain_hint=hint)
        expected = sorted(
            (d for d in latest.values() if required <= set(d.capability_names())),
            key=lambda d: (
                0 if (hint is not None and hint in d.domains) else 1,
                d.performance.latency_ticks,
                d.model_id,
            ),
        )
        assert [(d.model_id, d.version.render()) for d in got] == [
            (d.model_id, d.version.render()) for d in expected
        ], f"query {sorted(required)} hint={hint} diverged from the brute-force scan"


# -- criterion 7: agriculture flows end to end --------------------------------------


def _field_model_descriptor():
    return parse_descriptor(
        json.dumps(
            {
                "modelId": "agro-insight",
                "modelType": "agronomy",
                "version": "1.0.0",
                "category": "Specialized",
                "architecture": {"family": "transformer", "parameterScaleLabel": "small"},
                "capabilities": [{"name": "compare", "params": {}}],
                "domains": ["agriculture"],
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


def test_criterion_7_agriculture_inference_and_learning():
    trace = run_scenario("agri-inference")
    envelopes = trace.envelope_events()
    audits = trace.audit_events()
    batches = {e.session for e in envelopes if e.topic.startswith("farm/soil/")}
    assert batches == {"batch-1", "batch-2"}

    results = [
        e for e in envelopes if e.topic.startswith("plans/") and e.topic.endswith("/result")
    ]
    assert len(results) == len(batches)
    assert all(e.kind == "inference-result" for e in results)
    for result in results:
        deliveries = [
            a for a in audits if a.op == "deliver" and a.message_id == result.message_id
        ]
        assert len(deliveries) == 1, f"{result.message_id}: {len(deliveries)} deliveries"
        assert deliveries[0].actor == "agri-app"

    trace = run_scenario("agri-learning")
    updates = [
        e
        for e in trace.envelope_events()
        if e.topic == "registry/agro-insight" and (e.detail or "").startswith("update ")
    ]
    assert len(updates) == 1
    contributions = [a for a in trace.audit_events() if a.op == "participate-learning"]
    assert len(contributions) == 2

    # Re-run the learning cycle holding the tokens, so notification is
    # observed directly rather than inferred from the trace.
    fabric = Fabric()
    registry = ModelRegistry(fabric, update_cycle_len=2)
    registry.register(_field_model_descriptor())
    fabric.register_node("farm-gw")
    fabric.create_topic("farm/yield/reports")
    tokens = []
    for i in range(2):
        envelope = fabric.envelope(
            "farm/yield/reports",
            f"yield={i}",
            kind="data",
            session=f"harvest-{i}",
            origin="farm-gw",
            model_id="agro-insight",
        )
        fabric.publish(envelope)
        tokens.append(fabric.participate_learning(envelope, "improve yield forecasts"))

    assert registry.versions("agro-insight") == ["1.0.0", "1.0.1"]
    assert all(token.state is TokenState.NOTIFIED for token in tokens)
