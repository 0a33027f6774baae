"""Registered end-to-end scenarios replayed as deterministic traces.

Each scenario builds a fresh fabric plus whatever registry, world, broker,
negotiator, or guard it needs, drives one interaction to completion, checks
its own outcome (raising ScenarioAssertionFailed on violation), and returns
the fabric journal. Replaying the same scenario name and seed yields a
byte-identical trace, which is what the golden files under goldens/ freeze.

Scenario keys are stable external names used by the CLI and the golden
fixtures; treat them as part of the file-format surface.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .broker import Intent, MockPlanner, TaskBroker
from .errors import ScenarioAssertionFailed, UnknownScenario
from .fabric import (
    KIND_CONTROL,
    KIND_DATA,
    Fabric,
    Selector,
    Subscription,
    SubscriptionKind,
    SubscriptionMode,
    TokenState,
)
from .guard import Guard, GuardedProgram, knob_within, min_total_throughput
from .mapek import MapeKLoop, convergence_oracle
from .negotiation import Negotiator, Phase, SchemaMapping, apply_adapter
from .registry import ModelDescriptor, ModelRegistry, parse_descriptor
from .simnet import ADMISSION_KNOB, LoadModel, NodeKind, SimWorld, parse_exact
from .trace import Trace


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioAssertionFailed(message)


def _descriptor(
    model_id: str,
    *,
    version: str = "1.0.0",
    model_type: str = "analytics",
    category: str = "Specialized",
    capabilities: list[dict] | None = None,
    domains: list[str] | None = None,
    latency: int = 1,
) -> ModelDescriptor:
    """Build a descriptor through the parser, as applications would."""
    doc = {
        "modelId": model_id,
        "modelType": model_type,
        "version": version,
        "category": category,
        "architecture": {
            "family": "transformer",
            "parameterScaleLabel": "small",
            "customElements": [],
        },
        "hyperparameters": {"context": 128},
        "capabilities": capabilities or [{"name": "predict", "params": {}}],
        "domains": domains or [],
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
    return parse_descriptor(json.dumps(doc))


# -- scenarios ---------------------------------------------------------------


def _scenario_decompose(seed: int) -> Trace:
    """An application states an intent; the broker splits it into stream
    ingests, a model-bound inference, and an aggregation, then delivers one
    result to the issuer."""
    fabric = Fabric()
    registry = ModelRegistry(fabric)
    world = SimWorld(fabric, seed=seed)
    registry.register(
        _descriptor(
            "forecaster",
            capabilities=[{"name": "predict", "params": {}}],
            domains=["traffic"],
        )
    )
    world.spawn_node("edge-1", NodeKind.MODEL_HOST, hosted_models=("forecaster",))
    fabric.register_node("app-1")
    for topic in ("net/cell-a/load", "net/cell-b/load"):
        fabric.create_topic(topic)
        fabric.publish(
            fabric.envelope(
                topic,
                "41/50",
                kind=KIND_DATA,
                session="observe",
                origin="app-1",
                tags="load",
            )
        )

    broker = TaskBroker(fabric, registry, planner=MockPlanner(seed=seed))
    plan = broker.decompose_intent(
        Intent(
            text="predict the next load window from net/cell-a/load and net/cell-b/load",
            issuer="app-1",
            target_domain="traffic",
        )
    )
    kinds = [t.kind.value for t in plan.tasks]
    _check(kinds == ["ingest", "ingest", "infer", "aggregate"], f"unexpected task shape {kinds}")
    _check(plan.tasks[2].assigned_model == "forecaster", "infer task bound to wrong model")

    result = broker.execute_plan(plan, settle=lambda: world.step(1))
    _check(result.status == "Completed", f"plan ended {result.status}")
    _check(fabric.pending(plan.subscriptions[0]) == 1, "issuer should hold exactly one result")
    return fabric.journal


def _scenario_nwdaf_pair(seed: int) -> Trace:
    """Two analytics nodes exchange load statistics; the consumer asks a
    hosted model to summarize and hands the insight back on a one-shot
    subscription."""
    fabric = Fabric()
    registry = ModelRegistry(fabric)
    world = SimWorld(fabric, seed=seed)
    registry.register(
        _descriptor(
            "load-analyzer",
            capabilities=[{"name": "summarize", "params": {}}],
            domains=["core-net"],
        )
    )
    world.spawn_node("nwdaf-a", NodeKind.NWDAF)
    world.spawn_node("nwdaf-b", NodeKind.NWDAF)
    world.spawn_node("host-1", NodeKind.MODEL_HOST, hosted_models=("load-analyzer",))
    fabric.create_topic("stats/area-1")
    fabric.create_topic("stats/area-1/insight")

    sub_b = fabric.subscribe(
        Subscription(
            selector=Selector.parse("stats/area-1 kind=data"),
            subscriber_node="nwdaf-b",
        )
    )
    received: list = []
    fabric.subscribe(
        Subscription(
            selector=Selector.parse("stats/area-1/insight"),
            subscriber_node="nwdaf-a",
            mode=SubscriptionMode.ONE_SHOT,
        ),
        handler=received.append,
    )

    fabric.publish(
        fabric.envelope(
            "stats/area-1",
            "load=7/10;sessions=42",
            kind=KIND_DATA,
            session="exchange-1",
            origin="nwdaf-a",
            tags="summarize,load",
        )
    )
    batch = fabric.drain(sub_b)
    _check(len(batch) == 1, "consumer should see exactly one statistics envelope")

    token = fabric.participate_inference(batch[0], {"session": "exchange-1"})
    world.step(1)
    _check(token.state is TokenState.NOTIFIED, "inference token never settled")

    first = fabric.publish(
        fabric.envelope(
            "stats/area-1/insight",
            token.result.payload,
            kind=KIND_DATA,
            session="exchange-1",
            origin="nwdaf-b",
            detail="insight for area-1",
        )
    )
    second = fabric.publish(
        fabric.envelope(
            "stats/area-1/insight",
            token.result.payload,
            kind=KIND_DATA,
            session="exchange-1",
            origin="nwdaf-b",
            detail="repeat insight",
        )
    )
    _check(first == 1 and len(received) == 1, "one-shot should deliver exactly once")
    _check(second == 0, "one-shot must not fire twice")
    return fabric.journal


def _scenario_oran_pair(seed: int) -> Trace:
    """A near-real-time controller watches cell telemetry and throttles the
    cell's admission knob over the control topic."""
    fabric = Fabric()
    world = SimWorld(fabric, seed=seed)
    world.spawn_node(
        "cell-1",
        NodeKind.UE_GEN,
        knobs={ADMISSION_KNOB: Fraction(1)},
        load=LoadModel(offered_load=Fraction(9, 10)),
    )
    world.spawn_node("ric-near", NodeKind.RIC)
    sub = fabric.subscribe(
        Subscription(
            selector=Selector.parse("telemetry/cell-1/load"),
            subscriber_node="ric-near",
        )
    )
    world.step(3)
    samples = fabric.drain(sub)
    _check(len(samples) == 3, "expected one telemetry sample per tick")
    _check(
        all(parse_exact(s.payload.decode()) == Fraction(9, 10) for s in samples),
        "pre-control utilization should be 9/10",
    )

    fabric.publish(
        fabric.envelope(
            "managed/cell-1/knobs",
            "admission-rate=3/4",
            kind=KIND_CONTROL,
            session="ric-ctl",
            origin="ric-near",
            detail="admission-rate=3/4",
        )
    )
    _check(
        world.state.get_knob("cell-1", ADMISSION_KNOB) == Fraction(3, 4),
        "control envelope should apply immediately",
    )
    world.step(2)
    after = fabric.drain(sub)
    _check(
        all(parse_exact(s.payload.decode()) == Fraction(27, 40) for s in after),
        "post-control utilization should be 27/40",
    )
    return fabric.journal


def _scenario_capability_mismatch(seed: int) -> Trace:
    """Peers with different capability sets negotiate down to the shared
    optimizer capability and agree."""
    fabric = Fabric()
    a = _descriptor(
        "learner-edge",
        version="1.2.0",
        model_type="learner",
        capabilities=[
            {"name": "optimize", "params": {"method": "gradient"}},
            {"name": "tune-hyperparams", "params": {}},
        ],
    )
    b = _descriptor(
        "learner-core",
        version="1.0.3",
        model_type="learner",
        capabilities=[
            {"name": "optimize", "params": {"method": "gradient"}},
            {"name": "distill", "params": {}},
        ],
    )
    negotiator = Negotiator(fabric)
    session = negotiator.run_to_completion(negotiator.open_session(a, b, context="joint-training"))
    _check(session.phase is Phase.AGREED, f"expected Agreed, got {session.phase.label()}")
    _check(
        session.agreed_capability_names() == ["optimize"],
        f"expected shared optimize capability, got {session.agreed_capability_names()}",
    )
    _check(
        session.agreed_capabilities[0].params == {"method": "gradient"},
        "matching parameter values should survive the intersection",
    )
    return fabric.journal


def _scenario_scale(seed: int) -> Trace:
    """Peers declaring percent and fraction ranges align on a canonical
    dimensionless scale with exact transforms."""
    fabric = Fabric()
    a = _descriptor(
        "qoe-probe",
        model_type="qoe",
        capabilities=[{"name": "optimize", "params": {"scale": "percent:0..100"}}],
    )
    b = _descriptor(
        "qoe-tuner",
        model_type="qoe",
        capabilities=[{"name": "optimize", "params": {"scale": "fraction:0..1"}}],
    )
    negotiator = Negotiator(fabric)
    session = negotiator.run_to_completion(negotiator.open_session(a, b, context="qoe-alignment"))
    _check(session.phase is Phase.AGREED, f"expected Agreed, got {session.phase.label()}")
    scale = session.agreed_scale
    _check(scale is not None, "scale alignment should have run")
    _check(
        scale.unit == "fraction" and scale.lo == 0 and scale.hi == 1,
        f"canonical scale should be fraction:0..1, got {scale.unit}:{scale.lo}..{scale.hi}",
    )
    _check(scale.to_canonical("qoe-probe", Fraction(50)) == Fraction(1, 2), "percent 50 -> 1/2")
    _check(scale.from_canonical("qoe-probe", Fraction(1, 2)) == Fraction(50), "1/2 -> percent 50")
    _check(scale.to_canonical("qoe-tuner", Fraction(3, 4)) == Fraction(3, 4), "fraction is identity")
    return fabric.journal


def _scenario_ossification(seed: int) -> Trace:
    """A major-version split blocks two telemetry peers until a schema
    mapping lets the negotiator synthesize an adapter; the adapted payload
    then flows."""
    fabric = Fabric()
    old = _descriptor(
        "telemetry-agent",
        version="1.4.2",
        model_type="telemetry",
        capabilities=[{"name": "summarize", "params": {"fields": "load"}}],
    )
    new = _descriptor(
        "telemetry-hub",
        version="2.0.0",
        model_type="telemetry",
        capabilities=[{"name": "summarize", "params": {"fields": "load"}}],
    )

    locked = Negotiator(fabric, adapters_enabled=False, session_prefix="locked")
    s1 = locked.run_to_completion(locked.open_session(old, new, context="upgrade"))
    _check(s1.phase is Phase.FAILED, "locked negotiation should fail")
    _check(s1.failure_reason == "VersionIncompatible", f"unexpected reason {s1.failure_reason}")

    bridged = Negotiator(fabric, session_prefix="bridged")
    bridged.register_schema_mapping(
        SchemaMapping(
            model_type="telemetry",
            from_major=1,
            to_major=2,
            field_renames={"avg-load": "load-mean"},
            defaults_for_new_fields={"window": 10},
            dropped_fields=("legacy-flag",),
            source_fields=("avg-load", "peak-load", "legacy-flag"),
        )
    )
    s2 = bridged.run_to_completion(bridged.open_session(old, new, context="upgrade"))
    _check(s2.phase is Phase.AGREED, "bridged negotiation should agree")
    _check(s2.adapter is not None, "bridged session should carry an adapter")
    _check(
        (s2.adapter.from_version, s2.adapter.to_version) == ("1.4.2", "2.0.0"),
        "adapter should point from the older peer to the newer",
    )

    fabric.create_topic("stats/bridged")
    raw = fabric.envelope(
        "stats/bridged",
        json.dumps(
            {"avg-load": "7/10", "peak-load": "9/10", "legacy-flag": True},
            sort_keys=True,
        ),
        kind=KIND_DATA,
        session="bridge-1",
        origin="telemetry-agent",
        detail="adapted summary",
    )
    adapted = apply_adapter(s2.adapter, raw)
    doc = json.loads(adapted.payload.decode("utf-8"))
    _check(
        doc == {"load-mean": "7/10", "peak-load": "9/10", "window": 10},
        f"adapter produced {doc}",
    )
    fabric.publish(adapted)
    return fabric.journal


def _scenario_codegen(seed: int) -> Trace:
    """Insight to program to sandbox to live deployment: three planners
    propose knob programs, consensus picks the majority, a malformed variant
    bounces with feedback, and the accepted program goes live."""
    fabric = Fabric()
    world = SimWorld(fabric, seed=seed)
    world.spawn_node(
        "ran-1",
        NodeKind.RIC,
        knobs={ADMISSION_KNOB: Fraction(1), "rate-limit": Fraction(100)},
        load=LoadModel(offered_load=Fraction(4, 5)),
    )
    guard = Guard(fabric, world)
    fabric.register_node("pipeline")
    fabric.create_topic("net/insights")
    fabric.create_topic("codegen/results")
    fabric.publish(
        fabric.envelope(
            "net/insights",
            "utilization trending high on ran-1",
            kind=KIND_DATA,
            session="codegen",
            origin="pipeline",
            tags="optimize,utilization",
        )
    )

    template = MockPlanner(seed=seed).emit_tool_program("ran-1", "relieve-congestion")
    cand_a = GuardedProgram("prog-a", template, (ADMISSION_KNOB,), "planner-0")
    cand_b = GuardedProgram(
        "prog-b",
        "# same steps, different formatting\n" + template.upper(),
        (ADMISSION_KNOB,),
        "planner-1",
    )
    cand_c = GuardedProgram(
        "prog-c", "set ran-1 admission-rate 1/2", (ADMISSION_KNOB,), "planner-2"
    )
    consensus = guard.consensus_check([cand_a, cand_b, cand_c])
    _check(consensus.status == "Consensus", "two matching candidates should agree")
    _check(consensus.agreement == Fraction(2, 3), f"agreement was {consensus.agreement}")
    _check(consensus.chosen is cand_a, "majority exemplar should be the first match")

    bad = GuardedProgram("prog-bad", "boost ran-1 admission-rate 2", (), "planner-2")
    bad_verdict = guard.sandbox_run(bad)
    _check(not bad_verdict.accepted, "unknown instruction must be rejected")
    _check(bad_verdict.reason == "IllegalInstruction", f"got {bad_verdict.reason}")

    live_hash = world.state_hash()
    verdict = guard.sandbox_run(
        consensus.chosen,
        [min_total_throughput(Fraction(0)), knob_within("ran-1", ADMISSION_KNOB, Fraction(0), Fraction(1))],
    )
    _check(verdict.accepted, f"sandbox rejected the majority program: {verdict.reason}")
    _check(world.state_hash() == live_hash, "sandbox must not touch live state")
    _check(
        verdict.metric_deltas["utilization.ran-1"] == Fraction(-2, 25),
        f"unexpected utilization delta {verdict.metric_deltas['utilization.ran-1']}",
    )

    before = world.config_hash()
    record = guard.deploy(consensus.chosen, "ran-1")
    _check(record.status == "Applied", "deployment should apply")
    _check(record.config_hash_before == before, "record should pin the prior config")
    _check(world.config_hash() != before, "deployment should change the live config")
    _check(
        world.state.get_knob("ran-1", ADMISSION_KNOB) == Fraction(9, 10),
        "admission knob should be scaled to 9/10",
    )
    fabric.publish(
        fabric.envelope(
            "codegen/results",
            f"applied {record.deployment_id} program {record.program_id}",
            kind=KIND_DATA,
            session="codegen",
            origin="pipeline",
            detail=f"deployed {record.deployment_id}",
        )
    )
    return fabric.journal


def _scenario_mapek(seed: int) -> Trace:
    """A congested node drives the managing loop: two adaptations bring the
    windowed mean under the threshold, the third pass observes convergence."""
    fabric = Fabric()
    world = SimWorld(fabric, seed=seed)
    world.spawn_node(
        "core-1",
        NodeKind.NWDAF,
        knobs={ADMISSION_KNOB: Fraction(1)},
        load=LoadModel(offered_load=Fraction(19, 20)),
    )
    loop = MapeKLoop(fabric, world)
    report = loop.run_loop()
    expected = convergence_oracle(Fraction(19, 20), loop.theta, loop.knob_step)
    _check(report.converged, "loop should converge")
    _check(
        report.adaptations == expected,
        f"expected {expected} adaptations, got {report.adaptations}",
    )
    _check(
        report.iterations == expected + 1,
        f"expected {expected + 1} iterations, got {report.iterations}",
    )
    _check(
        all(r.effect_held and not r.rolled_back for r in report.reports),
        "every adaptation should hold",
    )
    _check(
        world.state.get_knob("core-1", ADMISSION_KNOB) == Fraction(81, 100),
        "admission knob should end at 81/100",
    )
    _check(
        world.state.utilization("core-1") < loop.theta,
        "final utilization should sit under the threshold",
    )
    return fabric.journal


def _scenario_agri_inference(seed: int) -> Trace:
    """Soil streams feed a semantics-bearing subscription; the broker plans
    around it and each stream-update batch yields exactly one result for the
    subscriber."""
    fabric = Fabric()
    registry = ModelRegistry(fabric)
    world = SimWorld(fabric, seed=seed)
    registry.register(
        _descriptor(
            "agro-insight",
            model_type="agronomy",
            capabilities=[{"name": "compare", "params": {}}],
            domains=["agriculture"],
        )
    )
    world.spawn_node("farm-gw", NodeKind.APP)
    world.spawn_node("edge-agro", NodeKind.MODEL_HOST, hosted_models=("agro-insight",))
    fabric.register_node("agri-app")
    broker = TaskBroker(fabric, registry, planner=MockPlanner(seed=seed))
    broker.attach()
    for topic in ("farm/soil/north", "farm/soil/south"):
        fabric.create_topic(topic)

    def publish_batch(batch: str, north: str, south: str) -> None:
        for topic, moisture in (("farm/soil/north", north), ("farm/soil/south", south)):
            fabric.publish(
                fabric.envelope(
                    topic,
                    f"moisture={moisture}",
                    kind=KIND_DATA,
                    session=batch,
                    origin="farm-gw",
                    tags="soil,moisture",
                )
            )

    publish_batch("batch-1", "11/20", "2/5")
    fabric.subscribe(
        Subscription(
            selector=Selector.parse("farm/soil/*"),
            subscriber_node="agri-app",
            kind=SubscriptionKind.INFERENCE,
            params={
                "prompt": "compare hydration and nutrient readings across both soil streams",
                "domain": "agriculture",
            },
        )
    )
    _check(len(broker.plans) == 1, "subscription should have produced one plan")
    plan = next(iter(broker.plans.values()))
    _check(plan.tasks[-2].assigned_model == "agro-insight", "plan should bind the field model")
    result_sub = plan.subscriptions[0]

    first = broker.execute_plan(plan, settle=lambda: world.step(1))
    _check(first.status == "Completed", f"batch 1 ended {first.status}")
    _check(len(fabric.drain(result_sub)) == 1, "batch 1 should deliver exactly one result")

    publish_batch("batch-2", "3/5", "9/20")
    second = broker.execute_plan(plan, settle=lambda: world.step(1))
    _check(second.status == "Completed", f"batch 2 ended {second.status}")
    _check(len(fabric.drain(result_sub)) == 1, "batch 2 should deliver exactly one result")
    return fabric.journal


def _scenario_agri_learning(seed: int) -> Trace:
    """Field reports contribute to the next model revision: a two-item update
    cycle yields exactly one version bump, and every contributor's token is
    notified by the same announcement."""
    fabric = Fabric()
    registry = ModelRegistry(fabric, update_cycle_len=2)
    registry.register(
        _descriptor(
            "agro-insight",
            model_type="agronomy",
            capabilities=[{"name": "compare", "params": {}}],
            domains=["agriculture"],
        )
    )
    fabric.register_node("farm-gw")
    fabric.register_node("coop-app")
    fabric.create_topic("farm/yield/reports")
    update_sub = fabric.subscribe(
        Subscription(
            selector=Selector.parse("registry/agro-insight"),
            subscriber_node="coop-app",
            kind=SubscriptionKind.MODEL_UPDATE,
        )
    )

    tokens = []
    for i, reading in enumerate(("yield=31/10", "yield=17/5"), start=1):
        envelope = fabric.envelope(
            "farm/yield/reports",
            reading,
            kind=KIND_DATA,
            session=f"harvest-{i}",
            origin="farm-gw",
            model_id="agro-insight",
        )
        fabric.publish(envelope)
        tokens.append(fabric.participate_learning(envelope, "improve yield forecasts"))

    _check(
        registry.versions("agro-insight") == ["1.0.0", "1.0.1"],
        f"expected exactly one bump, got {registry.versions('agro-insight')}",
    )
    _check(
        all(t.state is TokenState.NOTIFIED for t in tokens),
        "every contributing token should be notified",
    )
    _check(
        registry.pending_contributions("agro-insight") == 0,
        "the update cycle should have drained",
    )
    _check(len(fabric.drain(update_sub)) == 1, "subscriber should see exactly one update")
    return fabric.journal


SCENARIOS = {
    "fig7-decompose": _scenario_decompose,
    "fig9-nwdaf-pair": _scenario_nwdaf_pair,
    "fig10-oran-pair": _scenario_oran_pair,
    "fig11-capability-mismatch": _scenario_capability_mismatch,
    "fig12-scale": _scenario_scale,
    "fig13-ossification": _scenario_ossification,
    "fig16-codegen": _scenario_codegen,
    "mapek-congestion": _scenario_mapek,
    "agri-inference": _scenario_agri_inference,
    "agri-learning": _scenario_agri_learning,
}


def run_scenario(name: str, seed: int = 0) -> Trace:
    """Run one registered scenario to completion and return its trace."""
    runner = SCENARIOS.get(name)
    if runner is None:
        known = ", ".join(sorted(SCENARIOS))
        raise UnknownScenario(f"no scenario {name!r} (known: {known})")
    return runner(seed)
