"""Task broker: intent decomposition, plan validation, tools, execution."""

import dataclasses
import json
from fractions import Fraction

import pytest

from interconnect.broker import (
    Intent,
    MockPlanner,
    Task,
    TaskBroker,
    TaskKind,
    TaskPlan,
    validate_plan,
)
from interconnect.errors import NoEligibleModel, PlanningFailed, TaskFailed
from interconnect.fabric import Fabric, Selector, Subscription, SubscriptionKind
import interconnect.guard as guard_module
from interconnect.guard import Guard, structural_hash
from interconnect.registry import ModelRegistry, parse_descriptor
from interconnect.simnet import LoadModel, NodeKind, SimWorld


def descriptor(model_id, capability="predict", domains=("traffic",)):
    return parse_descriptor(
        json.dumps(
            {
                "modelId": model_id,
                "modelType": "analytics",
                "version": "1.0.0",
                "category": "Specialized",
                "architecture": {"family": "transformer", "parameterScaleLabel": "small"},
                "capabilities": [{"name": capability}],
                "domains": list(domains),
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


def make_stack(**broker_kwargs):
    fabric = Fabric()
    world = SimWorld(fabric, seed=0)
    registry = ModelRegistry(fabric)
    registry.register(descriptor("forecaster"))
    world.spawn_node("edge-1", NodeKind.MODEL_HOST, hosted_models=("forecaster",))
    world.spawn_node("app-1", NodeKind.APP)
    for topic in ("net/cell-a/load", "net/cell-b/load"):
        fabric.create_topic(topic)
    broker = TaskBroker(fabric, registry, **broker_kwargs)
    return fabric, world, registry, broker


def feed_streams(fabric):
    for topic, payload in (("net/cell-a/load", b"41/50"), ("net/cell-b/load", b"7/10")):
        fabric.publish(
            fabric.envelope(topic, payload, kind="data", session="feed", origin="app-1")
        )


INTENT_TEXT = "predict the next load window from net/cell-a/load and net/cell-b/load"


def make_intent(text=INTENT_TEXT, issuer="app-1", **kwargs):
    return Intent(text=text, issuer=issuer, **kwargs)


# -- planner primitives ------------------------------------------------------------


def test_detect_verb_first_stem_wins():
    planner = MockPlanner()
    assert planner.detect_verb("Compare and summarize these") == "compare"
    assert planner.detect_verb("SUMMARIZE the area") == "summarize"
    assert planner.detect_verb("optimise vs optimize") == "optimize"
    assert planner.detect_verb("predictive maintenance") == "predict"
    assert planner.detect_verb("delete everything") is None


def test_episode_respects_step_budget():
    planner = MockPlanner(max_steps=5)
    with pytest.raises(PlanningFailed):
        planner.episode("predict", ["s/a", "s/b"])
    assert len(MockPlanner().episode("predict", ["s/a"])) == 4


def test_emit_tool_program_template():
    source = MockPlanner().emit_tool_program("ran-1", "relieve-congestion")
    assert source.splitlines() == [
        "# tool for relieve-congestion",
        "limit ran-1 admission-rate 0 1",
        "scale ran-1 admission-rate 9/10",
    ]


# -- decomposition ------------------------------------------------------------------


def test_decompose_builds_the_expected_task_graph():
    fabric, world, registry, broker = make_stack()
    plan = broker.decompose_intent(make_intent())
    kinds = [t.kind for t in plan.tasks]
    assert kinds == [TaskKind.INGEST, TaskKind.INGEST, TaskKind.INFER, TaskKind.AGGREGATE]
    ingest_a, ingest_b, infer, aggregate = plan.tasks
    assert ingest_a.inputs == ("stream:net/cell-a/load",)
    assert ingest_b.inputs == ("stream:net/cell-b/load",)
    assert infer.inputs == (ingest_a.task_id, ingest_b.task_id)
    assert infer.capability == "predict"
    assert infer.assigned_model == "forecaster"
    assert aggregate.inputs == (infer.task_id,)
    assert plan.result_topic == f"plans/{plan.plan_id}/result"
    assert fabric.has_topic(plan.result_topic)
    assert len(plan.subscriptions) == 1
    assert broker.plans[plan.plan_id] is plan
    (audit,) = fabric.audit_log.query(ops=["plan"])
    assert (audit.actor, audit.model_id) == ("app-1", "forecaster")


def test_single_stream_plan_skips_aggregation():
    fabric, world, registry, broker = make_stack()
    plan = broker.decompose_intent(make_intent("predict load on net/cell-a/load"))
    assert [t.kind for t in plan.tasks] == [TaskKind.INGEST, TaskKind.INFER]


def test_decompose_failure_modes():
    fabric, world, registry, broker = make_stack()
    with pytest.raises(PlanningFailed, match="verb"):
        broker.decompose_intent(make_intent("look at net/cell-a/load"))
    with pytest.raises(PlanningFailed, match="streams"):
        broker.decompose_intent(make_intent("predict the weather"))
    with pytest.raises(PlanningFailed, match="unknown stream"):
        broker.decompose_intent(make_intent("predict load on net/ghost/load"))
    with pytest.raises(NoEligibleModel):
        broker.decompose_intent(make_intent("summarize net/cell-a/load"))


def test_constraints_override_text_stream_detection():
    fabric, world, registry, broker = make_stack()
    plan = broker.decompose_intent(
        make_intent(
            "predict without naming streams inline",
            constraints={"streams": "net/cell-b/load, net/cell-a/load"},
        )
    )
    assert plan.tasks[0].inputs == ("stream:net/cell-b/load",)
    assert plan.tasks[1].inputs == ("stream:net/cell-a/load",)


def test_plan_ids_are_deterministic_per_seed():
    def build(seed):
        fabric, world, registry, broker = make_stack(planner=MockPlanner(seed))
        return broker.decompose_intent(make_intent())

    plan_a, plan_b, plan_c = build(0), build(0), build(1)
    assert plan_a == plan_b
    assert plan_a.plan_id != plan_c.plan_id


def test_domain_hint_steers_model_choice():
    fabric, world, registry, broker = make_stack()
    registry.register(descriptor("agro-predict", domains=("agriculture",)))
    world.spawn_node("edge-agro", NodeKind.MODEL_HOST, hosted_models=("agro-predict",))
    plan = broker.decompose_intent(
        make_intent(target_domain="agriculture")
    )
    assert plan.tasks[2].assigned_model == "agro-predict"
    assert plan.domain_hint == "agriculture"


# -- plan validation --------------------------------------------------------------


def test_plan_document_rejects_broken_graphs():
    fabric, world, registry, broker = make_stack()
    plan = broker.decompose_intent(make_intent())
    first, second = plan.tasks[:2]

    forward = dataclasses.replace(first, inputs=("t99",))
    with pytest.raises(PlanningFailed, match="before it exists"):
        validate_plan(dataclasses.replace(plan, tasks=(forward, *plan.tasks[1:])))

    dupe = dataclasses.replace(second, task_id=first.task_id)
    with pytest.raises(PlanningFailed, match="duplicate"):
        validate_plan(dataclasses.replace(plan, tasks=(first, dupe, *plan.tasks[2:])))

    with pytest.raises(PlanningFailed, match="no tasks"):
        validate_plan(dataclasses.replace(plan, tasks=()))


def test_validate_plan_accepts_stream_refs_only_at_any_point():
    plan = TaskPlan(
        plan_id="plan-x",
        tasks=(
            Task("t1", TaskKind.INGEST, inputs=("stream:a/b",)),
            Task("t2", TaskKind.INFER, inputs=("t1", "stream:c/d")),
        ),
        subscriptions=(),
        provenance="test",
        result_topic="plans/plan-x/result",
        issuer="app-1",
    )
    validate_plan(plan)


# -- subscription-driven planning ----------------------------------------------------------


def agri_stack():
    fabric, world, registry, broker = make_stack()
    registry.register(descriptor("agro-insight", capability="compare", domains=("agriculture",)))
    world.spawn_node("edge-agro", NodeKind.MODEL_HOST, hosted_models=("agro-insight",))
    fabric.register_node("agri-app")
    for topic in ("farm/soil/north", "farm/soil/south"):
        fabric.create_topic(topic)
    return fabric, world, registry, broker


def test_plan_for_subscription_builds_sorted_stream_set():
    fabric, world, registry, broker = agri_stack()
    subscription = Subscription(
        selector=Selector.parse("farm/soil/* kind=data"),
        subscriber_node="agri-app",
        kind=SubscriptionKind.INFERENCE,
        params={"prompt": "compare soil moisture", "domain": "agriculture"},
    )
    plan = broker.plan_for_subscription(subscription)
    assert [t.inputs for t in plan.tasks[:2]] == [
        ("stream:farm/soil/north",),
        ("stream:farm/soil/south",),
    ]
    assert plan.issuer == "agri-app"
    assert plan.tasks[2].assigned_model == "agro-insight"


def test_plan_for_subscription_requires_prompt_and_streams():
    fabric, world, registry, broker = agri_stack()
    bare = Subscription(
        selector=Selector.parse("farm/soil/*"),
        subscriber_node="agri-app",
        kind=SubscriptionKind.INFERENCE,
    )
    with pytest.raises(PlanningFailed, match="prompt"):
        broker.plan_for_subscription(bare)
    lost = Subscription(
        selector=Selector.parse("ocean/*"),
        subscriber_node="agri-app",
        kind=SubscriptionKind.INFERENCE,
        params={"prompt": "compare tides"},
    )
    with pytest.raises(PlanningFailed, match="no streams"):
        broker.plan_for_subscription(lost)


def test_attach_hooks_inference_subscriptions():
    fabric, world, registry, broker = agri_stack()
    broker.attach()
    fabric.subscribe(
        Subscription(
            selector=Selector.parse("farm/soil/*"),
            subscriber_node="agri-app",
            kind=SubscriptionKind.INFERENCE,
            params={"prompt": "compare soil moisture"},
        )
    )
    assert len(broker.plans) == 1
    (plan,) = broker.plans.values()
    assert plan.issuer == "agri-app"


# -- execution --------------------------------------------------------------------------------


def test_execute_plan_completes_end_to_end():
    fabric, world, registry, broker = make_stack()
    feed_streams(fabric)
    plan = broker.decompose_intent(make_intent())
    result = broker.execute_plan(plan, settle=lambda: world.step(1))
    assert result.status == "Completed"
    assert set(result.per_task.values()) == {"ok"}
    combined = json.loads(result.final_payload)
    assert combined["count"] == 1

    (delivery,) = fabric.drain(plan.subscriptions[0])
    assert delivery.metadata["detail"] == f"result {plan.plan_id}"
    assert delivery.payload == result.final_payload
    assert fabric.last_envelope(f"plans/{plan.plan_id}/work") is None
    (execute,) = fabric.audit_log.query(ops=["execute"])
    assert execute.actor == "app-1"


def test_execute_plan_fails_on_empty_stream():
    fabric, world, registry, broker = make_stack()
    plan = broker.decompose_intent(make_intent())
    with pytest.raises(TaskFailed) as err:
        broker.execute_plan(plan, settle=lambda: world.step(1))
    assert err.value.task_id == "t1"
    assert "no data on stream" in err.value.cause
    partial = err.value.result
    assert partial.status == "Failed"
    assert partial.per_task == {"t1": "error(no data on stream net/cell-a/load)"}


def test_execute_plan_fails_when_model_errors():
    fabric, world, registry, broker = make_stack()
    feed_streams(fabric)
    world.fail_next_requests("edge-1", 1)
    plan = broker.decompose_intent(make_intent())
    with pytest.raises(TaskFailed) as err:
        broker.execute_plan(plan, settle=lambda: world.step(1))
    assert err.value.task_id == "t3"
    assert err.value.cause == "model-unavailable"
    partial = err.value.result
    assert partial.per_task["t1"] == "ok"
    assert partial.per_task["t3"] == "error(model-unavailable)"


def test_execute_plan_without_settle_times_out():
    fabric, world, registry, broker = make_stack()
    feed_streams(fabric)
    plan = broker.decompose_intent(make_intent())
    with pytest.raises(TaskFailed) as err:
        broker.execute_plan(plan)
    assert err.value.cause == "no reply within settle budget"


# -- tool tasks --------------------------------------------------------------------------------


def guarded_stack(load=True):
    fabric = Fabric()
    world = SimWorld(fabric, seed=0)
    registry = ModelRegistry(fabric)
    for node in ("ran-1", "ran-2"):
        world.spawn_node(
            node,
            NodeKind.RIC,
            knobs={"admission-rate": Fraction(1)},
            load=LoadModel(offered_load=Fraction(4, 5)) if load else None,
        )
    fabric.register_node("ops-1")
    guard = Guard(fabric, world)
    broker = TaskBroker(fabric, registry, guard=guard)
    return fabric, world, guard, broker


def tool_task(signature="relieve-congestion", target="ran-1"):
    return Task(
        "t1",
        TaskKind.TOOL_INVOKE,
        params={"signature": signature, "target-node": target},
    )


def run_tool(broker, task):
    plan = TaskPlan(
        plan_id="plan-tool",
        tasks=(task,),
        subscriptions=(),
        provenance="test",
        result_topic="plans/plan-tool/result",
        issuer="ops-1",
    )
    return broker.execute_plan(plan)


def insights(fabric):
    return [e for e in fabric.journal.envelope_events() if e.topic == "broker/insights"]


def test_execute_plan_synthesizes_a_tool_on_catalog_miss():
    fabric, world, guard, broker = guarded_stack()
    assert broker.catalog == {}
    run_tool(broker, tool_task())
    (sandbox,) = fabric.audit_log.query(ops=["sandbox"])
    assert sandbox.outcome == "ok"
    assert len(broker.catalog) == 1


def test_execute_plan_tool_missing_from_catalog_completes():
    fabric, world, guard, broker = guarded_stack()
    result = run_tool(broker, tool_task())
    assert result.status == "Completed"
    assert result.per_task == {"t1": "ok"}
    body = json.loads(result.final_payload)
    assert Fraction(body["deltas"]["utilization.ran-1"]) < 0


def test_execute_plan_catalogs_accepted_tool_programs():
    fabric, world, guard, broker = guarded_stack()
    result = run_tool(broker, tool_task())
    source = broker.planner.emit_tool_program("ran-1", "relieve-congestion")
    key = structural_hash(source)
    assert list(broker.catalog) == [key]
    assert broker.catalog[key].source == source
    assert json.loads(result.final_payload)["tool"] == f"tool-{key[:8]}"
    (insight,) = insights(fabric)
    assert insight.detail == f"tool tool-{key[:8]} ready"


def test_execute_plan_reuses_cataloged_tool_by_program_hash():
    fabric, world, guard, broker = guarded_stack()
    first = run_tool(broker, tool_task())
    (program,) = broker.catalog.values()
    # The catalog keys on the program, which depends only on the target.
    second = run_tool(broker, tool_task(signature="other-purpose"))
    assert list(broker.catalog.values()) == [program]
    assert second.final_payload == first.final_payload
    assert len(insights(fabric)) == 1


def test_a_catalog_hit_parses_the_emitted_program_once(monkeypatch):
    # The hash lookup parses the emitted text; the hit sandboxes the
    # catalogued program, which carries its parse.
    fabric, world, guard, broker = guarded_stack()
    run_tool(broker, tool_task())
    calls = []
    real = guard_module.parse_program
    monkeypatch.setattr(
        guard_module, "parse_program", lambda source: calls.append(source) or real(source)
    )
    assert run_tool(broker, tool_task(signature="other-purpose")).status == "Completed"
    assert calls == [broker.planner.emit_tool_program("ran-1", "other-purpose")]


def test_execute_plan_runs_cataloged_tools():
    fabric, world, guard, broker = guarded_stack()
    run_tool(broker, tool_task())
    result = run_tool(broker, tool_task())
    assert result.status == "Completed"
    body = json.loads(result.final_payload)
    assert body["tool"].startswith("tool-")
    assert Fraction(body["deltas"]["utilization.ran-1"]) < 0
    assert world.state.get_knob("ran-1", "admission-rate") == Fraction(1)


def test_execute_plan_runs_one_sandbox_per_tool_invocation():
    fabric, world, guard, broker = guarded_stack()
    run_tool(broker, tool_task())
    run_tool(broker, tool_task())
    assert len(fabric.audit_log.query(ops=["sandbox"])) == 2
    assert len(insights(fabric)) == 1


def test_execute_plan_tool_for_another_target_runs_its_own_program():
    fabric, world, guard, broker = guarded_stack()
    run_tool(broker, tool_task(target="ran-1"))
    result = run_tool(broker, tool_task(target="ran-2"))
    deltas = json.loads(result.final_payload)["deltas"]
    assert Fraction(deltas["utilization.ran-2"]) < 0
    assert Fraction(deltas["utilization.ran-1"]) == 0
    assert len(broker.catalog) == 2
    assert world.state.get_knob("ran-2", "admission-rate") == Fraction(1)


def test_execute_plan_tool_requires_guard_and_target():
    fabric = Fabric()
    fabric.register_node("ops-1")
    broker = TaskBroker(fabric, ModelRegistry(fabric))
    with pytest.raises(TaskFailed) as err:
        run_tool(broker, tool_task())
    assert err.value.result.per_task == {"t1": "error(no deployment guard attached)"}

    fabric, world, guard, broker = guarded_stack()
    with pytest.raises(TaskFailed) as err:
        run_tool(broker, Task("t1", TaskKind.TOOL_INVOKE, params={"signature": "x"}))
    assert err.value.result.per_task == {"t1": "error(tool task needs a target-node param)"}
    assert broker.catalog == {}
    assert fabric.audit_log.query(ops=["sandbox"]) == []


def test_execute_plan_tool_rejection_leaves_catalog_empty():
    fabric, world, guard, broker = guarded_stack(load=False)
    with pytest.raises(TaskFailed) as err:
        run_tool(broker, tool_task())
    assert err.value.result.status == "Failed"
    assert err.value.result.per_task == {
        "t1": "error(tool rejected: InvariantViolation(total-throughput>0))"
    }
    assert broker.catalog == {}
    assert insights(fabric) == []
