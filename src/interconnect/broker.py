"""Intent decomposition and plan execution.

The broker turns a natural-language intent into a small task graph: one
ingest task per named stream, an inference task bound to a registered model,
an aggregation task when several streams feed it, and a durable subscription
on the plan's result topic. Planning is driven by a deterministic mock
planner so that identical intents under the same seed produce equal plans.

Tool tasks run through the deployment guard. The planner emits the task's
knob program, and the broker looks it up by its structural hash in one
catalog of accepted programs. A miss is a synthesis: the program enters the
catalog only if its sandbox run is accepted. A hit sandboxes the catalogued
`GuardedProgram`, which carries its parse, so the emitted text is parsed
only for its hash. Every invocation makes exactly one sandbox run, whose
metric deltas are the task's output.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import NoEligibleModel, PlanningFailed, TaskFailed
from .fabric import (
    KIND_DATA,
    KIND_INFERENCE_RESULT,
    AuditOp,
    Fabric,
    Selector,
    Subscription,
    SubscriptionKind,
    SubscriptionMode,
    TokenState,
)
from .guard import (
    Guard,
    GuardedProgram,
    NamedInvariant,
    min_total_throughput,
    structural_hash,
)
from .registry import ModelRegistry
from .simnet import ADMISSION_KNOB

_STREAM_TOKEN = re.compile(r"[a-z0-9*._-]+(?:/[a-z0-9*._-]+)+")
_SETTLE_BUDGET = 64  # settle calls an inference task waits for its reply

# First stem that occurs in the lowered intent text wins; order is fixed.
VERB_STEMS = (
    ("compar", "compare"),
    ("summar", "summarize"),
    ("optimi", "optimize"),
    ("predict", "predict"),
)


@dataclass(frozen=True)
class Intent:
    text: str
    issuer: str
    target_domain: str | None = None
    constraints: dict = field(default_factory=dict)


class TaskKind(str, Enum):
    INGEST = "ingest"
    INFER = "infer"
    AGGREGATE = "aggregate"
    TOOL_INVOKE = "tool-invoke"


@dataclass(frozen=True)
class Task:
    task_id: str
    kind: TaskKind
    inputs: tuple[str, ...] = ()  # prior task ids or "stream:<topic>"
    capability: str | None = None
    assigned_model: str | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TaskPlan:
    plan_id: str
    tasks: tuple[Task, ...]
    subscriptions: tuple[str, ...]  # subscription ids held open for results
    provenance: str
    result_topic: str
    issuer: str
    domain_hint: str | None = None


def validate_plan(plan: TaskPlan) -> None:
    """Tasks must form a forward-referencing DAG over known inputs."""
    seen: set[str] = set()
    for task in plan.tasks:
        if task.task_id in seen:
            raise PlanningFailed(f"duplicate task id {task.task_id}")
        for ref in task.inputs:
            if ref.startswith("stream:"):
                continue
            if ref not in seen:
                raise PlanningFailed(
                    f"task {task.task_id} references {ref} before it exists"
                )
        seen.add(task.task_id)
    if not plan.tasks:
        raise PlanningFailed("plan has no tasks")


@dataclass(frozen=True)
class PlannerAction:
    action: str
    payload: dict = field(default_factory=dict)


class MockPlanner:
    """Deterministic stand-in for a reasoning model.

    Every output is a pure function of (seed, inputs): episodes enumerate
    planner actions and tool programs come from a template. The seed only
    feeds provenance strings and plan ids, never control flow, so replays
    are stable.
    """

    def __init__(self, seed: int = 0, *, max_steps: int = 64):
        self.seed = seed
        self.max_steps = max_steps

    def detect_verb(self, text: str) -> str | None:
        lowered = text.lower()
        for stem, capability in VERB_STEMS:
            if stem in lowered:
                return capability
        return None

    def episode(self, capability: str, streams: list[str]) -> list[PlannerAction]:
        """Enumerate the reasoning steps for one decomposition."""
        actions = [
            PlannerAction("emit-task", {"kind": "ingest", "source": s})
            for s in streams
        ]
        actions.append(
            PlannerAction("emit-task", {"kind": "infer", "capability": capability})
        )
        if len(streams) >= 2:
            actions.append(PlannerAction("emit-task", {"kind": "aggregate"}))
        actions.append(PlannerAction("emit-subscription", {}))
        actions.append(PlannerAction("finish", {}))
        if len(actions) > self.max_steps:
            raise PlanningFailed(
                f"episode needs {len(actions)} steps, budget is {self.max_steps}"
            )
        return actions

    def emit_tool_program(self, target_node: str, purpose: str) -> str:
        return "\n".join(
            [
                f"# tool for {purpose}",
                f"limit {target_node} {ADMISSION_KNOB} 0 1",
                f"scale {target_node} {ADMISSION_KNOB} 9/10",
            ]
        )


@dataclass
class PlanResult:
    status: str  # Completed | Failed
    per_task: dict
    final_payload: bytes | None = None


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:12]


class TaskBroker:
    """Decomposes intents into plans and drives them over the fabric."""

    def __init__(
        self,
        fabric: Fabric,
        registry: ModelRegistry,
        *,
        guard: Guard | None = None,
        planner: MockPlanner | None = None,
    ):
        self._fabric = fabric
        self._registry = registry
        self._guard = guard
        self.planner = planner if planner is not None else MockPlanner()
        self.plans: dict[str, TaskPlan] = {}
        # structural hash -> accepted tool program
        self.catalog: dict[str, GuardedProgram] = {}
        self.tool_invariants: tuple[NamedInvariant, ...] = (
            min_total_throughput(Fraction(0)),
        )

    def attach(self) -> None:
        """Plan automatically whenever an inference subscription lands."""
        self._fabric.on_inference_subscription = self.plan_for_subscription

    # -- planning ----------------------------------------------------------

    def _streams_from(self, intent: Intent) -> list[str]:
        declared = intent.constraints.get("streams")
        if declared:
            tokens = [s.strip() for s in declared.split(",") if s.strip()]
        else:
            tokens = _STREAM_TOKEN.findall(intent.text.lower())
        streams: list[str] = []
        for token in tokens:
            if token not in streams:
                streams.append(token)
        if not streams:
            raise PlanningFailed("intent names no data streams")
        for stream in streams:
            if not self._fabric.has_topic(stream):
                raise PlanningFailed(f"unknown stream {stream}")
        return streams

    def decompose_intent(self, intent: Intent) -> TaskPlan:
        capability = self.planner.detect_verb(intent.text)
        if capability is None:
            raise PlanningFailed("intent carries no actionable verb")
        streams = self._streams_from(intent)
        actions = self.planner.episode(capability, streams)
        model = next(
            self._registry.walk_by_capability({capability}, intent.target_domain), None
        )
        if model is None:
            raise NoEligibleModel(f"no registered model offers {capability}")

        seed = self.planner.seed
        digest_input = f"{seed}|{intent.text}|{intent.issuer}|{','.join(streams)}"
        plan_id = "plan-" + hashlib.sha256(digest_input.encode("utf-8")).hexdigest()[:12]
        result_topic = f"plans/{plan_id}/result"

        tasks: list[Task] = []
        ingest_ids: list[str] = []
        counter = 0
        for action in actions:
            if action.action != "emit-task":
                continue
            counter += 1
            task_id = f"t{counter}"
            kind = action.payload["kind"]
            if kind == "ingest":
                tasks.append(
                    Task(task_id, TaskKind.INGEST,
                         inputs=(f"stream:{action.payload['source']}",))
                )
                ingest_ids.append(task_id)
            elif kind == "infer":
                tasks.append(
                    Task(
                        task_id,
                        TaskKind.INFER,
                        inputs=tuple(ingest_ids),
                        capability=capability,
                        assigned_model=model.model_id,
                    )
                )
            elif kind == "aggregate":
                tasks.append(Task(task_id, TaskKind.AGGREGATE, inputs=(tasks[-1].task_id,)))

        self._fabric.create_topic(result_topic)
        sub_id = self._fabric.subscribe(
            Subscription(
                selector=Selector.parse(result_topic),
                subscriber_node=intent.issuer,
                mode=SubscriptionMode.DURABLE,
                kind=SubscriptionKind.DATA,
            )
        )
        plan = TaskPlan(
            plan_id=plan_id,
            tasks=tuple(tasks),
            subscriptions=(sub_id,),
            provenance=f"mock-planner seed={seed} steps={len(actions)}",
            result_topic=result_topic,
            issuer=intent.issuer,
            domain_hint=intent.target_domain,
        )
        validate_plan(plan)
        self.plans[plan_id] = plan
        self._fabric.audit(AuditOp.PLAN, actor=intent.issuer, model_id=model.model_id)
        return plan

    def plan_for_subscription(self, subscription: Subscription) -> TaskPlan:
        """Treat a semantics-bearing subscription as an intent."""
        prompt = subscription.params.get("prompt")
        if not prompt:
            raise PlanningFailed("inference subscription carries no prompt")
        pattern = Selector(subscription.selector.topic_pattern, ())
        streams = [t for t in self._fabric.topics() if pattern.matches(t, {})]
        if not streams:
            raise PlanningFailed("selector matches no streams")
        intent = Intent(
            text=prompt,
            issuer=subscription.subscriber_node,
            target_domain=subscription.params.get("domain"),
            constraints={"streams": ",".join(sorted(streams))},
        )
        return self.decompose_intent(intent)

    # -- execution -----------------------------------------------------------

    def execute_plan(self, plan: TaskPlan, *, settle=None) -> PlanResult:
        """Run tasks in order; `settle` advances the world between polls."""
        validate_plan(plan)
        outputs: dict[str, bytes] = {}
        outcomes: dict[str, str] = {}

        def fail(task_id: str, cause: str) -> TaskFailed:
            outcomes[task_id] = f"error({cause})"
            partial = PlanResult(status="Failed", per_task=dict(outcomes))
            return TaskFailed(task_id, cause, result=partial)

        self._fabric.create_topic(plan.result_topic)
        last_payload = b""
        for task in plan.tasks:
            resolved: list[bytes] = []
            for ref in task.inputs:
                if ref.startswith("stream:"):
                    topic = ref[len("stream:"):]
                    envelope = self._fabric.last_envelope(topic)
                    if envelope is None:
                        raise fail(task.task_id, f"no data on stream {topic}")
                    resolved.append(envelope.payload)
                else:
                    if ref not in outputs:
                        raise fail(task.task_id, f"missing upstream {ref}")
                    resolved.append(outputs[ref])

            if task.kind is TaskKind.INGEST:
                output = resolved[0]
            elif task.kind is TaskKind.INFER:
                output = self._run_infer(plan, task, resolved, settle, fail)
            elif task.kind is TaskKind.AGGREGATE:
                output = json.dumps(
                    {
                        "combined": {ref: _digest(outputs[ref]) for ref in task.inputs},
                        "count": len(task.inputs),
                    },
                    sort_keys=True,
                ).encode("utf-8")
            elif task.kind is TaskKind.TOOL_INVOKE:
                output = self._run_tool(task, fail)
            else:  # pragma: no cover - TaskKind is closed
                raise fail(task.task_id, f"unsupported kind {task.kind}")
            outputs[task.task_id] = output
            outcomes[task.task_id] = "ok"
            last_payload = output

        self._fabric.publish(
            self._fabric.envelope(
                plan.result_topic,
                last_payload,
                kind=KIND_INFERENCE_RESULT,
                session=plan.plan_id,
                origin="broker",
                detail=f"result {plan.plan_id}",
            )
        )
        self._fabric.audit(AuditOp.EXECUTE, actor=plan.issuer)
        return PlanResult(
            status="Completed",
            per_task=dict(outcomes),
            final_payload=last_payload,
        )

    def _run_infer(self, plan, task, resolved, settle, fail) -> bytes:
        request = json.dumps(
            {
                "plan": plan.plan_id,
                "task": task.task_id,
                "inputs": {
                    ref: _digest(payload)
                    for ref, payload in zip(task.inputs, resolved)
                },
            },
            sort_keys=True,
        ).encode("utf-8")
        work_topic = f"plans/{plan.plan_id}/work"
        self._fabric.create_topic(work_topic)
        carrier = self._fabric.envelope(
            work_topic,
            request,
            kind=KIND_DATA,
            session=plan.plan_id,
            origin=plan.issuer,
        )
        session_meta = {"session": plan.plan_id}
        if task.capability:
            session_meta["capability"] = task.capability
        if plan.domain_hint:
            session_meta["domain"] = plan.domain_hint
        token = self._fabric.participate_inference(carrier, session_meta)
        budget = _SETTLE_BUDGET
        while token.state is TokenState.PENDING and settle is not None and budget > 0:
            settle()
            budget -= 1
        if token.state is TokenState.PENDING:
            token.fail("no reply within settle budget")
        if token.state is TokenState.FAILED:
            raise fail(task.task_id, token.failure or "inference failed")
        return token.result.payload

    def _run_tool(self, task, fail) -> bytes:
        """Find the task's program in the catalog or synthesize it, then run it."""
        if self._guard is None:
            raise fail(task.task_id, "no deployment guard attached")
        target = task.params.get("target-node")
        if not target:
            raise fail(task.task_id, "tool task needs a target-node param")
        purpose = task.capability or task.params.get("signature") or "tool"
        source = self.planner.emit_tool_program(target, purpose)
        key = structural_hash(source)
        program = self.catalog.get(key)
        synthesized = program is None
        if synthesized:
            program = GuardedProgram(
                program_id=f"prog-{key[:8]}",
                source=source,
                declared_effects=(ADMISSION_KNOB,),
                author=f"planner-{self.planner.seed}",
            )
        verdict = self._guard.sandbox_run(program, self.tool_invariants)
        if not verdict.accepted:
            raise fail(task.task_id, f"tool rejected: {verdict.reason}")
        tool_id = f"tool-{key[:8]}"
        if synthesized:
            self.catalog[key] = program
            self._fabric.create_topic("broker/insights")
            self._fabric.publish(
                self._fabric.envelope(
                    "broker/insights",
                    f"tool {tool_id} for {purpose}",
                    kind=KIND_DATA,
                    session="broker",
                    origin="broker",
                    detail=f"tool {tool_id} ready",
                )
            )
        deltas = {k: str(v) for k, v in sorted(verdict.metric_deltas.items())}
        return json.dumps(
            {"tool": tool_id, "deltas": deltas}, sort_keys=True
        ).encode("utf-8")
