"""Which public functions the traced run wraps, and the per-layer figures.

Span names are `<layer>.<function>`; the layer is the module under
`src/interconnect/` the function belongs to. Functions the benchmark calls
as plain module functions are wrapped in `workloads`, where the benchmark
looks them up.
"""

from __future__ import annotations

import statistics
from weakref import WeakKeyDictionary

from interconnect import (
    Fabric,
    Guard,
    KnowledgeBase,
    MapeKLoop,
    ModelRegistry,
    Negotiator,
    Phase,
    SimWorld,
    TaskBroker,
    TokenState,
    Trace,
)

import workloads
from spans import self_times

LAYERS = ("fabric", "registry", "negotiation", "broker", "simnet", "mapek", "guard", "trace",
          "scenarios")

# (owner, attribute, span name)
SPANS = (
    (Fabric, "publish", "fabric.publish"),
    (Fabric, "audit", "fabric.audit"),
    (Fabric, "drain", "fabric.drain"),
    (Fabric, "subscribe", "fabric.subscribe"),
    (Fabric, "unsubscribe", "fabric.unsubscribe"),
    (Fabric, "participate_inference", "fabric.participate_inference"),
    (Fabric, "participate_learning", "fabric.participate_learning"),
    (ModelRegistry, "query_by_capability", "registry.query_by_capability"),
    (ModelRegistry, "register", "registry.register"),
    (ModelRegistry, "bump_version", "registry.bump_version"),
    (ModelRegistry, "contribute_learning", "registry.contribute_learning"),
    (ModelRegistry, "get", "registry.get"),
    (workloads, "parse_descriptor", "registry.parse_descriptor"),
    (Negotiator, "open_session", "negotiation.open_session"),
    (Negotiator, "run_to_completion", "negotiation.run_to_completion"),
    (TaskBroker, "decompose_intent", "broker.decompose_intent"),
    (TaskBroker, "execute_plan", "broker.execute_plan"),
    (SimWorld, "spawn_node", "simnet.spawn_node"),
    (SimWorld, "step", "simnet.step"),
    (SimWorld, "snapshot", "simnet.snapshot"),
    (SimWorld, "restore", "simnet.restore"),
    (MapeKLoop, "run_loop", "mapek.run_loop"),
    (MapeKLoop, "monitor", "mapek.monitor"),
    (MapeKLoop, "analyze", "mapek.analyze"),
    (MapeKLoop, "plan", "mapek.plan"),
    (MapeKLoop, "execute", "mapek.execute"),
    (KnowledgeBase, "series", "mapek.series"),
    (Guard, "sandbox_run", "guard.sandbox_run"),
    (Guard, "deploy", "guard.deploy"),
    (Guard, "rollback", "guard.rollback"),
    (Guard, "consensus_check", "guard.consensus_check"),
    (workloads, "parse_trace", "trace.parse_trace"),
    (workloads, "compare_traces", "trace.compare_traces"),
    # Trace.render and compare_traces both render records through Trace.lines.
    (Trace, "lines", "trace.render"),
    (workloads, "run_scenario", "scenarios.run_scenario"),
)

# Per-function figures reported as `<span>.calls` and `<span>.self_us`.
CALLS = ("fabric.publish", "fabric.audit", "fabric.drain", "registry.query_by_capability",
         "registry.bump_version", "negotiation.run_to_completion", "simnet.step")
SELF_US = ("fabric.publish", "fabric.audit", "registry.query_by_capability",
           "registry.register", "registry.bump_version", "negotiation.run_to_completion",
           "broker.decompose_intent", "broker.execute_plan", "simnet.step",
           "simnet.snapshot", "simnet.restore", "mapek.monitor", "mapek.analyze",
           "mapek.plan", "mapek.execute", "mapek.series", "guard.sandbox_run",
           "guard.deploy", "guard.rollback", "guard.consensus_check", "trace.parse_trace",
           "trace.compare_traces", "trace.render", "scenarios.run_scenario")

FIGURE_UNITS = {
    "fabric.deliveries": "count",
    "fabric.match_ratio": "1",
    "fabric.mailbox_max": "count",
    "fabric.tokens.failed": "count",
    "fabric.journal_records": "count",
    "registry.query.selectivity": "1",
    "registry.models": "count",
    "negotiation.agreed_ratio": "1",
    "broker.settle_polls_per_plan": "poll/plan",
    "broker.plans_completed_ratio": "1",
    "simnet.nodes": "count",
    "mapek.knowledge_records": "count",
    "mapek.held_ratio": "1",
    "guard.accept_ratio": "1",
    "trace.lines_compared": "count",
}


class Probes:
    """Counts taken at the wrapped boundaries during one traced episode."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.mailbox_max = 0
        self.tokens: list = []
        self.query_matches = 0
        self.query_models = 0
        self.sessions = self.agreed = 0
        self.plans_completed = 0
        self.executions = self.held = 0
        self.verdicts = self.accepted = 0
        self.lines_compared = 0
        self.nodes: WeakKeyDictionary = WeakKeyDictionary()
        self.models: WeakKeyDictionary = WeakKeyDictionary()
        self.max_nodes = self.max_models = 0

    def drain(self, args, result) -> None:
        self.mailbox_max = max(self.mailbox_max, len(result))

    def token(self, args, result) -> None:
        self.tokens.append(result)

    def query(self, args, result) -> None:
        self.query_matches += len(result)
        self.query_models += len(self.models.get(args[0], ()))

    def register(self, args, result) -> None:
        ids = self.models.setdefault(args[0], set())
        ids.add(result)
        self.max_models = max(self.max_models, len(ids))

    def spawn(self, args, result) -> None:
        world = args[0]
        self.nodes[world] = self.nodes.get(world, 0) + 1
        self.max_nodes = max(self.max_nodes, self.nodes[world])

    def negotiated(self, args, result) -> None:
        self.sessions += 1
        self.agreed += result.phase is Phase.AGREED

    def plan_done(self, args, result) -> None:
        self.plans_completed += result.status == "Completed"

    def executed(self, args, result) -> None:
        self.executions += 1
        self.held += result.effect_held

    def verdict(self, args, result) -> None:
        self.verdicts += 1
        self.accepted += result.accepted

    def compared(self, args, result) -> None:
        self.lines_compared += len(args[0].events) + len(args[1].events)

    def tokens_failed(self) -> int:
        return sum(t.state is TokenState.FAILED for t in self.tokens)


def install(tracer, probes: Probes) -> None:
    observers = {
        "fabric.drain": probes.drain,
        "fabric.participate_inference": probes.token,
        "fabric.participate_learning": probes.token,
        "registry.query_by_capability": probes.query,
        "registry.register": probes.register,
        "simnet.spawn_node": probes.spawn,
        "negotiation.run_to_completion": probes.negotiated,
        "broker.execute_plan": probes.plan_done,
        "mapek.execute": probes.executed,
        "guard.sandbox_run": probes.verdict,
        "trace.compare_traces": probes.compared,
    }
    for owner, attr, name in SPANS:
        tracer.wrap(owner, attr, name, observers.get(name))


def decile_growth(values: list[float]) -> float:
    """Mean of the last tenth of a series divided by the mean of the first."""
    k = max(1, len(values) // 10)
    first = sum(values[:k]) / k
    return sum(values[-k:]) / k / first if first else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class EpisodeFold:
    """Per-layer figures of one traced episode, folded from its spans."""

    def __init__(self, tracer, probes: Probes, episode: dict, op_count: int):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.layer_ns = dict.fromkeys(LAYERS, 0)
        series_ns = [0] * op_count
        for (name, _start, _end, _parent, op_id), own in zip(tracer.spans,
                                                            self_times(tracer.spans)):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            if op_id is None:
                continue
            self.layer_ns[name.split(".", 1)[0]] += own
            if name == "mapek.series":
                series_ns[op_id] += own
        self.series_growth = decile_growth(series_ns) if any(series_ns) else 0.0
        self.op_ns = sum(episode["op_ns"])
        counters, gauges = episode["counters"], episode["gauges"]
        calls = self.calls
        self.figures = {
            "fabric.deliveries": counters.get("deliveries", 0),
            "fabric.match_ratio": ratio(counters.get("deliveries", 0),
                                        counters.get("scanned", 0)),
            "fabric.mailbox_max": probes.mailbox_max,
            "fabric.tokens.failed": probes.tokens_failed(),
            "fabric.journal_records": gauges.get("fabric.journal_records", 0),
            "registry.query.selectivity": ratio(probes.query_matches, probes.query_models),
            "registry.models": probes.max_models,
            "negotiation.agreed_ratio": ratio(probes.agreed, probes.sessions),
            "broker.settle_polls_per_plan": ratio(counters.get("settle_polls", 0),
                                                  counters.get("plans", 0)),
            "broker.plans_completed_ratio": ratio(probes.plans_completed,
                                                  calls.get("broker.execute_plan", 0)),
            "simnet.nodes": probes.max_nodes,
            "mapek.knowledge_records": gauges.get("mapek.knowledge_records", 0),
            "mapek.held_ratio": ratio(probes.held, probes.executions),
            "guard.accept_ratio": ratio(probes.accepted, probes.verdicts),
            "trace.lines_compared": probes.lines_compared,
        }


def per_layer_metrics(folds: list[EpisodeFold], untraced_op_ns: list[list[int]]) -> dict:
    """Every per-layer metric from the traced episodes of one run.

    Counts and ratios come from the first traced episode (every episode of a
    seed does the same work); self times are means over all traced calls;
    growth figures are medians over episodes.
    """
    first = folds[0]
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for fold in folds:
        for name, n in fold.calls.items():
            calls[name] = calls.get(name, 0) + n
            self_ns[name] = self_ns.get(name, 0) + fold.self_ns[name]
    op_ns = sum(f.op_ns for f in folds)
    out: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        out[f"{name}.calls"] = (first.calls.get(name, 0), "count")
    for name in SELF_US:
        out[f"{name}.self_us"] = (ratio(self_ns.get(name, 0), calls.get(name, 0)) / 1000, "us")
    for name, value in first.figures.items():
        out[name] = (value, FIGURE_UNITS[name])
    for layer in LAYERS:
        share = ratio(sum(f.layer_ns[layer] for f in folds), op_ns)
        out[f"{layer}.self_share"] = (share, "1")
    out["mapek.round_growth"] = (
        statistics.median(decile_growth(ns) for ns in untraced_op_ns), "1")
    out["mapek.series_growth"] = (statistics.median(f.series_growth for f in folds), "1")
    untraced = sum(sum(ns) for ns in untraced_op_ns[: len(folds)])
    out["trace_overhead_ratio"] = (ratio(sum(f.op_ns for f in folds), untraced), "1")
    return out
