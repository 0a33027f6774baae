"""The four benchmark workloads.

Each workload turns a seed into plain input data once (`__init__`), then
replays the same inputs in episodes: `setup()` builds a fresh fabric, world,
registry and subscriptions, `op(i, clock)` runs one closed-loop request from
a single client, and `finish()` returns the episode's exact simulated
counters plus a sha256 of its fabric journal. Every episode of one seed does
the same simulated work, so the counters and the journal hash must repeat
exactly; the runner checks that.

Checks run inside `clock.untimed()` so they are not charged to the op. A
failed check raises `CheckFailed`.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from importlib import resources

import interconnect
from interconnect import (
    ADMISSION_KNOB,
    RATE_LIMIT_KNOB,
    Fabric,
    GuardedProgram,
    Guard,
    Intent,
    LoadModel,
    MapeKLoop,
    MockPlanner,
    ModelRegistry,
    Negotiator,
    NodeKind,
    Phase,
    SchemaMapping,
    Selector,
    SimWorld,
    Subscription,
    SubscriptionMode,
    TaskBroker,
    TokenState,
    knob_within,
)
from interconnect.errors import TaskFailed
from interconnect.fabric import KIND_CONTROL, KIND_DATA, AuditOp

# Looked up through this module at call time, so a tracer can replace them
# here (the names the benchmark calls) without touching the package.
parse_descriptor = interconnect.parse_descriptor
parse_trace = interconnect.parse_trace
compare_traces = interconnect.compare_traces
run_scenario = interconnect.run_scenario

DEFAULT_SEED = 1
HELD_OUT_SEED = 2311


class CheckFailed(Exception):
    """A workload output disagreed with what the inputs require."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def journal_sha256(fabric: Fabric) -> str:
    return hashlib.sha256(fabric.journal.render().encode("utf-8")).hexdigest()


def audit_counts(fabric: Fabric) -> dict[str, int]:
    """Publishes, deliveries and the publish x live-subscription product,
    read back from the audit log."""
    live = publishes = deliveries = scanned = 0
    for record in fabric.audit_log.records():
        if record.op is AuditOp.SUBSCRIBE:
            live += 1
        elif record.op is AuditOp.UNSUBSCRIBE:
            live -= 1
        elif record.op is AuditOp.PUBLISH:
            publishes += 1
            scanned += live
        elif record.op is AuditOp.DELIVER:
            deliveries += 1
    return {"publishes": publishes, "deliveries": deliveries, "scanned": scanned}


class Workload:
    """Shared episode bookkeeping; subclasses fill in the four hooks."""

    name = ""
    ops_per_episode = 0

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, clock) -> None:
        raise NotImplementedError

    def finish(self) -> dict:
        """Counters, gauges and journal hash of the episode just run."""
        audit = audit_counts(self.fabric)
        counters = dict(sorted({**self.counters, **audit}.items()))
        return {
            "counters": counters,
            "gauges": self.gauges(),
            "trace_sha256": journal_sha256(self.fabric),
        }

    def gauges(self) -> dict[str, float]:
        return {"fabric.journal_records": len(self.fabric.journal.events)}

    def teardown(self) -> None:
        """Drop everything setup() and the ops built, keeping the inputs."""
        for key in list(vars(self)):
            if key not in ("inputs", "ops_per_episode"):
                delattr(self, key)
        self.counters = {}


# -- telemetry-fanout ------------------------------------------------------------


class TelemetryFanout(Workload):
    """32 load nodes stepped a tick at a time under about 1,000 subscriptions.

    Each telemetry publish matches 8 exact subscribers, one origin-node
    predicate subscriber and 8 `telemetry/**` collectors; about 670
    subscribers on `stats/area-<k>/**` are scanned and never hit. One op is
    `SimWorld.step(1)` plus a drain of every benchmark subscription.
    """

    name = "telemetry-fanout"
    NODES = 32
    EXACT_PER_NODE = 8
    COLLECTORS = 8
    STATS_SUBSCRIBERS = 670
    STATS_AREAS = 64

    def __init__(self, seed: int, small: bool = False):
        super().__init__()
        rng = random.Random(f"{self.name}:{seed}")
        nodes = 4 if small else self.NODES
        node_ids = [f"load-{k:02d}" for k in range(nodes)]
        jittered = set(rng.sample(node_ids, nodes // 2))
        self.inputs = {
            "world_seed": rng.randrange(2**31),
            "nodes": [
                (nid, Fraction(rng.randint(20, 95), 100), nid in jittered) for nid in node_ids
            ],
            "exact_per_node": 2 if small else self.EXACT_PER_NODE,
            "collectors": 2 if small else self.COLLECTORS,
            "stats_areas": [
                rng.randrange(self.STATS_AREAS)
                for _ in range(20 if small else self.STATS_SUBSCRIBERS)
            ],
        }
        self.ops_per_episode = 12 if small else 50

    def setup(self) -> None:
        inputs = self.inputs
        fabric = self.fabric = Fabric()
        world = self.world = SimWorld(fabric, seed=inputs["world_seed"])
        for node_id, offered, jitter in inputs["nodes"]:
            world.spawn_node(
                node_id, NodeKind.RIC, load=LoadModel(offered_load=offered), jitter=jitter
            )
        n_nodes = len(inputs["nodes"])
        # (subscription id, expected envelopes per tick, origin it must carry)
        self.subs: list[tuple[str, int, str | None]] = []

        def add(subscriber: str, selector: str, per_tick: int, origin: str | None) -> None:
            fabric.register_node(subscriber)
            sub_id = fabric.subscribe(
                Subscription(selector=Selector.parse(selector), subscriber_node=subscriber)
            )
            self.subs.append((sub_id, per_tick, origin))

        for node_id, _, _ in inputs["nodes"]:
            for k in range(inputs["exact_per_node"]):
                add(f"watch-{k}", f"telemetry/{node_id}/load", 1, node_id)
            add(f"alarm-{node_id}", f"telemetry/*/load origin-node={node_id}", 1, node_id)
        for k in range(inputs["collectors"]):
            add(f"collector-{k}", "telemetry/**", n_nodes, None)
        for k, area in enumerate(inputs["stats_areas"]):
            add(f"stats-{k % 16}", f"stats/area-{area}/**", 0, None)
        self.last_time = {sub_id: 0 for sub_id, _, _ in self.subs}

    def op(self, i: int, clock) -> None:
        fabric = self.fabric
        self.world.step(1)
        batches = [fabric.drain(sub_id) for sub_id, _, _ in self.subs]
        with clock.untimed():
            for (sub_id, per_tick, origin), batch in zip(self.subs, batches):
                check(len(batch) == per_tick, f"{sub_id} drained {len(batch)}, want {per_tick}")
                last = self.last_time[sub_id]
                for envelope in batch:
                    check(envelope.logical_time > last, f"{sub_id} out of logical-time order")
                    last = envelope.logical_time
                    if origin is not None:
                        check(
                            envelope.metadata["origin-node"] == origin,
                            f"{sub_id} got telemetry from another node",
                        )
                self.last_time[sub_id] = last
            self.count("drained", sum(len(b) for b in batches))


# -- autonomic-control -----------------------------------------------------------


class AutonomicControl(Workload):
    """Eight congested nodes under a MAPE-K loop with a competing controller.

    One op is `run_loop(max_iterations=1)`. When analysis comes back clean a
    seeded surge resets one node's admission. The competing controller
    watches a quarter of the nodes and, on a seeded half of the adaptations
    that touch them, shifts load onto the adapted node during the settle
    window, so the loop sees no effect and rolls back.
    """

    name = "autonomic-control"
    NODES = 8
    WINDOW = 10
    KNOB_STEP = Fraction(19, 20)

    def __init__(self, seed: int, small: bool = False):
        super().__init__()
        rng = random.Random(f"{self.name}:{seed}")
        node_ids = [f"cell-{k}" for k in range(self.NODES)]
        self.inputs = {
            "world_seed": rng.randrange(2**31),
            "loads": {nid: Fraction(rng.randint(81, 99), 100) for nid in node_ids},
            "watched": sorted(rng.sample(node_ids, self.NODES // 4)),
            "rival_seed": rng.randrange(2**31),
            "surge_seed": rng.randrange(2**31),
        }
        self.ops_per_episode = 8 if small else 150

    def setup(self) -> None:
        inputs = self.inputs
        fabric = self.fabric = Fabric()
        world = self.world = SimWorld(fabric, seed=inputs["world_seed"])
        for node_id, offered in inputs["loads"].items():
            world.spawn_node(
                node_id,
                NodeKind.RIC,
                knobs={ADMISSION_KNOB: Fraction(1)},
                load=LoadModel(offered_load=offered),
            )
        self.loop = MapeKLoop(fabric, world, window=self.WINDOW, knob_step=self.KNOB_STEP)
        self.rival_rng = random.Random(inputs["rival_seed"])
        self.surge_rng = random.Random(inputs["surge_seed"])
        fabric.register_node("rival")
        fabric.register_node("surge")
        for node_id in inputs["watched"]:
            fabric.subscribe(
                Subscription(
                    selector=Selector.parse(f"managed/{node_id}/knobs origin-node=mapek"),
                    subscriber_node="rival",
                ),
                handler=lambda env, nid=node_id: self._compete(nid),
            )

    def _compete(self, target: str) -> None:
        """Competing controller: on a seeded half of the adaptations of a
        watched node, pull load onto it from an unwatched node."""
        if self.rival_rng.random() < 0.5:
            sources = [n for n in self.inputs["loads"] if n not in self.inputs["watched"]]
            source = self.rival_rng.choice(sources)
            self.world.state.shift_load(source, target, Fraction(1, 4))
            self.count("rival_shifts")

    def op(self, i: int, clock) -> None:
        world = self.world
        with clock.untimed():
            config_before = world.config_hash()
        report = self.loop.run_loop(max_iterations=1)
        with clock.untimed():
            self.count("iterations", report.iterations)
            self.count("adaptations", report.adaptations)
            for execution in report.reports:
                if execution.rolled_back:
                    self.count("rollbacks")
                    check(
                        world.config_hash() == config_before,
                        f"{execution.plan_id} rollback did not restore the config",
                    )
                else:
                    self.count("held")
            for node_id, node in world.state.nodes.items():
                for knob, value in node.knobs.items():
                    lo, hi = node.knob_ranges[knob]
                    check(lo <= value <= hi, f"{node_id}.{knob}={value} outside [{lo},{hi}]")
        if report.converged:
            self.count("converged")
            target = self.surge_rng.choice(sorted(self.inputs["loads"]))
            self.fabric.publish(
                self.fabric.envelope(
                    f"managed/{target}/knobs",
                    f"{ADMISSION_KNOB}=1",
                    kind=KIND_CONTROL,
                    session="surge",
                    origin="surge",
                    detail=f"surge {target}",
                )
            )

    def gauges(self) -> dict[str, float]:
        return {**super().gauges(), "mapek.knowledge_records": len(self.loop.knowledge)}


# -- intent-serving --------------------------------------------------------------

VERBS = ("compare", "summarize", "optimize", "predict")
CAPABILITY_VOCABULARY = VERBS + tuple(
    f"{stem}-{facet}"
    for stem in ("detect", "classify", "forecast", "localize", "rank")
    for facet in ("load", "drift", "fault", "energy", "mobility", "latency", "signal", "yield")
)
MODEL_TYPES = ("analytics", "control", "forecast")
DOMAINS = ("traffic", "energy", "agriculture", "security")
SCALE_UNITS = (("fraction", 1), ("percent", 100), ("permille", 1000))
REQUEST_MIX = (("intent", 0.5), ("learn", 0.2), ("negotiate", 0.15), ("codegen", 0.15))


def exact_share(rng: random.Random, n: int, share: float) -> set[int]:
    """A seeded choice of exactly round(share * n) of the indices 0..n-1."""
    return set(rng.sample(range(n), round(share * n)))


def descriptor_document(
    model_id: str, model_type: str, major: int, capabilities: list[dict], domains: list[str],
    latency: int,
) -> str:
    return json.dumps(
        {
            "modelId": model_id,
            "modelType": model_type,
            "version": f"{major}.0.0",
            "category": "Specialized",
            "architecture": {"family": "transformer", "parameterScaleLabel": "small"},
            "hyperparameters": {"context": 128},
            "capabilities": capabilities,
            "domains": domains,
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
        },
        sort_keys=True,
    )


class IntentServing(Workload):
    """One client sending a seeded mix of requests to a large registry.

    Mix, exact and shuffled: 50 % intents (decompose, execute with
    `world.step(1)` as settle, drain and unsubscribe the result), 20 %
    learning contributions skewed to a few popular models, 15 % negotiations
    between a random model and a random peer sharing a capability with it, 15 %
    codegen (three-candidate consensus, sandbox with an invariant, deploy,
    rollback). A seeded share of intents goes to a host primed to fail.
    """

    name = "intent-serving"
    MODELS = 1000
    HOSTED = 200
    HOSTS = 8
    RAN_NODES = 50
    STREAMS = 16
    POPULAR = 8

    def __init__(self, seed: int, small: bool = False):
        super().__init__()
        rng = random.Random(f"{self.name}:{seed}")
        n_models = 40 if small else self.MODELS
        n_hosted = 12 if small else self.HOSTED
        model_ids = [f"m-{k:04d}" for k in range(n_models)]
        hosted = set(rng.sample(model_ids, n_hosted))
        documents = []
        hosted_order = []
        names_of: dict[str, set[str]] = {}
        for model_id in model_ids:
            names = rng.sample(CAPABILITY_VOCABULARY, rng.randint(1, 5))
            if model_id in hosted:
                # Every verb an intent can name has hosted models to serve it.
                verb = VERBS[len(hosted_order) % len(VERBS)]
                hosted_order.append(model_id)
                if verb not in names:
                    names[0] = verb
            names_of[model_id] = set(names)
            capabilities = [{"name": n, "params": {}} for n in names]
            if rng.random() < 0.3:
                unit, top = rng.choice(SCALE_UNITS)
                lo = rng.randint(0, top // 2)
                capabilities[rng.randrange(len(capabilities))]["params"]["scale"] = (
                    f"{unit}:{lo}..{rng.randint(lo + 1, top)}"
                )
            documents.append(
                descriptor_document(
                    model_id,
                    rng.choice(MODEL_TYPES),
                    rng.randint(1, 3),
                    capabilities,
                    rng.sample(DOMAINS, rng.randint(1, 2)),
                    rng.randint(1, 8),
                )
            )
        n_hosts = 2 if small else self.HOSTS
        streams = [f"feeds/stream-{k:02d}/data" for k in range(4 if small else self.STREAMS)]
        ran_nodes = [f"ran-{k:02d}" for k in range(6 if small else self.RAN_NODES)]
        popular = rng.sample(model_ids, self.POPULAR)
        n_ops = 20 if small else 200
        # Exact shares, shuffled, so every seed asks for the same mix of work.
        kinds = [kind for kind, share in REQUEST_MIX for _ in range(round(share * n_ops))]
        rng.shuffle(kinds)
        faulty = exact_share(rng, kinds.count("intent"), 0.1)
        bad = exact_share(rng, kinds.count("codegen"), 0.2)
        off_list = exact_share(rng, kinds.count("learn"), 0.2)
        seen = dict.fromkeys(kinds, 0)
        requests = []
        for i, kind in enumerate(kinds):
            k = seen[kind]
            seen[kind] += 1
            if kind == "intent":
                picked = rng.sample(streams, rng.randint(1, 3))
                verb = rng.choice(VERBS)
                requests.append(
                    {
                        "kind": "intent",
                        "text": f"{verb} activity across {' and '.join(picked)} (request {i})",
                        "domain": rng.choice(DOMAINS),
                        "verb": verb,
                        "fault": k in faulty,
                    }
                )
            elif kind == "learn":
                model = rng.choice(model_ids if k in off_list else popular)
                requests.append(
                    {"kind": "learn", "model": model, "stream": rng.choice(streams),
                     "reading": f"{rng.randint(1, 99)}/100"}
                )
            elif kind == "negotiate":
                # The second peer shares a capability with the first, so
                # sessions reach scale alignment and the version check.
                a = rng.choice(model_ids)
                others = [m for m in model_ids if m != a]
                b = rng.choice([m for m in others if names_of[m] & names_of[a]] or others)
                requests.append({"kind": "negotiate", "a": a, "b": b})
            else:
                requests.append(
                    {
                        "kind": "codegen",
                        "target": rng.choice(ran_nodes),
                        "factor": f"{rng.randint(5, 9)}/10",
                        "bad": k in bad,
                    }
                )
        self.inputs = {
            "world_seed": rng.randrange(2**31),
            "planner_seed": rng.randrange(1000),
            "documents": documents,
            "hosting": {
                f"host-{h}": tuple(hosted_order[h::n_hosts]) for h in range(n_hosts)
            },
            "streams": streams,
            "ran_nodes": ran_nodes,
            "requests": requests,
        }
        self.ops_per_episode = n_ops

    def setup(self) -> None:
        inputs = self.inputs
        fabric = self.fabric = Fabric()
        world = self.world = SimWorld(fabric, seed=inputs["world_seed"])
        registry = self.registry = ModelRegistry(fabric, update_cycle_len=2)
        for document in inputs["documents"]:
            registry.register(parse_descriptor(document))
        for host, models in inputs["hosting"].items():
            world.spawn_node(host, NodeKind.MODEL_HOST, hosted_models=models)
        for node_id in inputs["ran_nodes"]:
            world.spawn_node(
                node_id,
                NodeKind.RIC,
                knobs={ADMISSION_KNOB: Fraction(1), RATE_LIMIT_KNOB: Fraction(100)},
            )
        fabric.register_node("client")
        for stream in inputs["streams"]:
            fabric.create_topic(stream)
            fabric.publish(
                fabric.envelope(stream, "0/1", kind=KIND_DATA, session="seed", origin="client")
            )
        self.negotiator = Negotiator(fabric)
        for model_type in MODEL_TYPES:
            self.negotiator.register_schema_mapping(
                SchemaMapping(model_type, 1, 2, field_renames={"load": "load-ratio"},
                              defaults_for_new_fields={"unit": "fraction"},
                              source_fields=("load", "cell"))
            )
            self.negotiator.register_schema_mapping(
                SchemaMapping(model_type, 2, 3, field_renames={"cell": "cell-id"},
                              source_fields=("load-ratio", "cell", "unit"))
            )
        self.guard = Guard(fabric, world)
        self.broker = TaskBroker(
            fabric, registry, guard=self.guard,
            planner=MockPlanner(seed=inputs["planner_seed"]),
        )
        self.serving_host: dict[tuple[str, str], str] = {}
        self.contributions: dict[str, int] = {}
        self.tokens_by_model: dict[str, list] = {}

    def _settle(self) -> None:
        self.count("settle_polls")
        self.world.step(1)

    def _serving_host(self, verb: str, domain: str) -> str:
        """Host that the fabric's model selection will route this intent to."""
        key = (verb, domain)
        if key not in self.serving_host:
            eligible = self.registry.query_by_capability({verb}, domain_hint=domain)
            hosts = [self.fabric.model_host(d.model_id) for d in eligible]
            self.serving_host[key] = next(h for h in hosts if h is not None)
        return self.serving_host[key]

    def op(self, i: int, clock) -> None:
        request = self.inputs["requests"][i]
        getattr(self, f"_{request['kind']}")(i, request, clock)

    def _intent(self, i: int, request: dict, clock) -> None:
        fabric = self.fabric
        if request["fault"]:
            with clock.untimed():
                host = self._serving_host(request["verb"], request["domain"])
                self.world.fail_next_requests(host, 1)
                self.count("faults_injected")
        plan = self.broker.decompose_intent(
            Intent(text=request["text"], issuer="client", target_domain=request["domain"])
        )
        sub_id = plan.subscriptions[0]
        try:
            status = self.broker.execute_plan(plan, settle=self._settle).status
        except TaskFailed:
            status = "Failed"
        results = fabric.drain(sub_id)
        fabric.unsubscribe(sub_id)
        with clock.untimed():
            self.count("plans")
            self.count(f"plans_{status.lower()}")
            want = "Failed" if request["fault"] else "Completed"
            check(status == want, f"request {i}: plan {status}, want {want}")
            want_results = 1 if status == "Completed" else 0
            check(len(results) == want_results, f"request {i}: {len(results)} results")

    def _learn(self, i: int, request: dict, clock) -> None:
        fabric = self.fabric
        model = request["model"]
        envelope = fabric.envelope(
            request["stream"], request["reading"], kind=KIND_DATA,
            session=f"learn-{i}", origin="client", model_id=model,
        )
        fabric.publish(envelope)
        token = fabric.participate_learning(envelope, "refine the next revision")
        with clock.untimed():
            n = self.contributions[model] = self.contributions.get(model, 0) + 1
            pending = self.tokens_by_model.setdefault(model, [])
            pending.append(token)
            self.count("contributions")
            if n % 2 == 0:
                self.count("bumps")
                check(
                    all(t.state is TokenState.NOTIFIED for t in pending),
                    f"request {i}: bump of {model} left a token unsettled",
                )
                pending.clear()
                check(
                    self.registry.get(model).version.patch == n // 2,
                    f"request {i}: {model} has the wrong patch version",
                )
            else:
                check(token.state is TokenState.PENDING, f"request {i}: token settled early")

    def _negotiate(self, i: int, request: dict, clock) -> None:
        a = self.registry.get(request["a"])
        b = self.registry.get(request["b"])
        session = self.negotiator.run_to_completion(self.negotiator.open_session(a, b, "serve"))
        with clock.untimed():
            check(
                session.phase in (Phase.AGREED, Phase.FAILED),
                f"request {i}: session ended in {session.phase.label()}",
            )
            if session.phase is Phase.AGREED:
                self.count("negotiations_agreed")
                check(session.agreed_capabilities, f"request {i}: agreed on nothing")
            else:
                self.count(f"negotiations_failed_{session.failure_reason}")

    def _codegen(self, i: int, request: dict, clock) -> None:
        world, guard = self.world, self.guard
        target = request["target"]
        template = (
            f"limit {target} {ADMISSION_KNOB} 0 1\nscale {target} {ADMISSION_KNOB} "
            + ("0" if request["bad"] else request["factor"])
        )
        candidates = [
            GuardedProgram(f"cg-{i}-a", template, (ADMISSION_KNOB,), "planner-0"),
            GuardedProgram(f"cg-{i}-b", "# reformatted\n" + template.upper(),
                           (ADMISSION_KNOB,), "planner-1"),
            GuardedProgram(f"cg-{i}-c", f"set {target} {ADMISSION_KNOB} 1/2",
                           (ADMISSION_KNOB,), "planner-2"),
        ]
        consensus = guard.consensus_check(candidates)
        with clock.untimed():
            check(consensus.chosen is candidates[0], f"request {i}: consensus picked another")
            live_state, live_config = world.state_hash(), world.config_hash()
        invariant = knob_within(target, ADMISSION_KNOB, Fraction(1, 10), Fraction(1))
        verdict = guard.sandbox_run(consensus.chosen, [invariant])
        with clock.untimed():
            check(world.state_hash() == live_state, f"request {i}: sandbox moved live state")
            check(verdict.accepted is not request["bad"], f"request {i}: wrong verdict")
            self.count("verdicts_accepted" if verdict.accepted else "verdicts_rejected")
        if not verdict.accepted:
            return
        record = guard.deploy(consensus.chosen, target)
        with clock.untimed():
            check(world.config_hash() != live_config, f"request {i}: deploy changed nothing")
        guard.rollback(record.deployment_id)
        with clock.untimed():
            check(world.config_hash() == live_config, f"request {i}: rollback missed config")
            self.count("deploys")



# -- scenario-replay -------------------------------------------------------------

SCENARIO_SEED = 0  # the packaged goldens were recorded at seed 0


class ScenarioReplay(Workload):
    """The ten packaged scenarios, each replayed and diffed against its golden.

    The seed only orders the replays: each round plays all ten in a seeded
    order. One op is one replay plus its `compare_traces`.
    """

    name = "scenario-replay"

    def __init__(self, seed: int, small: bool = False):
        super().__init__()
        rng = random.Random(f"{self.name}:{seed}")
        names = sorted(interconnect.SCENARIOS)
        order = []
        for _ in range(2 if small else 20):
            order.extend(rng.sample(names, len(names)))
        self.inputs = {"order": order}
        self.ops_per_episode = len(order)

    def setup(self) -> None:
        goldens = resources.files("interconnect").joinpath("goldens")
        self.goldens = {
            name: parse_trace(goldens.joinpath(f"{name}.trace").read_text(encoding="utf-8"))
            for name in sorted(set(self.inputs["order"]))
        }
        self.produced = []

    def op(self, i: int, clock) -> None:
        name = self.inputs["order"][i]
        produced = run_scenario(name, seed=SCENARIO_SEED)
        diff = compare_traces(produced, self.goldens[name])
        with clock.untimed():
            check(diff.empty, f"{name} differs from its golden:\n{diff.render()}")
            self.produced.append(produced)
            self.count("lines_compared", len(produced.events) + len(self.goldens[name].events))
            self.count(f"replays_{name}")

    def finish(self) -> dict:
        digest = hashlib.sha256()
        for trace in self.produced:
            digest.update(trace.render().encode("utf-8"))
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": {
                "fabric.journal_records": sum(len(t.events) for t in self.produced),
            },
            "trace_sha256": digest.hexdigest(),
        }


WORKLOADS = {
    w.name: w for w in (TelemetryFanout, AutonomicControl, IntentServing, ScenarioReplay)
}
