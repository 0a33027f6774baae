"""Self-managing control loop over the simulated network.

One loop iteration monitors telemetry into the shared knowledge base,
analyzes windowed means against a congestion threshold, plans multiplicative
knob adjustments for congested nodes, and executes them as control envelopes.
`execute` snapshots the world before it publishes; if the expected effect
(strictly lower windowed mean on every touched node) is not observed after
the settle window, it restores that snapshot, which it then drops.

All arithmetic is exact: loads, thresholds, and severities are Fractions and
windowed means are ints, so convergence counts can be checked against a
symbolic oracle with no tolerance. Severity of a congestion finding is clamp((mean - theta) /
(1 - theta), 0, 1). Knowledge holds only what a stage reads: each monitored
origin's last `window` load readings, so it stays the same size however long
the loop runs. Plans, executions and rollbacks are recorded in the fabric's
audit log. `monitor` folds what it drains from the loop's own subscription;
the fabric hands each envelope over once, so it keeps no record of the ids
it has read. It parses each distinct payload once per batch at most, and not
at all when the previous batch held it: a node's reading repeats from tick
to tick, so it keeps the last batch's parses, payload to value, and takes a
value from them before it parses. Envelopes that repeat a payload share its
`Fraction`. A windowed mean adds the window's numerators as ints,
one sum per distinct denominator, and combines those few sums over their
least common multiple; it stays two ints, the total over a positive
denominator, and is never normalised. `analyze` compares it with theta, and
`execute` the means before and after the settle, by cross-multiplying ints;
a `Fraction` is built only for a congested finding, its severity and the
`mean=` text of its evidence, which are the normalised values a `Fraction`
mean would give.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ExecutionFailed, InsufficientData, NoApplicableAction
from .fabric import KIND_CONTROL, AuditOp, Fabric, Selector, Subscription
from .simnet import ADMISSION_KNOB, SimWorld, _exact, _readable, parse_exact


class KnowledgeBase:
    """What the loop's stages read: each monitored origin's last `window`
    load readings, oldest first, in a `deque(maxlen=window)` the monitor
    appends to.

    A reading pushes out the origin's oldest once the window is full, so
    knowledge holds at most origins x window values however long the loop
    runs, and `series` copies at most `window` values.
    """

    def __init__(self) -> None:
        self.loads: dict[str, deque[Fraction]] = {}

    def __len__(self) -> int:
        """Number of values held, over all origins."""
        return sum(len(loads) for loads in self.loads.values())

    def series(self, origin: str) -> list[Fraction]:
        """An origin's readings in the window, oldest first."""
        return list(self.loads.get(origin, ()))


@dataclass(frozen=True)
class Finding:
    kind: str  # congestion | none
    target: str
    severity: Fraction
    evidence: tuple[str, ...] = ()


@dataclass(frozen=True)
class ManagedAction:
    target: str
    knob: str
    value: Fraction

    def render(self) -> str:
        return f"{self.target}.{self.knob}={self.value}"


@dataclass(frozen=True)
class AdaptationPlan:
    plan_id: str
    actions: tuple[ManagedAction, ...]
    expected_effect: str


@dataclass(frozen=True)
class ExecutionReport:
    plan_id: str
    applied: tuple[ManagedAction, ...]
    effect_held: bool
    rolled_back: bool


@dataclass
class LoopReport:
    """What run_loop did: total iterations, and how many adapted."""

    iterations: int
    adaptations: int
    converged: bool
    findings: tuple[Finding, ...] = ()
    reports: tuple[ExecutionReport, ...] = ()


_UNPARSED = object()  # a payload `monitor` has not parsed yet
_ONE = Fraction(1)


def _parse_reading(payload: bytes) -> Fraction | None:
    """The value `parse_exact` reads from a telemetry payload, or None."""
    try:
        return parse_exact(payload.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError is a ValueError
        return None


def convergence_oracle(u0: Fraction, theta: Fraction, step: Fraction) -> int:
    """Least n with u0 * step**n <= theta, by exact iteration.

    This is the number of adaptations a healthy loop performs before analysis
    stops flagging congestion (strictly-above-theta means are congested).
    Matches ceil(log(theta/u0) / log(step)) away from exact-power boundaries,
    but stays free of floating point.
    """
    if not (0 < step < 1):
        raise ValueError("step must lie strictly between 0 and 1")
    n = 0
    value = _exact("u0", u0)
    while value > theta:
        value *= step
        n += 1
    return n


class MapeKLoop:
    """Managing system: monitor, analyze, plan, execute over shared knowledge."""

    theta = Fraction(4, 5)  # a windowed mean above it is congestion
    actor = "mapek"  # the loop's node id, and the actor of its audit records

    def __init__(
        self,
        fabric: Fabric,
        world: SimWorld,
        *,
        window: int = 10,
        knob_step: Fraction = Fraction(9, 10),
    ):
        if not isinstance(knob_step, Fraction) or not 0 < knob_step < 1:
            raise ValueError(f"knob_step must be a Fraction between 0 and 1, not {knob_step!r}")
        if window < 1:
            raise ValueError("window must be at least 1")
        self._fabric = fabric
        self._world = world
        self.window = window
        self.knob_step = knob_step
        self.knowledge = KnowledgeBase()
        # The last `monitor` call's parses: payload -> value, None if malformed.
        self._parsed: dict[bytes, Fraction | None] = {}
        self._unread: set[str] = set()  # origins the last `monitor` call could not read
        self._plan_count = 0
        fabric.register_node(self.actor)
        self._sub_id = fabric.subscribe(
            Subscription(selector=Selector.parse("telemetry/**"), subscriber_node=self.actor)
        )

    # -- stages ------------------------------------------------------------

    def monitor(self) -> int:
        """Fold the telemetry drained from the loop's subscription into
        knowledge, and return how many readings it folded.

        An envelope whose payload is not UTF-8 text in `parse_exact`'s
        grammar is audited as `error(MalformedTelemetry)` and skipped; the
        rest of the batch is still read. A distinct payload is parsed at
        most once per call, and not at all when the previous call's batch
        held it: the value is taken from that call's parses, which this
        call's replace, so the memo holds one batch's payloads. An origin
        whose readings in the batch were all malformed is kept in `_unread`.
        """
        loads = self.knowledge.loads
        previous = self._parsed
        parsed: dict[bytes, Fraction | None] = {}  # payload -> value, None if malformed
        unread = set()
        ingested = 0
        batch = self._fabric.drain(self._sub_id)
        for envelope in batch:
            payload = envelope.payload
            value = parsed.get(payload, _UNPARSED)
            if value is _UNPARSED:
                value = previous.get(payload, _UNPARSED)
                if value is _UNPARSED:
                    value = _parse_reading(payload)
                parsed[payload] = value
            if value is None:
                self._fabric.audit(
                    AuditOp.MONITOR,
                    actor=self.actor,
                    message_id=envelope.id,
                    outcome="error(MalformedTelemetry)",
                )
                unread.add(envelope.metadata.get("origin-node"))
                continue
            origin = envelope.metadata["origin-node"]
            series = loads.get(origin)
            if series is None:
                series = loads[origin] = deque(maxlen=self.window)
            series.append(value)
            ingested += 1
        if unread:  # an origin with a reading folded in the batch was read
            unread -= {e.metadata["origin-node"] for e in batch if parsed[e.payload] is not None}
        self._parsed, self._unread = parsed, unread
        return ingested

    def analyze(self) -> list[Finding]:
        """Windowed-mean congestion check per monitored origin.

        A mean `total/denominator` is congested when `total*theta_d >
        theta_n*denominator`, for theta `theta_n/theta_d`; its severity,
        `(mean - theta) / (1 - theta)` capped at 1, is built only then.
        """
        if not self.knowledge.loads:
            raise InsufficientData("no monitoring data in knowledge")
        theta_n, theta_d = self.theta.numerator, self.theta.denominator
        findings = []
        for origin in sorted(self.knowledge.loads):
            windowed = self._windowed_mean(origin)
            if windowed is None:
                continue
            total, denominator, samples = windowed
            excess = total * theta_d - theta_n * denominator
            if excess > 0:
                scale = (theta_d - theta_n) * denominator
                severity = _ONE if excess >= scale else Fraction(excess, scale)
                findings.append(
                    Finding(
                        kind="congestion",
                        target=origin,
                        severity=severity,
                        evidence=(
                            f"load.{origin}",
                            f"samples={samples}",
                            f"mean={Fraction(total, denominator)}",
                        ),
                    )
                )
        findings.sort(key=lambda f: (-f.severity, f.target))
        if not findings:
            findings = [Finding(kind="none", target="", severity=Fraction(0))]
        return findings

    def plan(self, findings: list[Finding]) -> AdaptationPlan:
        """Turn congestion findings into knob actions; the world is only read.
        Raises NoApplicableAction for no admission knob or an unreadable next value."""
        actionable = [f for f in findings if f.kind != "none"]
        if not actionable:
            raise NoApplicableAction("analysis reported nothing to act on")
        actions = []
        for finding in actionable:
            node = self._world.state.nodes.get(finding.target)
            if node is None or ADMISSION_KNOB not in node.knobs:
                continue
            value = node.knobs[ADMISSION_KNOB] * self.knob_step
            if not _readable(value):
                raise NoApplicableAction(f"{finding.target}: next {ADMISSION_KNOB} is not readable")
            actions.append(ManagedAction(finding.target, ADMISSION_KNOB, value))
        if not actions:
            targets = ",".join(f.target for f in actionable)
            raise NoApplicableAction(f"no managed knobs on {targets}")
        self._plan_count += 1
        plan = AdaptationPlan(
            plan_id=f"adapt-{self._plan_count}",
            actions=tuple(actions),
            expected_effect="windowed mean load strictly decreases on every target",
        )
        self._fabric.audit(AuditOp.PLAN, actor=self.actor)
        return plan

    def _windowed_mean(self, origin: str) -> tuple[int, int, int] | None:
        """An origin's last `window` loads as `(total, denominator, samples)`,
        or None when it has none: their mean is `total/denominator`,
        unreduced, over a positive denominator, and `samples` counts them."""
        series = self.knowledge.series(origin)
        if not series:
            return None
        sums: dict[int, int] = {}  # denominator -> sum of its numerators
        for value in series:
            numerator, denominator = value.as_integer_ratio()
            sums[denominator] = sums.get(denominator, 0) + numerator
        common = lcm(*sums)
        total = 0
        for denominator, numerator in sums.items():
            total += numerator * (common // denominator)
        return total, common * len(series), len(series)

    def execute(self, plan: AdaptationPlan) -> ExecutionReport:
        """Apply actions as control envelopes, settle, verify, else restore the start.

        Raises ExecutionFailed, before anything is published, for the first
        action whose target has no control topic, and after the restore when
        a target sent only readings `parse_exact` refuses during the settle.
        """
        topics = [f"managed/{action.target}/knobs" for action in plan.actions]
        for action, topic in zip(plan.actions, topics):
            if not self._fabric.has_topic(topic):
                raise ExecutionFailed(action.render())
        before = {a.target: self._windowed_mean(a.target) for a in plan.actions}
        snapshot = self._world.snapshot()
        for action, topic in zip(plan.actions, topics):
            self._fabric.publish(
                self._fabric.envelope(
                    topic,
                    f"{action.knob}={action.value}",
                    kind=KIND_CONTROL,
                    session="mapek",
                    origin=self.actor,
                    detail=action.render(),
                )
            )
        self._world.step(self.window)
        self.monitor()
        unread = ",".join(a.target for a in plan.actions if a.target in self._unread)
        held = True
        for action in plan.actions:
            after = self._windowed_mean(action.target)
            previous = before[action.target]
            # The means compared by cross-multiplying over positive denominators.
            if (
                previous is None
                or after is None
                or not after[0] * previous[1] < previous[0] * after[1]
            ):
                held = False
                break
        if not held:
            self._world.restore(snapshot)
            self._fabric.audit(AuditOp.ROLLBACK, actor=self.actor)
        self._fabric.audit(
            AuditOp.EXECUTE,
            actor=self.actor,
            outcome="ok" if held else "error(EffectNotObserved)",
        )
        if unread:  # its window did not move, so `held` is False
            raise ExecutionFailed(f"{plan.plan_id}: no readable telemetry from {unread}")
        return ExecutionReport(
            plan_id=plan.plan_id,
            applied=plan.actions,
            effect_held=held,
            rolled_back=not held,
        )

    # -- loop ----------------------------------------------------------------

    def run_loop(self, max_iterations: int = 10) -> LoopReport:
        """Iterate M-A-P-E until analysis is clean or the budget runs out."""
        iterations = 0
        reports: list[ExecutionReport] = []
        findings: list[Finding] = []
        converged = False
        while iterations < max_iterations:
            iterations += 1
            self._world.step(self.window)
            self.monitor()
            findings = self.analyze()
            if all(f.kind == "none" for f in findings):
                converged = True
                break
            plan = self.plan(findings)
            reports.append(self.execute(plan))
        return LoopReport(
            iterations=iterations,
            adaptations=len(reports),
            converged=converged,
            findings=tuple(findings),
            reports=tuple(reports),
        )
