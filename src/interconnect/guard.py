"""Guarded deployment of generated network programs.

Programs arrive in a deliberately tiny DSL (one instruction per line, `#`
comments; see docs/dsl.md) so they can be interpreted under a budget instead
of executed as code. A `GuardedProgram` parses its source once, at
construction, and every gate reads that parse. Three mechanisms gate the path
from generated text to a live configuration change:

* sandbox runs interpret the program against a disposable copy of the world
  and check named invariants; the live state is never touched. Metric deltas
  are computed for the nodes the program writes; every other key of
  `WorldState.metrics()` carries an exact 0,
* deploys require an Accepted sandbox run of the same parsed program that
  no deploy has used yet, and respect human-in-the-loop tickets; an applied
  deploy keeps its pre-deploy snapshot until `rollback` restores it exactly,
* consensus across independently generated candidates compares structural
  hashes; anything short of a strict majority escalates to a ticket.

Rejections and escalations feed a prompt-refinement envelope back to the
authoring planner's feedback topic, closing the loop.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .errors import (
    DeployWithoutVerdict,
    ExecutionFailed,
    InvalidMetadata,
    TicketClosed,
    TicketStoreCorrupt,
    UnknownDeployment,
    UnknownTicket,
)
from .fabric import _SEGMENT_RE, KIND_PROMPT, AuditOp, Fabric, check_journaled
from .simnet import SimWorld, WorldState, _exact, _readable, parse_exact

DEFAULT_INSTRUCTION_BUDGET = 10_000

# opcode -> (identifier argument count, value argument count)
_SHAPES = {"set": (2, 1), "scale": (2, 1), "limit": (2, 2), "reroute": (2, 1)}


class ProgramSyntaxError(Exception):
    """Raised by parse_program; kind is 'ParseError' or 'IllegalInstruction'."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class _ExecError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Instruction:
    op: str
    idents: tuple[str, ...]
    values: tuple[Fraction, ...]

    def render(self) -> str:
        parts = [self.op, *self.idents, *(str(v) for v in self.values)]
        return " ".join(parts)


def parse_program(source: str) -> tuple[Instruction, ...]:
    """Parse DSL text; identifiers are case-folded for structural stability
    and values are read by `parse_exact`."""
    instructions = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op = tokens[0].lower()
        if op not in _SHAPES:
            raise ProgramSyntaxError(
                "IllegalInstruction", f"line {line_no}: unknown instruction {tokens[0]!r}"
            )
        n_idents, n_values = _SHAPES[op]
        if len(tokens) != 1 + n_idents + n_values:
            raise ProgramSyntaxError(
                "ParseError",
                f"line {line_no}: {op} takes {n_idents + n_values} arguments",
            )
        idents = tuple(t.lower() for t in tokens[1 : 1 + n_idents])
        for ident in idents:
            if not _SEGMENT_RE.fullmatch(ident):
                raise ProgramSyntaxError(
                    "ParseError", f"line {line_no}: bad identifier {ident!r}"
                )
        values = []
        for tok in tokens[1 + n_idents :]:
            try:
                values.append(parse_exact(tok))
            except ValueError:
                raise ProgramSyntaxError(
                    "ParseError", f"line {line_no}: bad value {tok!r}"
                )
        instructions.append(Instruction(op, idents, tuple(values)))
    return tuple(instructions)


class _Unparsed(NamedTuple):
    """Why a source does not parse: its ProgramSyntaxError's kind and message."""

    kind: str
    message: str


def _parse(source: str) -> tuple[Instruction, ...] | _Unparsed:
    try:
        return parse_program(source)
    except ProgramSyntaxError as exc:
        return _Unparsed(exc.kind, str(exc))


def _hash_parsed(parsed: tuple[Instruction, ...] | _Unparsed, source: str) -> str:
    if type(parsed) is _Unparsed:
        canonical = f"!{parsed.kind}\n{source}"
    else:
        canonical = "\n".join(i.render() for i in parsed)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def structural_hash(source: str) -> str:
    """Hash of the parsed, canonically rendered program.

    Formatting, comments, and identifier case never affect the hash; programs
    that do not parse hash by their failure kind plus raw text.
    """
    return _hash_parsed(_parse(source), source)


def _written_nodes(instructions: tuple[Instruction, ...]) -> set[str]:
    """Nodes a program writes: reroute writes both idents, the rest the first."""
    written = set()
    for ins in instructions:
        written.update(ins.idents if ins.op == "reroute" else ins.idents[:1])
    return written


def _execute(instructions: tuple[Instruction, ...], state: WorldState, budget: int) -> None:
    executed = 0
    for ins in instructions:
        executed += 1
        if executed > budget:
            raise _ExecError("Timeout", f"instruction budget {budget} exhausted")
        try:
            if ins.op == "set":
                state.set_knob(ins.idents[0], ins.idents[1], ins.values[0])
            elif ins.op == "scale":
                current = state.get_knob(ins.idents[0], ins.idents[1])
                state.set_knob(ins.idents[0], ins.idents[1], current * ins.values[0])
            elif ins.op == "limit":
                current = state.get_knob(ins.idents[0], ins.idents[1])
                lo, hi = ins.values
                state.set_knob(ins.idents[0], ins.idents[1], max(lo, min(hi, current)))
            elif ins.op == "reroute":
                state.shift_load(ins.idents[0], ins.idents[1], ins.values[0])
        except KeyError as exc:
            raise _ExecError("IllegalInstruction", str(exc))


def _check_readable(instructions: tuple[Instruction, ...], state: WorldState) -> None:
    """Fail the run as UnreadableValue, after `_execute` has completed it,
    for a node the program wrote whose knob or offered load `parse_exact`
    could not read back (the rule `MapeKLoop.plan` keeps for its own
    values): a part of more than EXACT_DIGITS digits, which no control or
    reading could carry."""
    for node_id in sorted(_written_nodes(instructions)):
        node = state.nodes[node_id]
        load = () if node.load is None else (node.load.offered_load,)
        if not all(map(_readable, (*node.knobs.values(), *load))):
            raise _ExecError("UnreadableValue", f"{node_id} holds a value with too many digits")


@dataclass(frozen=True)
class GuardedProgram:
    """A candidate change expressed in the restricted DSL.

    The source is parsed once, at construction: `parsed` holds the
    instruction tuple, or the `(kind, message)` of the ProgramSyntaxError the
    parse raised, and the sandbox, deploy and consensus read it. It takes no
    part in equality, hashing or repr. A source that is not a `str` raises
    InvalidMetadata before any parse.
    """

    program_id: str
    source: str
    declared_effects: tuple[str, ...]
    author: str
    parsed: tuple[Instruction, ...] | _Unparsed = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.source, str):
            raise InvalidMetadata(
                f"program source must be a str, not {type(self.source).__name__}"
            )
        object.__setattr__(self, "parsed", _parse(self.source))


def _check_candidate(program: GuardedProgram) -> None:
    """Raise InvalidMetadata unless the guard can feed back on a program:
    its author names the topic `planner/<author>/feedback`, so it must be
    one topic segment, and its id is the feedback envelope's session, so it
    must be a non-empty `str` that journals as one field."""
    check_journaled("author", program.author)
    if not _SEGMENT_RE.fullmatch(program.author):
        raise InvalidMetadata(f"author {program.author!r} is not a single topic segment")
    check_journaled("program id", program.program_id)
    if not program.program_id:
        raise InvalidMetadata("program id is empty")


@dataclass(frozen=True)
class NamedInvariant:
    """A named predicate over post-run world state.

    Invariants only read, and one whose predicate raises rejects the run.
    The predicate receives the whole sandbox world, a clone that shares its
    nodes with the live world; a write (`set_knob`, `shift_load`) replaces
    a node in the sandbox world only, so it cannot reach live state, but
    the verdict's metric deltas cover only the nodes the program writes.
    """

    name: str
    predicate: Callable[[WorldState], bool]


def min_total_throughput(bound: Fraction | int) -> NamedInvariant:
    """Invariant: total served load strictly exceeds the bound."""
    limit = _exact("bound", bound)
    return NamedInvariant(
        f"total-throughput>{limit}", lambda s: s.total_throughput() > limit
    )


def knob_within(node: str, knob: str, lo: Fraction, hi: Fraction) -> NamedInvariant:
    """Invariant: a knob ends inside [lo, hi]; `_exact` checks the bounds."""
    lo, hi = _exact("lo", lo), _exact("hi", hi)

    def check(state: WorldState) -> bool:
        try:
            value = state.get_knob(node, knob)
        except KeyError:
            return False
        return lo <= value <= hi

    return NamedInvariant(f"{node}.{knob}-within[{lo},{hi}]", check)


@dataclass
class SandboxVerdict:
    """Outcome of one sandbox run."""

    program_id: str
    accepted: bool
    reason: str | None
    metric_deltas: dict[str, Fraction] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "Accepted" if self.accepted else "Rejected"


@dataclass
class DeploymentRecord:
    deployment_id: str
    program_id: str
    target: str
    config_hash_before: str
    config_hash_after: str
    status: str  # Applied | RolledBack


class TicketState(str, Enum):
    OPEN = "Open"
    APPROVED = "Approved"
    DENIED = "Denied"


@dataclass
class HitlTicket:
    ticket_id: str
    reason: str
    subject: str
    state: TicketState = TicketState.OPEN
    note: str = ""


# event -> the str fields its record must carry
_TICKET_EVENT_FIELDS = {
    "open": ("ticket", "reason", "subject"),
    "resolve": ("ticket", "decision", "note"),
}


class TicketBook:
    """The append-only ticket event log, the one place tickets live.

    With a path, the log is an ndjson file shared with the `guard tickets`
    CLI and every guard on the same store, and each read folds the file
    afresh, so a ticket opened or resolved elsewhere counts at the next
    read. `open_ticket` and `resolve` hold an exclusive `flock` on the file
    from their read to their append, so processes sharing a store mint
    distinct ids and resolve a ticket once. Without a path, the log is an
    in-memory list, no read touches a file and nothing is locked.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path else None
        self._lines: list[str] = []

    def append(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True)
        if self.path is None:
            self._lines.append(line)
        else:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    def load(self) -> dict[str, HitlTicket]:
        """Fold the event log into current ticket states.

        A denial is final: a resolve after one is ignored, so a store
        holding `Denied` then `Approved` for a ticket (two resolutions
        racing without the lock) keeps it Denied. Raises
        TicketStoreCorrupt, naming the line, for a line that is not an open
        or resolve event with its fields as strings, and for a resolve of a
        ticket no earlier line opened.
        """
        lines: list[str | bytes] = self._lines  # empty when the log is a file
        if self.path is not None and self.path.exists():
            lines = self.path.read_bytes().split(b"\n")
        tickets: dict[str, HitlTicket] = {}
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except ValueError:  # not JSON, or not UTF-8
                event = None
            kind = event.get("event") if isinstance(event, dict) else None
            fields = _TICKET_EVENT_FIELDS.get(kind)
            ok = fields is not None and all(isinstance(event.get(f), str) for f in fields)
            if ok and kind == "resolve":
                ok = event["ticket"] in tickets and event["decision"] in ("Approved", "Denied")
            if not ok:
                raise TicketStoreCorrupt(f"{self.path} line {line_no}: not a ticket event")
            ticket_id = event["ticket"]
            if kind == "open":
                tickets[ticket_id] = HitlTicket(ticket_id, event["reason"], event["subject"])
            elif tickets[ticket_id].state is not TicketState.DENIED:
                tickets[ticket_id].state = TicketState(event["decision"])
                tickets[ticket_id].note = event["note"]
        return tickets

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the store's exclusive lock, creating the file if needed."""
        if self.path is None:
            yield
            return
        with open(self.path, "a", encoding="utf-8") as fh:  # closing releases the lock
            fcntl.flock(fh, fcntl.LOCK_EX)
            yield

    def open_ticket(self, reason: str, subject: str) -> HitlTicket:
        """Open a ticket under the next `ticket-<n>` id the log does not hold."""
        with self._locked():
            tickets = self.load()
            n = len(tickets) + 1
            while f"ticket-{n}" in tickets:
                n += 1
            event = {"event": "open", "ticket": f"ticket-{n}", "reason": reason, "subject": subject}
            self.append(event)
        return HitlTicket(f"ticket-{n}", reason, subject)

    def resolve(self, ticket_id: str, decision: TicketState, note: str = "") -> HitlTicket:
        """Resolve an open ticket exactly once, as Approved or Denied."""
        if decision is TicketState.OPEN:
            raise ValueError("a ticket resolves to Approved or Denied, not Open")
        with self._locked():
            ticket = self.load().get(ticket_id)
            if ticket is None:
                raise UnknownTicket(f"no ticket {ticket_id!r}")
            if ticket.state is not TicketState.OPEN:
                raise TicketClosed(f"ticket {ticket_id} already {ticket.state.value}")
            self.append(
                {"event": "resolve", "ticket": ticket_id, "decision": decision.value, "note": note}
            )
            return self.load()[ticket_id]


@dataclass
class ConsensusResult:
    status: str  # Consensus | Escalate
    agreement: Fraction
    chosen: GuardedProgram | None = None
    ticket: HitlTicket | None = None


class Guard:
    """Sandbox, deployment gate, consensus check, and HITL queue."""

    def __init__(
        self,
        fabric: Fabric,
        world: SimWorld,
        *,
        policy: str = "escalate-only",
        instruction_budget: int = DEFAULT_INSTRUCTION_BUDGET,
        ticket_store: str | Path | None = None,
    ):
        if policy not in ("strict", "escalate-only", "off"):
            raise ValueError(f"unknown HITL policy {policy!r}")
        self._fabric = fabric
        self._world = world
        self.policy = policy
        self.instruction_budget = instruction_budget
        # program id -> the parsed program an Accepted run judged, until deployed
        self._verdicts: dict[str, tuple[Instruction, ...]] = {}
        # deployment id -> (its record, the world before it), while Applied
        self._applied: dict[str, tuple[DeploymentRecord, WorldState]] = {}
        # the node ids of the last accepted run's world, and its all-zero deltas
        self._zero_deltas: tuple[frozenset[str], dict[str, Fraction]] = (
            frozenset(),
            {"throughput.total": Fraction(0)},
        )
        self._dep_count = 0
        self._book = TicketBook(ticket_store)

    # -- sandbox -----------------------------------------------------------

    def _feedback(self, program: GuardedProgram, reason: str) -> None:
        topic = f"planner/{program.author}/feedback"
        self._fabric.create_topic(topic)
        self._fabric.publish(
            self._fabric.envelope(
                topic,
                f"refine {program.program_id}: {reason}",
                kind=KIND_PROMPT,
                session=program.program_id,
                origin="guard",
                detail=f"refine {reason}",
            )
        )

    def sandbox_run(
        self,
        program: GuardedProgram,
        invariants: list[NamedInvariant] = (),
        model: WorldState | None = None,
    ) -> SandboxVerdict:
        """Interpret the program against a copy of the world and judge it.

        The live world is never written: the run works on a clone of
        `model` (default: current state), which shares `model`'s immutable
        nodes and costs a copy of its `nodes` dict; the program's writes
        replace nodes in the clone only (see `WorldState.clone`). An
        accepted verdict's `metric_deltas` equal `after.metrics() -
        before.metrics()`, keys sorted, but only the nodes the program
        writes are measured: every other node's keys are an exact 0, and
        `throughput.total` is the sum of the written nodes' deltas. An
        accepted run keeps the parsed program for one deploy; a rejection
        drops any earlier acceptance of the id and emits planner feedback.
        An invariant whose predicate raises fails closed: the run is
        rejected as `InvariantError(<name>)`, like a violated one. A run that
        leaves a written node with a knob or offered load `parse_exact` could
        not read back is rejected as `UnreadableValue` (see `_check_readable`).
        An author or program id that cannot address feedback (see
        `_check_candidate`), or an invariant name that is not a `str` or holds
        a record break, raises InvalidMetadata on entry, before the run or
        any verdict change.
        """
        _check_candidate(program)
        for invariant in invariants:
            check_journaled("invariant name", invariant.name)
        base = model if model is not None else self._world.state
        work = base.clone()
        instructions = program.parsed
        reason: str | None = None
        if type(instructions) is _Unparsed:
            reason = instructions.kind
        else:
            written = sorted(_written_nodes(instructions) & work.nodes.keys())
            before = [(work.utilization(n), work.throughput(n)) for n in written]
            try:
                _execute(instructions, work, self.instruction_budget)
                _check_readable(instructions, work)
            except _ExecError as exc:
                reason = exc.kind
            else:
                for invariant in invariants:
                    try:
                        held = invariant.predicate(work)
                    except Exception:
                        reason = f"InvariantError({invariant.name})"
                        break
                    if not held:
                        reason = f"InvariantViolation({invariant.name})"
                        break

        if reason is None:
            ids, zeros = self._zero_deltas
            if ids != work.nodes.keys():
                keys = [*(f"utilization.{n}" for n in work.nodes), "throughput.total"]
                keys += (f"throughput.{n}" for n in work.nodes)
                zeros = dict.fromkeys(sorted(keys), Fraction(0))
                self._zero_deltas = (frozenset(work.nodes), zeros)
            deltas = zeros.copy()
            total = Fraction(0)
            for node_id, (util, served) in zip(written, before):
                deltas[f"utilization.{node_id}"] = work.utilization(node_id) - util
                deltas[f"throughput.{node_id}"] = work.throughput(node_id) - served
                total += deltas[f"throughput.{node_id}"]
            deltas["throughput.total"] = total
            verdict = SandboxVerdict(program.program_id, True, None, deltas)
            self._verdicts[program.program_id] = instructions
        else:
            verdict = SandboxVerdict(program.program_id, False, reason)
            self._verdicts.pop(program.program_id, None)
        self._fabric.audit(
            AuditOp.SANDBOX,
            actor=program.author,
            outcome="ok" if verdict.accepted else f"error({reason})",
        )
        if not verdict.accepted:
            self._feedback(program, reason or "rejected")
        return verdict

    # -- deploy / rollback ---------------------------------------------------

    def _hitl_gate(self, subject: str) -> None:
        """Read the ticket book now, so a resolution made through the CLI or
        another guard on the same store counts."""
        if self.policy == "off":
            return
        states = {t.state for t in self._book.load().values() if t.subject == subject}
        if TicketState.DENIED in states:
            raise DeployWithoutVerdict(f"subject {subject!r} denied by ticket")
        if self.policy == "strict" and TicketState.APPROVED not in states:
            raise DeployWithoutVerdict(
                f"strict policy requires an approved ticket for {subject!r}"
            )

    def deploy(self, program: GuardedProgram, target: str) -> DeploymentRecord:
        """Apply an Accepted program to the live world, snapshotting first.

        The program's parse must equal the instructions its verdict judged;
        formatting, comments and identifier case may differ. Only a success
        uses the verdict up: a redeploy, even after rollback, needs a fresh
        sandbox run. A run that fails on the live world, or leaves a value
        `_check_readable` refuses, restores the snapshot and raises
        ExecutionFailed. The target is journaled as the deploy's audit
        actor, so one that is not a `str` or holds a record break raises
        InvalidMetadata on entry, before the world changes.
        """
        check_journaled("target", target)
        judged = self._verdicts.get(program.program_id)
        if judged is None:
            raise DeployWithoutVerdict(
                f"no Accepted sandbox verdict recorded for {program.program_id!r}"
            )
        instructions = program.parsed
        if instructions is not judged and instructions != judged:
            raise DeployWithoutVerdict(
                f"{program.program_id!r} differs from the program its verdict judged"
            )
        self._hitl_gate(program.program_id)
        snapshot = self._world.snapshot()
        before = self._world.config_hash()
        try:
            _execute(instructions, self._world.state, self.instruction_budget)
            _check_readable(instructions, self._world.state)
        except _ExecError as exc:
            self._world.restore(snapshot)
            raise ExecutionFailed(f"{program.program_id}: {exc}") from exc
        del self._verdicts[program.program_id]
        self._dep_count += 1
        record = DeploymentRecord(
            deployment_id=f"dep-{self._dep_count}",
            program_id=program.program_id,
            target=target,
            config_hash_before=before,
            config_hash_after=self._world.config_hash(),
            status="Applied",
        )
        self._applied[record.deployment_id] = (record, snapshot)
        self._fabric.audit(AuditOp.EXECUTE, actor=target, model_id=None)
        return record

    def rollback(self, deployment_id: str) -> DeploymentRecord:
        """Restore the pre-deploy snapshot; a record rolls back only once."""
        if deployment_id not in self._applied:
            raise UnknownDeployment(f"no applied deployment {deployment_id!r}")
        record, snapshot = self._applied.pop(deployment_id)
        self._world.restore(snapshot)
        record.status = "RolledBack"
        self._fabric.audit(AuditOp.ROLLBACK, actor=record.target)
        return record

    # -- consensus -------------------------------------------------------------

    def consensus_check(self, outputs: list[GuardedProgram]) -> ConsensusResult:
        """Strict-majority agreement over structural hashes.

        Disagreement escalates: a ticket is opened (subject: the first
        candidate) and every distinct author gets refinement feedback, so a
        candidate `_check_candidate` refuses raises InvalidMetadata first.
        """
        if len(outputs) < 2:
            raise ValueError("consensus needs at least two candidate programs")
        for program in outputs:
            _check_candidate(program)
        hashes = [_hash_parsed(p.parsed, p.source) for p in outputs]
        counts: dict[str, int] = {}
        for h in hashes:
            counts[h] = counts.get(h, 0) + 1
        top_hash = max(counts, key=lambda h: (counts[h], -hashes.index(h)))
        agreement = Fraction(counts[top_hash], len(outputs))
        if counts[top_hash] * 2 > len(outputs):
            chosen = outputs[hashes.index(top_hash)]
            return ConsensusResult("Consensus", agreement, chosen=chosen)
        ticket = self.open_ticket("ConsensusDisagreement", outputs[0].program_id)
        for author in sorted({p.author for p in outputs}):
            exemplar = next(p for p in outputs if p.author == author)
            self._feedback(exemplar, "consensus disagreement")
        return ConsensusResult("Escalate", agreement, ticket=ticket)

    # -- human-in-the-loop -------------------------------------------------------

    def open_ticket(self, reason: str, subject: str) -> HitlTicket:
        """Queue a decision for a human operator."""
        return self._book.open_ticket(reason, subject)

    def hitl_resolve(
        self, ticket_id: str, decision: str, note: str = "", resolver: str = "operator"
    ) -> HitlTicket:
        """Resolve a ticket exactly once; denial permanently blocks the subject.

        The resolver is journaled as the audit actor, so one that is not a
        `str` or holds a record break raises InvalidMetadata before the
        ticket is resolved."""
        check_journaled("resolver", resolver)
        if decision not in ("approve", "deny"):
            raise ValueError(f"decision must be approve or deny, got {decision!r}")
        state = TicketState.APPROVED if decision == "approve" else TicketState.DENIED
        ticket = self._book.resolve(ticket_id, state, note)
        self._fabric.audit(AuditOp.HITL, actor=resolver, outcome="ok")
        return ticket

    def tickets(self) -> list[HitlTicket]:
        tickets = self._book.load()
        return [tickets[t] for t in sorted(tickets)]
