"""Trace records and golden-file comparison.

A trace is the ordered journal of everything observable during a run: audit
records interleaved with envelope summaries, in logical-time order. Traces
serialize one record per line, pipe-separated, `-` for absent fields:

    A|<seq>|<logicalTime>|<op>|<actor>|<messageId>|<modelId>|<outcome>
    M|<logicalTime>|<topic>|<kind>|<session>|<origin-node>|<id>|<detail>

An `A` line is the fabric's audit record itself (`AuditEvent`), and the trace
line is the only on-disk audit format: `interconnect audit` reads a trace
file and prints the `A` lines it selects. Both record types are immutable
named tuples, compared and hashed by value, and the garbage collector stops
tracking an `EnvelopeEvent`, which holds only strings, ints and `None`.

A `Trace` stores records and publish entries. `Fabric.publish` appends one
plain tuple per publish,

    (logical_time, topic, kind, session, origin, message_id, detail,
     seq, model_id, subscriber_nodes)

which stands for the records it journals: the envelope record at
`logical_time`, the publish record (audit seq `seq`) at the next tick, and
one deliver record per node of `subscriber_nodes`, in order, at the
following seqs and ticks. Reading `Trace.events` builds those records and
puts them in the entry's place, in the list itself, starting from the first
entry not yet built; so a reader pays for building the records, and a
journal nobody reads holds one tuple per publish. The records are built as
`tuple.__new__(AuditEvent, (all seven fields))`: that skips the named
tuple's `__new__`, a Python function, and yields the same type, value and
rendered line as the keyword constructor, which every other producer
(`Fabric.audit`, `parse_trace`) uses.

Comparison is structural: message ids in both traces are canonicalized by
order of first appearance before diffing, so id-assignment drift between
otherwise identical runs does not register as a difference. Equal record
lists (a replay that reproduces its golden, ids included) return an empty
diff after one list comparison, rendering nothing; any other pair runs
`difflib.SequenceMatcher` over the canonical lines.

The list comparison assumes well-typed records: every field an `int`, a
`str` (an `AuditOp` is one) or `None`, as the fabric and `parse_trace` build
them. Equal values of those types render the same line, and an `A` record
never equals an `M` record, whose second field is a `str` where the `A`
record's is an `int`. A `bool` or a `float` where an `int` belongs could
compare equal to a value that renders differently, so it is outside the
contract.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

from .errors import GoldenParseError

ABSENT = "-"

_FIELD_COUNT = 8
# Field index of the message id per record shape (A: messageId, M: id).
_ID_COLUMN = {"A": 5, "M": 6}


def _render_field(value: str | int | None) -> str:
    if value is None or value == "":
        return ABSENT
    return str(value)


class AuditOp(str, Enum):
    """Closed set of auditable operations."""

    PUBLISH = "publish"
    SUBSCRIBE = "subscribe"
    UNSUBSCRIBE = "unsubscribe"
    DELIVER = "deliver"
    PARTICIPATE_INFERENCE = "participate-inference"
    PARTICIPATE_LEARNING = "participate-learning"
    NEGOTIATE = "negotiate"
    PLAN = "plan"
    EXECUTE = "execute"
    SANDBOX = "sandbox"
    ROLLBACK = "rollback"
    HITL = "hitl"
    MONITOR = "monitor"


_OPS = {op.value: op for op in AuditOp}


class AuditEvent(NamedTuple):
    """One audit record: the fabric's audit log and the trace's `A` line."""

    seq: int
    logical_time: int
    op: AuditOp
    actor: str
    message_id: str | None
    model_id: str | None
    outcome: str

    def render(self) -> str:
        """Serialize to one trace line."""
        # join reads the op's str data, so the bytes do not depend on how
        # this Python version formats str-mixin enums.
        return "|".join(
            [
                "A",
                str(self.seq),
                str(self.logical_time),
                self.op,
                self.actor,
                _render_field(self.message_id),
                _render_field(self.model_id),
                self.outcome,
            ]
        )


class EnvelopeEvent(NamedTuple):
    """Summary of one accepted envelope."""

    logical_time: int
    topic: str
    kind: str
    session: str
    origin: str
    message_id: str
    detail: str | None = None

    def render(self) -> str:
        """Serialize to one trace line."""
        return "|".join(
            [
                "M",
                str(self.logical_time),
                self.topic,
                self.kind,
                self.session,
                self.origin,
                self.message_id,
                _render_field(self.detail),
            ]
        )


TraceEvent = AuditEvent | EnvelopeEvent


# Read per record built; taking a member off its enum class costs about
# 0.15 us.
_PUBLISH = AuditOp.PUBLISH
_DELIVER = AuditOp.DELIVER
_new_record = tuple.__new__


class Trace:
    """Ordered journal of one run.

    `append` takes a record or a publish entry (see the module docstring);
    it is the entry list's own `append`, so a publish pays no Python call
    for it. `events` is the record list, with every entry appended since
    the last read built into its records. A list read from `events` is the
    journal's own: entries appended later sit at its tail until `events` is
    read again.
    """

    __slots__ = ("_entries", "_built", "append")

    def __init__(self, events: list[TraceEvent] | None = None) -> None:
        self._entries: list = [] if events is None else events
        self._built = len(self._entries)  # entries before this are records
        self.append: Callable[[TraceEvent | tuple], None] = self._entries.append

    @property
    def events(self) -> list[TraceEvent]:
        entries = self._entries
        if self._built < len(entries):
            self._build()
        return entries

    def _build(self) -> None:
        """Replace the entries from `_built` on with their records."""
        entries = self._entries
        start = self._built
        records: list[TraceEvent] = []
        add = records.append
        for entry in entries[start:]:
            if type(entry) is not tuple:
                add(entry)
                continue
            now, _, _, _, origin, message_id, _, seq, model_id, nodes = entry
            add(_new_record(EnvelopeEvent, entry[:7]))
            now += 1
            add(_new_record(AuditEvent, (seq, now, _PUBLISH, origin, message_id, model_id, "ok")))
            for node in nodes:
                seq += 1
                now += 1
                add(_new_record(AuditEvent, (seq, now, _DELIVER, node, message_id, model_id, "ok")))
        entries[start:] = records
        self._built = len(entries)

    def lines(self) -> list[str]:
        return [e.render() for e in self.events]

    def render(self) -> str:
        """Full file body, one record per line with a trailing newline."""
        body = "\n".join(self.lines())
        return body + "\n" if body else ""

    def audit_events(self) -> list[AuditEvent]:
        return [e for e in self.events if isinstance(e, AuditEvent)]

    def envelope_events(self) -> list[EnvelopeEvent]:
        return [e for e in self.events if isinstance(e, EnvelopeEvent)]


def _parse_int(raw: str, line_no: int, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise GoldenParseError(f"line {line_no}: non-numeric {what}: {raw!r}", line_no)


def parse_trace(text: str) -> Trace:
    """Parse a serialized trace, raising GoldenParseError on any bad line."""
    trace = Trace()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("|")
        if len(fields) != _FIELD_COUNT:
            raise GoldenParseError(
                f"line {line_no}: expected {_FIELD_COUNT} fields, got {len(fields)}",
                line_no,
            )
        tag = fields[0]
        if tag == "A":
            op = _OPS.get(fields[3])
            if op is None:
                raise GoldenParseError(f"line {line_no}: unknown op {fields[3]!r}", line_no)
            trace.append(
                AuditEvent(
                    seq=_parse_int(fields[1], line_no, "seq"),
                    logical_time=_parse_int(fields[2], line_no, "logicalTime"),
                    op=op,
                    actor=fields[4],
                    message_id=None if fields[5] == ABSENT else fields[5],
                    model_id=None if fields[6] == ABSENT else fields[6],
                    outcome=fields[7],
                )
            )
        elif tag == "M":
            trace.append(
                EnvelopeEvent(
                    logical_time=_parse_int(fields[1], line_no, "logicalTime"),
                    topic=fields[2],
                    kind=fields[3],
                    session=fields[4],
                    origin=fields[5],
                    message_id=fields[6],
                    detail=None if fields[7] == ABSENT else fields[7],
                )
            )
        else:
            raise GoldenParseError(f"line {line_no}: unknown record tag {tag!r}", line_no)
    return trace


def canonicalize_lines(lines: list[str]) -> list[str]:
    """Rewrite message ids as #1, #2, ... by order of first appearance."""
    mapping: dict[str, str] = {}
    out = []
    for line in lines:
        fields = line.split("|")
        column = _ID_COLUMN.get(fields[0])
        if column is not None and fields[column] != ABSENT:
            raw = fields[column]
            if raw not in mapping:
                mapping[raw] = f"#{len(mapping) + 1}"
            fields[column] = mapping[raw]
        out.append("|".join(fields))
    return out


@dataclass(frozen=True)
class DiffEntry:
    """One contiguous run of disagreement between two traces."""

    op: str  # replace | delete | insert
    position: int  # line index in the left trace where the run starts
    got: tuple[str, ...]
    want: tuple[str, ...]


@dataclass
class TraceDiff:
    """Structural difference between a produced trace and a golden one."""

    entries: list[DiffEntry] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.entries

    @property
    def size(self) -> int:
        """Number of differing lines (an inserted line counts once)."""
        return sum(max(len(e.got), len(e.want)) for e in self.entries)

    def render(self) -> str:
        """Human-readable diff body, empty string when traces match."""
        chunks = []
        for entry in self.entries:
            chunks.append(f"@ line {entry.position + 1} ({entry.op})")
            chunks.extend(f"- {line}" for line in entry.got)
            chunks.extend(f"+ {line}" for line in entry.want)
        return "\n".join(chunks)


def compare_traces(produced: Trace, golden: Trace) -> TraceDiff:
    """Structural diff after canonicalizing message ids on both sides.

    `canonicalize_lines` defines a match. Equal record lists return at
    once, which is exact for well-typed records (every field an `int`, a
    `str` or `None`; see the module docstring); any other pair gets the
    matcher's entries.
    """
    if produced.events == golden.events:
        return TraceDiff()
    left = canonicalize_lines(produced.lines())
    right = canonicalize_lines(golden.lines())
    matcher = difflib.SequenceMatcher(a=left, b=right, autojunk=False)
    diff = TraceDiff()
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op == "equal":
            continue
        diff.entries.append(
            DiffEntry(op=op, position=i1, got=tuple(left[i1:i2]), want=tuple(right[j1:j2]))
        )
    return diff
