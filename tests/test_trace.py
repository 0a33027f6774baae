"""Trace records, serialization, and golden comparison."""

import difflib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interconnect.cli import golden_path
from interconnect.errors import GoldenParseError
from interconnect.scenarios import SCENARIOS, run_scenario
from interconnect.trace import (
    AuditEvent,
    AuditOp,
    DiffEntry,
    EnvelopeEvent,
    Trace,
    canonicalize_lines,
    compare_traces,
    parse_trace,
)


def _audit(seq, t, message_id=None):
    return AuditEvent(
        seq=seq,
        logical_time=t,
        op="publish",
        actor="node-a",
        message_id=message_id,
        model_id=None,
        outcome="ok",
    )


def _envelope(t, message_id, topic="a/b", detail=None):
    return EnvelopeEvent(
        logical_time=t,
        topic=topic,
        kind="data",
        session="s1",
        origin="node-a",
        message_id=message_id,
        detail=detail,
    )


def test_render_parse_round_trip():
    trace = Trace()
    trace.append(_envelope(1, "m1", detail="hello"))
    trace.append(_audit(1, 2, message_id="m1"))
    trace.append(_audit(2, 3))
    text = trace.render()
    assert text.endswith("\n")
    parsed = parse_trace(text)
    assert parsed.events == trace.events


def test_absent_fields_render_as_dash():
    line = _audit(1, 2).render()
    assert line == "A|1|2|publish|node-a|-|-|ok"
    env = _envelope(5, "m9").render()
    assert env.endswith("|m9|-")


def test_empty_trace_renders_empty():
    assert Trace().render() == ""
    assert parse_trace("").events == []


def test_parse_rejects_wrong_field_count():
    with pytest.raises(GoldenParseError) as err:
        parse_trace("A|1|2|publish|node-a|-|ok\n")
    assert err.value.line_no == 1


def test_parse_rejects_unknown_tag():
    with pytest.raises(GoldenParseError):
        parse_trace("X|1|2|publish|node-a|-|-|ok\n")


def test_parse_maps_ops_and_rejects_unknown_ones():
    (event,) = parse_trace("A|1|2|publish|node-a|-|-|ok\n").events
    assert event.op is AuditOp.PUBLISH
    with pytest.raises(GoldenParseError) as err:
        parse_trace("M|1|a/b|data|s1|node-a|m1|-\nA|1|2|frobnicate|node-a|-|-|ok\n")
    assert err.value.line_no == 2


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_packaged_golden_round_trips(name):
    text = golden_path(name).read_text(encoding="utf-8")
    assert parse_trace(text).render() == text


def test_parse_rejects_non_numeric_time():
    with pytest.raises(GoldenParseError):
        parse_trace("A|one|2|publish|node-a|-|-|ok\n")


def test_canonicalize_by_first_appearance():
    lines = [
        _envelope(1, "m41").render(),
        _audit(1, 2, message_id="m41").render(),
        _envelope(3, "m99").render(),
    ]
    out = canonicalize_lines(lines)
    assert out[0].split("|")[6] == "#1"
    assert out[1].split("|")[5] == "#1"
    assert out[2].split("|")[6] == "#2"


def test_canonicalize_leaves_model_ids_alone():
    event = AuditEvent(
        seq=1,
        logical_time=2,
        op="plan",
        actor="broker",
        message_id="m3",
        model_id="forecaster",
        outcome="ok",
    )
    (line,) = canonicalize_lines([event.render()])
    fields = line.split("|")
    assert fields[5] == "#1"
    assert fields[6] == "forecaster"


def test_compare_trace_with_itself_is_empty():
    trace = Trace([_envelope(1, "m1"), _audit(1, 2, "m1")])
    assert compare_traces(trace, trace).empty


def test_compare_ignores_message_id_drift():
    left = Trace([_envelope(1, "m1"), _audit(1, 2, "m1")])
    right = Trace([_envelope(1, "m7"), _audit(1, 2, "m7")])
    assert compare_traces(left, right).empty


def test_one_extra_envelope_is_diff_of_size_one():
    base = [_envelope(1, "m1"), _audit(1, 2, "m1")]
    left = Trace(list(base))
    right = Trace(list(base) + [_envelope(3, "m2")])
    diff = compare_traces(left, right)
    assert not diff.empty
    assert diff.size == 1
    assert diff.entries[0].op == "insert"


def test_replaced_line_is_diff_of_size_one():
    left = Trace([_envelope(1, "m1", topic="a/b")])
    right = Trace([_envelope(1, "m1", topic="a/c")])
    diff = compare_traces(left, right)
    assert diff.size == 1
    assert diff.entries[0].op == "replace"
    assert "a/b" in diff.render() and "a/c" in diff.render()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_replay_equals_its_golden_record_for_record(name):
    """Replays reproduce their goldens ids included, so golden checks take
    `compare_traces`'s first path: one list comparison."""
    golden = parse_trace(golden_path(name).read_text(encoding="utf-8"))
    assert run_scenario(name).events == golden.events


def _reference_compare(produced, golden):
    """`compare_traces` without its fast path: the matcher on every pair."""
    left = canonicalize_lines(produced.lines())
    right = canonicalize_lines(golden.lines())
    matcher = difflib.SequenceMatcher(a=left, b=right, autojunk=False)
    return [
        DiffEntry(op=op, position=i1, got=tuple(left[i1:i2]), want=tuple(right[j1:j2]))
        for op, i1, i2, j1, j2 in matcher.get_opcodes()
        if op != "equal"
    ]


# Well-typed field values, with the ones canonicalization treats specially:
# the absent forms (None, "", "-") and a `|` that shifts a line's columns.
_IDS = st.sampled_from(["m1", "m2", "m3", "m7", "x-1"])
_TEXT = st.sampled_from(["", "-", "a", "b|c", "m1"])
_SMALL = st.integers(0, 3)
_RECORD = st.one_of(
    st.builds(
        AuditEvent,
        seq=_SMALL,
        logical_time=_SMALL,
        op=st.sampled_from([AuditOp.PUBLISH, AuditOp.DELIVER, "deliver"]),
        actor=_TEXT,
        message_id=st.none() | _IDS | _TEXT,
        model_id=st.none() | _TEXT,
        outcome=_TEXT,
    ),
    st.builds(
        EnvelopeEvent,
        logical_time=_SMALL,
        topic=st.sampled_from(["a/b", "a/c"]),
        kind=st.just("data"),
        session=_TEXT,
        origin=_TEXT,
        message_id=_IDS | _TEXT,
        detail=st.none() | _TEXT,
    ),
)


@st.composite
def _trace_pairs(draw):
    """A record list and a copy whose ids drift by a drawn renaming (not
    always one-to-one), then take insert, delete, replace and move edits."""
    produced = draw(st.lists(_RECORD, max_size=10))
    rename = draw(st.dictionaries(_IDS, _IDS, max_size=3))
    golden = [r._replace(message_id=rename.get(r.message_id, r.message_id)) for r in produced]
    edit = st.tuples(
        st.sampled_from(["insert", "delete", "replace", "move"]), st.integers(0, 10), _RECORD
    )
    for op, at, record in draw(st.lists(edit, max_size=3)):
        at = min(at, len(golden))
        if op == "insert":
            golden.insert(at, record)
        elif op == "move":
            golden[:0] = golden[at : at + 1]
            del golden[at + 1 : at + 2]
        elif at < len(golden):
            golden[at : at + 1] = [record] if op == "replace" else []
    pair = (Trace(produced), Trace(golden))
    return pair[::-1] if draw(st.booleans()) else pair


def _three(message_id="m1", detail="a"):
    return Trace([_envelope(1, message_id, detail=detail), _audit(1, 2, message_id), _audit(2, 3)])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_trace_pairs())
@example((_three(), _three()))  # identical lists
@example((_three(), parse_trace(_three().render())))  # identical, `op` a str vs an AuditOp
@example((_three(), _three(message_id="m5")))  # only ids drifted
@example((_three(), _three(detail="b")))  # one real difference
def test_compare_traces_entries_equal_the_matchers_on_every_pair(pair):
    produced, golden = pair
    assert compare_traces(produced, golden).entries == _reference_compare(produced, golden)
