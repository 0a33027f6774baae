"""Trace records, serialization, and golden comparison."""

import pytest

from interconnect.cli import golden_path
from interconnect.errors import GoldenParseError
from interconnect.scenarios import SCENARIOS
from interconnect.trace import (
    AuditEvent,
    AuditOp,
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
