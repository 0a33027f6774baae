"""Negotiation sessions: phases, scales, version bridging, adapters."""

import json
from fractions import Fraction

import pytest

from interconnect.errors import (
    AdapterSynthesisFailed,
    MissingScaleDeclaration,
    NegotiationFailed,
    NonOverlappingSemantics,
)
from interconnect.fabric import Fabric
from interconnect.negotiation import (
    AdapterSpec,
    CompatVerdict,
    Negotiator,
    Phase,
    SchemaMapping,
    apply_adapter,
)
from interconnect.registry import parse_descriptor


def descriptor(model_id, version="1.0.0", model_type="analytics", caps=None):
    capabilities = [
        {"name": name, "params": params or {}} for name, params in (caps or {}).items()
    ]
    return parse_descriptor(
        json.dumps(
            {
                "modelId": model_id,
                "modelType": model_type,
                "version": version,
                "category": "Specialized",
                "architecture": {"family": "transformer", "parameterScaleLabel": "small"},
                "capabilities": capabilities,
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


def make_negotiator(**kwargs):
    return Negotiator(Fabric(), **kwargs)


def open_pair(negotiator, a, b, context="test"):
    return negotiator.open_session(a, b, context=context)


# -- phases ----------------------------------------------------------------------


def test_open_session_audits_and_records():
    fabric = Fabric()
    negotiator = Negotiator(fabric)
    a = descriptor("a", caps={"predict": None})
    b = descriptor("b", caps={"predict": None})
    session = negotiator.open_session(a, b, context="pairing")
    assert session.phase is Phase.OPENED
    assert (session.peer_a.model_id, session.peer_b.model_id) == ("a", "b")
    (record,) = fabric.audit_log.query(ops=["negotiate"])
    assert (record.actor, record.model_id) == ("a", "b")
    envelope = fabric.last_envelope(f"negotiation/{session.session_id}")
    assert envelope.metadata["detail"].startswith("opened a@1.0.0")


def test_phase_may_only_move_forward():
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", caps={"predict": None}),
        descriptor("b", caps={"predict": None}),
    )
    negotiator.intersect_capabilities(session)
    assert session.phase is Phase.CAPABILITIES_EXCHANGED
    with pytest.raises(NegotiationFailed, match="forward"):
        negotiator.intersect_capabilities(session)


def test_failed_session_rejects_further_advances():
    negotiator = make_negotiator()
    session = open_pair(
        negotiator, descriptor("a", caps={"rank": None}), descriptor("b", caps={"sort": None})
    )
    with pytest.raises(NegotiationFailed):
        negotiator.intersect_capabilities(session)
    assert session.phase is Phase.FAILED
    assert session.failure_reason == "EmptyIntersection"
    with pytest.raises(NegotiationFailed, match="already failed"):
        negotiator._advance(session, Phase.CAPABILITIES_EXCHANGED, "retry")


def test_session_ids_follow_prefix():
    negotiator = make_negotiator(session_prefix="lab")
    a = descriptor("a", caps={"predict": None})
    b = descriptor("b", caps={"predict": None})
    assert negotiator.open_session(a, b).session_id == "lab-1"
    assert negotiator.open_session(a, b).session_id == "lab-2"


# -- capability intersection -------------------------------------------------------


def test_intersection_keeps_only_equal_params():
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", caps={"optimize": {"method": "gradient", "steps": "10"}, "tune": None}),
        descriptor("b", caps={"optimize": {"method": "gradient", "steps": "20"}, "rank": None}),
    )
    agreed = negotiator.intersect_capabilities(session)
    assert session.agreed_capability_names() == ["optimize"]
    assert agreed[0].params == {"method": "gradient"}


# -- scale alignment -----------------------------------------------------------------


def scale_pair(scale_a, scale_b):
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", caps={"optimize": {"scale": scale_a}}),
        descriptor("b", caps={"optimize": {"scale": scale_b}}),
    )
    negotiator.intersect_capabilities(session)
    return negotiator, session


def test_scale_requires_capability_exchange_first():
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", caps={"optimize": {"scale": "percent:0..100"}}),
        descriptor("b", caps={"optimize": {"scale": "fraction:0..1"}}),
    )
    with pytest.raises(ValueError):
        negotiator.negotiate_scale(session, "optimize")


def test_scale_prefers_dimensionless_unit():
    negotiator, session = scale_pair("percent:0..100", "fraction:0..1")
    scale = negotiator.negotiate_scale(session, "optimize")
    assert (scale.unit, scale.lo, scale.hi) == ("fraction", Fraction(0), Fraction(1))
    assert scale.to_canonical("a", Fraction(50)) == Fraction(1, 2)
    assert scale.from_canonical("a", Fraction(1, 2)) == Fraction(50)
    assert scale.to_canonical("b", Fraction(1, 2)) == Fraction(1, 2)
    assert session.phase is Phase.SCALE_ALIGNED


def test_scale_round_trip_is_exact_everywhere():
    negotiator, session = scale_pair("permille:0..1000", "percent:0..100")
    scale = negotiator.negotiate_scale(session, "optimize")
    for raw in (Fraction(0), Fraction(1), Fraction(333), Fraction(999, 7)):
        assert scale.from_canonical("a", scale.to_canonical("a", raw)) == raw


def test_scale_without_dimensionless_picks_smaller_unit_name():
    negotiator, session = scale_pair("permille:0..1000", "percent:0..100")
    scale = negotiator.negotiate_scale(session, "optimize")
    assert scale.unit == "percent"
    assert (scale.lo, scale.hi) == (Fraction(0), Fraction(100))


def test_scale_range_is_union_of_converted_ranges():
    negotiator, session = scale_pair("percent:20..80", "fraction:0..1")
    scale = negotiator.negotiate_scale(session, "optimize")
    assert (scale.lo, scale.hi) == (Fraction(0), Fraction(1))
    assert scale.to_canonical("a", Fraction(20)) == Fraction(0)
    assert scale.to_canonical("a", Fraction(80)) == Fraction(1)


def test_missing_or_degenerate_scale_declarations():
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", caps={"optimize": {"scale": "percent:0..100"}}),
        descriptor("b", caps={"optimize": None}),
    )
    negotiator.intersect_capabilities(session)
    with pytest.raises(MissingScaleDeclaration):
        negotiator.negotiate_scale(session, "optimize")
    bad_scales = (
        "percent", "percent:1", "percent:5..5", "percent:9..1", ":0..1",
        "percent:0..1e5000", "percent:0..1_000",
    )
    for bad in bad_scales:
        negotiator, session = scale_pair(bad, "fraction:0..1")
        with pytest.raises(MissingScaleDeclaration):
            negotiator.negotiate_scale(session, "optimize")
        assert session.phase is Phase.FAILED
    # An exponent endpoint once raised a raw ValueError out of
    # run_to_completion, leaving the session in CapabilitiesExchanged.
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", caps={"optimize": {"scale": "percent:0..1e5000"}}),
        descriptor("b", caps={"optimize": {"scale": "fraction:0..1"}}),
    )
    assert negotiator.run_to_completion(session) is session
    assert (session.phase, session.failure_reason) == (
        Phase.FAILED,
        "MissingScaleDeclaration(optimize)",
    )


def test_unconvertible_units_fail_the_session():
    negotiator, session = scale_pair("celsius:0..40", "fraction:0..1")
    with pytest.raises(NonOverlappingSemantics):
        negotiator.negotiate_scale(session, "optimize")
    assert session.phase is Phase.FAILED
    assert session.failure_reason == "NonOverlappingSemantics(optimize)"


def test_equal_unknown_units_still_align():
    negotiator, session = scale_pair("db:0..60", "db:0..60")
    scale = negotiator.negotiate_scale(session, "optimize")
    assert scale.unit == "db"
    assert scale.to_canonical("a", Fraction(30)) == Fraction(30)


# -- version compatibility -------------------------------------------------------------


def version_pair(version_a, version_b, mappings=()):
    negotiator = make_negotiator()
    for mapping in mappings:
        negotiator.register_schema_mapping(mapping)
    session = open_pair(
        negotiator,
        descriptor("a", version=version_a, caps={"predict": None}),
        descriptor("b", version=version_b, caps={"predict": None}),
    )
    negotiator.intersect_capabilities(session)
    return negotiator, session


def test_equal_majors_are_compatible():
    negotiator, session = version_pair("1.4.2", "1.0.0")
    assert negotiator.check_version_compat(session) is CompatVerdict.COMPATIBLE
    assert session.phase is Phase.VERSION_CHECKED


def test_differing_majors_without_mapping_are_incompatible():
    negotiator, session = version_pair("1.0.0", "2.0.0")
    assert negotiator.check_version_compat(session) is CompatVerdict.INCOMPATIBLE


def test_mapping_enables_adapter_verdict():
    mapping = SchemaMapping("analytics", 1, 2, source_fields=("x",))
    negotiator, session = version_pair("1.0.0", "2.0.0", mappings=[mapping])
    assert negotiator.check_version_compat(session) is CompatVerdict.REQUIRES_ADAPTER


def test_adapters_disabled_forces_incompatible():
    negotiator = make_negotiator(adapters_enabled=False)
    negotiator.register_schema_mapping(SchemaMapping("analytics", 1, 2))
    session = open_pair(
        negotiator,
        descriptor("a", version="1.0.0", caps={"predict": None}),
        descriptor("b", version="2.0.0", caps={"predict": None}),
    )
    negotiator.intersect_capabilities(session)
    assert negotiator.check_version_compat(session) is CompatVerdict.INCOMPATIBLE


def test_mapping_requires_matching_model_type():
    mapping = SchemaMapping("telemetry", 1, 2)
    negotiator = make_negotiator()
    negotiator.register_schema_mapping(mapping)
    session = open_pair(
        negotiator,
        descriptor("a", version="1.0.0", model_type="analytics", caps={"predict": None}),
        descriptor("b", version="2.0.0", model_type="telemetry", caps={"predict": None}),
    )
    negotiator.intersect_capabilities(session)
    assert negotiator.check_version_compat(session) is CompatVerdict.INCOMPATIBLE


# -- adapter synthesis --------------------------------------------------------------------


def test_build_adapter_composes_mapping_chain():
    mappings = [
        SchemaMapping(
            "analytics",
            1,
            2,
            field_renames={"a": "b"},
            defaults_for_new_fields={"w": 1},
            source_fields=("a", "keep"),
        ),
        SchemaMapping(
            "analytics",
            2,
            3,
            field_renames={"b": "c"},
            dropped_fields=("legacy",),
        ),
    ]
    negotiator, session = version_pair("1.0.0", "3.0.0", mappings=mappings)
    negotiator.check_version_compat(session)
    spec = negotiator.build_adapter(session)
    assert session.phase is Phase.AGREED
    assert spec.from_version == "1.0.0" and spec.to_version == "3.0.0"
    assert spec.field_renames == {"a": "c"}
    assert spec.defaults_for_new_fields == {"w": 1}
    assert spec.dropped_fields == ("legacy",)


def test_build_adapter_requires_verdict():
    negotiator, session = version_pair("1.0.0", "1.2.0")
    with pytest.raises(ValueError):
        negotiator.build_adapter(session)


def test_adapter_rejects_rename_of_unknown_source():
    mapping = SchemaMapping(
        "analytics", 1, 2, field_renames={"ghost": "x"}, source_fields=("present",)
    )
    negotiator, session = version_pair("1.0.0", "2.0.0", mappings=[mapping])
    negotiator.check_version_compat(session)
    with pytest.raises(AdapterSynthesisFailed):
        negotiator.build_adapter(session)
    assert session.phase is Phase.FAILED


def test_adapter_rejects_rename_drop_overlap():
    mapping = SchemaMapping(
        "analytics",
        1,
        2,
        field_renames={"a": "b"},
        dropped_fields=("a",),
        source_fields=("a",),
    )
    negotiator, session = version_pair("1.0.0", "2.0.0", mappings=[mapping])
    negotiator.check_version_compat(session)
    with pytest.raises(AdapterSynthesisFailed):
        negotiator.build_adapter(session)


def test_apply_adapter_renames_defaults_drops():
    spec = AdapterSpec(
        from_version="1.0.0",
        to_version="2.0.0",
        field_renames={"avg-load": "load-mean"},
        defaults_for_new_fields={"window": 10},
        dropped_fields=("legacy-flag",),
    )
    fabric = Fabric()
    fabric.create_topic("stats/area")
    envelope = fabric.envelope(
        "stats/area",
        json.dumps({"avg-load": "7/10", "peak": "9/10", "legacy-flag": True}),
        kind="data",
        session="s",
        origin="a",
    )
    adapted = apply_adapter(spec, envelope)
    doc = json.loads(adapted.payload)
    assert doc == {"load-mean": "7/10", "peak": "9/10", "window": 10}
    twice = apply_adapter(spec, adapted)
    assert twice.payload == adapted.payload


# -- end to end -----------------------------------------------------------------------------


def test_run_to_completion_happy_path():
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", caps={"optimize": {"scale": "percent:0..100"}, "tune": None}),
        descriptor("b", caps={"optimize": {"scale": "fraction:0..1"}}),
    )
    negotiator.run_to_completion(session)
    assert session.phase is Phase.AGREED
    assert session.agreed_capability_names() == ["optimize"]
    assert session.agreed_scale is not None
    assert session.agreed_scale.unit == "fraction"
    phases = [e.phase for e in session.transcript]
    assert phases == [
        "Opened",
        "CapabilitiesExchanged",
        "ScaleAligned",
        "VersionChecked",
        "Agreed",
    ]


def test_run_to_completion_scale_found_despite_param_merge():
    # The shared scale metric is read from the original declarations, which
    # differ between peers, so the merged capability params cannot carry it.
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", caps={"optimize": {"scale": "percent:0..100"}}),
        descriptor("b", caps={"optimize": {"scale": "fraction:0..1"}}),
    )
    negotiator.run_to_completion(session)
    assert session.agreed_capabilities[0].params == {}
    assert session.agreed_scale is not None


def test_run_to_completion_version_mismatch_fails():
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", version="1.0.0", caps={"predict": None}),
        descriptor("b", version="2.0.0", caps={"predict": None}),
    )
    negotiator.run_to_completion(session)
    assert session.phase is Phase.FAILED
    assert session.failure_reason == "VersionIncompatible"


def test_run_to_completion_fails_on_malformed_scale():
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", caps={"optimize": {"scale": "percent:0..x"}}),
        descriptor("b", caps={"optimize": {"scale": "fraction:0..1"}}),
    )
    negotiator.run_to_completion(session)
    assert session.phase is Phase.FAILED
    assert session.failure_reason == "MissingScaleDeclaration(optimize)"
    assert session.transcript[-1].detail == "failed MissingScaleDeclaration(optimize)"


def test_run_to_completion_without_scales_skips_alignment():
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", caps={"predict": None}),
        descriptor("b", caps={"predict": None}),
    )
    negotiator.run_to_completion(session)
    assert session.phase is Phase.AGREED
    assert session.agreed_scale is None
    phases = [e.phase for e in session.transcript]
    assert "ScaleAligned" not in phases


def test_transcript_logical_times_never_decrease():
    negotiator = make_negotiator()
    session = open_pair(
        negotiator,
        descriptor("a", caps={"predict": None}),
        descriptor("b", caps={"predict": None}),
    )
    negotiator.run_to_completion(session)
    times = [e.logical_time for e in session.transcript]
    assert len(times) > 1
    assert times == sorted(times)
