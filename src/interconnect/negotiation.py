"""Peer negotiation: capabilities, measurement scales, version bridging.

Two model descriptors open a session that walks a monotone phase ladder
(Opened, CapabilitiesExchanged, ScaleAligned, VersionChecked, Agreed) with
Failed reachable from anywhere. Every transition is appended to the session
transcript and mirrored as a kind=control envelope on negotiation/<sessionId>
so the whole exchange is auditable after the fact.

Scale alignment is exact: transforms are affine (canonical = a*raw + b) over
fractions.Fraction, so converting a value to the canonical scale and back
returns the original bit for bit. When peer majors differ the negotiator
tries to bridge with an adapter composed from registered schema mappings;
ossified pairs with no mapping path fail instead of silently disagreeing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction

from .errors import (
    AdapterSynthesisFailed,
    MissingScaleDeclaration,
    NegotiationFailed,
    NonOverlappingSemantics,
)
from .fabric import KIND_CONTROL, AuditOp, Fabric, MessageEnvelope
from .registry import ModelDescriptor
from .simnet import parse_exact


class Phase(IntEnum):
    """Session phases in their only legal order; FAILED is terminal."""

    OPENED = 1
    CAPABILITIES_EXCHANGED = 2
    SCALE_ALIGNED = 3
    VERSION_CHECKED = 4
    AGREED = 5
    FAILED = 99

    def label(self) -> str:
        return _PHASE_LABELS[self]


_PHASE_LABELS = {
    Phase.OPENED: "Opened",
    Phase.CAPABILITIES_EXCHANGED: "CapabilitiesExchanged",
    Phase.SCALE_ALIGNED: "ScaleAligned",
    Phase.VERSION_CHECKED: "VersionChecked",
    Phase.AGREED: "Agreed",
    Phase.FAILED: "Failed",
}


class CompatVerdict(str, Enum):
    COMPATIBLE = "Compatible"
    REQUIRES_ADAPTER = "RequiresAdapter"
    INCOMPATIBLE = "Incompatible"


@dataclass(frozen=True)
class UnitDef:
    """Affine conversion of a unit onto its dimension's base unit."""

    dimension: str
    to_base_a: Fraction
    to_base_b: Fraction
    dimensionless: bool = False


DEFAULT_UNIT_TABLE: dict[str, UnitDef] = {
    "fraction": UnitDef("ratio", Fraction(1), Fraction(0), dimensionless=True),
    "percent": UnitDef("ratio", Fraction(1, 100), Fraction(0)),
    "permille": UnitDef("ratio", Fraction(1, 1000), Fraction(0)),
}


@dataclass(frozen=True)
class CanonicalScale:
    """Agreed measurement scale plus each peer's exact transform."""

    metric: str
    unit: str
    lo: Fraction
    hi: Fraction
    transforms: dict[str, tuple[Fraction, Fraction]]  # peer model id -> (a, b)

    def to_canonical(self, peer: str, raw: Fraction) -> Fraction:
        a, b = self.transforms[peer]
        return a * raw + b

    def from_canonical(self, peer: str, value: Fraction) -> Fraction:
        a, b = self.transforms[peer]
        return (value - b) / a


@dataclass(frozen=True)
class AdapterSpec:
    """Field-level bridge from one major version's payloads to another's."""

    from_version: str
    to_version: str
    field_renames: dict[str, str]
    defaults_for_new_fields: dict[str, object]
    dropped_fields: tuple[str, ...]


@dataclass(frozen=True)
class SchemaMapping:
    """Registered knowledge of how one major maps onto the next."""

    model_type: str
    from_major: int
    to_major: int
    field_renames: dict[str, str] = field(default_factory=dict)
    defaults_for_new_fields: dict[str, object] = field(default_factory=dict)
    dropped_fields: tuple[str, ...] = ()
    source_fields: tuple[str, ...] = ()


@dataclass
class TranscriptEntry:
    phase: str
    logical_time: int
    detail: str


@dataclass
class NegotiationSession:
    """State of one pairwise negotiation."""

    session_id: str
    peer_a: ModelDescriptor
    peer_b: ModelDescriptor
    context: str
    phase: Phase = Phase.OPENED
    transcript: list[TranscriptEntry] = field(default_factory=list)
    agreed_capabilities: tuple = ()
    agreed_scale: CanonicalScale | None = None
    compat_verdict: CompatVerdict | None = None
    adapter: AdapterSpec | None = None
    failure_reason: str | None = None

    def agreed_capability_names(self) -> list[str]:
        return sorted(c.name for c in self.agreed_capabilities)


def _parse_scale_declaration(raw: str) -> tuple[str, Fraction, Fraction]:
    """Parse 'unit:lo..hi' into endpoints read by `parse_exact`; anything
    else, `1e5000` included, raises MissingScaleDeclaration, and
    `negotiate_scale` fails the session with `MissingScaleDeclaration(<metric>)`."""
    unit, sep, span = raw.partition(":")
    if not sep or ".." not in span:
        raise MissingScaleDeclaration(f"malformed scale declaration {raw!r}")
    lo_raw, _, hi_raw = span.partition("..")
    try:
        lo, hi = parse_exact(lo_raw), parse_exact(hi_raw)
    except ValueError as exc:
        raise MissingScaleDeclaration(f"bad endpoints in scale {raw!r}") from exc
    if not unit or lo >= hi:
        raise MissingScaleDeclaration(f"degenerate scale {raw!r}")
    return unit, lo, hi


def apply_adapter(spec: AdapterSpec, envelope: MessageEnvelope) -> MessageEnvelope:
    """Pure payload transform: rename, default, drop.

    Returns a fresh unpublished envelope; applying the adapter to its own
    output is the identity as long as mapping targets are not also sources.
    """
    doc = json.loads(envelope.payload.decode("utf-8"))
    for src in sorted(spec.field_renames):
        if src in doc:
            doc[spec.field_renames[src]] = doc.pop(src)
    for key in sorted(spec.defaults_for_new_fields):
        doc.setdefault(key, spec.defaults_for_new_fields[key])
    for key in spec.dropped_fields:
        doc.pop(key, None)
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    return MessageEnvelope(
        topic=envelope.topic, payload=payload, metadata=dict(envelope.metadata)
    )


class Negotiator:
    """Drives negotiation sessions over an attached fabric."""

    def __init__(
        self,
        fabric: Fabric,
        *,
        adapters_enabled: bool = True,
        session_prefix: str = "sess",
    ):
        self._fabric = fabric
        self.adapters_enabled = adapters_enabled
        self._mappings: list[SchemaMapping] = []
        self._prefix = session_prefix
        self._count = 0

    def register_schema_mapping(self, mapping: SchemaMapping) -> None:
        """Teach the negotiator how one major version maps onto another."""
        self._mappings.append(mapping)

    # -- transcript plumbing -------------------------------------------------

    def _record(self, session: NegotiationSession, detail: str) -> None:
        topic = f"negotiation/{session.session_id}"
        envelope = self._fabric.envelope(
            topic,
            detail,
            kind=KIND_CONTROL,
            session=session.session_id,
            origin="negotiator",
            detail=detail,
        )
        self._fabric.publish(envelope)
        session.transcript.append(
            TranscriptEntry(session.phase.label(), envelope.logical_time, detail)
        )

    def _advance(self, session: NegotiationSession, phase: Phase, detail: str) -> None:
        if session.phase is Phase.FAILED:
            raise NegotiationFailed(f"session {session.session_id} already failed")
        if phase is not Phase.FAILED and phase <= session.phase:
            raise NegotiationFailed(
                f"phase may only move forward ({session.phase.label()} -> {phase.label()})"
            )
        session.phase = phase
        self._record(session, detail)

    def _fail(self, session: NegotiationSession, reason: str) -> None:
        session.failure_reason = reason
        session.phase = Phase.FAILED
        self._record(session, f"failed {reason}")

    # -- operations ------------------------------------------------------------

    def open_session(
        self, a: ModelDescriptor, b: ModelDescriptor, context: str = ""
    ) -> NegotiationSession:
        """Open a session between two peers; audits op=negotiate."""
        self._count += 1
        session = NegotiationSession(
            session_id=f"{self._prefix}-{self._count}",
            peer_a=a,
            peer_b=b,
            context=context,
        )
        self._fabric.create_topic(f"negotiation/{session.session_id}")
        self._fabric.audit(
            AuditOp.NEGOTIATE, actor=a.model_id, model_id=b.model_id
        )
        self._record(
            session,
            f"opened {a.model_id}@{a.version.render()} <-> "
            f"{b.model_id}@{b.version.render()} context={context or '-'}",
        )
        return session

    def intersect_capabilities(self, session: NegotiationSession):
        """Agree on the by-name capability intersection; empty fails the session."""
        a_caps = {c.name: c for c in session.peer_a.capabilities}
        b_caps = {c.name: c for c in session.peer_b.capabilities}
        shared = sorted(set(a_caps) & set(b_caps))
        if not shared:
            self._fail(session, "EmptyIntersection")
            raise NegotiationFailed("EmptyIntersection")
        agreed = []
        for name in shared:
            params_a, params_b = a_caps[name].params, b_caps[name].params
            merged = {k: v for k, v in sorted(params_a.items()) if params_b.get(k) == v}
            agreed.append(type(a_caps[name])(name=name, params=merged))
        session.agreed_capabilities = tuple(agreed)
        self._advance(
            session,
            Phase.CAPABILITIES_EXCHANGED,
            f"capabilities {','.join(shared)}",
        )
        return session.agreed_capabilities

    def _to_unit(self, value: Fraction, from_unit: str, to_unit: str) -> Fraction:
        if from_unit == to_unit:
            return value
        src, dst = DEFAULT_UNIT_TABLE[from_unit], DEFAULT_UNIT_TABLE[to_unit]
        base = src.to_base_a * value + src.to_base_b
        return (base - dst.to_base_b) / dst.to_base_a

    def negotiate_scale(self, session: NegotiationSession, metric: str) -> CanonicalScale:
        """Fix a canonical scale for one metric both peers declare.

        The canonical unit is the dimensionless one if either peer uses it,
        else the lexicographically smaller; the canonical range is the union
        of the unit-converted peer ranges; each peer's transform maps its
        declared endpoints exactly onto the canonical endpoints. A missing or
        malformed declaration fails the session before the error propagates.
        """
        if session.phase is not Phase.CAPABILITIES_EXCHANGED:
            raise ValueError("negotiate_scale requires phase CapabilitiesExchanged")
        decls = {}
        for peer in (session.peer_a, session.peer_b):
            cap = peer.capability(metric)
            scale_raw = cap.params.get("scale") if cap else None
            try:
                if not scale_raw:
                    raise MissingScaleDeclaration(
                        f"{peer.model_id} declares no scale for {metric!r}"
                    )
                decls[peer.model_id] = _parse_scale_declaration(scale_raw)
            except MissingScaleDeclaration:
                self._fail(session, f"MissingScaleDeclaration({metric})")
                raise

        (id_a, (unit_a, lo_a, hi_a)), (id_b, (unit_b, lo_b, hi_b)) = decls.items()
        units = DEFAULT_UNIT_TABLE
        dim_a = units[unit_a].dimension if unit_a in units else f"unit:{unit_a}"
        dim_b = units[unit_b].dimension if unit_b in units else f"unit:{unit_b}"
        if unit_a != unit_b and dim_a != dim_b:
            self._fail(session, f"NonOverlappingSemantics({metric})")
            raise NonOverlappingSemantics(
                f"units {unit_a!r} and {unit_b!r} are not convertible"
            )

        if unit_a == unit_b:
            canonical_unit = unit_a
        else:
            dimensionless = [
                u for u in (unit_a, unit_b) if units[u].dimensionless
            ]
            canonical_unit = dimensionless[0] if dimensionless else min(unit_a, unit_b)

        conv_a = (self._to_unit(lo_a, unit_a, canonical_unit), self._to_unit(hi_a, unit_a, canonical_unit))
        conv_b = (self._to_unit(lo_b, unit_b, canonical_unit), self._to_unit(hi_b, unit_b, canonical_unit))
        lo = min(conv_a[0], conv_b[0])
        hi = max(conv_a[1], conv_b[1])

        transforms = {}
        for peer_id, (unit, p_lo, p_hi) in decls.items():
            a = (hi - lo) / (p_hi - p_lo)
            b = lo - a * p_lo
            transforms[peer_id] = (a, b)

        scale = CanonicalScale(metric=metric, unit=canonical_unit, lo=lo, hi=hi, transforms=transforms)
        session.agreed_scale = scale
        self._advance(
            session,
            Phase.SCALE_ALIGNED,
            f"scale {metric} {canonical_unit}:{lo}..{hi}",
        )
        return scale

    def check_version_compat(self, session: NegotiationSession) -> CompatVerdict:
        """Equal majors are compatible; unequal ones need a mapping path."""
        if session.phase not in (Phase.CAPABILITIES_EXCHANGED, Phase.SCALE_ALIGNED):
            raise ValueError("check_version_compat runs after capability exchange")
        major_a = session.peer_a.version.major
        major_b = session.peer_b.version.major
        if major_a == major_b:
            verdict = CompatVerdict.COMPATIBLE
        elif self.adapters_enabled and self._mapping_path(session) is not None:
            verdict = CompatVerdict.REQUIRES_ADAPTER
        else:
            verdict = CompatVerdict.INCOMPATIBLE
        session.compat_verdict = verdict
        self._advance(session, Phase.VERSION_CHECKED, f"versions {verdict.value}")
        return verdict

    def _mapping_path(self, session: NegotiationSession) -> list[SchemaMapping] | None:
        """Shortest composition of registered mappings between the peer majors."""
        if session.peer_a.model_type != session.peer_b.model_type:
            return None
        model_type = session.peer_a.model_type
        start = min(session.peer_a.version.major, session.peer_b.version.major)
        goal = max(session.peer_a.version.major, session.peer_b.version.major)
        frontier: list[tuple[int, list[SchemaMapping]]] = [(start, [])]
        seen = {start}
        while frontier:
            major, path = frontier.pop(0)
            if major == goal:
                return path
            for mapping in self._mappings:
                if mapping.model_type == model_type and mapping.from_major == major:
                    if mapping.to_major not in seen:
                        seen.add(mapping.to_major)
                        frontier.append((mapping.to_major, path + [mapping]))
        return None

    def build_adapter(self, session: NegotiationSession) -> AdapterSpec:
        """Compose the mapping path into an AdapterSpec and agree."""
        if session.compat_verdict is not CompatVerdict.REQUIRES_ADAPTER:
            raise ValueError("build_adapter requires a RequiresAdapter verdict")
        path = self._mapping_path(session)
        if not path:
            self._fail(session, "AdapterSynthesisFailed")
            raise AdapterSynthesisFailed("no mapping path between peer majors")

        renames: dict[str, str] = {}
        defaults: dict[str, object] = {}
        dropped: list[str] = []
        source_fields = set(path[0].source_fields)
        known = set(source_fields)
        for mapping in path:
            for src, dst in mapping.field_renames.items():
                origin = next((k for k, v in renames.items() if v == src), None)
                if origin is not None:
                    renames[origin] = dst
                else:
                    renames[src] = dst
            for key, value in mapping.defaults_for_new_fields.items():
                defaults[key] = value
                known.add(key)
            dropped.extend(mapping.dropped_fields)

        for src in renames:
            if src not in source_fields:
                self._fail(session, "AdapterSynthesisFailed")
                raise AdapterSynthesisFailed(
                    f"rename source {src!r} missing from source schema"
                )
        overlap = set(renames) & set(dropped)
        if overlap:
            self._fail(session, "AdapterSynthesisFailed")
            raise AdapterSynthesisFailed(
                f"fields both renamed and dropped: {sorted(overlap)}"
            )

        older, newer = sorted(
            (session.peer_a, session.peer_b), key=lambda d: d.version
        )
        spec = AdapterSpec(
            from_version=older.version.render(),
            to_version=newer.version.render(),
            field_renames=renames,
            defaults_for_new_fields=defaults,
            dropped_fields=tuple(dropped),
        )
        session.adapter = spec
        self._agree(session, f"adapter {spec.from_version}->{spec.to_version}")
        return spec

    def _agree(self, session: NegotiationSession, note: str) -> None:
        if not session.agreed_capabilities:
            raise NegotiationFailed("cannot agree without shared capabilities")
        names = ",".join(session.agreed_capability_names())
        self._advance(session, Phase.AGREED, f"agreed {names} ({note})")

    def run_to_completion(self, session: NegotiationSession) -> NegotiationSession:
        """Drive a fresh session to Agreed or Failed, swallowing protocol errors.

        Scale alignment runs for the first shared capability (name order)
        that both peers declare a scale for; sessions without shared scale
        metrics go straight from capability exchange to the version check.
        """
        try:
            self.intersect_capabilities(session)
            metric = self._first_shared_scale_metric(session)
            if metric is not None:
                self.negotiate_scale(session, metric)
            verdict = self.check_version_compat(session)
            if verdict is CompatVerdict.COMPATIBLE:
                self._agree(session, "versions compatible")
            elif verdict is CompatVerdict.REQUIRES_ADAPTER:
                self.build_adapter(session)
            else:
                self._fail(session, "VersionIncompatible")
        except (
            NegotiationFailed,
            MissingScaleDeclaration,
            NonOverlappingSemantics,
            AdapterSynthesisFailed,
        ):
            if session.phase is not Phase.FAILED:
                self._fail(session, "ProtocolError")
        return session

    def _first_shared_scale_metric(self, session: NegotiationSession) -> str | None:
        for cap in session.agreed_capabilities:
            a = session.peer_a.capability(cap.name)
            b = session.peer_b.capability(cap.name)
            if a and b and a.params.get("scale") and b.params.get("scale"):
                return cap.name
        return None
