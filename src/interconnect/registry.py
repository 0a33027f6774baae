"""Model registry: descriptors, versions, capability queries, update cycles.

Descriptors travel as JSON documents (`.model.json`). Parsing is strict about
the declared field set but never drops what it does not understand: unknown
keys are kept in per-object extras maps and serialized back out, so two sides
running different descriptor generations can keep talking. The JSON schema
for the document lives in docs/model-descriptor.schema.json.

The registry announces every registration and version bump as a model-update
envelope on registry/<modelId> when a fabric is attached; learning
contributions buffer until the configured update cycle length is reached and
then bump the patch version. The announced payload is `serialize_descriptor`
of the filed version: compact canonical JSON with keys sorted at every level,
`,` and `:` separators and no other whitespace, non-ASCII characters escaped
as `\\uXXXX`, and one trailing newline.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import (
    BadQuery,
    BadValue,
    DescriptorParseError,
    DuplicateModelVersion,
    MissingField,
    UnknownModel,
)
from .fabric import KIND_MODEL_UPDATE, Fabric, MessageEnvelope


@dataclass(frozen=True, order=True)
class Version:
    """Three-part semantic version."""

    major: int
    minor: int
    patch: int

    @classmethod
    def parse(cls, text: str) -> Version:
        parts = text.split(".")
        if len(parts) != 3 or not all(p.isdigit() for p in parts):
            raise ValueError(f"not a three-part version: {text!r}")
        return cls(int(parts[0]), int(parts[1]), int(parts[2]))

    def bump(self, part: str) -> Version:
        """Increment one part, resetting the lower ones."""
        if part == "major":
            return Version(self.major + 1, 0, 0)
        if part == "minor":
            return Version(self.major, self.minor + 1, 0)
        if part == "patch":
            return Version(self.major, self.minor, self.patch + 1)
        raise ValueError(f"unknown version part {part!r}")

    def render(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}"


class ModelCategory(str, Enum):
    FOUNDATION = "Foundation"
    SPECIALIZED = "Specialized"
    HYBRID = "Hybrid"
    CONTROLLER = "Controller"


@dataclass(frozen=True)
class Capability:
    """One named capability with free-form string parameters."""

    name: str
    params: dict[str, str] = field(default_factory=dict)
    extras: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Architecture:
    family: str
    parameter_scale_label: str
    custom_elements: tuple[str, ...] = ()
    extras: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Performance:
    rate_limit_per_tick: int
    latency_ticks: int
    throughput_per_tick: int
    max_concurrent: int
    extras: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Security:
    auth_methods: tuple[str, ...]
    encryption: tuple[str, ...]
    privacy_policy: str
    extras: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ModelDescriptor:
    """Everything the interconnect knows about one model version."""

    model_id: str
    model_type: str
    version: Version
    category: ModelCategory
    architecture: Architecture
    capabilities: tuple[Capability, ...]
    domains: tuple[str, ...] = ()
    hyperparameters: dict[str, object] = field(default_factory=dict)
    performance: Performance = Performance(1, 1, 1, 1)
    security: Security = Security((), (), "unspecified")
    extras: dict[str, object] = field(default_factory=dict)

    def capability_names(self) -> frozenset[str]:
        return frozenset(c.name for c in self.capabilities)

    def capability(self, name: str) -> Capability | None:
        for cap in self.capabilities:
            if cap.name == name:
                return cap
        return None


def _require(obj: dict, key: str, path: str):
    """`obj[key]`; `path` is the field's full path, named by MissingField."""
    if key not in obj:
        raise MissingField(path)
    return obj[key]


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise BadValue(path, "expected a non-empty string")
    return value


def _expect_str_list(value, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise BadValue(path, "expected a list of strings")
    return tuple(value)


def _split_extras(obj: dict, known: frozenset[str]) -> dict[str, object]:
    if obj.keys() <= known:
        return {}
    return {k: obj[k] for k in obj if k not in known}


_ARCHITECTURE_KEYS = frozenset({"family", "parameterScaleLabel", "customElements"})
_PERFORMANCE_FIELDS = ("rateLimitPerTick", "latencyTicks", "throughputPerTick", "maxConcurrent")
_PERFORMANCE_KEYS = frozenset(_PERFORMANCE_FIELDS)
_SECURITY_KEYS = frozenset({"authMethods", "encryption", "privacyPolicy"})
_CAPABILITY_KEYS = frozenset({"name", "params"})
_TOP_LEVEL_KEYS = frozenset(
    {
        "modelId",
        "modelType",
        "version",
        "category",
        "architecture",
        "hyperparameters",
        "capabilities",
        "domains",
        "performance",
        "security",
    }
)


def _parse_architecture(obj) -> Architecture:
    if not isinstance(obj, dict):
        raise BadValue("architecture", "expected an object")
    family = _expect_str(_require(obj, "family", "architecture.family"), "architecture.family")
    label = _expect_str(
        _require(obj, "parameterScaleLabel", "architecture.parameterScaleLabel"),
        "architecture.parameterScaleLabel",
    )
    custom = _expect_str_list(obj.get("customElements", []), "architecture.customElements")
    return Architecture(family, label, custom, _split_extras(obj, _ARCHITECTURE_KEYS))


def _parse_performance(obj) -> Performance:
    if not isinstance(obj, dict):
        raise BadValue("performance", "expected an object")
    values = []
    for key in _PERFORMANCE_FIELDS:
        if key not in obj:
            raise MissingField(f"performance.{key}")
        raw = obj[key]
        if not isinstance(raw, int) or isinstance(raw, bool) or raw <= 0:
            raise BadValue(f"performance.{key}", "expected a positive integer")
        values.append(raw)
    return Performance(*values, _split_extras(obj, _PERFORMANCE_KEYS))


def _parse_security(obj) -> Security:
    if not isinstance(obj, dict):
        raise BadValue("security", "expected an object")
    auth = _expect_str_list(
        _require(obj, "authMethods", "security.authMethods"), "security.authMethods"
    )
    enc = _expect_str_list(
        _require(obj, "encryption", "security.encryption"), "security.encryption"
    )
    policy = _expect_str(
        _require(obj, "privacyPolicy", "security.privacyPolicy"), "security.privacyPolicy"
    )
    return Security(auth, enc, policy, _split_extras(obj, _SECURITY_KEYS))


def _parse_capability(obj, index: int) -> Capability:
    """One capability object; its path, `capabilities[index]`, is built only
    for an error."""
    if not isinstance(obj, dict):
        raise BadValue(f"capabilities[{index}]", "expected an object")
    if "name" not in obj:
        raise MissingField(f"capabilities[{index}].name")
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise BadValue(f"capabilities[{index}].name", "expected a non-empty string")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise BadValue(f"capabilities[{index}].params", "expected an object of string values")
    for key, value in params.items():
        if not isinstance(value, str):
            raise BadValue(f"capabilities[{index}].params.{key}", "expected a string value")
    return Capability(name, dict(params), _split_extras(obj, _CAPABILITY_KEYS))


def parse_descriptor(document: bytes | str) -> ModelDescriptor:
    """Parse a descriptor document; unknown keys survive in extras maps.

    Fields are checked in document-schema order, and the first fault raises:
    DescriptorParseError for a document that is not a JSON object, else
    MissingField or BadValue naming the field's path.
    """
    try:
        text = document.decode("utf-8") if isinstance(document, bytes) else document
        obj = json.loads(text)
    except UnicodeDecodeError as exc:
        raise DescriptorParseError(str(exc), position=exc.start) from exc
    except json.JSONDecodeError as exc:
        raise DescriptorParseError(str(exc), position=exc.pos) from exc
    if not isinstance(obj, dict):
        raise DescriptorParseError("descriptor document must be a JSON object")

    model_id = _expect_str(_require(obj, "modelId", "modelId"), "modelId")
    model_type = _expect_str(_require(obj, "modelType", "modelType"), "modelType")
    version_raw = _expect_str(_require(obj, "version", "version"), "version")
    try:
        version = Version.parse(version_raw)
    except ValueError as exc:
        raise BadValue("version", str(exc)) from exc
    category_raw = _expect_str(_require(obj, "category", "category"), "category")
    try:
        category = ModelCategory(category_raw)
    except ValueError as exc:
        raise BadValue("category", f"unknown category {category_raw!r}") from exc

    architecture = _parse_architecture(_require(obj, "architecture", "architecture"))
    caps_raw = _require(obj, "capabilities", "capabilities")
    if not isinstance(caps_raw, list):
        raise BadValue("capabilities", "expected a list")
    capabilities = tuple(_parse_capability(c, i) for i, c in enumerate(caps_raw))
    names = [c.name for c in capabilities]
    if len(names) != len(set(names)):
        raise BadValue("capabilities", "capability names must be unique")
    domains = _expect_str_list(obj.get("domains", []), "domains")
    hyper = obj.get("hyperparameters", {})
    if not isinstance(hyper, dict):
        raise BadValue("hyperparameters", "expected an object")
    performance = _parse_performance(_require(obj, "performance", "performance"))
    security = _parse_security(_require(obj, "security", "security"))

    return ModelDescriptor(
        model_id=model_id,
        model_type=model_type,
        version=version,
        category=category,
        architecture=architecture,
        capabilities=capabilities,
        domains=domains,
        hyperparameters=dict(hyper),
        performance=performance,
        security=security,
        extras=_split_extras(obj, _TOP_LEVEL_KEYS),
    )


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def serialize_descriptor(descriptor: ModelDescriptor) -> bytes:
    """Emit the canonical document; parse(serialize(parse(d))) == parse(d).

    The wire form is compact canonical JSON: keys sorted at every level,
    `,` and `:` separators with no other whitespace, non-ASCII characters
    escaped as `\\uXXXX`, then one trailing newline; the bytes are ASCII.
    Extras are merged into their objects, and win over a declared key they
    repeat.
    """
    arch = descriptor.architecture
    perf = descriptor.performance
    sec = descriptor.security
    doc = {
        "modelId": descriptor.model_id,
        "modelType": descriptor.model_type,
        "version": descriptor.version.render(),
        "category": descriptor.category.value,
        "architecture": {
            "family": arch.family,
            "parameterScaleLabel": arch.parameter_scale_label,
            "customElements": arch.custom_elements,
            **arch.extras,
        },
        "hyperparameters": descriptor.hyperparameters,
        "capabilities": [
            {"name": cap.name, "params": cap.params, **cap.extras}
            for cap in descriptor.capabilities
        ],
        "domains": descriptor.domains,
        "performance": {
            "rateLimitPerTick": perf.rate_limit_per_tick,
            "latencyTicks": perf.latency_ticks,
            "throughputPerTick": perf.throughput_per_tick,
            "maxConcurrent": perf.max_concurrent,
            **perf.extras,
        },
        "security": {
            "authMethods": sec.auth_methods,
            "encryption": sec.encryption,
            "privacyPolicy": sec.privacy_policy,
            **sec.extras,
        },
        **descriptor.extras,
    }
    return (_ENCODER.encode(doc) + "\n").encode("utf-8")


@dataclass
class _ModelEntry:
    latest: ModelDescriptor
    versions: dict[str, ModelDescriptor] = field(default_factory=dict)
    learning_buffer: list[tuple[str, str]] = field(default_factory=list)  # (envelope id, objective)


def _rank(descriptor: ModelDescriptor) -> tuple[int, str]:
    return (descriptor.performance.latency_ticks, descriptor.model_id)


class ModelRegistry:
    """Versioned store of model descriptors with capability lookup.

    Capability lookup is ranked: each capability name maps to the
    `(latencyTicks, model_id)` keys of the models whose latest descriptor
    declares it, kept sorted as versions arrive. A lookup walks one such
    list in order and can stop at its first acceptable model, so it costs
    the models it reads, not every registered or matching model.
    """

    def __init__(self, fabric: Fabric | None = None, update_cycle_len: int = 1):
        if update_cycle_len < 1:
            raise ValueError("update_cycle_len must be at least 1")
        self._entries: dict[str, _ModelEntry] = {}
        self._ranked: dict[str, list[tuple[int, str]]] = {}
        self._fabric = fabric
        self.update_cycle_len = update_cycle_len
        if fabric is not None:
            fabric.registry = self

    def _announce(self, descriptor: ModelDescriptor, reason: str) -> None:
        if self._fabric is None:
            return
        topic = f"registry/{descriptor.model_id}"
        self._fabric.create_topic(topic)
        envelope = self._fabric.envelope(
            topic,
            serialize_descriptor(descriptor),
            kind=KIND_MODEL_UPDATE,
            session=f"model-{descriptor.model_id}",
            origin="registry",
            model_id=descriptor.model_id,
            detail=f"{reason} {descriptor.model_id}@{descriptor.version.render()}",
        )
        self._fabric.publish(envelope)

    def _store(self, descriptor: ModelDescriptor) -> _ModelEntry:
        """File a new version; re-rank the model only if it becomes the
        latest and its latency or capability names changed."""
        model_id = descriptor.model_id
        key = descriptor.version.render()
        entry = self._entries.get(model_id)
        if entry is not None and key in entry.versions:
            raise DuplicateModelVersion(f"{model_id}@{key} already registered")
        if entry is None or descriptor.version > entry.latest.version:
            names, rank = descriptor.capability_names(), _rank(descriptor)
            if entry is None:
                entry = self._entries[model_id] = _ModelEntry(descriptor)
                old_names, old_rank = frozenset(), None
            else:
                old_names, old_rank = entry.latest.capability_names(), _rank(entry.latest)
                entry.latest = descriptor
            for name in old_names:
                if rank != old_rank or name not in names:
                    ranked = self._ranked[name]
                    del ranked[bisect_left(ranked, old_rank)]
                    if not ranked:
                        del self._ranked[name]
            for name in names:
                if rank != old_rank or name not in old_names:
                    insort(self._ranked.setdefault(name, []), rank)
        entry.versions[key] = descriptor
        return entry

    def register(self, descriptor: ModelDescriptor) -> str:
        """Add a descriptor version; announces it when a fabric is attached."""
        entry = self._store(descriptor)
        reason = "register" if len(entry.versions) == 1 else "update"
        self._announce(descriptor, reason)
        return descriptor.model_id

    def has_model(self, model_id: str) -> bool:
        return model_id in self._entries

    def get(self, model_id: str, version: str | None = None) -> ModelDescriptor:
        """Fetch one version (default: latest); raises UnknownModel."""
        entry = self._entries.get(model_id)
        if entry is None:
            raise UnknownModel(f"no model registered as {model_id!r}")
        if version is None:
            return entry.latest
        if version not in entry.versions:
            raise UnknownModel(f"{model_id!r} has no version {version}")
        return entry.versions[version]

    def versions(self, model_id: str) -> list[str]:
        entry = self._entries.get(model_id)
        if entry is None:
            raise UnknownModel(f"no model registered as {model_id!r}")
        return sorted(entry.versions, key=Version.parse)

    def model_ids(self) -> list[str]:
        return sorted(self._entries)

    def walk_by_capability(
        self, required: set[str] | frozenset[str], domain_hint: str | None = None
    ) -> Iterator[ModelDescriptor]:
        """Latest versions whose capability names cover `required`, lazily.

        Ordering: domain-hint matches first, then ascending latencyTicks,
        then model id. The walk reads the ranked list of the rarest
        required name, already in `(latencyTicks, model_id)` order, keeps
        the models that declare every other required name, and yields the
        domain-hint matches as it meets them and the rest after them, so a
        caller that stops at its first acceptable model pays for the models
        read up to it. Raises BadQuery at once for an empty `required`.
        Pure read; finish or drop a walk before registering again.
        """
        if not required:
            raise BadQuery("required capability set must be non-empty")
        ranked = min((self._ranked.get(name, ()) for name in required), key=len)
        return self._walk(ranked, required if len(required) > 1 else None, domain_hint)

    def _walk(
        self,
        ranked: Iterable[tuple[int, str]],
        required: set[str] | frozenset[str] | None,
        domain_hint: str | None,
    ) -> Iterator[ModelDescriptor]:
        """`ranked` in order, less the models lacking a `required` name,
        domain-hint matches first; `required` is None for one name."""
        entries = self._entries
        rest: list[ModelDescriptor] = []
        for _, model_id in ranked:
            latest = entries[model_id].latest
            if required is not None and not required <= latest.capability_names():
                continue
            if domain_hint is None or domain_hint in latest.domains:
                yield latest
            else:
                rest.append(latest)
        yield from rest

    def query_by_capability(
        self, required: set[str] | frozenset[str], domain_hint: str | None = None
    ) -> list[ModelDescriptor]:
        """Every model `walk_by_capability` yields, as a list in its order
        (domain-hint matches, then latencyTicks, then model id)."""
        return list(self.walk_by_capability(required, domain_hint))

    def bump_version(self, model_id: str, part: str) -> Version:
        """Clone the latest descriptor under an incremented version."""
        latest = self.get(model_id)
        descriptor = replace(latest, version=latest.version.bump(part))
        self._store(descriptor)
        self._announce(descriptor, "update")
        return descriptor.version

    def contribute_learning(
        self, model_id: str, data: MessageEnvelope, objective: str
    ) -> int:
        """Buffer a learning contribution; bump patch when the cycle fills.

        Returns how many contributions remain before the next update.
        """
        entry = self._entries.get(model_id)
        if entry is None:
            raise UnknownModel(f"no model registered as {model_id!r}")
        entry.learning_buffer.append((data.id, objective))
        if len(entry.learning_buffer) >= self.update_cycle_len:
            entry.learning_buffer.clear()
            self.bump_version(model_id, "patch")
            return 0
        return self.update_cycle_len - len(entry.learning_buffer)

    def pending_contributions(self, model_id: str) -> int:
        entry = self._entries.get(model_id)
        if entry is None:
            raise UnknownModel(f"no model registered as {model_id!r}")
        return len(entry.learning_buffer)
