"""Descriptor documents and the versioned model registry."""

import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interconnect.errors import (
    BadQuery,
    BadValue,
    DescriptorParseError,
    DuplicateModelVersion,
    MissingField,
    UnknownModel,
)
from interconnect.fabric import Fabric, Selector, Subscription, SubscriptionKind
from interconnect.registry import (
    Architecture,
    Capability,
    ModelCategory,
    ModelDescriptor,
    ModelRegistry,
    Performance,
    Version,
    parse_descriptor,
    serialize_descriptor,
)


def doc(model_id="demo", **overrides):
    base = {
        "modelId": model_id,
        "modelType": "analytics",
        "version": "1.0.0",
        "category": "Specialized",
        "architecture": {"family": "transformer", "parameterScaleLabel": "small"},
        "hyperparameters": {"context": 128},
        "capabilities": [{"name": "predict", "params": {"horizon": "8"}}],
        "domains": ["traffic"],
        "performance": {
            "rateLimitPerTick": 4,
            "latencyTicks": 2,
            "throughputPerTick": 4,
            "maxConcurrent": 2,
        },
        "security": {
            "authMethods": ["token"],
            "encryption": ["tls"],
            "privacyPolicy": "local-only",
        },
    }
    base.update(overrides)
    return json.dumps(base)


# -- versions -------------------------------------------------------------------


def test_version_parse_render_and_order():
    assert Version.parse("2.10.3").render() == "2.10.3"
    assert Version.parse("1.9.0") < Version.parse("1.10.0")
    with pytest.raises(ValueError):
        Version.parse("1.2")
    with pytest.raises(ValueError):
        Version.parse("1.2.x")


def test_version_bump_resets_lower_parts():
    v = Version(1, 4, 7)
    assert v.bump("major") == Version(2, 0, 0)
    assert v.bump("minor") == Version(1, 5, 0)
    assert v.bump("patch") == Version(1, 4, 8)
    with pytest.raises(ValueError):
        v.bump("epoch")


# -- parsing --------------------------------------------------------------------


def test_parse_well_formed_descriptor():
    d = parse_descriptor(doc())
    assert d.model_id == "demo"
    assert d.version == Version(1, 0, 0)
    assert d.category.value == "Specialized"
    assert d.capability_names() == frozenset({"predict"})
    assert d.capability("predict").params == {"horizon": "8"}
    assert d.capability("absent") is None
    assert d.performance.latency_ticks == 2
    assert d.security.privacy_policy == "local-only"
    assert d.hyperparameters == {"context": 128}


def test_parse_rejects_non_json_and_non_object():
    with pytest.raises(DescriptorParseError):
        parse_descriptor("{not json")
    with pytest.raises(DescriptorParseError):
        parse_descriptor('["a", "list"]')


def test_parse_reports_missing_fields_by_path():
    raw = json.loads(doc())
    del raw["architecture"]
    with pytest.raises(MissingField, match="architecture"):
        parse_descriptor(json.dumps(raw))
    raw = json.loads(doc())
    del raw["performance"]["latencyTicks"]
    with pytest.raises(MissingField, match="performance.latencyTicks"):
        parse_descriptor(json.dumps(raw))


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda r: r.update(version="1.2"), "version"),
        (lambda r: r.update(category="Gigantic"), "category"),
        (lambda r: r.update(capabilities="predict"), "capabilities"),
        (lambda r: r["performance"].update(latencyTicks=0), "performance.latencyTicks"),
        (lambda r: r["performance"].update(latencyTicks=True), "performance.latencyTicks"),
        (lambda r: r["capabilities"][0].update(params={"horizon": 8}), "params.horizon"),
        (lambda r: r["security"].update(authMethods="token"), "security.authMethods"),
        (lambda r: r.update(modelId=""), "modelId"),
    ],
)
def test_parse_rejects_bad_values(mutate, path):
    raw = json.loads(doc())
    mutate(raw)
    with pytest.raises(BadValue) as err:
        parse_descriptor(json.dumps(raw))
    assert path in str(err.value)


def _pop(*keys):
    """Mutation deleting the field at a key path."""

    def mutate(raw):
        for key in keys[:-1]:
            raw = raw[key]
        del raw[keys[-1]]

    return mutate


def _put(*keys_and_value):
    """Mutation setting the field at a key path."""
    *keys, value = keys_and_value

    def mutate(raw):
        for key in keys[:-1]:
            raw = raw[key]
        raw[keys[-1]] = value

    return mutate


def _both(first, second):
    def mutate(raw):
        first(raw)
        second(raw)

    return mutate


def _not_a_document(message):
    return DescriptorParseError, None, message


def _missing(path):
    return MissingField, path, f"missing required field: {path}"


def _bad(path, detail):
    return BadValue, path, f"bad value at {path}: {detail}"


_NOT_STR = "expected a non-empty string"
_NOT_STRS = "expected a list of strings"
_NOT_OBJ = "expected an object"
_NOT_POS = "expected a positive integer"
_NOT_A_DOC = "descriptor document must be a JSON object"
_NOT_VERSION = "not a three-part version: "
_UNKNOWN = "unknown category 'Gigantic'"
_PERF_KEYS = ("rateLimitPerTick", "latencyTicks", "throughputPerTick", "maxConcurrent")

# (mutation of doc(), or a whole document; (error type, path, message)).
# Each error is raised by the first fault in the order parse_descriptor
# checks: the document, then modelId, modelType, version, category,
# architecture, capabilities (each element, then uniqueness), domains,
# hyperparameters, performance (its keys in _PERF_KEYS order), security.
_PARSE_ERRORS = {
    # document
    "not-json": (
        "{not json",
        _not_a_document(
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        ),
    ),
    "empty-document": ("", _not_a_document("Expecting value: line 1 column 1 (char 0)")),
    "list-document": ('["a", "list"]', _not_a_document(_NOT_A_DOC)),
    "number-document": ("42", _not_a_document(_NOT_A_DOC)),
    "not-utf8": (
        b'{"modelId": "\xff"}',
        _not_a_document("'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    ),
    # scalar top-level fields
    "modelId-missing": (_pop("modelId"), _missing("modelId")),
    "modelId-empty": (_put("modelId", ""), _bad("modelId", _NOT_STR)),
    "modelId-null": (_put("modelId", None), _bad("modelId", _NOT_STR)),
    "modelType-missing": (_pop("modelType"), _missing("modelType")),
    "modelType-list": (_put("modelType", ["analytics"]), _bad("modelType", _NOT_STR)),
    "version-missing": (_pop("version"), _missing("version")),
    "version-int": (_put("version", 1), _bad("version", _NOT_STR)),
    "version-two-part": (_put("version", "1.2"), _bad("version", _NOT_VERSION + "'1.2'")),
    "version-letter": (_put("version", "1.2.x"), _bad("version", _NOT_VERSION + "'1.2.x'")),
    "category-missing": (_pop("category"), _missing("category")),
    "category-int": (_put("category", 3), _bad("category", _NOT_STR)),
    "category-unknown": (_put("category", "Gigantic"), _bad("category", _UNKNOWN)),
    # architecture
    "architecture-missing": (_pop("architecture"), _missing("architecture")),
    "architecture-str": (_put("architecture", "transformer"), _bad("architecture", _NOT_OBJ)),
    "family-missing": (_pop("architecture", "family"), _missing("architecture.family")),
    "family-empty": (_put("architecture", "family", ""), _bad("architecture.family", _NOT_STR)),
    "label-missing": (
        _pop("architecture", "parameterScaleLabel"),
        _missing("architecture.parameterScaleLabel"),
    ),
    "label-int": (
        _put("architecture", "parameterScaleLabel", 7),
        _bad("architecture.parameterScaleLabel", _NOT_STR),
    ),
    "customElements-str": (
        _put("architecture", "customElements", "npu"),
        _bad("architecture.customElements", _NOT_STRS),
    ),
    "customElements-null": (
        _put("architecture", "customElements", None),
        _bad("architecture.customElements", _NOT_STRS),
    ),
    "customElements-int-item": (
        _put("architecture", "customElements", ["npu", 1]),
        _bad("architecture.customElements", _NOT_STRS),
    ),
    # capabilities
    "capabilities-missing": (_pop("capabilities"), _missing("capabilities")),
    "capabilities-str": (_put("capabilities", "predict"), _bad("capabilities", "expected a list")),
    "capability-str": (_put("capabilities", ["predict"]), _bad("capabilities[0]", _NOT_OBJ)),
    "capability-name-missing": (
        _put("capabilities", [{"params": {}}]),
        _missing("capabilities[0].name"),
    ),
    "capability-name-empty": (
        _put("capabilities", [{"name": ""}]),
        _bad("capabilities[0].name", _NOT_STR),
    ),
    "capability-params-list": (
        _put("capabilities", [{"name": "p", "params": []}]),
        _bad("capabilities[0].params", "expected an object of string values"),
    ),
    "capability-params-null": (
        _put("capabilities", [{"name": "p", "params": None}]),
        _bad("capabilities[0].params", "expected an object of string values"),
    ),
    "capability-param-int": (
        _put("capabilities", 0, "params", {"horizon": 8}),
        _bad("capabilities[0].params.horizon", "expected a string value"),
    ),
    "capability-names-repeat": (
        _put("capabilities", [{"name": "predict"}, {"name": "predict"}]),
        _bad("capabilities", "capability names must be unique"),
    ),
    # optional top-level fields
    "domains-str": (_put("domains", "traffic"), _bad("domains", _NOT_STRS)),
    "domains-null": (_put("domains", None), _bad("domains", _NOT_STRS)),
    "domains-int-item": (_put("domains", [1]), _bad("domains", _NOT_STRS)),
    "hyperparameters-list": (_put("hyperparameters", []), _bad("hyperparameters", _NOT_OBJ)),
    "hyperparameters-null": (_put("hyperparameters", None), _bad("hyperparameters", _NOT_OBJ)),
    # performance
    "performance-missing": (_pop("performance"), _missing("performance")),
    "performance-list": (_put("performance", []), _bad("performance", _NOT_OBJ)),
    **{
        f"{key}-missing": (_pop("performance", key), _missing(f"performance.{key}"))
        for key in _PERF_KEYS
    },
    **{
        f"{key}-{label}": (_put("performance", key, value), _bad(f"performance.{key}", _NOT_POS))
        for key in _PERF_KEYS
        for label, value in (
            ("zero", 0), ("negative", -1), ("true", True), ("float", 1.5), ("str", "2")
        )
    },
    # security
    "security-missing": (_pop("security"), _missing("security")),
    "security-str": (_put("security", "tls"), _bad("security", _NOT_OBJ)),
    "authMethods-missing": (_pop("security", "authMethods"), _missing("security.authMethods")),
    "authMethods-str": (
        _put("security", "authMethods", "token"),
        _bad("security.authMethods", _NOT_STRS),
    ),
    "encryption-missing": (_pop("security", "encryption"), _missing("security.encryption")),
    "encryption-int-item": (
        _put("security", "encryption", [1]),
        _bad("security.encryption", _NOT_STRS),
    ),
    "privacyPolicy-missing": (
        _pop("security", "privacyPolicy"),
        _missing("security.privacyPolicy"),
    ),
    "privacyPolicy-empty": (
        _put("security", "privacyPolicy", ""),
        _bad("security.privacyPolicy", _NOT_STR),
    ),
    # two faults: the one checked first wins
    "first-missing-modelId-over-bad-version": (
        _both(_pop("modelId"), _put("version", "1.2")),
        _missing("modelId"),
    ),
    "first-modelId-over-modelType": (
        _both(_put("modelType", ""), _put("modelId", "")),
        _bad("modelId", _NOT_STR),
    ),
    "first-version-over-category": (
        _both(_put("category", "Gigantic"), _put("version", "1.2")),
        _bad("version", "not a three-part version: '1.2'"),
    ),
    "first-category-over-missing-architecture": (
        _both(_pop("architecture"), _put("category", "Gigantic")),
        _bad("category", "unknown category 'Gigantic'"),
    ),
    "first-family-over-customElements": (
        _both(_put("architecture", "customElements", "npu"), _pop("architecture", "family")),
        _missing("architecture.family"),
    ),
    "first-architecture-over-capabilities": (
        _both(_put("capabilities", "predict"), _put("architecture", "customElements", "npu")),
        _bad("architecture.customElements", _NOT_STRS),
    ),
    "first-capability-over-later-capability": (
        _put("capabilities", [{"name": "a", "params": {"k": 1}}, {"params": {}}]),
        _bad("capabilities[0].params.k", "expected a string value"),
    ),
    "first-capability-name-over-params": (
        _put("capabilities", [{"name": "", "params": []}]),
        _bad("capabilities[0].name", _NOT_STR),
    ),
    "first-param-in-document-order": (
        _put("capabilities", [{"name": "p", "params": {"b": 1, "a": 2}}]),
        _bad("capabilities[0].params.b", "expected a string value"),
    ),
    "first-element-over-uniqueness": (
        _put("capabilities", [{"name": "p"}, {"name": "p", "params": {"k": 1}}]),
        _bad("capabilities[1].params.k", "expected a string value"),
    ),
    "first-uniqueness-over-domains": (
        _both(_put("domains", "traffic"), _put("capabilities", [{"name": "p"}, {"name": "p"}])),
        _bad("capabilities", "capability names must be unique"),
    ),
    "first-domains-over-hyperparameters": (
        _both(_put("hyperparameters", []), _put("domains", [1])),
        _bad("domains", _NOT_STRS),
    ),
    "first-hyperparameters-over-performance": (
        _both(_pop("performance"), _put("hyperparameters", [])),
        _bad("hyperparameters", _NOT_OBJ),
    ),
    "first-rateLimit-over-missing-latency": (
        _both(_pop("performance", "latencyTicks"), _put("performance", "rateLimitPerTick", 0)),
        _bad("performance.rateLimitPerTick", _NOT_POS),
    ),
    "first-missing-latency-over-maxConcurrent": (
        _both(_put("performance", "maxConcurrent", 0), _pop("performance", "latencyTicks")),
        _missing("performance.latencyTicks"),
    ),
    "first-performance-over-security": (
        _both(_pop("security"), _put("performance", "latencyTicks", 0)),
        _bad("performance.latencyTicks", _NOT_POS),
    ),
    "first-authMethods-over-privacyPolicy": (
        _both(_pop("security", "privacyPolicy"), _put("security", "authMethods", "token")),
        _bad("security.authMethods", _NOT_STRS),
    ),
    "first-encryption-over-privacyPolicy": (
        _both(_put("security", "privacyPolicy", ""), _pop("security", "encryption")),
        _missing("security.encryption"),
    ),
}


@pytest.mark.parametrize(
    "document,expected", _PARSE_ERRORS.values(), ids=list(_PARSE_ERRORS)
)
def test_parse_errors_keep_type_path_message_and_precedence(document, expected):
    error, path, message = expected
    if callable(document):
        raw = json.loads(doc())
        document(raw)
        document = json.dumps(raw)
    with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
        parse_descriptor(document)
    assert type(err.value) is error
    assert getattr(err.value, "path", None) == path


def test_schema_requires_exactly_the_fields_the_parser_demands():
    schema_path = Path(__file__).resolve().parents[1] / "docs" / "model-descriptor.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    demanded = set()
    for key in json.loads(doc()):
        raw = json.loads(doc())
        del raw[key]
        try:
            parse_descriptor(json.dumps(raw))
        except MissingField as err:
            assert err.path == key
            demanded.add(key)
    assert set(schema["required"]) == demanded


def test_parse_rejects_duplicate_capability_names():
    raw = json.loads(doc())
    raw["capabilities"] = [{"name": "predict"}, {"name": "predict"}]
    with pytest.raises(BadValue, match="unique"):
        parse_descriptor(json.dumps(raw))


def test_parse_permits_empty_capability_list():
    raw = json.loads(doc())
    raw["capabilities"] = []
    assert parse_descriptor(json.dumps(raw)).capabilities == ()


def test_unknown_keys_survive_round_trip():
    raw = json.loads(doc())
    raw["x-deployment-ring"] = "canary"
    raw["architecture"]["x-accelerator"] = "npu"
    raw["capabilities"][0]["x-cost"] = 3
    raw["performance"]["x-burst"] = 16
    raw["security"]["x-audited"] = True
    d = parse_descriptor(json.dumps(raw))
    assert d.extras["x-deployment-ring"] == "canary"
    assert d.architecture.extras["x-accelerator"] == "npu"
    again = parse_descriptor(serialize_descriptor(d))
    assert again == d
    emitted = json.loads(serialize_descriptor(d))
    assert emitted["x-deployment-ring"] == "canary"
    assert emitted["capabilities"][0]["x-cost"] == 3
    assert emitted["performance"]["x-burst"] == 16
    assert emitted["security"]["x-audited"] is True


def test_serialize_is_canonical():
    d = parse_descriptor(doc())
    body = serialize_descriptor(d)
    assert body.endswith(b"\n")
    assert body == serialize_descriptor(parse_descriptor(body))
    keys = list(json.loads(body))
    assert keys == sorted(keys)


def test_serialize_emits_the_exact_wire_form():
    """Compact canonical JSON: keys sorted at every level, extras merged into
    their objects, `,`/`:` separators, non-ASCII as `\\uXXXX` escapes (a
    surrogate pair beyond the BMP), one trailing newline."""
    raw = {
        "modelId": "planner",
        "modelType": "analytics",
        "version": "2.1.0",
        "category": "Hybrid",
        "architecture": {
            "family": "transformer",
            "parameterScaleLabel": "small",
            "customElements": ["moe"],
            "x-accelerator": "npu",
        },
        "hyperparameters": {"schedule": {"warmup": 10, "decay": "cosine"}, "context": 128},
        "capabilities": [
            {"name": "predict", "params": {"horizon": "8", "cell": "c-1"}, "x-cost": 3},
            {"name": "rank"},
        ],
        "domains": ["traffic", "énergie"],
        "performance": {
            "rateLimitPerTick": 4,
            "latencyTicks": 2,
            "throughputPerTick": 4,
            "maxConcurrent": 2,
            "x-burst": 16,
        },
        "security": {
            "authMethods": ["token"],
            "encryption": ["tls"],
            "privacyPolicy": "données locales \U0001f4e1",
            "x-audited": True,
        },
        "x-ring": {"stage": "canary", "weights": [1, None]},
    }
    expected = (
        b'{"architecture":{"customElements":["moe"],"family":"transformer",'
        b'"parameterScaleLabel":"small","x-accelerator":"npu"},'
        b'"capabilities":[{"name":"predict","params":{"cell":"c-1","horizon":"8"},"x-cost":3},'
        b'{"name":"rank","params":{}}],'
        b'"category":"Hybrid",'
        b'"domains":["traffic","\\u00e9nergie"],'
        b'"hyperparameters":{"context":128,"schedule":{"decay":"cosine","warmup":10}},'
        b'"modelId":"planner","modelType":"analytics",'
        b'"performance":{"latencyTicks":2,"maxConcurrent":2,"rateLimitPerTick":4,'
        b'"throughputPerTick":4,"x-burst":16},'
        b'"security":{"authMethods":["token"],"encryption":["tls"],'
        b'"privacyPolicy":"donn\\u00e9es locales \\ud83d\\udce1","x-audited":true},'
        b'"version":"2.1.0",'
        b'"x-ring":{"stage":"canary","weights":[1,null]}}\n'
    )
    descriptor = parse_descriptor(json.dumps(raw, ensure_ascii=False).encode("utf-8"))
    assert serialize_descriptor(descriptor) == expected
    assert parse_descriptor(expected) == descriptor


# -- registry -------------------------------------------------------------------


def test_register_and_get_latest():
    registry = ModelRegistry()
    registry.register(parse_descriptor(doc()))
    registry.register(parse_descriptor(doc(version="1.2.0")))
    assert registry.get("demo").version == Version(1, 2, 0)
    assert registry.get("demo", "1.0.0").version == Version(1, 0, 0)
    assert registry.versions("demo") == ["1.0.0", "1.2.0"]
    assert registry.model_ids() == ["demo"]
    assert registry.has_model("demo") and not registry.has_model("ghost")


def test_register_rejects_duplicate_version():
    registry = ModelRegistry()
    registry.register(parse_descriptor(doc()))
    with pytest.raises(DuplicateModelVersion):
        registry.register(parse_descriptor(doc()))


def test_get_unknown_model_or_version():
    registry = ModelRegistry()
    with pytest.raises(UnknownModel):
        registry.get("ghost")
    registry.register(parse_descriptor(doc()))
    with pytest.raises(UnknownModel):
        registry.get("demo", "9.9.9")
    with pytest.raises(UnknownModel):
        registry.versions("ghost")


def test_query_requires_capabilities_and_uses_latest_versions():
    registry = ModelRegistry()
    with pytest.raises(BadQuery):
        registry.query_by_capability(set())
    registry.register(parse_descriptor(doc()))
    registry.register(
        parse_descriptor(doc(version="2.0.0", capabilities=[{"name": "summarize"}]))
    )
    assert registry.query_by_capability({"predict"}) == []
    (hit,) = registry.query_by_capability({"summarize"})
    assert hit.version == Version(2, 0, 0)


def test_query_superset_match_and_ordering():
    registry = ModelRegistry()

    def register(model_id, caps, domains, latency):
        registry.register(
            parse_descriptor(
                doc(
                    model_id,
                    capabilities=[{"name": c} for c in caps],
                    domains=list(domains),
                    performance={
                        "rateLimitPerTick": 4,
                        "latencyTicks": latency,
                        "throughputPerTick": 4,
                        "maxConcurrent": 2,
                    },
                )
            )
        )

    register("alpha", ["predict", "rank"], ["traffic"], 5)
    register("beta", ["predict"], [], 1)
    register("gamma", ["predict", "summarize"], ["agriculture"], 1)
    register("delta", ["rank"], ["traffic"], 1)

    names = [d.model_id for d in registry.query_by_capability({"predict"})]
    assert names == ["beta", "gamma", "alpha"]
    hinted = [
        d.model_id
        for d in registry.query_by_capability({"predict"}, domain_hint="traffic")
    ]
    assert hinted == ["alpha", "beta", "gamma"]


def test_bump_version_clones_latest():
    registry = ModelRegistry()
    registry.register(parse_descriptor(doc()))
    bumped = registry.bump_version("demo", "minor")
    assert bumped == Version(1, 1, 0)
    latest = registry.get("demo")
    assert latest.version == bumped
    assert latest.capability_names() == frozenset({"predict"})


def test_contribute_learning_counts_down_to_bump():
    registry = ModelRegistry(update_cycle_len=3)
    registry.register(parse_descriptor(doc()))
    fabric = Fabric()
    fabric.create_topic("a/b")
    fabric.register_node("app")
    sample = fabric.envelope("a/b", b"x", kind="data", session="s", origin="app")
    assert registry.contribute_learning("demo", sample, "obj") == 2
    assert registry.pending_contributions("demo") == 1
    assert registry.contribute_learning("demo", sample, "obj") == 1
    assert registry.contribute_learning("demo", sample, "obj") == 0
    assert registry.pending_contributions("demo") == 0
    assert registry.versions("demo") == ["1.0.0", "1.0.1"]
    with pytest.raises(UnknownModel):
        registry.contribute_learning("ghost", sample, "obj")


def test_update_cycle_len_must_be_positive():
    with pytest.raises(ValueError):
        ModelRegistry(update_cycle_len=0)


def test_registration_announces_on_model_topic():
    fabric = Fabric()
    fabric.register_node("watcher")
    registry = ModelRegistry(fabric)
    registry.register(parse_descriptor(doc()))
    sub_id = fabric.subscribe(
        Subscription(
            Selector.parse("registry/demo kind=model-update"),
            "watcher",
            kind=SubscriptionKind.MODEL_UPDATE,
        )
    )
    registry.register(parse_descriptor(doc(version="1.1.0")))
    (update,) = fabric.drain(sub_id)
    assert update.metadata["detail"] == "update demo@1.1.0"
    announced = parse_descriptor(update.payload)
    assert announced.version == Version(1, 1, 0)
    first = fabric.last_envelope("registry/demo")
    assert first is update


def test_announcement_payload_is_the_stored_descriptors_wire_form():
    """The registry/<id> payload of a register and of a learning bump is
    serialize_descriptor of the version filed, and parses back equal."""
    fabric = Fabric()
    fabric.register_node("app")
    fabric.create_topic("a/b")
    registry = ModelRegistry(fabric)
    registry.register(parse_descriptor(doc(**{"x-ring": "canary"})))
    sample = fabric.envelope("a/b", b"x", kind="data", session="s", origin="app")
    announced = [fabric.last_envelope("registry/demo")]
    assert registry.contribute_learning("demo", sample, "obj") == 0
    announced.append(fabric.last_envelope("registry/demo"))
    assert [e.metadata["detail"] for e in announced] == ["register demo@1.0.0", "update demo@1.0.1"]
    for envelope, version in zip(announced, ("1.0.0", "1.0.1")):
        stored = registry.get("demo", version)
        assert envelope.payload == serialize_descriptor(stored)
        assert parse_descriptor(envelope.payload) == stored
        assert stored.extras == {"x-ring": "canary"}


# -- capability index against a brute-force scan ----------------------------------

_MODEL_IDS = ("m-a", "m-b", "m-c")
_CAPABILITIES = ("predict", "rank", "summarize")
# Every non-empty set of up to three names, including one no model declares.
_QUERIES = [
    frozenset(names)
    for n in (1, 2, 3)
    for names in itertools.combinations(_CAPABILITIES + ("absent",), n)
]
_HINTS = (None, "traffic", "energy")


def _descriptor(model_id, version, capabilities, domains=(), latency=1):
    return ModelDescriptor(
        model_id=model_id,
        model_type="analytics",
        version=version,
        category=ModelCategory.SPECIALIZED,
        architecture=Architecture("transformer", "small"),
        capabilities=tuple(Capability(name) for name in sorted(capabilities)),
        domains=tuple(sorted(domains)),
        performance=Performance(1, latency, 1, 1),
    )


_versions = st.builds(
    Version, *(st.integers(min_value=0, max_value=2) for _ in range(3))
)
_registry_operations = st.lists(
    st.one_of(
        st.builds(
            lambda *args: ("register", _descriptor(*args)),
            st.sampled_from(_MODEL_IDS),
            _versions,
            st.frozensets(st.sampled_from(_CAPABILITIES)),
            st.frozensets(st.sampled_from(_HINTS[1:])),
            st.integers(min_value=1, max_value=3),
        ),
        st.tuples(
            st.just("bump"),
            st.sampled_from(_MODEL_IDS),
            st.sampled_from(("major", "minor", "patch")),
        ),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_registry_operations)
@example(
    [  # an older version registered after a newer one
        ("register", _descriptor("m-a", Version(2, 0, 0), {"predict"})),
        ("register", _descriptor("m-a", Version(1, 0, 0), {"rank"})),
    ]
)
@example(
    [  # a newer version that drops a capability, then a bump of it
        ("register", _descriptor("m-a", Version(1, 0, 0), {"predict", "rank"})),
        ("register", _descriptor("m-b", Version(1, 0, 0), {"rank"}, ("traffic",))),
        ("register", _descriptor("m-a", Version(1, 1, 0), {"predict"})),
        ("bump", "m-a", "patch"),
    ]
)
@example(
    [  # a newer version that changes only latencyTicks re-ranks the model
        ("register", _descriptor("m-a", Version(1, 0, 0), {"predict"}, latency=1)),
        ("register", _descriptor("m-b", Version(1, 0, 0), {"predict"}, latency=2)),
        ("register", _descriptor("m-a", Version(1, 0, 1), {"predict"}, latency=3)),
    ]
)
def test_indexed_query_equals_brute_force_scan(operations):
    """After every register and bump_version, each query's ordered walk and
    its list return exactly the latest descriptors that cover the required
    names, in the documented order (domain-hint matches, then latencyTicks,
    then model id), as a scan of all registered versions computes it; the
    walk's first item is the head of that list."""
    registry = ModelRegistry()
    registered: dict[str, dict[Version, ModelDescriptor]] = {}

    def latest(model_id):
        versions = registered[model_id]
        return versions[max(versions)]

    for op in operations:
        if op[0] == "register":
            descriptor = op[1]
            versions = registered.setdefault(descriptor.model_id, {})
            if descriptor.version in versions:
                with pytest.raises(DuplicateModelVersion):
                    registry.register(descriptor)
            else:
                registry.register(descriptor)
                versions[descriptor.version] = descriptor
        else:
            _, model_id, part = op
            if model_id not in registered:
                with pytest.raises(UnknownModel):
                    registry.bump_version(model_id, part)
                continue
            current = latest(model_id)
            bumped = registry.bump_version(model_id, part)
            assert bumped == current.version.bump(part)
            registered[model_id][bumped] = _descriptor(
                model_id,
                bumped,
                current.capability_names(),
                current.domains,
                current.performance.latency_ticks,
            )

        for model_id in registered:
            assert registry.get(model_id) == latest(model_id)
        for required, hint in itertools.product(_QUERIES, _HINTS):
            expected = sorted(
                (
                    latest(model_id)
                    for model_id in registered
                    if required <= {c.name for c in latest(model_id).capabilities}
                ),
                key=lambda d: (
                    0 if hint is not None and hint in d.domains else 1,
                    d.performance.latency_ticks,
                    d.model_id,
                ),
            )
            assert list(registry.walk_by_capability(required, hint)) == expected
            assert registry.query_by_capability(required, domain_hint=hint) == expected
            head = next(registry.walk_by_capability(required, hint), None)
            assert head == (expected[0] if expected else None)
