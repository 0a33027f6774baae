"""Descriptor documents and the versioned model registry."""

import itertools
import json

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
