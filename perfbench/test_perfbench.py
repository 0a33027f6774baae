"""Self-tests of the benchmark harness: the tail rule, self-time arithmetic,
and a tiny run of every workload. Full-size workloads are never run here."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NO_PARENT, Tracer, nearest_rank, self_times, tail_percentile  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),  # nothing leaves ten samples beyond it
        (20, (50.0, 10)),
        (40, (75.0, 10)),
        (99, (75.0, 24)),  # p90 would leave only 9 beyond
        (100, (90.0, 10)),
        (1000, (99.0, 10)),
        (1999, (99.0, 19)),  # p99.5 would leave only 9 beyond
        (2000, (99.5, 10)),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        values = list(range(1, n + 1))
        value = nearest_rank(values, expected[0])
        assert sum(v > value for v in values) == expected[1] >= 10


def test_op_profile_keeps_each_ops_best_repetition():
    episodes = [{"op_ns": [5, 9, 40]}, {"op_ns": [7, 3, 30]}, {"op_ns": [6, 8, 50]}]
    assert run.op_profile(episodes) == [3, 5, 30]


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        ("root", 0, 100, NO_PARENT, 0),
        ("a", 10, 30, 0, 0),  # child of root
        ("a.inner", 15, 20, 1, 0),  # grandchild: charged to a, not root
        ("b", 40, 70, 0, 0),  # sibling of a
        ("other", 200, 210, NO_PARENT, 1),
    ]
    assert self_times(spans) == [50, 15, 5, 30, 10]


def test_tracer_links_parents_and_counts_calls():
    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "x.outer")
    tracer.wrap(Layer, "inner", "x.inner")
    try:
        Layer().outer()  # inactive: nothing recorded
        assert tracer.spans == []
        tracer.active, tracer.op_id = True, 7
        Layer().outer()
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names == ["x.outer", "x.inner", "x.inner"]
    assert [s[3] for s in tracer.spans] == [NO_PARENT, 0, 0]
    assert all(s[4] == 7 for s in tracer.spans)
    assert "outer" in vars(Layer) and not hasattr(Layer.outer, "__wrapped__")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_passes_its_checks(name):
    result, detail = run.run_workload(name, workloads.HELD_OUT_SEED, 0, trace=False, small=True)
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    result, detail = run.run_workload(
        "autonomic-control", workloads.DEFAULT_SEED, 0, trace=True, small=True
    )
    assert result["correct"], detail["failures"]
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["metrics"]["mapek.round_growth"]["value"] > 0
    for owner, attr, _ in layers.SPANS:  # uninstalled again
        assert not hasattr(getattr(owner, attr), "__wrapped__")


def test_benchmark_json_units_and_intent_cover_every_metric():
    intent = json.loads((HERE / "intent.json").read_text(encoding="utf-8"))
    for metric in BENCHMARK["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(intent["per_layer"])
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert set(intent["workloads"]) == set(workloads.WORKLOADS)
