"""Exit codes and output of the `interconnect` and `guard` entry points."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import interconnect
from interconnect.cli import golden_path, guard_main, main
from interconnect.errors import DeployWithoutVerdict, ScenarioAssertionFailed
from interconnect.fabric import Fabric, Selector, Subscription
from interconnect.guard import Guard, GuardedProgram, TicketBook
from interconnect.simnet import NodeKind, SimWorld
from interconnect.trace import parse_trace


def make_audit_log(tmp_path):
    fabric = Fabric()
    fabric.register_node("node-a")
    fabric.register_node("node-b")
    fabric.create_topic("net/cell-a/load")
    fabric.subscribe(Subscription(Selector.parse("net/cell-a/load"), "node-b"))
    fabric.publish(fabric.envelope("net/cell-a/load", b"1", kind="data", session="s1", origin="node-a"))
    fabric.publish(fabric.envelope("net/cell-a/load", b"2", kind="data", session="s1", origin="node-b"))
    path = tmp_path / "audit.trace"
    path.write_text(fabric.journal.render(), encoding="utf-8")
    return path, len(fabric.audit_log)


def valid_descriptor():
    return json.dumps(
        {
            "modelId": "demo",
            "modelType": "analytics",
            "version": "1.0.0",
            "category": "Specialized",
            "architecture": {"family": "transformer", "parameterScaleLabel": "small"},
            "capabilities": [{"name": "predict"}, {"name": "summarize"}],
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
    )


# -- interconnect run ---------------------------------------------------------


def test_run_ok_reports_record_count(capsys):
    assert main(["run", "fig7-decompose"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fig7-decompose: ok (")
    assert out.endswith(" records)\n")


def test_run_unknown_scenario_is_usage_error(capsys):
    assert main(["run", "no-such-scenario"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_assertion_failure_exits_one(monkeypatch, capsys):
    def explode(name, seed=0):
        raise ScenarioAssertionFailed("postcondition went sideways")

    monkeypatch.setattr("interconnect.cli.run_scenario", explode)
    assert main(["run", "fig12-scale"]) == 1
    assert "assertion failed: postcondition went sideways" in capsys.readouterr().err


def test_run_writes_trace_file(tmp_path, capsys):
    out_file = tmp_path / "run.trace"
    assert main(["run", "fig12-scale", "--trace", str(out_file)]) == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert parse_trace(text).render() == text
    capsys.readouterr()


def test_run_bless_then_match(tmp_path, capsys):
    golden = tmp_path / "nested" / "fig7.trace"
    assert main(["run", "fig7-decompose", "--golden", str(golden), "--bless"]) == 0
    assert capsys.readouterr().out.startswith(f"blessed {golden} (")
    assert golden.exists()

    assert main(["run", "fig7-decompose", "--golden", str(golden)]) == 0
    assert "fig7-decompose: match (" in capsys.readouterr().out


def test_run_trace_to_a_directory_is_an_input_error(tmp_path, capsys):
    assert main(["run", "fig12-scale", "--trace", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


def test_run_bless_under_a_regular_file_is_an_input_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory", encoding="utf-8")
    golden = blocker / "sub" / "g.trace"
    assert main(["run", "fig7-decompose", "--golden", str(golden), "--bless"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {golden}: ")
    assert blocker.read_text(encoding="utf-8") == "not a directory"


def test_run_against_packaged_golden_matches(capsys):
    golden = golden_path("mapek-congestion")
    assert main(["run", "mapek-congestion", "--golden", str(golden)]) == 0
    assert "match" in capsys.readouterr().out


def test_run_golden_mismatch_renders_diff(tmp_path, capsys):
    golden = tmp_path / "other.trace"
    assert main(["run", "fig7-decompose", "--golden", str(golden), "--bless"]) == 0
    capsys.readouterr()

    assert main(["run", "fig12-scale", "--golden", str(golden)]) == 1
    out = capsys.readouterr().out
    assert "@ line" in out
    assert "differing lines" in out.splitlines()[-1]


def test_run_missing_golden_is_usage_error(tmp_path, capsys):
    assert main(["run", "fig12-scale", "--golden", str(tmp_path / "absent.trace")]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_corrupt_golden_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("X|not|a|trace\n", encoding="utf-8")
    assert main(["run", "fig12-scale", "--golden", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_bless_without_golden_is_usage_error(capsys):
    assert main(["run", "fig12-scale", "--bless"]) == 2
    assert "--bless requires --golden" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err


# -- interconnect audit -------------------------------------------------------


def test_audit_prints_every_record(tmp_path, capsys):
    path, count = make_audit_log(tmp_path)
    assert main(["audit", "--log", str(path)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == count
    assert captured.err.strip() == f"{count} records"


def test_audit_filters_by_op_and_actor(tmp_path, capsys):
    path, _ = make_audit_log(tmp_path)
    assert main(["audit", "--log", str(path), "--op", "publish"]) == 0
    publish_lines = capsys.readouterr().out.splitlines()
    assert publish_lines
    assert all("|publish|" in line for line in publish_lines)

    assert main(["audit", "--log", str(path), "--op", "publish", "--actor", "node-b"]) == 0
    captured = capsys.readouterr()
    assert all("|node-b|" in line for line in captured.out.splitlines())
    assert captured.err.strip() == "1 records"


def test_audit_unknown_op_is_usage_error(tmp_path, capsys):
    path, _ = make_audit_log(tmp_path)
    assert main(["audit", "--log", str(path), "--op", "frobnicate"]) == 2
    err = capsys.readouterr().err
    assert "unknown op" in err
    assert "publish" in err


def test_audit_missing_log_is_usage_error(tmp_path, capsys):
    assert main(["audit", "--log", str(tmp_path / "absent.log")]) == 2
    assert "no audit log" in capsys.readouterr().err


def test_audit_reads_a_run_trace_and_its_own_output(tmp_path, capsys):
    trace_file = tmp_path / "t.trace"
    assert main(["run", "mapek-congestion", "--trace", str(trace_file)]) == 0
    capsys.readouterr()
    query = ["--op", "plan", "--op", "execute", "--actor", "mapek"]
    assert main(["audit", "--log", str(trace_file), *query]) == 0
    captured = capsys.readouterr()
    golden = golden_path("mapek-congestion").read_text(encoding="utf-8").splitlines()
    expected = [
        line
        for line in golden
        if line.startswith("A|") and line.split("|")[3] in ("plan", "execute")
    ]
    assert len(expected) == 4
    assert captured.out.splitlines() == expected
    assert captured.err == "4 records\n"

    shown = tmp_path / "shown.trace"
    shown.write_text(captured.out, encoding="utf-8")
    assert main(["audit", "--log", str(shown)]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_audit_corrupt_line_is_usage_error(tmp_path, capsys):
    path = tmp_path / "audit.log"
    path.write_text("1|2|publish\n", encoding="utf-8")
    assert main(["audit", "--log", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


# -- interconnect registry validate -------------------------------------------


def test_registry_validate_accepts_good_descriptor(tmp_path, capsys):
    path = tmp_path / "demo.model.json"
    path.write_text(valid_descriptor(), encoding="utf-8")
    assert main(["registry", "validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "valid: demo@1.0.0 category=Specialized capabilities=predict,summarize\n"


def test_registry_validate_rejects_bad_descriptor(tmp_path, capsys):
    doc = json.loads(valid_descriptor())
    del doc["performance"]
    path = tmp_path / "broken.model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["registry", "validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid:")


def test_registry_validate_rejects_non_utf8_descriptor(tmp_path, capsys):
    path = tmp_path / "latin1.model.json"
    path.write_bytes(b'{"modelId": "\xff"}')
    assert main(["registry", "validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err


def test_registry_validate_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["registry", "validate", str(tmp_path / "ghost.json")]) == 2
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, bad_input",
    [
        (["audit", "--log"], "not-utf8"),
        (["run", "fig12-scale", "--golden"], "not-utf8"),
        (["audit", "--log"], "directory"),
        (["run", "fig12-scale", "--golden"], "directory"),
        (["registry", "validate"], "directory"),
    ],
    ids=["audit-not-utf8", "golden-not-utf8", "audit-dir", "golden-dir", "registry-dir"],
)
def test_unreadable_input_file_is_usage_error(tmp_path, capsys, command, bad_input):
    path = tmp_path / "input"
    if bad_input == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"A|1|1|publish|\xff|-|-|ok\n")
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")


def test_registry_without_subcommand_prints_help(capsys):
    assert main(["registry"]) == 2
    assert "usage:" in capsys.readouterr().err


# -- guard tickets ------------------------------------------------------------


def seed_store(tmp_path):
    store = tmp_path / "tickets.ndjson"
    book = TicketBook(store)
    book.append(
        {"event": "open", "ticket": "ticket-1", "reason": "NoConsensus", "subject": "prog-a"}
    )
    book.append(
        {"event": "open", "ticket": "ticket-2", "reason": "PolicyStrict", "subject": "prog-b"}
    )
    return store


def test_guard_list_shows_state_reason_subject(tmp_path, capsys):
    store = seed_store(tmp_path)
    assert guard_main(["tickets", "list", "--store", str(store)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "ticket-1 Open reason=NoConsensus subject=prog-a",
        "ticket-2 Open reason=PolicyStrict subject=prog-b",
    ]


def test_guard_approve_then_list_shows_note(tmp_path, capsys):
    store = seed_store(tmp_path)
    assert guard_main(["tickets", "approve", "ticket-1", "--note", "looks fine", "--store", str(store)]) == 0
    assert capsys.readouterr().out == "ticket-1 Approved\n"

    assert guard_main(["tickets", "list", "--store", str(store)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ticket-1 Approved reason=NoConsensus subject=prog-a note=looks fine"
    assert lines[1].startswith("ticket-2 Open")


def test_guard_deny_marks_ticket(tmp_path, capsys):
    store = seed_store(tmp_path)
    assert guard_main(["tickets", "deny", "ticket-2", "--store", str(store)]) == 0
    assert capsys.readouterr().out == "ticket-2 Denied\n"


def test_guard_resolving_twice_fails(tmp_path, capsys):
    store = seed_store(tmp_path)
    assert guard_main(["tickets", "approve", "ticket-1", "--store", str(store)]) == 0
    capsys.readouterr()
    assert guard_main(["tickets", "deny", "ticket-1", "--store", str(store)]) == 1
    assert "already Approved" in capsys.readouterr().err


def test_guard_unknown_ticket_fails(tmp_path, capsys):
    store = seed_store(tmp_path)
    assert guard_main(["tickets", "approve", "ticket-9", "--store", str(store)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "action", [["list"], ["approve", "ticket-1"], ["deny", "ticket-1"]], ids=lambda a: a[0]
)
@pytest.mark.parametrize("line", ["not json", '{"event": "open"}'], ids=["not-json", "missing-fields"])
def test_guard_tickets_on_a_malformed_store_is_an_input_error(tmp_path, capsys, action, line):
    store = seed_store(tmp_path)
    with open(store, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    before = store.read_bytes()
    assert guard_main(["tickets", *action, "--store", str(store)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "line 3" in captured.err
    assert store.read_bytes() == before


def test_a_running_guard_sees_a_cli_denial(tmp_path):
    store = tmp_path / "tickets.ndjson"
    fabric = Fabric()
    world = SimWorld(fabric, seed=0)
    world.spawn_node("ran-1", NodeKind.RIC, knobs={"admission-rate": Fraction(1)})
    guard = Guard(fabric, world, policy="escalate-only", ticket_store=store)
    good = GuardedProgram("prog-1", "set ran-1 admission-rate 1/2", (), "planner-0")
    assert guard.sandbox_run(good).accepted
    ticket = guard.open_ticket("Challenge", good.program_id)
    assert guard_main(["tickets", "deny", ticket.ticket_id, "--store", str(store)]) == 0
    before = world.state_hash()
    with pytest.raises(DeployWithoutVerdict, match="denied"):
        guard.deploy(good, "ran-1")
    assert world.state_hash() == before


def test_guard_list_on_fresh_store_is_empty(tmp_path, capsys):
    assert guard_main(["tickets", "list", "--store", str(tmp_path / "fresh.ndjson")]) == 0
    assert capsys.readouterr().out == ""


def test_guard_without_action_prints_help(capsys):
    assert guard_main([]) == 2
    assert "usage:" in capsys.readouterr().err


# -- installed console scripts ------------------------------------------------
#
# `test_console_scripts_are_installed` needs an installed `interconnect`
# distribution (`pip install -e .`): only an installer writes the wrappers onto
# PATH and the entry-point metadata, so a source checkout skips it.
# `test_console_script_runs_scenario` goes through the `interconnect` target
# declared in `pyproject.toml` instead of PATH, so it checks the same entry
# point from a source checkout and from an install alike.

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_scripts():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(
    not distribution_installed("interconnect"),
    reason="the interconnect distribution is not installed (pip install -e .)",
)
@pytest.mark.parametrize("script", ["interconnect", "guard"])
def test_console_scripts_are_installed(script):
    assert shutil.which(script), f"{script} entry point missing from PATH"
    (entry_point,) = importlib.metadata.entry_points(group="console_scripts", name=script)
    assert entry_point.value == declared_scripts()[script]


def test_console_script_runs_scenario():
    module, attr = declared_scripts()["interconnect"].split(":")
    source_root = Path(interconnect.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source_root), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())",
            "run",
            "fig16-codegen",
        ],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("fig16-codegen: ok ("), proc.stderr
