"""Command-line entry points.

`interconnect` drives scenario replay, audit inspection of a trace file, and
descriptor validation; `guard` operates the human-in-the-loop ticket queue
against a shared ticket store. Exit codes: 0 success/match, 1 assertion or comparison
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .errors import (
    BadValue,
    DescriptorParseError,
    GoldenParseError,
    MissingField,
    ScenarioAssertionFailed,
    TicketClosed,
    TicketStoreCorrupt,
    UnknownScenario,
    UnknownTicket,
)
from .fabric import AuditLog, AuditOp
from .guard import TicketBook, TicketState
from .registry import parse_descriptor
from .scenarios import run_scenario
from .trace import compare_traces, parse_trace


def golden_path(name: str):
    """Packaged golden fixture for a scenario name."""
    return resources.files("interconnect").joinpath("goldens", f"{name}.trace")


def _read(path: str, missing: str, *, binary: bool = False) -> str | bytes | None:
    """A file's bytes, or its UTF-8 text; None once `error: ...` is printed."""
    try:
        raw = Path(path).read_bytes()
        return raw if binary else raw.decode("utf-8")
    except FileNotFoundError:
        message = missing
    except (OSError, UnicodeDecodeError) as exc:
        message = f"cannot read {path}: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return None


def _write(path: str | Path, text: str) -> bool:
    """Write UTF-8 text, making missing parent directories; False once
    `error: cannot write PATH: ...` is printed."""
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        return True
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        trace = run_scenario(args.scenario, seed=args.seed)
    except UnknownScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScenarioAssertionFailed as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1

    if args.trace and not _write(args.trace, trace.render()):
        return 2

    if args.golden:
        target = Path(args.golden)
        if args.bless:
            if not _write(target, trace.render()):
                return 2
            print(f"blessed {target} ({len(trace.events)} records)")
            return 0
        text = _read(args.golden, f"golden file {target} not found")
        if text is None:
            return 2
        try:
            golden = parse_trace(text)
        except GoldenParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        diff = compare_traces(trace, golden)
        if diff.empty:
            print(f"{args.scenario}: match ({len(trace.events)} records)")
            return 0
        print(diff.render())
        print(f"{args.scenario}: {diff.size} differing lines")
        return 1

    if args.bless:
        print("error: --bless requires --golden", file=sys.stderr)
        return 2
    print(f"{args.scenario}: ok ({len(trace.events)} records)")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    text = _read(args.log, f"no audit log at {args.log}")
    if text is None:
        return 2
    ops = None
    if args.op:
        try:
            ops = [AuditOp(op) for op in args.op]
        except ValueError:
            known = ", ".join(op.value for op in AuditOp)
            print(f"error: unknown op (known: {known})", file=sys.stderr)
            return 2
    try:
        trace = parse_trace(text)
    except GoldenParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shown = AuditLog(trace).query(ops=ops, actor=args.actor)
    for record in shown:
        print(record.render())
    print(f"{len(shown)} records", file=sys.stderr)
    return 0


def _cmd_registry_validate(args: argparse.Namespace) -> int:
    raw = _read(args.file, f"no such file {args.file}", binary=True)
    if raw is None:
        return 2
    try:
        descriptor = parse_descriptor(raw)
    except (DescriptorParseError, MissingField, BadValue) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    capabilities = ",".join(sorted(descriptor.capability_names()))
    print(
        f"valid: {descriptor.model_id}@{descriptor.version.render()} "
        f"category={descriptor.category.value} capabilities={capabilities}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="interconnect",
        description="Scenario replay and inspection for the AI interconnect.",
    )
    commands = parser.add_subparsers(dest="command")

    run_p = commands.add_parser("run", help="replay a registered scenario")
    run_p.add_argument("scenario", help="scenario name (see errors for the list)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--trace", metavar="PATH", help="write the trace to a file")
    run_p.add_argument("--golden", metavar="PATH", help="compare against a golden trace")
    run_p.add_argument(
        "--bless", action="store_true", help="overwrite the golden file instead of comparing"
    )

    audit_p = commands.add_parser("audit", help="filter the audit records of a trace file")
    audit_p.add_argument("--log", required=True, metavar="PATH")
    audit_p.add_argument("--op", action="append", metavar="OP")
    audit_p.add_argument("--actor", metavar="NODE")

    registry_p = commands.add_parser("registry", help="model descriptor tools")
    registry_cmds = registry_p.add_subparsers(dest="registry_command")
    validate_p = registry_cmds.add_parser("validate", help="check a .model.json document")
    validate_p.add_argument("file")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "registry":
        if args.registry_command == "validate":
            return _cmd_registry_validate(args)
        registry_p.print_help(sys.stderr)
        return 2
    parser.print_help(sys.stderr)
    return 2


def guard_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="guard", description="Operate the human-in-the-loop ticket queue."
    )
    commands = parser.add_subparsers(dest="command")
    tickets_p = commands.add_parser("tickets", help="list or resolve tickets")
    actions = tickets_p.add_subparsers(dest="action")

    list_p = actions.add_parser("list", help="show all tickets in the store")
    list_p.add_argument("--store", required=True, metavar="PATH")
    for name, help_text in (("approve", "approve an open ticket"), ("deny", "deny an open ticket")):
        action_p = actions.add_parser(name, help=help_text)
        action_p.add_argument("ticket_id")
        action_p.add_argument("--note", default="")
        action_p.add_argument("--store", required=True, metavar="PATH")

    args = parser.parse_args(argv)
    if args.command != "tickets" or not getattr(args, "action", None):
        parser.print_help(sys.stderr)
        return 2

    book = TicketBook(args.store)
    decision = TicketState.APPROVED if args.action == "approve" else TicketState.DENIED
    try:
        if args.action != "list":
            ticket = book.resolve(args.ticket_id, decision, note=args.note)
            print(f"{ticket.ticket_id} {ticket.state.value}")
            return 0
        tickets = book.load()
    except TicketStoreCorrupt as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnknownTicket, TicketClosed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for ticket_id in sorted(tickets):
        ticket = tickets[ticket_id]
        note = f" note={ticket.note}" if ticket.note else ""
        print(
            f"{ticket.ticket_id} {ticket.state.value} "
            f"reason={ticket.reason} subject={ticket.subject}{note}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
