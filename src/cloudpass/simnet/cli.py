"""Command-line front end: run scenarios, validate them, serve a cloud.

Exit codes: 0 success, 1 refused input (a scenario parse error, a usage
error, or a ``serve --name`` the cloud refuses), 2 runtime fault during
execution, 3 file or network trouble.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ScenarioParseError, ScenarioRuntimeError, ValidationError
from ..model import _SIGNED_RE, _in_i64
from .engine import run
from .events import emit_report
from .scenario import load_scenario, parse_fault

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any refused input; argparse's own
    2 is this CLI's runtime fault. Its subparsers are built as this class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _integer(literal: str) -> int:
    """An integer option read by the scenario grammar's rule: ASCII digits
    with an optional sign, inside i64, zero padding allowed; anything else
    is a usage error. ``int()`` would also take ``_`` separators and other
    scripts' digits, and its digit limit would refuse long zero padding."""
    value = _in_i64(literal) if _SIGNED_RE.fullmatch(literal) else None
    if value is None:
        raise argparse.ArgumentTypeError(
            f"not an integer in i64: {literal[:32]!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cloudpass",
        description="Deterministic border-crossing simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("--scenario", required=True, help="scenario file")
    p_run.add_argument("--seed", type=_integer, default=0, help="world seed")
    p_run.add_argument("--report", help="write the event report here "
                       "(default: stdout)")
    p_run.add_argument("--fault", action="append", default=[],
                       metavar="SPEC", help="inject a fault, e.g. "
                       "'tamper-visa alice byte=7' (repeatable)")

    p_val = sub.add_parser("validate", help="parse a scenario and report "
                           "errors without running it")
    p_val.add_argument("--scenario", required=True, help="scenario file")

    p_serve = sub.add_parser("serve", help="expose one cloud over TCP")
    p_serve.add_argument("--role", required=True,
                         choices=("embassy", "airport"))
    p_serve.add_argument("--port", type=_integer, required=True)
    p_serve.add_argument("--name", default=None,
                         help="embassy country code (default XX) or "
                         "airport code (default XXX)")
    return parser


def _read_text(path: str) -> str:
    """The file as text; a byte that is not UTF-8 is a parse error."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        print(f"cloudpass: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines split as load_scenario splits them; the "?" holds the
        # bad byte's place, so the last line's length is its column.
        lines = (data[:exc.start].decode("utf-8") + "?").split("\n")
        raise ScenarioParseError(f"byte {data[exc.start]:#04x} is not UTF-8",
                                 len(lines), len(lines[-1])) from None


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(_read_text(args.scenario), seed=args.seed)
        faults = tuple(parse_fault(spec) for spec in args.fault)
    except ScenarioParseError as exc:
        print(f"cloudpass: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        world, events = run(scenario, faults)
    except ScenarioRuntimeError as exc:
        print(f"cloudpass: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.report is None:
        emit_report(events, sys.stdout)
        return EXIT_OK
    try:
        with open(args.report, "w", encoding="utf-8", newline="") as report:
            emit_report(events, report)
    except OSError as exc:
        print(f"cloudpass: cannot write {args.report}: {exc}",
              file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(_read_text(args.scenario))
    except ScenarioParseError as exc:
        print(f"cloudpass: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"ok: {len(scenario.commands)} commands")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..server import serve
    try:
        serve(args.role, args.port, args.name)
    except ValidationError as exc:  # the cloud refused --name; nothing bound
        print(f"cloudpass: --name {args.name}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, OverflowError) as exc:  # OverflowError: port not 0-65535
        print(f"cloudpass: cannot serve on port {args.port}: {exc}",
              file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:   # SIGINT is how a server is meant to stop
        pass
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_serve(args)


if __name__ == "__main__":
    sys.exit(main())
