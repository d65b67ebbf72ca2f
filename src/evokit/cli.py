"""Operator entry point: run, validate, list, replay, mcp-probe.

Exit codes: 0 success, 1 usage error, 2 validation/config error, 3 runtime
failure. Diagnostics go to stderr; command output to stdout, one item per
line where the output is a listing so it composes in shell pipelines.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import EvokitError
from .gateway import ConnectionPool
from .harness import (
    ParseError,
    TrajectoryCorrupt,
    ValidationError,
    load_config,
    replay,
    run_experiment,
)
from .mcp import McpClient, McpEndpoint
from .playgrounds import default_registry
from .skills import SKILL_TOOL_NAME
from .tools import BUILTIN_TOOL_NAMES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_VALIDATION_ERRORS = (ParseError, ValidationError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 — argparse API
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="evo", description="Evolving-agent experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment manifest")
    run.add_argument("--config", required=True, help="manifest path")
    run.add_argument("--out", help="override experiment.output_dir")
    run.add_argument("--seed", type=int, help="override experiment.seed")
    run.add_argument("--max-wall-secs", type=int, help="override experiment.max_wall_seconds")
    run.add_argument("--lenient", action="store_true", help="tolerate unknown manifest keys")

    validate = sub.add_parser("validate", help="parse and validate a manifest")
    validate.add_argument("--config", required=True)
    validate.add_argument("--lenient", action="store_true")

    listing = sub.add_parser("list", help="list registered names")
    listing.add_argument("what", choices=["playgrounds", "tools", "skills"])
    listing.add_argument("--config", help="manifest supplying skill paths")

    rep = sub.add_parser("replay", help="verify a recorded trajectory")
    rep.add_argument("--trajectory", required=True)

    probe = sub.add_parser("mcp-probe", help="list the tools of an MCP endpoint")
    probe.add_argument("--endpoint", required=True, help="endpoint URL")
    probe.add_argument("--alias", default="probe")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config, lenient=args.lenient)
    overrides = {
        "output_dir": str(Path(args.out)) if args.out else None,
        "seed": args.seed,
        "max_wall_seconds": args.max_wall_secs,
    }
    # replace() rebuilds the section, so an override passes the manifest's checks.
    config.experiment = replace(
        config.experiment, **{k: v for k, v in overrides.items() if v is not None}
    )
    record = run_experiment(config)
    print(record.record_path)
    if record.status in ("ok", "partial"):
        return EXIT_OK
    print(f"run finished with status={record.status}", file=sys.stderr)
    return EXIT_RUNTIME


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_config(args.config, lenient=args.lenient)
    print(f"ok: {config.experiment.name}")
    return EXIT_OK


def _cmd_list(args: argparse.Namespace) -> int:
    if args.what == "playgrounds":
        names = default_registry().names()
    elif args.what == "tools":
        names = sorted((*BUILTIN_TOOL_NAMES, SKILL_TOOL_NAME))
    else:
        if not args.config:
            raise _UsageError("list skills needs --config to locate skill paths")
        config = load_config(args.config, lenient=True)
        names = config.skills.index.names()
    for name in names:
        print(name)
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    report = replay(args.trajectory)
    print(f"complete: {str(report.complete).lower()}")
    print(f"events: {report.events}")
    for violation in report.violations:
        print(f"violation: {violation}")
    return EXIT_OK if report.complete else EXIT_RUNTIME


def _cmd_mcp_probe(args: argparse.Namespace) -> int:
    with ConnectionPool() as pool:
        client = McpClient(McpEndpoint(alias=args.alias, endpoint=args.endpoint), pool)
        descriptors = client.list_tools()
    for descriptor in sorted(descriptors, key=lambda d: d.name):
        print(f"{descriptor.name}\t{descriptor.description}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("EVO_LOG_LEVEL", "warning").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_mcp_probe(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TrajectoryCorrupt as exc:
        print(f"trajectory corrupt: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (EvokitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
