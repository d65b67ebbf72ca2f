"""Single-experiment lifecycle: build services, run the playground, record everything.

Creates the run directory exclusively (an id whose directory already exists
is drawn again, so two runs never share one), and its ``workspace/`` only
when the run installs a builtin tool that works there (exec, file_read or
file_write). Snapshots the resolved config into the trajectory's run_start
event, wires the gateway/tool/skill/cache services, enforces the wall-clock
limit through a cooperative deadline checked at turn and round boundaries,
closes the run's HTTP connections when the playground returns, and
guarantees that run_end is always written — faults become status=error in
the record, never an unrecorded abort. record.json is written as one JSON
line.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields
from functools import cache

from ..engine import RunServices
from ..gateway import ConnectionPool, LlmGateway
from ..mcp import McpClient, register_mcp_tools
from ..playgrounds import CognitiveCache, PlaygroundResult, run_playground
from ..skills import skill_tool
from ..tools import WORKSPACE_TOOLS, LocalCorpusFetcher, ToolRegistry, install_builtin_tools
from .config import ExperimentConfig
from .recorder import TrajectoryRecorder, dump_utf8

RECORD_FILENAME = "record.json"
TRAJECTORY_FILENAME = "trajectory.jsonl"


@dataclass
class ExperimentRecord:
    run_id: str
    status: str
    wall_seconds: float
    trajectory_path: str
    record_path: str
    run_dir: str
    result: PlaygroundResult | None = None


def _logger():
    """This module's logger. ``logging`` loads on the first message, which a
    scripted run without faults or MCP never sends."""
    import logging

    return logging.getLogger(__name__)


def _new_run_id(name: str) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{name}-{stamp}-{os.urandom(3).hex()}"


def _make_run_dir(output_dir: str, name: str) -> tuple[str, str]:
    """A new run id and its directory, created exclusively: when another run
    already holds the id's directory, a fresh id is drawn."""
    os.makedirs(output_dir or os.curdir, exist_ok=True)
    while True:
        run_id = _new_run_id(name)
        run_dir = os.path.join(output_dir, run_id)
        try:
            os.mkdir(run_dir)
        except FileExistsError:
            continue
        return run_id, run_dir


def cache_root_for(config: ExperimentConfig) -> str:
    """EVO_HOME wins; otherwise the cache sits beside the runs it feeds."""
    return os.environ.get("EVO_HOME") or os.path.join(config.experiment.output_dir, "cache")


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    # Paths are joined as text: pathlib would intern the run id on every run.
    run_id, run_dir = _make_run_dir(config.experiment.output_dir, config.experiment.name)
    workspace = os.path.join(run_dir, "workspace")
    if not WORKSPACE_TOOLS.isdisjoint(config.tools.builtin):
        os.mkdir(workspace)
    trajectory_path = os.path.join(run_dir, TRAJECTORY_FILENAME)
    started = time.monotonic()
    deadline = started + config.experiment.max_wall_seconds

    recorder = TrajectoryRecorder(trajectory_path, run_id)
    recorder.record("run_start", {"config_snapshot": config.to_dict()})

    result: PlaygroundResult | None = None
    pool = ConnectionPool()
    try:
        services = _build_services(config, recorder, workspace, run_id, deadline, pool)
        result = run_playground(
            config.playground.name,
            config.experiment.task,
            config.playground.params,
            config.playground.slots,
            services,
        )
        status = "timeout" if time.monotonic() >= deadline else result.status
    except Exception as exc:  # noqa: BLE001 — faults must land in the trajectory
        _logger().exception("experiment %s failed", run_id)
        recorder.record("error", {"error": str(exc), "phase": "experiment"})
        status = "error"
    finally:
        pool.close()

    wall_seconds = time.monotonic() - started
    recorder.record(
        "run_end",
        {
            "status": status,
            "usage_totals": recorder.usage_totals().as_dict(),
            "final_answer": result.final_answer if result else None,
            "rounds_used": result.rounds_used if result else 0,
        },
    )
    recorder.close()

    record = ExperimentRecord(
        run_id=run_id,
        status=status,
        wall_seconds=wall_seconds,
        trajectory_path=trajectory_path,
        record_path=os.path.join(run_dir, RECORD_FILENAME),
        run_dir=run_dir,
        result=result,
    )
    _write_record(record)
    return record


def _build_services(
    config: ExperimentConfig,
    recorder: TrajectoryRecorder,
    workspace: str,
    run_id: str,
    deadline: float,
    pool: ConnectionPool,
) -> RunServices:
    gateway = LlmGateway(pool)
    for profile in config.profiles:
        gateway.register_profile(profile)

    fetcher = LocalCorpusFetcher(config.tools.corpus) if config.tools.corpus else None
    tools = ToolRegistry()
    install_builtin_tools(tools, workspace, names=config.tools.builtin, fetcher=fetcher)

    skills = None
    if config.skills.paths:
        skills = config.skills.index
        tools.register_tool(*skill_tool(skills))

    for endpoint in config.tools.mcp:
        registered = register_mcp_tools(tools, McpClient(endpoint, pool))
        _logger().info("mcp %s: registered %s", endpoint.alias, registered)

    cache = CognitiveCache(cache_root_for(config), run_id)
    return RunServices(
        gateway=gateway,
        tools=tools,
        skills=skills,
        recorder=recorder,
        cache=cache,
        deadline=deadline,
    )


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _fields(value: object) -> dict:
    """A dataclass as the encoder writes it: ``dataclasses.asdict``'s object,
    built one level at a time as the encoder reaches it, with no copies."""
    return {name: getattr(value, name) for name in _field_names(type(value))}


def _write_record(record: ExperimentRecord) -> None:
    """record.json: one JSON line, as the trajectory's lines are written."""
    payload = {
        "run_id": record.run_id,
        "status": record.status,
        "wall_seconds": record.wall_seconds,
        "trajectory_path": record.trajectory_path,
        "result": record.result,
    }
    with open(record.record_path, "wb") as handle:
        handle.write(dump_utf8(payload, default=_fields) + b"\n")
