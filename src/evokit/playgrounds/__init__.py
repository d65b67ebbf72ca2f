"""Playground orchestration: registry, built-in patterns, cognitive cache."""

from __future__ import annotations

import threading

from ..engine import RunServices
from .base import (
    AgentSlot,
    DuplicatePlayground,
    InvalidParams,
    PlaygroundDefinition,
    PlaygroundNotFound,
    PlaygroundRegistry,
    PlaygroundResult,
    SlotConfigError,
    TOOL_NAMES,
    check_inputs,
    fan_out,
    parse_score,
    run_slot,
    select_best,
)
from .cache import CacheReadError, CognitiveCache, DoubleRunPromotion
from . import draft_improve, parallel, planner_executor, research, sequential, solve_critique

BUILTIN_DEFINITIONS = (
    draft_improve.DEFINITION,
    parallel.DEFINITION,
    planner_executor.DEFINITION,
    research.DEFINITION,
    sequential.DEFINITION,
    solve_critique.DEFINITION,
)

_default_registry: PlaygroundRegistry | None = None
_registry_lock = threading.Lock()


def install_builtin_playgrounds(registry: PlaygroundRegistry) -> None:
    """Startup hook that makes the built-in patterns available by name."""
    existing = set(registry.names())
    for definition in BUILTIN_DEFINITIONS:
        if definition.name not in existing:
            registry.register(definition)


def default_registry() -> PlaygroundRegistry:
    global _default_registry
    with _registry_lock:
        if _default_registry is None:
            _default_registry = PlaygroundRegistry()
            install_builtin_playgrounds(_default_registry)
        return _default_registry


def register(definition: PlaygroundDefinition, registry: PlaygroundRegistry | None = None) -> None:
    (registry or default_registry()).register(definition)


def run_playground(
    name: str,
    task: str,
    params: dict,
    slots: list[AgentSlot],
    services: RunServices,
) -> PlaygroundResult:
    """Resolve a playground by name, check its inputs, and execute it."""
    definition = default_registry().get(name)
    check_inputs(definition, params, slots)
    return definition.workflow(task, params, slots, services)


__all__ = [
    "AgentSlot",
    "BUILTIN_DEFINITIONS",
    "CacheReadError",
    "CognitiveCache",
    "DoubleRunPromotion",
    "DuplicatePlayground",
    "InvalidParams",
    "PlaygroundDefinition",
    "PlaygroundNotFound",
    "PlaygroundRegistry",
    "PlaygroundResult",
    "SlotConfigError",
    "TOOL_NAMES",
    "check_inputs",
    "default_registry",
    "fan_out",
    "install_builtin_playgrounds",
    "parse_score",
    "register",
    "run_playground",
    "run_slot",
    "select_best",
]
