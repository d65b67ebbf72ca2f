"""Parallel exploration: explorers race on the same task, one slot aggregates."""

from __future__ import annotations

from ..engine import RunServices
from .base import (
    AgentSlot,
    PlaygroundDefinition,
    PlaygroundResult,
    SlotConfigError,
    fan_out,
    run_slot,
)


def parallel_explore(
    task: str, params: dict, slots: list[AgentSlot], services: RunServices
) -> PlaygroundResult:
    aggregator_name = params.get("aggregator")
    if aggregator_name is None:
        named = [s for s in slots if s.slot_name == "aggregator"]
        aggregator = named[0] if named else slots[-1] if slots else None
    else:
        matches = [s for s in slots if s.slot_name == aggregator_name]
        if not matches:
            raise SlotConfigError(f"no slot named {aggregator_name!r} to aggregate")
        aggregator = matches[0]
    explorers = [s for s in slots if aggregator is None or s.slot_name != aggregator.slot_name]
    if aggregator is None or len(explorers) < 2:
        raise SlotConfigError("parallel_explore needs >= 2 explorers plus an aggregator")

    runs = fan_out(lambda slot: run_slot(slot, task, services), explorers)
    states = {slot.slot_name: state for slot, state in zip(explorers, runs)}

    outcomes = {name: state.outcome for name, state in states.items()}
    degraded = False
    lines = []
    for name in sorted(states):
        outcome = states[name].outcome
        if outcome.status == "answered":
            lines.append(f"[{name}] {outcome.final_answer}")
        else:
            degraded = True
            lines.append(f"[{name}] failed: {outcome.status}")

    aggregate_task = f"{task}\n\nCandidate answers:\n" + "\n".join(lines)
    agg_state = run_slot(aggregator, aggregate_task, services)
    outcomes[aggregator.slot_name] = agg_state.outcome
    if agg_state.outcome.status != "answered":
        return PlaygroundResult("", "failed", outcomes, rounds_used=1)
    status = "partial" if degraded else "ok"
    return PlaygroundResult(agg_state.outcome.final_answer or "", status, outcomes, rounds_used=1)


DEFINITION = PlaygroundDefinition(
    name="parallel_explore",
    workflow=parallel_explore,
    params_schema={"aggregator": str},
    slot_roles=("explorer", "aggregator"),
)
