"""Parallel exploration: explorers race on the same task, one slot aggregates."""

from __future__ import annotations

from ..engine import RunServices
from .base import (
    AgentSlot,
    PlaygroundDefinition,
    PlaygroundResult,
    answer_or_note,
    fan_out,
    run_slot,
    single_slot,
    slots_by_role,
)


def parallel_explore(
    task: str, params: dict, slots: list[AgentSlot], services: RunServices
) -> PlaygroundResult:
    del params
    aggregator = single_slot(slots, "aggregator")
    explorers = slots_by_role(slots, "explorer")

    runs = fan_out(lambda slot: run_slot(slot, task, services), explorers)
    states = {slot.slot_name: state for slot, state in zip(explorers, runs)}

    outcomes = {name: state.outcome for name, state in states.items()}
    degraded = any(outcome.status != "answered" for outcome in outcomes.values())
    lines = [f"[{name}] {answer_or_note(states[name])}" for name in sorted(states)]

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
    slot_roles={"explorer": (2, None), "aggregator": (1, 1)},
)
