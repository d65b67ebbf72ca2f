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

    runs = list(zip(explorers, fan_out(lambda slot: run_slot(slot, task, services), explorers)))
    lines = [f"[{slot.slot_name}] {answer_or_note(state)}" for slot, state in runs]

    aggregate_task = f"{task}\n\nCandidate answers:\n" + "\n".join(lines)
    agg_state = run_slot(aggregator, aggregate_task, services)
    runs.append((aggregator, agg_state))
    return DEFINITION.result(runs, agg_state.outcome.final_answer or "", 1)


DEFINITION = PlaygroundDefinition(
    name="parallel_explore",
    workflow=parallel_explore,
    slot_roles={"explorer": (2, None), "aggregator": (1, 1)},
)
