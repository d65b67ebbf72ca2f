"""Sequential handoff: each slot receives the task plus its predecessor's answer."""

from __future__ import annotations

from ..engine import RunServices
from .base import AgentSlot, PlaygroundDefinition, PlaygroundResult, run_slot


def sequential_handoff(
    task: str, params: dict, slots: list[AgentSlot], services: RunServices
) -> PlaygroundResult:
    del params
    outcomes = {}
    answer = ""
    current_task = task
    for index, slot in enumerate(slots):
        state = run_slot(slot, current_task, services)
        outcome = state.outcome
        outcomes[slot.slot_name] = outcome
        if outcome.status == "error":
            return PlaygroundResult(answer, "failed", outcomes, rounds_used=index)
        if outcome.status != "answered":
            return PlaygroundResult(answer, "partial", outcomes, rounds_used=index)
        answer = outcome.final_answer or ""
        current_task = f"{task}\n\nPrior result:\n{answer}"
    return PlaygroundResult(answer, "ok", outcomes, rounds_used=len(slots))


DEFINITION = PlaygroundDefinition(
    name="sequential_handoff",
    workflow=sequential_handoff,
    slot_roles={"worker": (1, None)},
)
