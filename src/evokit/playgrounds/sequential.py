"""Sequential handoff: each slot receives the task plus its predecessor's answer."""

from __future__ import annotations

from ..engine import RunServices
from .base import AgentSlot, PlaygroundDefinition, PlaygroundResult, run_slot


def sequential_handoff(
    task: str, params: dict, slots: list[AgentSlot], services: RunServices
) -> PlaygroundResult:
    del params
    runs = []
    answer = ""
    current_task = task
    for slot in slots:
        state = run_slot(slot, current_task, services)
        runs.append((slot, state))
        if state.outcome.final_answer is None:
            return DEFINITION.result(runs, answer, len(runs) - 1)
        answer = state.outcome.final_answer
        current_task = f"{task}\n\nPrior result:\n{answer}"
    return DEFINITION.result(runs, answer, len(runs))


DEFINITION = PlaygroundDefinition(
    name="sequential_handoff",
    workflow=sequential_handoff,
    slot_roles={"worker": (1, None)},
    role_effects={"worker": ("failed", "partial")},
)
