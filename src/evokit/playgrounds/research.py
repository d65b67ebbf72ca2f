"""Single-agent research loop: one agent, a retrieval tool pack, critique cycles.

A thin wrapper over the agent engine. Literature retrieval, reflection, and
refinement all come from the engine itself: tools fetch sources, the critique
cadence forces reflection, and the context manager sustains long horizons.
"""

from __future__ import annotations

from dataclasses import replace

from ..engine import RunServices
from ..prompts import RESEARCH_PROMPT
from .base import (
    TOOL_NAMES,
    AgentSlot,
    PlaygroundDefinition,
    PlaygroundResult,
    run_slot,
    single_slot,
)


def single_agent_research(
    task: str, params: dict, slots: list[AgentSlot], services: RunServices
) -> PlaygroundResult:
    researcher = single_slot(slots, "researcher")
    spec = replace(
        researcher.spec,
        tool_names=tuple(params.get("tool_pack", researcher.spec.tool_names)),
        system_prompt=researcher.spec.system_prompt or RESEARCH_PROMPT,
    )
    slot = AgentSlot(researcher.slot_name, researcher.role, spec)
    state = run_slot(slot, task, services)
    outcome = state.outcome
    answer = outcome.final_answer
    if answer is None:
        answer = "" if outcome.status == "error" else state.last_assistant_content
    return DEFINITION.result([(slot, state)], answer, outcome.turns)


DEFINITION = PlaygroundDefinition(
    name="single_agent_research",
    workflow=single_agent_research,
    params_schema={"tool_pack": TOOL_NAMES},
    slot_roles={"researcher": (1, 1)},
    role_effects={"researcher": ("failed", "partial")},
)
