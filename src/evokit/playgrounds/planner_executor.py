"""Planner-executor research loop, capped at ten rounds by default.

Each round the planner sees the task plus all accumulated findings and emits
either a search plan or a final answer. The executor carries out the plan
with its retrieval tools and returns findings; executor failures become
findings themselves and the loop continues.
"""

from __future__ import annotations

from dataclasses import replace

from ..engine import RunServices
from .base import (
    AgentSlot,
    PlaygroundDefinition,
    PlaygroundResult,
    answer_or_note,
    run_slot,
    single_slot,
)

DEFAULT_MAX_ROUNDS = 10


def planner_executor(
    task: str, params: dict, slots: list[AgentSlot], services: RunServices
) -> PlaygroundResult:
    planner = single_slot(slots, "planner")
    executor = single_slot(slots, "executor")
    max_rounds = params.get("max_rounds", DEFAULT_MAX_ROUNDS)

    # The planner emits exactly one message per round; its spec is copied so
    # the configured slot is never mutated.
    planner_slot = AgentSlot(
        planner.slot_name, planner.role, replace(planner.spec, max_turns=1)
    )

    runs = []
    findings: list[str] = []  # one per finished round
    for _ in range(max_rounds):
        if services.out_of_time():
            break
        planner_task = task
        if findings:
            numbered = "\n".join(f"{i + 1}. {f}" for i, f in enumerate(findings))
            planner_task = f"{task}\n\nFindings so far:\n{numbered}"
        planner_state = run_slot(planner_slot, planner_task, services)
        runs.append((planner_slot, planner_state))
        outcome = planner_state.outcome
        if outcome.final_answer is not None:
            return DEFINITION.result(runs, outcome.final_answer, len(findings) + 1)
        if outcome.status == "error":
            return DEFINITION.result(runs, "\n".join(findings), len(findings) + 1)
        plan = planner_state.last_assistant_content

        executor_state = run_slot(executor, f"{task}\n\nSearch plan:\n{plan}", services)
        runs.append((executor, executor_state))
        findings.append(answer_or_note(executor_state))

    return DEFINITION.result(runs, "\n".join(findings), len(findings), finished=False)


DEFINITION = PlaygroundDefinition(
    name="planner_executor",
    workflow=planner_executor,
    params_schema={"max_rounds": int},
    slot_roles={"planner": (1, 1), "executor": (1, 1)},
    role_effects={"planner": ("failed", None), "executor": (None, None)},
)
