"""Four-phase refinement pipeline: solve, critique, rewrite, select.

Solvers draft candidates in parallel; a solver that does not answer
contributes no candidate. Each round, the critic reviews every candidate
and the rewriter revises it under that critique; a critic verdict of NO
ISSUES, or no answer from the critic, skips the rewrite for that candidate.
After the last round the selector picks exactly one candidate by number,
returned verbatim.
"""

from __future__ import annotations

from ..engine import RunServices
from .base import (
    AgentSlot,
    PlaygroundDefinition,
    PlaygroundResult,
    fan_out,
    run_slot,
    single_slot,
    slots_by_role,
)

NO_ISSUES = "NO ISSUES"


def solve_critique_rewrite_select(
    task: str, params: dict, slots: list[AgentSlot], services: RunServices
) -> PlaygroundResult:
    solvers = slots_by_role(slots, "solver")
    critic = single_slot(slots, "critic")
    rewriter = single_slot(slots, "rewriter")
    selector = single_slot(slots, "selector")

    n_rounds = params.get("n_rounds", 1)
    solvers = solvers[: params.get("n_solvers", len(solvers))]

    runs = list(zip(solvers, fan_out(lambda s: run_slot(s, task, services), solvers)))
    candidates = [
        state.outcome.final_answer for _, state in runs if state.outcome.final_answer is not None
    ]
    if not candidates:
        return DEFINITION.result(runs, "", 0)

    for _ in range(n_rounds):
        for index, candidate in enumerate(candidates):
            critic_task = f"{task}\n\nCandidate solution:\n{candidate}"
            critic_state = run_slot(critic, critic_task, services)
            runs.append((critic, critic_state))
            critique = critic_state.outcome.final_answer
            if critique is None or critique.strip() == NO_ISSUES:
                continue
            rewrite_task = (
                f"{task}\n\nCandidate solution:\n{candidate}\n\nCritique:\n{critique}"
            )
            rewrite_state = run_slot(rewriter, rewrite_task, services)
            runs.append((rewriter, rewrite_state))
            if rewrite_state.outcome.final_answer is not None:
                candidates[index] = rewrite_state.outcome.final_answer

    numbered = "\n".join(f"{i + 1}. {c}" for i, c in enumerate(candidates))
    select_task = (
        f"{task}\n\nPick the best candidate and answer with its number only.\n{numbered}"
    )
    select_state = run_slot(selector, select_task, services)
    runs.append((selector, select_state))
    choice = _parse_choice(select_state.outcome.final_answer, len(candidates))
    answer = "" if choice is None else candidates[choice - 1]
    return DEFINITION.result(runs, answer, n_rounds)


def _parse_choice(answer: str | None, count: int) -> int | None:
    """The answer's first run of digits, if all are decimal and it names a candidate."""
    if answer is None:
        return None
    digits = ""
    for char in answer:
        if char.isdigit():
            digits += char
        elif digits:
            break
    if not digits.isdecimal():
        return None
    choice = int(digits)
    return choice if 1 <= choice <= count else None


DEFINITION = PlaygroundDefinition(
    name="solve_critique_rewrite_select",
    workflow=solve_critique_rewrite_select,
    params_schema={"n_solvers": (int, "solver"), "n_rounds": int},
    slot_roles={"solver": (1, None), "critic": (1, 1), "rewriter": (1, 1), "selector": (1, 1)},
)
