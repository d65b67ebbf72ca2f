"""Draft-and-improve loop with the hierarchical cognitive cache.

Phase 1 prefetches wisdom promoted by earlier runs into the drafter's pinned
context. Phase 2 drafts solution v0. Each improvement round (twenty by
default) runs the improver branches in parallel, and each branch has the
evaluator score its proposal as soon as its improver answers, so the scores
are computed concurrently too. The round adopts the argmax of the
evaluator's ``SCORE: <real>`` lines (ties break to the lowest slot name) and
promotes its findings to the cache. At the end the run's wisdom is promoted
to the cross-run store for the next run to prefetch. An evaluator that ends
``error`` ends the loop.
"""

from __future__ import annotations

from dataclasses import replace

from ..engine import RunServices
from .base import (
    AgentSlot,
    PlaygroundDefinition,
    PlaygroundResult,
    fan_out,
    parse_score,
    run_slot,
    select_best,
    single_slot,
    slots_by_role,
)

DEFAULT_MAX_ROUNDS = 20


def draft_and_improve(
    task: str, params: dict, slots: list[AgentSlot], services: RunServices
) -> PlaygroundResult:
    drafter = single_slot(slots, "drafter")
    improvers = slots_by_role(slots, "improver")
    evaluator = single_slot(slots, "evaluator")
    max_rounds = params.get("max_rounds", DEFAULT_MAX_ROUNDS)
    improvers = improvers[: params.get("branches", len(improvers))]
    evaluator_slot = AgentSlot(
        evaluator.slot_name, evaluator.role, replace(evaluator.spec, max_turns=1)
    )

    def emit(payload: dict) -> None:
        if services.recorder is not None:
            services.recorder.record("promotion", payload)

    wisdom = services.cache.prefetch(task) if services.cache else []
    emit({"tier": "prefetch", "count": len(wisdom), "items": wisdom})
    notes = ()
    if wisdom:
        notes = ("Wisdom from previous runs:\n" + "\n---\n".join(wisdom),)

    draft_state = run_slot(drafter, task, services, pinned_notes=notes)
    runs = [(drafter, draft_state)]
    if draft_state.outcome.status == "error":
        return DEFINITION.result(runs, "", 0)
    solution = draft_state.outcome.final_answer
    if solution is None:
        solution = draft_state.last_assistant_content

    rounds_used = 0
    finished = True
    for round_index in range(1, max_rounds + 1):
        if services.out_of_time():
            finished = False
            break
        improve_task = f"{task}\n\nCurrent solution:\n{solution}\n\nPropose an improved version."

        def improve_and_score(slot: AgentSlot):
            state = run_slot(slot, improve_task, services)
            if state.outcome.final_answer is None:
                return state, None
            evaluate_task = (
                f"{task}\n\nCandidate solution:\n{state.outcome.final_answer}\n\n"
                "Reply with a line 'SCORE: <number>'."
            )
            return state, run_slot(evaluator_slot, evaluate_task, services)

        branches = fan_out(improve_and_score, improvers)
        proposals, scores = {}, {}
        for slot, (state, eval_state) in zip(improvers, branches):
            runs.append((slot, state))
            scores[slot.slot_name] = float("-inf")
            if eval_state is not None:
                runs.append((evaluator_slot, eval_state))
                proposals[slot.slot_name] = state.outcome.final_answer
                scores[slot.slot_name] = parse_score(eval_state.last_assistant_content)
        if any(e is not None and e.outcome.status == "error" for _, e in branches):
            break

        adopted = select_best(scores)
        if adopted is not None:
            solution = proposals[adopted]
        rounds_used = round_index
        findings = (
            f"round {round_index}: adopted={adopted or 'none'} "
            f"scores={[(n, scores[n]) for n in sorted(scores)]}\n{solution}"
        )
        if services.cache:
            services.cache.promote_round(round_index, findings)
        emit({"tier": "round", "round": round_index, "findings": findings})

    if services.cache:
        services.cache.promote_run(solution)
    emit({"tier": "run", "wisdom": solution})
    return DEFINITION.result(runs, solution, rounds_used, finished)


DEFINITION = PlaygroundDefinition(
    name="draft_and_improve",
    workflow=draft_and_improve,
    params_schema={"max_rounds": int, "branches": (int, "improver")},
    slot_roles={"drafter": (1, 1), "improver": (1, None), "evaluator": (1, 1)},
    role_effects={"drafter": ("failed", "partial"), "improver": (None, None),
                  "evaluator": ("partial", None)},
)
