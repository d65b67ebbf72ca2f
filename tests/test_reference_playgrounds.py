from __future__ import annotations

import threading
import time

import pytest

from evokit.engine import AgentSpec
from evokit.gateway import ModelProfile
from evokit.playgrounds import AgentSlot, CognitiveCache, InvalidParams, run_playground
from evokit.playgrounds import draft_improve
from evokit.playgrounds.draft_improve import draft_and_improve
from evokit.playgrounds.planner_executor import planner_executor
from evokit.playgrounds.research import single_agent_research
from evokit.playgrounds.solve_critique import solve_critique_rewrite_select
from evokit.tools import LocalCorpusFetcher
from helpers import FIXTURES, make_services, scripted_gateway, write_script
from stubs import ChatCompletionsStub


def _slot(name: str, role: str, profile: str, **overrides) -> AgentSlot:
    spec = AgentSpec(
        name=name,
        system_prompt=f"You are {role}.",
        llm_profile=profile,
        max_turns=overrides.pop("max_turns", 3),
        critique_every=overrides.pop("critique_every", 99),
        **overrides,
    )
    return AgentSlot(slot_name=name, role=role, spec=spec)


def _with_mute(gateway):
    """``gateway`` plus a scripted profile ``mute`` whose agent never answers."""
    script = str(FIXTURES / "scripts/never_final.script")
    gateway.register_profile(ModelProfile("mute", "scripted", "m", script_path=script))
    return gateway


# -- solve / critique / rewrite / select ---------------------------------------


def _scrs_gateway(tmp_path, **scripts):
    """The sum task's gateway; ``scripts`` replace a profile's script."""
    defaults = dict(
        sol1=[{"content": "FINAL: The sum is 41."}],
        sol2=[{"content": "FINAL: The sum is 42."}],
        critic=[
            {"match": "The sum is 41", "content": "FINAL: Arithmetic slip: 17 plus 25 is 42."},
            {"content": "FINAL: NO ISSUES"},
        ],
        rewriter=[{"content": "FINAL: 17 + 25 = 42."}],
        selector=[{"content": "FINAL: 2"}],
    )
    return scripted_gateway(tmp_path, **{**defaults, **scripts})


def _scrs_slots() -> list[AgentSlot]:
    return [
        _slot("solver-1", "solver", "sol1"),
        _slot("solver-2", "solver", "sol2"),
        _slot("critic", "critic", "critic"),
        _slot("rewriter", "rewriter", "rewriter"),
        _slot("selector", "selector", "selector"),
    ]


def test_selector_choice_returned_verbatim(tmp_path) -> None:
    services = make_services(tmp_path, _scrs_gateway(tmp_path))
    result = solve_critique_rewrite_select(
        "Compute the sum of 17 and 25.", {"n_solvers": 2, "n_rounds": 1}, _scrs_slots(), services
    )
    assert result.status == "ok"
    # Candidate 2 went through an untouched NO ISSUES round; byte-equal check.
    assert result.final_answer == "The sum is 42."
    assert result.rounds_used == 1


def test_answered_rewrite_replaces_its_candidate(tmp_path) -> None:
    gateway = _scrs_gateway(tmp_path, selector=[{"content": "FINAL: 1"}])
    services = make_services(tmp_path, gateway)
    result = solve_critique_rewrite_select(
        "Compute the sum of 17 and 25.", {}, _scrs_slots(), services
    )
    # Candidate 1 was critiqued, so the selector's pick is the rewriter's text.
    assert (result.status, result.final_answer) == ("ok", "17 + 25 = 42.")


def test_no_issues_skips_rewrite(tmp_path) -> None:
    services = make_services(tmp_path, _scrs_gateway(tmp_path))
    result = solve_critique_rewrite_select(
        "Compute the sum of 17 and 25.", {"n_rounds": 1}, _scrs_slots(), services
    )
    # If the rewriter had run on candidate 2 the selector would have returned
    # the rewritten text instead of the solver's original.
    assert result.final_answer == "The sum is 42."


def test_unanswered_critique_leaves_candidate_and_degrades(tmp_path) -> None:
    gateway = _with_mute(_scrs_gateway(tmp_path))
    services = make_services(tmp_path, gateway)
    slots = [*_scrs_slots()[:2], _slot("critic", "critic", "mute"), *_scrs_slots()[3:]]
    result = solve_critique_rewrite_select("Compute the sum of 17 and 25.", {}, slots, services)
    # No critique reached the rewriter, so candidate 2 is the solver's own text.
    assert (result.status, result.final_answer) == ("partial", "The sum is 42.")
    assert result.per_slot_outcomes["critic"].status == "max_turns"
    assert "rewriter" not in result.per_slot_outcomes


def test_unanswered_solver_contributes_no_candidate(tmp_path) -> None:
    gateway = _with_mute(
        scripted_gateway(
            tmp_path,
            sol2=[{"content": "FINAL: The sum is 42."}],
            critic=[{"content": "FINAL: NO ISSUES"}],
            rewriter=[{"content": "FINAL: unused"}],
            selector=[{"content": "FINAL: 1"}],
        )
    )
    services = make_services(tmp_path, gateway)
    slots = [_slot("solver-1", "solver", "mute"), *_scrs_slots()[1:]]
    result = solve_critique_rewrite_select("Compute the sum of 17 and 25.", {}, slots, services)
    # Candidate 1 is solver-2's answer: the mute solver's failure note is no candidate.
    assert (result.status, result.final_answer) == ("partial", "The sum is 42.")
    assert result.per_slot_outcomes["solver-1"].status == "max_turns"


def test_no_answered_solver_fails_with_empty_answer(tmp_path) -> None:
    services = make_services(tmp_path, _with_mute(_scrs_gateway(tmp_path)))
    slots = [_slot("solver-1", "solver", "mute"), *_scrs_slots()[2:]]
    result = solve_critique_rewrite_select("t", {}, slots, services)
    assert (result.status, result.final_answer, result.rounds_used) == ("failed", "", 0)
    assert set(result.per_slot_outcomes) == {"solver-1"}


def test_zero_rounds_rejected(tmp_path) -> None:
    services = make_services(tmp_path, _scrs_gateway(tmp_path))
    name = "solve_critique_rewrite_select"
    with pytest.raises(InvalidParams, match="n_rounds"):
        run_playground(name, "t", {"n_rounds": 0}, _scrs_slots(), services)
    with pytest.raises(InvalidParams, match="n_solvers"):
        run_playground(name, "t", {"n_solvers": 9}, _scrs_slots(), services)


def test_unparseable_selector_fails(tmp_path) -> None:
    gateway = scripted_gateway(
        tmp_path,
        sol1=[{"content": "FINAL: only"}],
        critic=[{"content": "FINAL: NO ISSUES"}],
        rewriter=[{"content": "FINAL: unused"}],
        selector=[{"content": "FINAL: none of them"}],
    )
    services = make_services(tmp_path, gateway)
    slots = [
        _slot("solver-1", "solver", "sol1"),
        _slot("critic", "critic", "critic"),
        _slot("rewriter", "rewriter", "rewriter"),
        _slot("selector", "selector", "selector"),
    ]
    result = solve_critique_rewrite_select("t", {}, slots, services)
    assert result.status == "failed"


def test_selector_choice_in_other_decimal_digits(tmp_path) -> None:
    gateway = _scrs_gateway(tmp_path)
    gateway.register_profile(ModelProfile(
        "arabic", "scripted", "s",
        script_path=str(write_script(tmp_path, "arabic.script", [{"content": "FINAL: \u0662"}])),
    ))
    slots = [*_scrs_slots()[:4], _slot("selector", "selector", "arabic")]
    result = solve_critique_rewrite_select(
        "Compute the sum of 17 and 25.", {}, slots, make_services(tmp_path, gateway)
    )
    assert (result.status, result.final_answer) == ("ok", "The sum is 42.")


# -- planner / executor -----------------------------------------------------------


def _pe_gateway(tmp_path):
    return scripted_gateway(
        tmp_path,
        planner=[
            {"match": "fact-two", "content": "FINAL: 1998, confirmed twice."},
            {"match": "fact-one", "content": "Corroborate fact-one."},
            {"content": "Search for the Foo page."},
        ],
        executor=[
            {"match": "Corroborate", "content": "FINAL: fact-two: corroborated."},
            {"content": "FINAL: fact-one: page says 1998."},
        ],
    )


def test_planner_finalizes_on_round_three(tmp_path) -> None:
    services = make_services(tmp_path, _pe_gateway(tmp_path))
    slots = [_slot("planner", "planner", "planner"), _slot("executor", "executor", "executor")]
    result = planner_executor("Find the year.", {}, slots, services)
    assert result.status == "ok"
    assert result.rounds_used == 3
    assert result.final_answer == "1998, confirmed twice."


def test_planner_never_finalizing_caps_rounds(tmp_path) -> None:
    gateway = scripted_gateway(
        tmp_path,
        planner=[{"content": "keep searching"}],
        executor=[{"content": "FINAL: nothing new"}],
    )
    services = make_services(tmp_path, gateway)
    slots = [_slot("planner", "planner", "planner"), _slot("executor", "executor", "executor")]
    result = planner_executor("Find it.", {"max_rounds": 4}, slots, services)
    assert result.status == "partial"
    assert result.rounds_used == 4
    assert "nothing new" in result.final_answer


def test_executor_failure_becomes_finding_and_loop_continues(tmp_path) -> None:
    gateway = scripted_gateway(
        tmp_path,
        planner=[
            {"match": "failed: error", "content": "FINAL: recovered despite failure"},
            {"content": "plan something"},
        ],
    )
    gateway.register_profile(
        ModelProfile("dead", "http-openai-compatible", "m", base_url="http://127.0.0.1:9")
    )
    services = make_services(tmp_path, gateway)
    slots = [_slot("planner", "planner", "planner"), _slot("executor", "executor", "dead")]
    result = planner_executor("Find it.", {"max_rounds": 3}, slots, services)
    assert result.status == "ok"
    assert result.final_answer == "recovered despite failure"
    assert result.rounds_used == 2


def test_planner_error_after_a_finding_fails_the_run_with_the_findings(tmp_path) -> None:
    def reply(body: dict) -> dict:
        if "Findings so far" in body["messages"][-1]["content"]:
            return {"choices": []}  # malformed, on the call and on its retry
        return {"choices": [{"message": {"content": "Search for the Foo page."}}]}

    with ChatCompletionsStub(reply=reply) as stub:
        gateway = _pe_gateway(tmp_path)
        gateway.register_profile(
            ModelProfile("remote", "http-openai-compatible", "m", base_url=stub.url)
        )
        services = make_services(tmp_path, gateway)
        slots = [_slot("planner", "planner", "remote"), _slot("executor", "executor", "executor")]
        result = planner_executor("Find the year.", {}, slots, services)
    assert len(stub.requests) == 3
    assert (result.status, result.final_answer, result.rounds_used) == (
        "failed", "fact-one: page says 1998.", 2
    )
    assert result.per_slot_outcomes["planner"].status == "error"


def test_invalid_max_rounds(tmp_path) -> None:
    services = make_services(tmp_path, _pe_gateway(tmp_path))
    slots = [_slot("planner", "planner", "planner"), _slot("executor", "executor", "executor")]
    with pytest.raises(InvalidParams, match="max_rounds"):
        run_playground("planner_executor", "t", {"max_rounds": 0}, slots, services)


# -- draft and improve ----------------------------------------------------------------


def _di_gateway(tmp_path):
    return scripted_gateway(
        tmp_path,
        drafter=[{"content": "FINAL: v0"}],
        imp_a=[
            {"match": "Current solution:\\nv0", "content": "FINAL: a1"},
            {"content": "FINAL: a2"},
        ],
        imp_b=[
            {"match": "Current solution:\\nv0", "content": "FINAL: b1"},
            {"content": "FINAL: b2"},
        ],
        evaluator=[
            {"match": "\\na1", "content": "SCORE: 3.0"},
            {"match": "\\nb1", "content": "SCORE: 7.0"},
            {"match": "\\na2", "content": "SCORE: 9.5"},
            {"match": "\\nb2", "content": "SCORE: 4.0"},
        ],
    )


def _di_slots() -> list[AgentSlot]:
    return [
        _slot("drafter", "drafter", "drafter"),
        _slot("imp-a", "improver", "imp_a"),
        _slot("imp-b", "improver", "imp_b"),
        _slot("evaluator", "evaluator", "evaluator"),
    ]


def test_highest_score_adopted(tmp_path) -> None:
    cache = CognitiveCache(tmp_path / "cache", "run-1")
    services = make_services(tmp_path, _di_gateway(tmp_path), cache=cache)
    result = draft_and_improve("Write a tagline.", {"max_rounds": 1}, _di_slots(), services)
    assert result.status == "ok"
    assert result.final_answer == "b1"
    assert result.rounds_used == 1


def test_two_rounds_follow_score_argmax(tmp_path) -> None:
    services = make_services(tmp_path, _di_gateway(tmp_path))
    result = draft_and_improve("Write a tagline.", {"max_rounds": 2}, _di_slots(), services)
    assert result.final_answer == "a2"
    assert result.rounds_used == 2


def test_drafter_error_fails_the_run_before_any_improver(tmp_path) -> None:
    gateway = _di_gateway(tmp_path)
    gateway.register_profile(
        ModelProfile("dead", "http-openai-compatible", "m", base_url="http://127.0.0.1:9")
    )
    services = make_services(tmp_path, gateway)
    slots = [_slot("drafter", "drafter", "dead"), *_di_slots()[1:]]
    result = draft_and_improve("Write a tagline.", {"max_rounds": 2}, slots, services)
    assert (result.status, result.final_answer, result.rounds_used) == ("failed", "", 0)
    assert {name: o.status for name, o in result.per_slot_outcomes.items()} == {"drafter": "error"}


def test_unanswered_draft_makes_run_partial(tmp_path) -> None:
    gateway = _with_mute(_di_gateway(tmp_path))
    services = make_services(tmp_path, gateway)
    slots = [_slot("drafter", "drafter", "mute"), *_di_slots()[1:]]
    result = draft_and_improve("Write a tagline.", {"max_rounds": 1}, slots, services)
    assert result.per_slot_outcomes["drafter"].status == "max_turns"
    assert (result.status, result.final_answer, result.rounds_used) == ("partial", "a2", 1)


def test_deadline_after_the_draft_makes_run_partial(tmp_path, monkeypatch) -> None:
    services = make_services(tmp_path, _di_gateway(tmp_path))
    real_run_slot = draft_improve.run_slot

    def run_slot(slot, task, services, **kwargs):
        state = real_run_slot(slot, task, services, **kwargs)
        if slot.role == "drafter":  # the deadline passes before round 1
            services.deadline = time.monotonic() - 1
        return state

    monkeypatch.setattr(draft_improve, "run_slot", run_slot)
    result = draft_and_improve("Write a tagline.", {"max_rounds": 2}, _di_slots(), services)
    assert (result.status, result.final_answer, result.rounds_used) == ("partial", "v0", 0)


def test_tie_breaks_to_lowest_slot_name(tmp_path) -> None:
    gateway = scripted_gateway(
        tmp_path,
        drafter=[{"content": "FINAL: v0"}],
        imp_a=[{"content": "FINAL: from-a"}],
        imp_b=[{"content": "FINAL: from-b"}],
        evaluator=[{"content": "SCORE: 5.0"}],
    )
    services = make_services(tmp_path, gateway)
    result = draft_and_improve("t", {"max_rounds": 1}, _di_slots(), services)
    assert result.final_answer == "from-a"


def test_branch_failure_scores_minus_infinity(tmp_path) -> None:
    gateway = scripted_gateway(
        tmp_path,
        drafter=[{"content": "FINAL: v0"}],
        imp_b=[{"content": "FINAL: from-b"}],
        evaluator=[{"content": "SCORE: 1.0"}],
    )
    gateway.register_profile(
        ModelProfile("dead", "http-openai-compatible", "m", base_url="http://127.0.0.1:9")
    )
    services = make_services(tmp_path, gateway)
    slots = [
        _slot("drafter", "drafter", "drafter"),
        _slot("imp-a", "improver", "dead"),
        _slot("imp-b", "improver", "imp_b"),
        _slot("evaluator", "evaluator", "evaluator"),
    ]
    result = draft_and_improve("t", {"max_rounds": 1}, slots, services)
    assert result.final_answer == "from-b"


def test_branches_are_scored_concurrently(tmp_path) -> None:
    # Each evaluator request waits until the other branch's request arrives,
    # so both proposals get a score only if their evaluations overlap.
    barrier = threading.Barrier(2, timeout=5)

    def reply(body: dict) -> dict:
        candidate = body["messages"][-1]["content"]
        try:
            barrier.wait()
            content = "SCORE: 7.0" if "\nb1" in candidate else "SCORE: 3.0"
        except threading.BrokenBarrierError:
            content = "scored alone"
        return {
            "choices": [{"message": {"content": content}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 5, "completion_tokens": 2},
        }

    with ChatCompletionsStub(reply=reply) as stub:
        gateway = _di_gateway(tmp_path)
        gateway.register_profile(
            ModelProfile("remote", "http-openai-compatible", "judge", base_url=stub.url)
        )
        services = make_services(tmp_path, gateway)
        slots = _di_slots()[:3] + [_slot("evaluator", "evaluator", "remote")]
        result = draft_and_improve("Write a tagline.", {"max_rounds": 1}, slots, services)
    assert len(stub.requests) == 2
    assert (result.status, result.final_answer, result.rounds_used) == ("ok", "b1", 1)


def test_evaluator_error_ends_the_loop_unadopted(tmp_path) -> None:
    gateway = _di_gateway(tmp_path)
    gateway.register_profile(
        ModelProfile("dead", "http-openai-compatible", "m", base_url="http://127.0.0.1:9")
    )
    services = make_services(tmp_path, gateway)
    slots = _di_slots()[:3] + [_slot("evaluator", "evaluator", "dead")]
    result = draft_and_improve("Write a tagline.", {"max_rounds": 2}, slots, services)
    assert (result.status, result.final_answer, result.rounds_used) == ("partial", "v0", 0)
    assert result.per_slot_outcomes["evaluator"].status == "error"


def test_round_promotions_match_rounds_used(tmp_path) -> None:
    cache = CognitiveCache(tmp_path / "cache", "run-1")
    services = make_services(tmp_path, _di_gateway(tmp_path), cache=cache)
    result = draft_and_improve("Write a tagline.", {"max_rounds": 2}, _di_slots(), services)
    rounds = sorted(p.name for p in (tmp_path / "cache/runs/run-1/rounds").iterdir())
    assert rounds == [f"{i:04d}.txt" for i in range(1, result.rounds_used + 1)]
    assert cache.prefetch("whatever") == [result.final_answer]


def test_invalid_branches(tmp_path) -> None:
    services = make_services(tmp_path, _di_gateway(tmp_path))
    with pytest.raises(InvalidParams, match="branches"):
        run_playground("draft_and_improve", "t", {"branches": 5}, _di_slots(), services)


# -- single agent research ----------------------------------------------------------------


def test_research_answers_from_corpus(tmp_path) -> None:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "example.org_survey.txt").write_text(
        "Survey: thermal anomalies dominate.", encoding="utf-8"
    )
    gateway = scripted_gateway(
        tmp_path,
        researcher=[
            {"content": "", "tool_calls": [{"name": "web_fetch", "arguments": {"url": "https://example.org/survey.txt"}}]},
            {"match": "thermal anomalies", "content": "FINAL: Thermal anomalies dominate (survey)."},
            {"content": "FINAL: WRONG"},
        ],
    )
    services = make_services(
        tmp_path,
        gateway,
        builtin=("web_fetch", "web_search", "pdf_extract"),
        fetcher=LocalCorpusFetcher(corpus),
    )
    result = single_agent_research(
        "What dominates?",
        {"tool_pack": ["web_fetch", "web_search", "pdf_extract"]},
        [_slot("researcher", "researcher", "researcher", max_turns=4)],
        services,
    )
    assert result.status == "ok"
    assert result.final_answer == "Thermal anomalies dominate (survey)."


def test_empty_tool_pack_is_config_error(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, researcher=[{"content": "FINAL: x"}])
    services = make_services(tmp_path, gateway)
    slots = [_slot("researcher", "researcher", "researcher")]
    with pytest.raises(InvalidParams, match="tool_pack"):
        run_playground("single_agent_research", "t", {"tool_pack": []}, slots, services)


def test_retrieval_404_keeps_run_alive(tmp_path) -> None:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    gateway = scripted_gateway(
        tmp_path,
        researcher=[
            {"content": "", "tool_calls": [{"name": "web_fetch", "arguments": {"url": "https://gone.example/x"}}]},
            {"match": "404", "content": "FINAL: noted the missing source"},
            {"content": "FINAL: WRONG"},
        ],
    )
    services = make_services(
        tmp_path,
        gateway,
        builtin=("web_fetch",),
        fetcher=LocalCorpusFetcher(corpus),
    )
    result = single_agent_research(
        "t", {"tool_pack": ["web_fetch"]},
        [_slot("researcher", "researcher", "researcher", max_turns=4)],
        services,
    )
    assert result.status == "ok"
    assert result.final_answer == "noted the missing source"


def test_researcher_out_of_turns_answers_with_its_last_content(tmp_path) -> None:
    services = make_services(tmp_path, _with_mute(scripted_gateway(tmp_path)))
    slot = _slot("researcher", "researcher", "mute", max_turns=2)
    result = run_playground("single_agent_research", "t", {}, [slot], services)
    # The researcher's effect on an end other than error is partial.
    assert result.per_slot_outcomes["researcher"].status == "max_turns"
    assert (result.status, result.final_answer) == ("partial", "still working")
