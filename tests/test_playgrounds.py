from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

import pytest

from evokit.engine import AgentSpec, ConfigError
from evokit.gateway import ModelProfile
from evokit.harness import TrajectoryRecorder
from evokit.playgrounds import (
    BUILTIN_DEFINITIONS,
    AgentSlot,
    DuplicatePlayground,
    InvalidParams,
    PlaygroundDefinition,
    PlaygroundNotFound,
    PlaygroundRegistry,
    PlaygroundResult,
    SlotConfigError,
    check_inputs,
    default_registry,
    fan_out,
    install_builtin_playgrounds,
    parse_score,
    run_playground,
    run_slot,
)
from evokit.playgrounds.base import DEFAULT_ROLE_EFFECTS
from evokit.playgrounds.parallel import parallel_explore
from evokit.playgrounds.sequential import sequential_handoff
from helpers import make_services, scripted_gateway
from stubs import ChatCompletionsStub

BUILTIN_NAMES = [
    "draft_and_improve",
    "parallel_explore",
    "planner_executor",
    "sequential_handoff",
    "single_agent_research",
    "solve_critique_rewrite_select",
]


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


def _dead_profile_gateway(gateway):
    gateway.register_profile(
        ModelProfile("dead", "http-openai-compatible", "m", base_url="http://127.0.0.1:9")
    )
    return gateway


# -- registry -------------------------------------------------------------------


def test_builtins_present_without_user_registration() -> None:
    assert default_registry().names() == BUILTIN_NAMES


def test_register_and_duplicate() -> None:
    registry = PlaygroundRegistry()
    definition = PlaygroundDefinition(
        name="seq", workflow=lambda task, params, slots, services: None
    )
    registry.register(definition)
    assert registry.names() == ["seq"]
    with pytest.raises(DuplicatePlayground):
        registry.register(definition)
    # Without a role table or a params schema any slots and no params pass.
    check_inputs(definition, {}, [_slot("x", "any-role", "m"), _slot("y", "other", "m")])
    install_builtin_playgrounds(registry)
    assert set(BUILTIN_NAMES) <= set(registry.names())


def test_unknown_playground(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "FINAL: x"}])
    services = make_services(tmp_path, gateway)
    with pytest.raises(PlaygroundNotFound):
        run_playground("nope", "task", {}, [], services)


def test_slot_with_missing_profile_rejected_before_model_calls(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "FINAL: x"}])
    services = make_services(tmp_path, gateway)
    slots = [_slot("w", "worker", "ghost")]
    with pytest.raises(ConfigError, match="ghost"):
        run_playground("sequential_handoff", "task", {}, slots, services)


def test_validate_params_rejects_unknown_and_mistyped(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "FINAL: x"}])
    services = make_services(tmp_path, gateway)
    slots = [_slot("planner", "planner", "m"), _slot("executor", "executor", "m")]
    with pytest.raises(InvalidParams, match="bogus"):
        run_playground("planner_executor", "task", {"bogus": 1}, slots, services)
    with pytest.raises(InvalidParams, match="max_rounds"):
        run_playground("planner_executor", "task", {"max_rounds": "ten"}, slots, services)
    check_inputs(default_registry().get("planner_executor"), {"max_rounds": 3}, slots)


def test_a_bool_is_no_int_param() -> None:
    slots = [_slot("d", "drafter", "m"), _slot("i", "improver", "m"), _slot("e", "evaluator", "m")]
    with pytest.raises(InvalidParams, match="max_rounds"):
        check_inputs(default_registry().get("draft_and_improve"), {"max_rounds": True}, slots)
    definition = PlaygroundDefinition(
        name="flags", workflow=lambda *args: None, params_schema={"verbose": bool, "n": int}
    )
    check_inputs(definition, {"verbose": True, "n": 2}, [])
    with pytest.raises(InvalidParams, match="'n' must be int"):
        check_inputs(definition, {"n": False}, [])


@pytest.mark.parametrize(
    "content, score",
    [
        ("SCORE: 0.5", 0.5),
        ("Fine work.\nSCORE: 2\nSCORE: 9", 2.0),  # only the first line-start SCORE: counts
        ("Overall SCORE: 9\nSCORE: 1.5", 1.5),
        ("SCORE: nan", float("-inf")),
        ("SCORE: inf", float("-inf")),
        ("SCORE: -inf", float("-inf")),
        ("SCORE: abc", float("-inf")),
        ("SCORE: abc\nSCORE: 3", float("-inf")),
        ("no score given", float("-inf")),
    ],
    ids=["real", "first", "line_start", "nan", "inf", "minus_inf", "text", "first_is_text", "none"],
)
def test_parse_score_reads_one_finite_score(content, score) -> None:
    assert parse_score(content) == score


# -- sequential handoff ------------------------------------------------------------


def test_single_slot_equals_plain_run(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "FINAL: solo"}])
    services = make_services(tmp_path, gateway)
    result = sequential_handoff("task", {}, [_slot("only", "worker", "m")], services)
    assert result.status == "ok"
    assert result.final_answer == "solo"
    assert result.per_slot_outcomes["only"].status == "answered"


def test_three_slots_chain_answers(tmp_path) -> None:
    gateway = scripted_gateway(
        tmp_path,
        s1=[{"content": "FINAL: A"}],
        s2=[
            {"match": "Prior result:\\nA", "content": "FINAL: A|B"},
            {"content": "FINAL: WRONG"},
        ],
        s3=[
            {"match": "Prior result:\\nA\\|B", "content": "FINAL: A|B|C"},
            {"content": "FINAL: WRONG"},
        ],
    )
    services = make_services(tmp_path, gateway)
    slots = [_slot("w1", "worker", "s1"), _slot("w2", "worker", "s2"), _slot("w3", "worker", "s3")]
    result = sequential_handoff("task", {}, slots, services)
    assert result.status == "ok"
    # The match rules prove each slot saw its predecessor's answer.
    assert result.final_answer == "A|B|C"


def test_middle_slot_error_short_circuits(tmp_path) -> None:
    gateway = _dead_profile_gateway(
        scripted_gateway(tmp_path, s1=[{"content": "FINAL: A"}], s3=[{"content": "FINAL: C"}])
    )
    services = make_services(tmp_path, gateway)
    slots = [_slot("w1", "worker", "s1"), _slot("w2", "worker", "dead"), _slot("w3", "worker", "s3")]
    result = sequential_handoff("task", {}, slots, services)
    assert result.status == "failed"
    assert "w3" not in result.per_slot_outcomes
    assert result.per_slot_outcomes["w2"].status == "error"


# -- parallel explore ------------------------------------------------------------------


def _explorer_scripts() -> dict:
    return {
        f"e{i}": [{"content": f"FINAL: e{i}"}] for i in range(1, 5)
    }


def test_parallel_explore_aggregates_in_slot_name_order(tmp_path) -> None:
    order_proof = "\\[e1\\] e1[\\s\\S]*\\[e2\\] e2[\\s\\S]*\\[e3\\] e3[\\s\\S]*\\[e4\\] e4"
    gateway = scripted_gateway(
        tmp_path,
        agg=[
            {"match": order_proof, "content": "FINAL: e1,e2,e3,e4"},
            {"content": "FINAL: WRONG"},
        ],
        **_explorer_scripts(),
    )
    services = make_services(tmp_path, gateway)
    slots = [_slot(f"e{i}", "explorer", f"e{i}") for i in range(1, 5)]
    slots.append(_slot("aggregator", "aggregator", "agg"))
    result = parallel_explore("task", {}, slots, services)
    assert result.status == "ok"
    assert result.final_answer == "e1,e2,e3,e4"


def test_explorer_failure_becomes_note(tmp_path) -> None:
    gateway = _dead_profile_gateway(
        scripted_gateway(
            tmp_path,
            e1=[{"content": "FINAL: e1"}],
            e3=[{"content": "FINAL: e3"}],
            agg=[
                {"match": "\\[e2\\] failed: error", "content": "FINAL: noted"},
                {"content": "FINAL: WRONG"},
            ],
        )
    )
    services = make_services(tmp_path, gateway)
    slots = [
        _slot("e1", "explorer", "e1"),
        _slot("e2", "explorer", "dead"),
        _slot("e3", "explorer", "e3"),
        _slot("aggregator", "aggregator", "agg"),
    ]
    result = parallel_explore("task", {}, slots, services)
    assert result.status == "partial"
    assert result.final_answer == "noted"


def test_malformed_reply_is_a_retried_fault_of_one_explorer(tmp_path) -> None:
    gateway = scripted_gateway(
        tmp_path,
        e1=[{"content": "FINAL: e1"}],
        agg=[
            {"match": "\\[e1\\] e1[\\s\\S]*\\[e2\\] failed: error", "content": "FINAL: noted"},
            {"content": "FINAL: WRONG"},
        ],
    )
    trace = tmp_path / "trace.jsonl"
    recorder = TrajectoryRecorder(trace, "run-1")
    services = make_services(tmp_path, gateway, recorder=recorder)
    slots = [
        _slot("e1", "explorer", "e1"),
        _slot("e2", "explorer", "bad"),
        _slot("aggregator", "aggregator", "agg"),
    ]
    with ChatCompletionsStub(reply={"choices": [{"message": "not an object"}]}) as stub:
        gateway.register_profile(
            ModelProfile("bad", "http-openai-compatible", "m", base_url=stub.url)
        )
        result = parallel_explore("task", {}, slots, services)
    recorder.close()
    assert len(stub.requests) == 2
    assert result.status == "partial"
    assert result.final_answer == "noted"
    assert result.per_slot_outcomes["e2"].status == "error"
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    errors = [
        (e["payload"]["phase"], e["payload"].get("retrying"))
        for e in events
        if e["kind"] == "error"
    ]
    assert errors == [("turn", True), ("turn", None)]
    assert all(e["slot"] == "e2" for e in events if e["kind"] == "error")


def test_aggregator_failure_fails_run(tmp_path) -> None:
    gateway = _dead_profile_gateway(scripted_gateway(tmp_path, **_explorer_scripts()))
    services = make_services(tmp_path, gateway)
    slots = [_slot(f"e{i}", "explorer", f"e{i}") for i in range(1, 5)]
    slots.append(_slot("aggregator", "aggregator", "dead"))
    result = parallel_explore("task", {}, slots, services)
    assert result.status == "failed"


def test_too_few_explorers_rejected(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, e1=[{"content": "FINAL: x"}])
    services = make_services(tmp_path, gateway)
    slots = [_slot("e1", "explorer", "e1"), _slot("agg", "aggregator", "e1")]
    with pytest.raises(SlotConfigError, match="'explorer'"):
        run_playground("parallel_explore", "task", {}, slots, services)


# -- slot isolation ---------------------------------------------------------------------


def test_mutating_one_slot_never_leaks_into_another(tmp_path) -> None:
    from evokit.engine import AgentRun

    gateway = scripted_gateway(tmp_path, m=[{"content": "FINAL: x"}])
    services = make_services(tmp_path, gateway)
    slot_a = _slot("a", "worker", "m")
    slot_b = _slot("b", "worker", "m")
    baseline = [
        m.content
        for m in AgentRun.start("task", slot_b.spec, services).context.render(
            slot_b.spec.budget
        )
    ]
    slot_a.spec.system_prompt = "MUTATED PROMPT"
    after = [
        m.content
        for m in AgentRun.start("task", slot_b.spec, services).context.render(
            slot_b.spec.budget
        )
    ]
    assert baseline == after
    assert "MUTATED PROMPT" not in after


def test_fan_out_runs_every_item_at_once_and_keeps_input_order() -> None:
    started = threading.Barrier(3, timeout=5)

    def call(item: int) -> int:
        started.wait()  # returns only once all three calls are running
        return item * 10

    assert fan_out(call, [3, 1, 2]) == [30, 10, 20]
    assert fan_out(call, []) == []


def test_fan_out_runs_the_first_item_on_the_calling_thread(monkeypatch) -> None:
    started = []
    monkeypatch.setattr(threading.Thread, "start", started.append)
    assert fan_out(lambda _: threading.get_ident(), ["x"]) == [threading.get_ident()]
    assert started == []


def test_fan_out_raises_the_first_error_in_input_order_after_all_calls() -> None:
    finished = []

    def call(item: int) -> int:
        if item == 1:
            time.sleep(0.02)
            raise KeyError(item)  # first in input order, not first in time
        if item == 2:
            raise ValueError(item)
        time.sleep(0.1)
        finished.append(item)
        return item

    with pytest.raises(KeyError):
        fan_out(call, [0, 1, 2, 3])
    assert sorted(finished) == [0, 3]


def test_fan_out_raises_the_first_items_error_after_every_other_item_ends() -> None:
    finished = []

    def call(item: int) -> int:
        if item in (0, 2):
            raise KeyError(item)  # item 0 fails on the calling thread, at once
        time.sleep(0.1)
        finished.append(item)
        return item

    with pytest.raises(KeyError) as excinfo:
        fan_out(call, [0, 1, 2, 3])
    assert excinfo.value.args == (0,)
    assert sorted(finished) == [1, 3]


def test_playground_result_ok_requires_answer() -> None:
    with pytest.raises(ValueError):
        PlaygroundResult("", "ok")


# -- the one status rule --------------------------------------------------------

# For each built-in, slots whose closing agent answers with an empty ``FINAL:``:
# (role, profile) per slot, and the params.
EMPTY_FINAL_CASES = {
    "sequential_handoff": ([("worker", "answer"), ("worker", "empty")], {}),
    "parallel_explore": (
        [("explorer", "answer"), ("explorer", "answer"), ("aggregator", "empty")], {}
    ),
    # The selector names candidate 1, and that candidate is the empty answer.
    "solve_critique_rewrite_select": (
        [("solver", "empty"), ("critic", "no_issues"), ("rewriter", "answer"),
         ("selector", "one")],
        {},
    ),
    "planner_executor": ([("planner", "empty"), ("executor", "answer")], {}),
    # No improver answers, so the solution stays the drafter's empty answer.
    "draft_and_improve": (
        [("drafter", "empty"), ("improver", "mute"), ("evaluator", "score")],
        {"max_rounds": 1},
    ),
    "single_agent_research": ([("researcher", "empty")], {}),
}


def _empty_final_gateway(tmp_path):
    return scripted_gateway(
        tmp_path,
        empty=[{"content": "FINAL:"}],
        answer=[{"content": "FINAL: an answer"}],
        no_issues=[{"content": "FINAL: NO ISSUES"}],
        one=[{"content": "FINAL: 1"}],
        score=[{"content": "SCORE: 1"}],
        mute=[{"content": "still working"}],
    )


@pytest.mark.parametrize("name", sorted(EMPTY_FINAL_CASES))
def test_an_empty_final_answer_fails_the_run(tmp_path, name) -> None:
    roles, params = EMPTY_FINAL_CASES[name]
    slots = [_slot(f"{role}-{i}", role, profile) for i, (role, profile) in enumerate(roles)]
    services = make_services(tmp_path, _empty_final_gateway(tmp_path))
    result = run_playground(name, "t", params, slots, services)
    assert (result.status, result.final_answer) == ("failed", "")


def test_first_worker_ending_without_an_answer_fails_the_handoff(tmp_path) -> None:
    services = make_services(tmp_path, _empty_final_gateway(tmp_path))
    slots = [_slot("a", "worker", "mute"), _slot("b", "worker", "answer")]
    result = run_playground("sequential_handoff", "t", {}, slots, services)
    assert (result.status, result.final_answer, result.rounds_used) == ("failed", "", 0)
    assert result.per_slot_outcomes["a"].status == "max_turns"


def test_planner_deadline_before_a_finding_fails_the_run(tmp_path) -> None:
    services = make_services(
        tmp_path, _empty_final_gateway(tmp_path), deadline=time.monotonic() - 1
    )
    slots = [_slot("planner", "planner", "answer"), _slot("executor", "executor", "answer")]
    result = run_playground("planner_executor", "t", {}, slots, services)
    assert (result.status, result.final_answer, result.rounds_used) == ("failed", "", 0)


def test_role_effects_decide_the_status_of_a_custom_workflow(tmp_path) -> None:
    definition = PlaygroundDefinition(
        name="custom",
        workflow=lambda task, params, slots, services: None,
        role_effects={"judge": (None, "failed"), "scout": ("failed", None)},
    )
    services = make_services(tmp_path, _empty_final_gateway(tmp_path))
    runs = [
        (slot, run_slot(slot, "t", services))
        for slot in (_slot("scout", "scout", "mute"), _slot("writer", "writer", "answer"))
    ]
    # The scout's effect after an end other than error is none.
    assert definition.result(runs, "x", 1).status == "ok"
    assert definition.result(runs, "x", 1, finished=False).status == "partial"
    assert definition.result(runs, "", 1).status == "failed"
    # An undeclared role takes the default, partial.
    helper = _slot("helper", "helper", "mute")
    assert definition.result([*runs, (helper, runs[0][1])], "x", 1).status == "partial"
    judge = _slot("judge", "judge", "mute")
    result = definition.result([*runs, (judge, run_slot(judge, "t", services))], "x", 2)
    assert (result.status, result.rounds_used) == ("failed", 2)
    assert list(result.per_slot_outcomes) == ["scout", "writer", "judge"]


def test_role_effects_must_be_pairs_of_statuses() -> None:
    for effects in [("failed",), ("ok", None), ("partial", "fail")]:
        with pytest.raises(ValueError, match="effects"):
            PlaygroundDefinition(
                name="bad", workflow=lambda *args: None, role_effects={"r": effects}
            )


def test_readme_states_every_built_in_roles_effects() -> None:
    declared = {}
    for definition in BUILTIN_DEFINITIONS:
        for role in definition.slot_roles:
            declared[role] = definition.role_effects.get(role, DEFAULT_ROLE_EFFECTS)
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = re.search(r"\| roles \| after `error` \| after any other end \|\n\|.*\n((?:\|.*\n)+)",
                      readme)
    assert table is not None
    stated = {}
    for row in table.group(1).splitlines():
        roles, *effects = (cell.strip() for cell in row.strip("|").split("|"))
        pair = tuple(None if e == "none" else e.strip("`") for e in effects)
        for role in re.findall(r"`(\w+)`", roles):
            stated[role] = pair
    assert stated == declared
