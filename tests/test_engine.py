from __future__ import annotations

import json
import time

import pytest

from evokit.context import ContextBudget, ContextEntry
from evokit.engine import (
    AgentRun,
    AgentSpec,
    ConfigError,
    RunServices,
    SteppedAfterTermination,
    parse_final,
)
from evokit.gateway import (
    ChatMessage,
    LlmGateway,
    ModelProfile,
    ProviderError,
    load_script,
    scripted_step,
)
from evokit.harness import TrajectoryRecorder, masked_lines
from helpers import FIXTURES, make_services, scripted_gateway
from stubs import ChatCompletionsStub


def _spec(profile: str, **overrides) -> AgentSpec:
    defaults = dict(
        name="agent",
        system_prompt="You are a test agent.",
        llm_profile=profile,
        max_turns=5,
        critique_every=99,
    )
    defaults.update(overrides)
    return AgentSpec(**defaults)


def _run_recorded(tmp_path, task: str, spec: AgentSpec, gateway) -> tuple[AgentRun, list[dict]]:
    """Run to the end with a recorder; returns the run and its trajectory events."""
    path = tmp_path / "trace.jsonl"
    with TrajectoryRecorder(path, "run-1") as recorder:
        state = AgentRun.start(task, spec, make_services(tmp_path, gateway, recorder=recorder))
        state.run_to_end()
    return state, _events(path)


# -- parse_final and the step outcomes it decides -----------------------------------


def test_parse_final_at_line_start() -> None:
    assert parse_final("FINAL: 42") == "42"
    assert parse_final("working...\nFINAL: 42") == "42"
    assert parse_final("the FINAL: answer") is None
    assert parse_final("FINAL:   spaced \n") == "spaced"


def test_parse_final_custom_marker() -> None:
    assert parse_final("ANSWER: yes", marker="ANSWER:") == "yes"
    assert parse_final("FINAL: yes", marker="ANSWER:") is None


def test_check_termination_decisions(tmp_path) -> None:
    gateway = scripted_gateway(
        tmp_path,
        m=[{"content": "the FINAL: answer"}, {"content": "FINAL: 42"}],
        loop=[{"content": "the FINAL: answer"}],
    )
    services = make_services(tmp_path, gateway)

    state = AgentRun.start("task", _spec("m", max_turns=3), services)
    state.step()
    assert state.outcome is None  # a mid-line marker does not terminate
    state.step()
    assert state.outcome.status == "answered"
    assert state.outcome.final_answer == "42"

    state = AgentRun.start("task", _spec("loop", max_turns=2), services)
    state.step()
    assert state.outcome is None
    state.step()
    assert state.outcome.status == "max_turns"
    assert state.outcome.final_answer is None

    # An answer on the last allowed turn is an answer, not max_turns.
    state = AgentRun.start("task", _spec("m", max_turns=2), services)
    state.step()
    state.step()
    assert (state.outcome.status, state.outcome.turns) == ("answered", 2)


# -- run ------------------------------------------------------------------------------


def test_immediate_answer(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "FINAL: 4"}])
    outcome = AgentRun.start("add 2+2", _spec("m"), make_services(tmp_path, gateway)).run_to_end()
    assert outcome.status == "answered"
    assert outcome.final_answer == "4"
    assert outcome.turns == 1


def test_tool_use_trace(tmp_path) -> None:
    gateway = LlmGateway()
    gateway.register_profile(
        ModelProfile("m", "scripted", "s", script_path=str(FIXTURES / "scripts/tooluse.script"))
    )
    state, events = _run_recorded(tmp_path, "echo hi", _spec("m", tool_names=("exec",)), gateway)
    outcome = state.outcome
    assert outcome.status == "answered"
    assert outcome.final_answer == "hi"
    assert outcome.turns == 2
    first_turn = [e for e in events if e["turn"] == 1]
    calls = [c for e in first_turn if e["kind"] == "turn" for c in e["payload"]["tool_calls"]]
    observations = [e["payload"] for e in first_turn if e["kind"] == "observation"]
    assert len(calls) == 1
    assert len(observations) == 1
    assert observations[0]["action_id"] == calls[0]["id"]
    assert observations[0]["content"] == "hi\n"


def test_never_final_hits_max_turns(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "thinking"}])
    services = make_services(tmp_path, gateway)
    outcome = AgentRun.start("task", _spec("m", max_turns=5), services).run_to_end()
    assert outcome.status == "max_turns"
    assert outcome.turns == 5
    assert outcome.final_answer is None


# -- step -------------------------------------------------------------------------------


def test_step_terminates_answering_script(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "FINAL: done"}])
    state = AgentRun.start("task", _spec("m"), make_services(tmp_path, gateway))
    state.step()
    assert state.outcome is not None
    with pytest.raises(SteppedAfterTermination):
        state.step()


def test_run_equals_iterated_step(tmp_path) -> None:
    entries = [{"content": "step one"}, {"content": "step two"}, {"content": "FINAL: three"}]
    gateway_a = scripted_gateway(tmp_path / "a", m=entries)
    gateway_b = scripted_gateway(tmp_path / "b", m=entries)
    spec = _spec("m", max_turns=4)

    run_state, _ = _run_recorded(tmp_path / "a", "task", spec, gateway_a)

    step_path = tmp_path / "b" / "trace.jsonl"
    with TrajectoryRecorder(step_path, "run-2") as recorder:
        services = make_services(tmp_path / "b", gateway_b, recorder=recorder)
        step_state = AgentRun.start("task", spec, services)
        for _ in range(3):
            step_state.step()
    assert step_state.outcome == run_state.outcome
    assert masked_lines(step_path) == masked_lines(tmp_path / "a" / "trace.jsonl")


# -- critique cadence ----------------------------------------------------------------------


def test_critique_every_two_turns(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "working"}])
    _, events = _run_recorded(tmp_path, "task", _spec("m", max_turns=5, critique_every=2), gateway)
    critique_turns = [e["turn"] for e in events if e["kind"] == "critique"]
    assert critique_turns == [2, 4]


def test_critique_entries_marked_in_context(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "working"}, {"content": "self-review"}])
    spec = _spec("m", max_turns=2, critique_every=1)
    state, events = _run_recorded(tmp_path, "task", spec, gateway)
    kinds = [e.kind for e in state.context.entries()]
    assert "critique" in kinds
    critiques = [(e["turn"], e["payload"]["content"]) for e in events if e["kind"] == "critique"]
    assert critiques == [(1, "self-review")]


# -- faults ------------------------------------------------------------------------------------


def test_unknown_profile_is_config_error(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "x"}])
    with pytest.raises(ConfigError):
        AgentRun.start("task", _spec("ghost"), make_services(tmp_path, gateway))


def test_unknown_tool_is_config_error(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "x"}])
    with pytest.raises(ConfigError):
        AgentRun.start(
            "task", _spec("m", tool_names=("laser",)), make_services(tmp_path, gateway)
        )


class _FlakyGateway:
    """Delegates to a real gateway, failing N complete() calls after the first `after`."""

    def __init__(self, inner: LlmGateway, failures: int, after: int = 0):
        self._inner = inner
        self._failures = failures
        self._after = after

    def has_profile(self, name: str) -> bool:
        return self._inner.has_profile(name)

    def complete(self, profile_name, messages, tools=()):
        if self._after > 0:
            self._after -= 1
        elif self._failures > 0:
            self._failures -= 1
            raise ProviderError("synthetic outage")
        return self._inner.complete(profile_name, messages, tools)


def _events(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _errors(events: list[dict]) -> list[tuple[str, bool | None]]:
    return [
        (e["payload"]["phase"], e["payload"].get("retrying")) for e in events if e["kind"] == "error"
    ]


def test_provider_error_retried_once(tmp_path) -> None:
    recorder_path = tmp_path / "trace.jsonl"
    recorder = TrajectoryRecorder(recorder_path, "run-1")
    gateway = _FlakyGateway(scripted_gateway(tmp_path, m=[{"content": "FINAL: ok"}]), failures=1)
    services = make_services(tmp_path, gateway, recorder=recorder)
    outcome = AgentRun.start("task", _spec("m"), services).run_to_end()
    recorder.close()
    assert outcome.status == "answered"
    # The first failure is recorded, not swallowed.
    assert _errors(_events(recorder_path)) == [("turn", True)]


def test_compression_retry_is_recorded(tmp_path) -> None:
    recorder_path = tmp_path / "trace.jsonl"
    recorder = TrajectoryRecorder(recorder_path, "run-1")
    # Call 1 is turn 1; call 2, the first summarizer call, fails once.
    gateway = _FlakyGateway(
        scripted_gateway(tmp_path, m=[{"content": "w" * 80}]), failures=1, after=1
    )
    spec = _spec("m", max_turns=2, budget=ContextBudget(max_tokens=40, compress_at=0.5))
    services = make_services(tmp_path, gateway, recorder=recorder)
    outcome = AgentRun.start("task", spec, services).run_to_end()
    recorder.close()
    assert outcome.status == "max_turns"
    events = _events(recorder_path)
    assert _errors(events) == [("compression", True)]
    assert any(e["kind"] == "compression" for e in events)


def test_provider_error_twice_ends_in_error(tmp_path) -> None:
    recorder_path = tmp_path / "trace.jsonl"
    recorder = TrajectoryRecorder(recorder_path, "run-1")
    gateway = _FlakyGateway(scripted_gateway(tmp_path, m=[{"content": "FINAL: ok"}]), failures=2)
    services = make_services(tmp_path, gateway, recorder=recorder)
    outcome = AgentRun.start("task", _spec("m"), services).run_to_end()
    recorder.close()
    assert outcome.status == "error"
    assert outcome.final_answer is None
    events = [json.loads(line) for line in recorder_path.read_text().splitlines()]
    assert any(e["kind"] == "error" and "outage" in e["payload"]["error"] for e in events)
    assert _errors(events) == [("turn", True), ("turn", None)]


class _SlowOutage:
    """A gateway whose every request takes ``seconds`` and then fails."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.requests = 0

    def has_profile(self, name: str) -> bool:
        return True

    def complete(self, profile_name, messages, tools=()):
        self.requests += 1
        time.sleep(self.seconds)
        raise ProviderError("synthetic outage")


@pytest.mark.parametrize(
    "deadline_s, requests, errors, status",
    [
        (None, 2, [("turn", True), ("turn", None)], "error"),
        (0.05, 1, [("turn", None)], "timeout"),
    ],
    ids=["no_deadline", "failure_past_deadline"],
)
def test_no_retry_past_the_deadline(tmp_path, deadline_s, requests, errors, status) -> None:
    recorder_path = tmp_path / "trace.jsonl"
    gateway = _SlowOutage(0.1)
    deadline = None if deadline_s is None else time.monotonic() + deadline_s
    with TrajectoryRecorder(recorder_path, "run-1") as recorder:
        services = make_services(tmp_path, gateway, recorder=recorder, deadline=deadline)
        outcome = AgentRun.start("task", _spec("m"), services).run_to_end()
    assert gateway.requests == requests
    assert _errors(_events(recorder_path)) == errors
    assert outcome.status == status


def test_budget_exhausted_when_pinned_overflow(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "FINAL: ok"}])
    spec = _spec("m", system_prompt="p" * 400, budget=ContextBudget(max_tokens=10))
    outcome = AgentRun.start("task", spec, make_services(tmp_path, gateway)).run_to_end()
    assert outcome.status == "budget_exhausted"
    assert outcome.turns == 0


def test_deadline_reached_is_timeout(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "working"}])
    services = make_services(tmp_path, gateway, deadline=time.monotonic() - 1)
    outcome = AgentRun.start("task", _spec("m"), services).run_to_end()
    assert outcome.status == "timeout"


def test_tool_clamped_to_deadline_ends_run_as_timeout(tmp_path) -> None:
    """A tool call cut off by the deadline returns at or after it, never just before.

    Were it to return a fraction of a millisecond early, the scripted turns
    after it would use up max_turns before the deadline and end ``partial``.
    """
    stall = {"content": "", "tool_calls": [{"name": "exec", "arguments": {"cmd": "sleep 1"}}]}
    gateway = scripted_gateway(tmp_path, m=[stall, {"content": "still waiting"}])
    spec = _spec("m", tool_names=("exec",), max_turns=4)
    for _ in range(5):
        services = make_services(tmp_path, gateway, deadline=time.monotonic() + 0.05)
        assert AgentRun.start("task", spec, services).run_to_end().status == "timeout"


@pytest.mark.parametrize(
    "overrides",
    [
        {"critique_every": 1},
        {"budget": ContextBudget(max_tokens=1000, compress_at=0.01)},
    ],
    ids=["critique", "compression"],
)
def test_turn_past_the_deadline_is_the_last_model_call(tmp_path, overrides) -> None:
    """No critique or summarizing compression starts once the deadline has passed.

    The deadline is 1 s away and the stub answers 0.1 s after it, so a first
    call that starts within that second ends past the deadline, and the next
    step() ends the run as timeout.
    """
    deadline = time.monotonic() + 1.0

    def slow_reply(body: dict) -> dict:
        time.sleep(max(0.0, deadline - time.monotonic()) + 0.1)
        return {"choices": [{"message": {"content": "working " * 20}, "finish_reason": "stop"}]}

    with ChatCompletionsStub(reply=slow_reply) as stub:
        gateway = LlmGateway()
        gateway.register_profile(
            ModelProfile("remote", "http-openai-compatible", "m", base_url=stub.url)
        )
        services = make_services(tmp_path, gateway, deadline=deadline)
        outcome = AgentRun.start("task", _spec("remote", **overrides), services).run_to_end()
    assert outcome.status == "timeout"
    assert len(stub.requests) == 1


# -- trajectory completeness --------------------------------------------------------------------


def test_turn_events_match_outcome_turns(tmp_path) -> None:
    recorder_path = tmp_path / "trace.jsonl"
    recorder = TrajectoryRecorder(recorder_path, "run-1")
    gateway = LlmGateway()
    gateway.register_profile(
        ModelProfile("m", "scripted", "s", script_path=str(FIXTURES / "scripts/tooluse.script"))
    )
    services = make_services(tmp_path, gateway, recorder=recorder)
    spec = _spec("m", tool_names=("exec",), critique_every=1)
    outcome = AgentRun.start("echo", spec, services).run_to_end()
    recorder.close()
    events = [json.loads(line) for line in recorder_path.read_text().splitlines()]
    turn_events = [e for e in events if e["kind"] == "turn"]
    assert len(turn_events) == outcome.turns
    calls = [c["id"] for e in turn_events for c in e["payload"]["tool_calls"]]
    observed = [e["payload"]["action_id"] for e in events if e["kind"] == "observation"]
    assert sorted(calls) == sorted(observed)


def test_each_run_is_tagged_with_its_invocation(tmp_path) -> None:
    recorder_path = tmp_path / "trace.jsonl"
    recorder = TrajectoryRecorder(recorder_path, "run-1")
    gateway = scripted_gateway(tmp_path, m=[{"content": "FINAL: ok"}])
    services = make_services(tmp_path, gateway, recorder=recorder)
    for slot in ("s", "s", "t", None):
        AgentRun.start("task", _spec("m"), services, slot=slot).run_to_end()
    recorder.close()
    tags = [(e["slot"], e["agent"]) for e in _events(recorder_path) if e["kind"] == "turn"]
    assert tags == [("s", "agent#1"), ("s", "agent#2"), ("t", "agent#1"), (None, "agent#1")]


def test_usage_accumulates_turn_and_critique(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "working"}, {"content": "review"}])
    spec = _spec("m", max_turns=2, critique_every=1)
    state, events = _run_recorded(tmp_path, "task", spec, gateway)
    outcome = state.outcome
    per_call = [e["usage"] for e in events if e["kind"] in ("turn", "critique")]
    assert [e["kind"] for e in events if e["usage"]] == ["turn", "critique", "turn"]
    assert outcome.usage.as_dict() == {
        key: sum(u[key] for u in per_call) for key in ("prompt_tokens", "completion_tokens")
    }
    assert outcome.usage.prompt_tokens > 0


def test_pinned_notes_are_injected(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, m=[{"content": "FINAL: ok"}])
    services = make_services(tmp_path, gateway)
    state = AgentRun.start(
        "the task", _spec("m"), services, pinned_notes=("remember: wisdom-token",)
    )
    notes = [e for e in state.context.entries() if "wisdom-token" in e.message.content]
    assert len(notes) == 1
    assert notes[0].pinned and notes[0].kind == "task"
    rendered = [m.content for m in state.context.render(ContextBudget(max_tokens=500))]
    assert rendered.index("remember: wisdom-token") < rendered.index("the task")


def test_token_estimates_grow_linearly_with_turns(tmp_path, monkeypatch) -> None:
    """Each message is estimated once: no per-turn rescan of the history."""
    import evokit.context
    import evokit.gateway

    real = evokit.gateway.estimate_tokens
    calls = 0

    def counting(text: str) -> int:
        nonlocal calls
        calls += 1
        return real(text)

    monkeypatch.setattr(evokit.gateway, "estimate_tokens", counting)
    monkeypatch.setattr(evokit.context, "estimate_tokens", counting)
    gateway = scripted_gateway(tmp_path, m=[{"content": "still working on it"}])
    services = make_services(tmp_path, gateway)
    counts = {}
    for turns in (50, 200):
        calls = 0
        spec = _spec(
            "m", max_turns=turns, critique_every=5, budget=ContextBudget(max_tokens=10**6)
        )
        assert AgentRun.start("task", spec, services).run_to_end().turns == turns
        counts[turns] = calls
    # Linear: the calls per turn stay flat. A rescan of the history every
    # turn would make them about four times as many at 200 turns as at 50.
    assert counts[50] > 0
    assert counts[200] / 200 <= 1.25 * counts[50] / 50, counts


def test_turn_neither_rescans_nor_rebuilds_history(tmp_path, monkeypatch) -> None:
    """Attribute reads on messages and entries per turn stay flat as history grows.

    A turn that walked the history in Python (summing tokens, counting
    assistant messages, or rebuilding the message list from the entries)
    would read each one again every turn.
    """
    import evokit.engine

    reads = 0

    def counting(cls: type) -> type:
        class Counting(cls):
            def __getattribute__(self, name: str):
                nonlocal reads
                reads += 1
                return super().__getattribute__(name)

        return Counting

    monkeypatch.setattr(evokit.engine, "ChatMessage", counting(ChatMessage))
    monkeypatch.setattr(evokit.engine, "ContextEntry", counting(ContextEntry))
    gateway = scripted_gateway(tmp_path, m=[{"content": "step one"}, {"content": "still working"}])
    services = make_services(tmp_path, gateway)
    counts = {}
    for turns in (50, 200):
        reads = 0
        spec = _spec(
            "m", max_turns=turns, critique_every=5, budget=ContextBudget(max_tokens=10**6)
        )
        run = AgentRun.start("task", spec, services)
        assert run.run_to_end().turns == turns
        counts[turns] = reads
    assert counts[50] > 0
    assert counts[200] / 200 <= 1.25 * counts[50] / 50, counts

    rendered = run.context.render(spec.budget)
    script = load_script(tmp_path / "scripts" / "m.script")
    assert scripted_step(script, rendered) == scripted_step(script, list(rendered))
