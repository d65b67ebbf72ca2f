"""The self-evolving agent core.

Each turn renders the context under its budget, asks the model for the next
move, executes any tool calls sequentially, self-critiques on a fixed cadence,
and compresses history when the budget demands it. Termination is explicit: a
final-marker answer, the turn limit, an exhausted budget, a deadline, or a
recorded error. Every turn (listing its tool calls), observation, critique, and
compression is emitted to the trajectory recorder, so no fault ever vanishes silently.
"""

from __future__ import annotations

import functools
import math
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence

from .context import ContextBudget, ContextEntry, ContextManager, PinnedOverflow
from .errors import EvokitError
from .gateway import (
    ChatMessage,
    ChatResponse,
    LlmGateway,
    ProviderError,
    TokenUsage,
)
from .prompts import CRITIQUE_PROMPT, DEFAULT_FINAL_MARKER
from .skills import SkillIndex, render_metadata
from .tools import DEFAULT_TIMEOUT_MS, Action, ToolRegistry

OUTCOME_STATUSES = ("answered", "max_turns", "budget_exhausted", "timeout", "error")


class ConfigError(EvokitError):
    pass


class SteppedAfterTermination(EvokitError):
    pass


class RecorderLike(Protocol):
    def record(
        self,
        kind: str,
        payload: dict[str, Any],
        *,
        slot: str | None = None,
        agent: str | None = None,
        turn: int | None = None,
        usage: TokenUsage | None = None,
    ) -> int: ...


@dataclass
class AgentSpec:
    """Declarative definition of one agent role."""

    name: str
    system_prompt: str
    llm_profile: str
    tool_names: tuple[str, ...] = ()
    max_turns: int = 8
    critique_every: int = 1
    budget: ContextBudget = field(default_factory=ContextBudget)
    final_marker: str = DEFAULT_FINAL_MARKER

    def __post_init__(self) -> None:
        if self.max_turns < 1:
            raise ConfigError(f"{self.name}: max_turns must be >= 1")
        if self.critique_every < 1:
            raise ConfigError(f"{self.name}: critique_every must be >= 1")
        if not isinstance(self.system_prompt, str):
            raise ConfigError(f"{self.name}: system_prompt must be a string")
        if not isinstance(self.final_marker, str) or not self.final_marker:
            raise ConfigError(f"{self.name}: final_marker must be a non-empty string")
        self.tool_names = tuple(self.tool_names)


@dataclass(frozen=True)
class AgentOutcome:
    status: str
    final_answer: str | None
    turns: int
    usage: TokenUsage

    def __post_init__(self) -> None:
        if self.status not in OUTCOME_STATUSES:
            raise ValueError(f"unknown outcome status: {self.status!r}")
        if (self.status == "answered") != (self.final_answer is not None):
            raise ValueError("answered outcomes carry a final answer, others do not")


@dataclass
class RunServices:
    """Shared capabilities handed to every agent and playground."""

    gateway: LlmGateway
    tools: ToolRegistry
    skills: SkillIndex | None = None
    recorder: RecorderLike | None = None
    cache: Any | None = None
    deadline: float | None = None
    _invocations: Counter = field(default_factory=Counter, init=False, repr=False)
    _invocations_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def next_invocation(self, slot: str | None, agent: str) -> int:
        """Number the runs of ``agent`` in ``slot`` 1, 2, ... in the order they start."""
        with self._invocations_lock:
            self._invocations[(slot, agent)] += 1
            return self._invocations[(slot, agent)]


def parse_final(content: str, marker: str = DEFAULT_FINAL_MARKER) -> str | None:
    """Extract the answer announced by a line starting with the marker.

    The marker must sit at the start of a line; mid-line occurrences do not
    terminate the loop. Everything after the marker (to the end of the
    content) is the answer, trimmed.
    """
    match = _final_pattern(marker).search(content)
    if match is None:
        return None
    return content[match.end() :].strip()


@functools.lru_cache(maxsize=64)
def _final_pattern(marker: str) -> re.Pattern[str]:
    return re.compile(rf"^{re.escape(marker)}", re.MULTILINE)


class AgentRun:
    """In-progress agent state; run_to_end() is exactly iterated step().

    ``agent`` tags this run's trajectory events as ``<spec name>#<n>``, where
    ``n`` numbers the runs of that spec in its slot, so every invocation is a
    conversation of its own even when a slot runs repeatedly or concurrently.
    """

    def __init__(self, spec: AgentSpec, services: RunServices, slot: str | None = None):
        self.spec = spec
        self.services = services
        self.slot = slot
        self.agent = f"{spec.name}#{services.next_invocation(slot, spec.name)}"
        self.context = ContextManager()
        # Looked up once: tools are registered before any run starts.
        self._tools = [
            d for d in map(services.tools.get, sorted(spec.tool_names)) if d is not None
        ]
        self.turn = 0
        self.outcome: AgentOutcome | None = None
        # Summed as ints: a TokenUsage is built once, by _finish.
        self._prompt_tokens = 0
        self._completion_tokens = 0
        self._completed_turns = 0
        self._last_content = ""

    @classmethod
    def start(
        cls,
        task: str,
        spec: AgentSpec,
        services: RunServices,
        slot: str | None = None,
        pinned_notes: Sequence[str] = (),
    ) -> "AgentRun":
        """Validate references and seed the pinned context, before any turn."""
        if not services.gateway.has_profile(spec.llm_profile):
            raise ConfigError(f"{spec.name}: unknown llm profile {spec.llm_profile!r}")
        missing = [t for t in spec.tool_names if services.tools.get(t) is None]
        if missing:
            raise ConfigError(f"{spec.name}: unknown tools {missing}")

        run = cls(spec, services, slot=slot)
        run.context.append(
            ContextEntry(ChatMessage("system", spec.system_prompt), kind="system", pinned=True)
        )
        metadata = render_metadata(services.skills) if services.skills else ""
        if metadata:
            run.context.append(
                ContextEntry(ChatMessage("system", metadata), kind="system", pinned=True)
            )
        for note in pinned_notes:
            run.context.append(
                ContextEntry(ChatMessage("user", note), kind="task", pinned=True)
            )
        run.context.append(ContextEntry(ChatMessage("user", task), kind="task", pinned=True))
        return run

    # -- trajectory plumbing ------------------------------------------------

    def _record(
        self, kind: str, payload: dict[str, Any], usage: TokenUsage | None = None
    ) -> None:
        recorder = self.services.recorder
        if recorder is not None:
            recorder.record(
                kind, payload, slot=self.slot, agent=self.agent, turn=self.turn, usage=usage
            )

    @property
    def last_assistant_content(self) -> str:
        return self._last_content

    def _finish(self, status: str, answer: str | None = None) -> AgentOutcome:
        usage = TokenUsage(self._prompt_tokens, self._completion_tokens)
        self.outcome = AgentOutcome(status, answer, self._completed_turns, usage)
        return self.outcome

    def _with_retry(self, phase: str, call: Callable[[], Any]) -> Any:
        """Run a provider-backed call, retrying once on ProviderError.

        Every failure is recorded as an ``error`` event; a first failure before
        the deadline carries ``"retrying": true`` and is retried. A failure past
        the deadline, or the retry's, propagates, and step() ends the run in
        ``timeout`` past the deadline, else in ``error``.
        """
        try:
            return call()
        except ProviderError as exc:
            if self.services.out_of_time():
                self._record("error", {"error": str(exc), "phase": phase})
                raise
            self._record("error", {"error": str(exc), "phase": phase, "retrying": True})
        try:
            return call()
        except ProviderError as exc:
            self._record("error", {"error": str(exc), "phase": phase})
            raise

    def _complete(self, phase: str) -> ChatResponse:
        """One model call with a single retry; both failures end the run."""
        messages = self.context.render(self.spec.budget)
        response = self._with_retry(
            phase,
            lambda: self.services.gateway.complete(self.spec.llm_profile, messages, self._tools),
        )
        self._add_usage(response.usage)
        return response

    def _add_usage(self, usage: TokenUsage) -> None:
        self._prompt_tokens += usage.prompt_tokens
        self._completion_tokens += usage.completion_tokens

    def _tool_timeout_ms(self) -> int:
        if self.services.deadline is None:
            return DEFAULT_TIMEOUT_MS
        # Rounded up, so a tool cut off by the deadline returns at or after it
        # and the next turn sees out_of_time().
        remaining_ms = math.ceil((self.services.deadline - time.monotonic()) * 1000)
        return max(1, min(DEFAULT_TIMEOUT_MS, remaining_ms))

    # -- the loop ------------------------------------------------------------

    def step(self) -> "AgentRun":
        """Advance exactly one turn."""
        if self.outcome is not None:
            raise SteppedAfterTermination(f"{self.spec.name}: agent already terminated")
        self.turn += 1
        if self.services.out_of_time():
            self._finish("timeout")
            return self
        try:
            self._step_body()
        except PinnedOverflow:
            self._finish("budget_exhausted")
        except ProviderError:  # already recorded by _with_retry
            self._finish("timeout" if self.services.out_of_time() else "error")
        except EvokitError as exc:
            self._record("error", {"error": str(exc), "phase": "turn"})
            self._finish("error")
        return self

    def _step_body(self) -> None:
        response = self._complete("turn")
        self._last_content = response.content
        self.context.append(
            ContextEntry(
                ChatMessage("assistant", response.content, tool_calls=response.tool_calls)
            )
        )
        self._record(
            "turn",
            {
                "content": response.content,
                "finish": response.finish,
                "tool_calls": [
                    {"id": a.id, "tool": a.tool, "arguments": a.arguments}
                    for a in response.tool_calls
                ],
            },
            usage=response.usage,
        )
        self._completed_turns += 1

        self._run_actions(response.tool_calls)
        answer = parse_final(response.content, self.spec.final_marker)
        if answer is not None:
            self._finish("answered", answer)
        elif self.turn >= self.spec.max_turns:
            self._finish("max_turns")
        else:
            # Past the deadline, the next step() ends the run as timeout, so a
            # critique or compression now would only delay that.
            if self.turn % self.spec.critique_every == 0 and not self.services.out_of_time():
                self._critique()
            if not self.services.out_of_time():
                self._compress()

    def _run_actions(self, actions: tuple[Action, ...]) -> None:
        # The turn event, written before this, already lists every action, so
        # a crash mid-tool leaves an unpaired action instead of silence.
        for action in actions:
            execution, observation = self.services.tools.invoke(action, self._tool_timeout_ms())
            self._record(
                "observation",
                {
                    "action_id": action.id,
                    "status": execution.status,
                    "duration_ms": execution.duration_ms,
                    "content": observation.content,
                    "truncated": observation.truncated,
                    "is_error": observation.is_error,
                },
            )
            self.context.append(
                ContextEntry(
                    ChatMessage("tool", observation.content, tool_call_id=action.id)
                )
            )

    def _critique(self) -> None:
        """Engine-injected reflection; the reply lands as a critique entry."""
        self.context.append(ContextEntry(ChatMessage("user", CRITIQUE_PROMPT)))
        response = self._complete("critique")
        self.context.append(
            ContextEntry(ChatMessage("assistant", response.content), kind="critique")
        )
        self._record("critique", {"content": response.content}, usage=response.usage)

    def _compress(self) -> None:
        event = self._with_retry(
            "compression",
            lambda: self.context.maybe_compress(
                self.spec.budget, self.services.gateway, self.spec.llm_profile
            ),
        )
        if event is None:
            return
        if event.usage is not None:
            self._add_usage(event.usage)
        self._record(
            "compression",
            {
                "strategy": event.strategy,
                "replaced_count": event.replaced_count,
                "summary_tokens": event.summary_tokens,
                "before_tokens": event.before_tokens,
                "after_tokens": event.after_tokens,
                "profile": self.spec.llm_profile if event.strategy == "summarize" else None,
            },
            usage=event.usage,
        )

    def run_to_end(self) -> AgentOutcome:
        while self.outcome is None:
            self.step()
        return self.outcome

