"""Shared vocabulary for multi-agent playgrounds.

A playground is a named workflow over agent slots. Slots are declarative:
each binds a role to its own AgentSpec (model profile, tools, prompt, loop
limits), and nothing mutable is shared between them. Workflow functions
receive the task, validated params, the configured slots, and the run
services, and return their definition's ``result``: the runs they consumed
and their answer. ``PlaygroundDefinition.result`` alone decides the status.
"""

from __future__ import annotations

import re
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TypeVar

from ..engine import AgentOutcome, AgentRun, AgentSpec, RunServices
from ..errors import EvokitError
from ..tools import _dispatch

RESULT_STATUSES = ("ok", "partial", "failed")  # from best to worst
DEFAULT_ROLE_EFFECTS = ("partial", "partial")

T = TypeVar("T")
R = TypeVar("R")


class DuplicatePlayground(EvokitError):
    pass


class PlaygroundNotFound(EvokitError):
    pass


class SlotConfigError(EvokitError):
    pass


class InvalidParams(EvokitError):
    pass


@dataclass
class AgentSlot:
    slot_name: str
    role: str
    spec: AgentSpec


@dataclass(frozen=True)
class PlaygroundResult:
    final_answer: str
    status: str
    per_slot_outcomes: dict[str, AgentOutcome] = field(default_factory=dict)
    rounds_used: int = 0

    def __post_init__(self) -> None:
        if self.status not in RESULT_STATUSES:
            raise ValueError(f"unknown result status: {self.status!r}")
        if self.status == "ok" and not self.final_answer:
            raise ValueError("ok results must carry a non-empty final answer")


WorkflowFn = Callable[[str, dict, list[AgentSlot], RunServices], PlaygroundResult]


# The params_schema rule of a list of tool names, checked like a slot's tools.
TOOL_NAMES = (list, "tools")


@dataclass(frozen=True)
class PlaygroundDefinition:
    """A workflow plus, as data, the slots and params it accepts.

    ``slot_roles`` maps each role to the (min, max) number of its slots, max
    None for no bound; other roles are rejected. ``params_schema`` maps each
    param to its type, to ``(int, role)`` for a count capped by that role's
    slots, or to ``TOOL_NAMES``. Int params are >= 1, list params non-empty.
    An empty table constrains nothing; ``check_inputs`` applies the rules.
    ``role_effects`` maps a role to what a run of it that did not answer
    does to the status, after ``error`` and after any other end: ``failed``,
    ``partial`` or None for nothing. Other roles take DEFAULT_ROLE_EFFECTS.
    """

    name: str
    workflow: WorkflowFn
    params_schema: dict[str, type | tuple[type, str]] = field(default_factory=dict)
    slot_roles: dict[str, tuple[int, int | None]] = field(default_factory=dict)
    role_effects: dict[str, tuple[str | None, str | None]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for role, effects in self.role_effects.items():
            if len(effects) != 2 or not set(effects) <= {None, "partial", "failed"}:
                raise ValueError(f"role {role!r} effects must be two of 'failed', 'partial', None")

    def result(
        self, runs: Sequence[tuple[AgentSlot, AgentRun]], answer: str, rounds: int,
        finished: bool = True,
    ) -> PlaygroundResult:
        """``answer`` with the status decided by the one rule for every workflow.

        ``runs`` are the (slot, run) pairs the workflow consumed, in order. The
        status starts ``ok``, or ``partial`` if the workflow did not finish
        (deadline passed, or last round used with no closing answer); each run
        that did not answer worsens it by its role's effect; an empty answer is
        ``failed``. ``per_slot_outcomes`` keeps each slot's last outcome.
        """
        status = "ok" if finished else "partial"
        outcomes: dict[str, AgentOutcome] = {}
        for slot, run in runs:
            outcome = outcomes[slot.slot_name] = run.outcome
            if outcome.status != "answered":
                on_error, on_other = self.role_effects.get(slot.role, DEFAULT_ROLE_EFFECTS)
                effect = on_error if outcome.status == "error" else on_other
                status = max(status, effect or status, key=RESULT_STATUSES.index)
        if not answer:
            status = "failed"
        return PlaygroundResult(answer, status, outcomes, rounds_used=rounds)


class PlaygroundRegistry:
    """Name-keyed workflow registry populated by the startup hook."""

    def __init__(self) -> None:
        self._definitions: dict[str, PlaygroundDefinition] = {}
        self._lock = threading.Lock()

    def register(self, definition: PlaygroundDefinition) -> None:
        with self._lock:
            if definition.name in self._definitions:
                raise DuplicatePlayground(f"playground already registered: {definition.name}")
            self._definitions[definition.name] = definition

    def get(self, name: str) -> PlaygroundDefinition:
        definition = self._definitions.get(name)
        if definition is None:
            raise PlaygroundNotFound(f"no such playground: {name}")
        return definition

    def names(self) -> list[str]:
        return sorted(self._definitions)


def check_inputs(
    definition: PlaygroundDefinition, params: Mapping, slots: Sequence[AgentSlot]
) -> None:
    """Reject slots and params that the definition does not accept.

    Raises SlotConfigError for a slot's role or a role's slot count and
    InvalidParams for a param, naming the slot, role or param at fault.
    """
    roles = definition.slot_roles
    counts = Counter(slot.role for slot in slots)
    for slot in slots:
        if roles and slot.role not in roles:
            raise SlotConfigError(
                f"slot {slot.slot_name!r} has role {slot.role!r}, not one of {sorted(roles)}"
            )
    for role, (low, high) in roles.items():
        if counts[role] < low or (high is not None and counts[role] > high):
            allowed = f"{low}" if low == high else f"{low} to {high or 'any'}"
            raise SlotConfigError(f"found {counts[role]} {role!r} slots, allowed {allowed}")
    for key, value in params.items():
        if key not in definition.params_schema:
            raise InvalidParams(f"unknown param {key!r}")
        rule = definition.params_schema[key]
        expected, cap_role = rule if isinstance(rule, tuple) else (rule, None)
        types = (int, float) if expected is float else expected
        if not isinstance(value, types) or (isinstance(value, bool) and expected is not bool):
            raise InvalidParams(f"param {key!r} must be {expected.__name__}")
        if expected is int and value < 1:
            raise InvalidParams(f"param {key!r} must be >= 1")
        if expected is list and not value:
            raise InvalidParams(f"param {key!r} must be non-empty")
        if rule == TOOL_NAMES and not all(isinstance(tool, str) for tool in value):
            raise InvalidParams(f"param {key!r} must be a list of tool names")
        if expected is int and cap_role and value > counts[cap_role]:
            raise InvalidParams(f"param {key!r} exceeds the {counts[cap_role]} {cap_role!r} slots")


# -- helpers used by the built-in workflows -----------------------------------


def run_slot(
    slot: AgentSlot,
    task: str,
    services: RunServices,
    pinned_notes: tuple[str, ...] = (),
) -> AgentRun:
    """Run one slot's agent to termination, tagging its trajectory events."""
    state = AgentRun.start(
        task, slot.spec, services, slot=slot.slot_name, pinned_notes=pinned_notes
    )
    state.run_to_end()
    return state


def fan_out(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Run ``fn`` on every item at once; results in input order.

    The first item runs on the caller's thread and the rest on the parked
    workers that tool calls use, so a warm fan-out starts no thread. The
    first exception, in input order, is raised after every call has ended.
    """
    if not items:
        return []
    outboxes = [_dispatch(fn, item) for item in items[1:]]
    try:
        answers = [("ok", fn(items[0]))]
    except BaseException as exc:  # noqa: BLE001 — raised below, after the others end
        answers = [("failed", exc)]
    answers += [outbox.get() for outbox in outboxes]
    for status, value in answers:
        if status == "failed":
            raise value
    return [value for _, value in answers]


def slots_by_role(slots: list[AgentSlot], role: str) -> list[AgentSlot]:
    return sorted((s for s in slots if s.role == role), key=lambda s: s.slot_name)


def single_slot(slots: list[AgentSlot], role: str) -> AgentSlot:
    found = slots_by_role(slots, role)
    if len(found) != 1:
        raise SlotConfigError(f"expected exactly one {role!r} slot, found {len(found)}")
    return found[0]


def answer_or_note(state: AgentRun) -> str:
    outcome = state.outcome
    return f"failed: {outcome.status}" if outcome.final_answer is None else outcome.final_answer


def parse_score(content: str) -> float:
    """Parse the first line-start ``SCORE: <real>``; anything else is -inf."""
    match = re.search(r"^SCORE:(.*)$", content, re.MULTILINE)
    if match is None:
        return float("-inf")
    try:
        value = float(match.group(1).strip())
    except ValueError:
        return float("-inf")
    if value != value or value in (float("inf"), float("-inf")):
        return float("-inf")
    return value


def select_best(scores: Mapping[str, float]) -> str | None:
    """Argmax over slot scores; ties break to the lowest slot name.

    Returns None when the map is empty or every candidate scored -inf, in
    which case the caller keeps its current solution.
    """
    if not scores:
        return None
    best = max(scores.values())
    if best == float("-inf"):
        return None
    return min(name for name, score in scores.items() if score == best)
