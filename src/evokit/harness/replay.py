"""Trajectory verification and reconstruction.

replay() re-reads a trajectory file and checks the structural guarantees the
recorder is supposed to provide: gap-free sequence numbers, run_start/run_end
bracketing, every tool call paired with its observation, and per-turn usage
summing to the run_end totals. A ``turn`` event lists its tool calls, and
each ``observation`` answers one of them: same slot, agent and turn, after
that turn event and before the conversation's next one. Deleting any line of
a valid trajectory trips at least one check, and so does editing a seq, an
action id, an observation's turn or a usage count. The ``tool_call`` lines
of older files repeat what their turn lists, and replay skips them. It also
reconstructs one dialogue transcript per (slot, agent) conversation.

The file is read once, line by line, and each decoded event is dropped once
it has been counted, so replay's memory grows with the transcripts it
returns, not with the size of the file.

A line that is blank, not UTF-8 or not a JSON object raises
TrajectoryCorrupt naming the line, and so does a line whose ``payload`` or
``usage`` is neither an object nor null, whose ``slot`` or ``agent`` is
neither a string nor null, or whose usage ``prompt_tokens`` or
``completion_tokens`` is not an integer; so does a turn's ``tool_calls``
that is not an array of objects, and a call ``id`` or an observation's
``action_id`` that is an array or an object.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..errors import EvokitError

# Fields masked before byte-comparing trajectories from repeated runs. The
# top-level keys vary per run; the payload keys are wall-clock measurements.
VOLATILE_TOP_KEYS = ("ts", "run_id")
VOLATILE_PAYLOAD_KEYS = ("duration_ms", "wall_seconds")

_NO_CALLS: tuple[Any, dict[Any, int]] = (None, {})  # no turn yet: holds no id, never written


class TrajectoryCorrupt(EvokitError):
    pass


@dataclass
class ReplayReport:
    complete: bool
    violations: list[str] = field(default_factory=list)
    events: int = 0
    transcripts: dict[str, list[dict[str, Any]]] = field(default_factory=dict)


def _read_events(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield each line of a trajectory as an event, checking its shape."""
    # surrogateescape turns a byte that is not UTF-8 into a lone surrogate
    # instead of failing the whole read, so the line holding it can be named.
    # No valid line holds one: the recorder writes surrogates as escapes.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise TrajectoryCorrupt(f"line {line_number}: {exc}") from exc
            if not line.strip():
                raise TrajectoryCorrupt(f"line {line_number}: blank line")
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TrajectoryCorrupt(f"line {line_number}: {exc}") from exc
            if not isinstance(event, dict):
                raise TrajectoryCorrupt(f"line {line_number}: not a JSON object")
            payload = event.get("payload")
            if payload is not None and not isinstance(payload, dict):
                raise TrajectoryCorrupt(f"line {line_number}: payload is not an object")
            usage = event.get("usage")
            if usage is not None:
                if not isinstance(usage, dict):
                    raise TrajectoryCorrupt(f"line {line_number}: usage is not an object")
                for key in ("prompt_tokens", "completion_tokens"):
                    # type() rather than isinstance(): JSON true is no count.
                    if type(usage.get(key, 0)) is not int:
                        raise TrajectoryCorrupt(
                            f"line {line_number}: usage {key} is not an integer"
                        )
            for key in ("slot", "agent"):
                value = event.get(key)
                if value is not None and not isinstance(value, str):
                    raise TrajectoryCorrupt(f"line {line_number}: {key} is not a string")
            yield event


def _open_calls(payload: dict[str, Any], line: int) -> dict[Any, int]:
    """The ids of the calls a turn event lists, counted."""
    calls = payload.get("tool_calls", [])
    if not isinstance(calls, list):
        raise TrajectoryCorrupt(f"line {line}: tool_calls is not an array of objects")
    ids: dict[Any, int] = {}
    for call in calls:
        if not isinstance(call, dict):
            raise TrajectoryCorrupt(f"line {line}: tool_calls is not an array of objects")
        call_id = call.get("id")
        if isinstance(call_id, (list, dict)):
            raise TrajectoryCorrupt(f"line {line}: tool_calls id is an array or object")
        ids[call_id] = ids.get(call_id, 0) + 1
    return ids


def replay(path: str | Path) -> ReplayReport:
    events = 0
    seq_head: list[Any] = []  # the first 20 seqs, quoted by the gap message
    gap_free = True
    first_kind = last_kind = None
    starts = ends = 0
    totals: Any = None  # the first run_end's usage_totals
    prompt_sum = completion_sum = 0  # usage, checked against the run_end totals
    # Per (slot, agent) conversation: its latest turn's number and the ids of
    # that turn's calls no observation has answered yet.
    open_calls: dict[tuple, tuple[Any, dict[Any, int]]] = {}
    unpaired: Counter = Counter()
    orphans: Counter = Counter()
    turns_by_scope: dict[tuple, list[Any]] = {}
    transcripts: dict[str, list[dict[str, Any]]] = {}

    for event in _read_events(path):
        events += 1
        seq = event.get("seq")
        if events <= 20:
            seq_head.append(seq)
        if gap_free and seq != events:
            gap_free = False

        kind = event.get("kind")
        if events == 1:
            first_kind = kind
        last_kind = kind
        payload = event.get("payload") or {}
        if kind == "run_end":
            ends += 1
            if ends == 1:
                totals = payload.get("usage_totals")
            continue
        usage = event.get("usage")
        if usage:
            prompt_sum += usage.get("prompt_tokens", 0)
            completion_sum += usage.get("completion_tokens", 0)
        if kind == "run_start":
            starts += 1
            continue

        scope = (event.get("slot"), event.get("agent"))
        if kind == "turn":
            for call_id, count in open_calls.get(scope, _NO_CALLS)[1].items():  # unanswered
                unpaired[scope, call_id] += count
            open_calls[scope] = (event.get("turn"), _open_calls(payload, events))
            if event.get("turn") is not None:
                turns_by_scope.setdefault(scope, []).append(event["turn"])
        elif kind == "observation":
            action_id = payload.get("action_id")
            if isinstance(action_id, (list, dict)):
                raise TrajectoryCorrupt(f"line {events}: action_id is an array or object")
            turn, calls = open_calls.get(scope, _NO_CALLS)
            if action_id in calls and turn == event.get("turn"):
                calls[action_id] -= 1
                if not calls[action_id]:
                    del calls[action_id]
            else:
                orphans[scope, action_id] += 1
        if kind in ("turn", "observation", "critique"):
            slot = scope[0] or "(run)"
            key = f"{slot}/{scope[1]}" if scope[1] else slot
            # The interned kind: one string per kind, not one per event.
            entry = {"kind": sys.intern(kind), "turn": event.get("turn"),
                     "content": payload.get("content", "")}
            transcripts.setdefault(key, []).append(entry)

    if not events:
        return ReplayReport(False, ["empty trajectory"], 0)
    for scope, (_, left) in open_calls.items():
        for call_id, count in left.items():
            unpaired[scope, call_id] += count

    violations: list[str] = []
    if not gap_free:
        violations.append(f"sequence numbers are not gap-free 1..{events}: {seq_head}")
    if starts != 1 or first_kind != "run_start":
        violations.append("expected exactly one run_start at seq 1")
    if ends != 1 or last_kind != "run_end":
        violations.append("expected exactly one run_end as the final event")
    for key, count in unpaired.items():
        violations.append(f"unpaired action {key[1]} in slot {key[0][0]} (x{count})")
    for key, count in orphans.items():
        violations.append(f"orphan observation {key[1]} in slot {key[0][0]} (x{count})")
    if ends:
        if not isinstance(totals, dict):
            violations.append("run_end payload is missing usage_totals")
        elif (
            totals.get("prompt_tokens") != prompt_sum
            or totals.get("completion_tokens") != completion_sum
        ):
            violations.append(
                "usage totals mismatch: events sum to "
                f"({prompt_sum}, {completion_sum}), run_end says "
                f"({totals.get('prompt_tokens')}, {totals.get('completion_tokens')})"
            )
    # Per-turn contiguity within each conversation.
    for scope, turns in turns_by_scope.items():
        if turns != list(range(1, len(turns) + 1)):
            violations.append(f"turn numbers not contiguous for {scope}: {turns}")

    return ReplayReport(
        complete=not violations,
        violations=violations,
        events=events,
        transcripts=transcripts,
    )


def mask_volatile(event: dict[str, Any]) -> dict[str, Any]:
    """Replace run-identity and wall-clock fields with stable placeholders."""
    masked = dict(event)
    for key in VOLATILE_TOP_KEYS:
        if key in masked:
            masked[key] = "<masked>"
    masked["payload"] = _mask_payload(masked.get("payload"))
    return masked


def _mask_payload(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            k: "<masked>" if k in VOLATILE_PAYLOAD_KEYS else _mask_payload(v)
            for k, v in value.items()
        }
    if isinstance(value, list):
        return [_mask_payload(v) for v in value]
    return value


def masked_lines(path: str | Path) -> list[str]:
    """The trajectory as canonical JSON lines with volatile fields masked."""
    return [
        json.dumps(mask_volatile(event), ensure_ascii=False, sort_keys=True)
        for event in _read_events(path)
    ]
