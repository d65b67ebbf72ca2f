"""Trajectory verification and reconstruction.

replay() re-reads a trajectory file and checks the structural guarantees the
recorder is supposed to provide: gap-free sequence numbers, run_start/run_end
bracketing, every tool call paired with its observation, and per-turn usage
summing to the run_end totals. A ``turn`` event lists its tool calls, and
each ``observation`` answers one of them: same slot, agent and turn, after
that turn event and before the conversation's next one. Deleting any line of
a valid trajectory trips at least one check, and so does editing a seq, an
action id, an observation's turn or a usage count. It also reconstructs one
dialogue transcript per (slot, agent) conversation.

The file is read once, in binary, a line at a time, and each decoded event is
dropped once it has been counted, so replay's memory grows with the
transcripts it returns, not with the size of the file. Lines end where text
mode's universal newlines end them (``\r\n`` and a lone ``\r`` too), so
line numbers are the ones an editor shows. Each line is decoded as strict
UTF-8 and scanned by the C scanner ``json.loads`` itself uses; a line the
scan does not consume exactly up to its ``\n`` (surrounding whitespace, a
BOM, a missing final newline, extra data, invalid JSON) is decoded again by
``json.loads``, which accepts it or names what is wrong with it.

A line that is blank, not UTF-8 or not a JSON object raises
TrajectoryCorrupt naming the line, as does one the decoder rejects for
nesting past the recursion limit or for an integer of more than 4,300
digits. So does a line whose ``seq`` is not an integer, whose ``kind`` is
not one of ``EVENT_KINDS``, whose ``turn`` is neither an integer nor null,
whose ``payload`` or ``usage`` is neither an object nor null, whose
``slot`` or ``agent`` is neither a string nor null, or whose usage
``prompt_tokens`` or ``completion_tokens`` is not an integer; so does a
``run_end`` whose ``usage_totals`` holds a count that is not an integer, a
turn's ``tool_calls`` that is not an array of objects, and a call ``id`` or
an observation's ``action_id`` that is an array or an object. JSON ``true``
and ``1.0`` are no integers here, although they compare equal to ``1``.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..errors import EvokitError
from .recorder import EVENT_KINDS

# Fields masked before byte-comparing trajectories from repeated runs. The
# top-level keys vary per run; the payload keys are wall-clock measurements.
VOLATILE_TOP_KEYS = ("ts", "run_id")
VOLATILE_PAYLOAD_KEYS = ("duration_ms", "wall_seconds")

# The scanner json.loads runs: called at index 0 it returns the value that
# starts there and the index just past it, and decodes exactly as json.loads.
_scan_once = json.JSONDecoder().scan_once
_KINDS = frozenset(EVENT_KINDS)
_COUNTS = ("prompt_tokens", "completion_tokens")
_NO_CALLS: dict[Any, int] = {}  # no turn yet: holds no id, never written
# The kinds a transcript shows, each mapped to one string for every entry.
_TRANSCRIBED = {kind: kind for kind in ("turn", "observation", "critique")}


class TrajectoryCorrupt(EvokitError):
    pass


@dataclass
class ReplayReport:
    complete: bool
    violations: list[str] = field(default_factory=list)
    events: int = 0
    transcripts: dict[str, list[dict[str, Any]]] = field(default_factory=dict)


def _decode(line: str, line_number: int) -> Any:
    """``line`` decoded by json.loads, for a line the scan did not take whole."""
    if not line.strip():
        raise TrajectoryCorrupt(f"line {line_number}: blank line")
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, or an int too long
        raise TrajectoryCorrupt(f"line {line_number}: {exc}") from exc


def _event(line: str, line_number: int) -> dict[str, Any]:
    """The event one line holds, its shape checked.

    The decoder builds exact dicts, lists and strs, so ``type() is`` checks
    suffice; ``type()`` also keeps JSON ``true`` from passing as an int.
    """
    try:
        event, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        event = _decode(line, line_number)
    else:
        if line[end:] != "\n":
            event = _decode(line, line_number)
    if type(event) is not dict:
        raise TrajectoryCorrupt(f"line {line_number}: not a JSON object")
    # Each test first asks for the type the recorder writes, then for the rarer one.
    payload = event.get("payload")
    if type(payload) is not dict and payload is not None:
        raise TrajectoryCorrupt(f"line {line_number}: payload is not an object")
    usage = event.get("usage")
    if usage is not None:
        if type(usage) is not dict:
            raise TrajectoryCorrupt(f"line {line_number}: usage is not an object")
        for key in _COUNTS:
            if type(usage.get(key, 0)) is not int:
                raise TrajectoryCorrupt(f"line {line_number}: usage {key} is not an integer")
    slot = event.get("slot")
    if type(slot) is not str and slot is not None:
        raise TrajectoryCorrupt(f"line {line_number}: slot is not a string")
    agent = event.get("agent")
    if type(agent) is not str and agent is not None:
        raise TrajectoryCorrupt(f"line {line_number}: agent is not a string")
    if type(event.get("seq")) is not int:
        raise TrajectoryCorrupt(f"line {line_number}: seq is not an integer")
    kind = event.get("kind")
    if type(kind) is not str or kind not in _KINDS:
        raise TrajectoryCorrupt(f"line {line_number}: kind is not an event kind")
    turn = event.get("turn")
    if type(turn) is not int and turn is not None:
        raise TrajectoryCorrupt(f"line {line_number}: turn is not an integer")
    if kind == "run_end" and payload:
        totals = payload.get("usage_totals")
        if type(totals) is dict:
            for key in _COUNTS:
                if type(totals.get(key, 0)) is not int:
                    raise TrajectoryCorrupt(
                        f"line {line_number}: usage_totals {key} is not an integer"
                    )
    return event


def _read_events(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield each line of a trajectory as an event, checking its shape."""
    line_number = 0
    # A set buffer size spares open() its isatty() probe, a system call.
    with open(path, "rb", buffering=io.DEFAULT_BUFFER_SIZE) as handle:
        for data in handle:
            try:
                line = data.decode("utf-8")
            except UnicodeDecodeError:
                line = None  # the path below names the line the bad byte is on
            if line is not None and "\r" not in line:
                line_number += 1
                yield _event(line, line_number)
                continue
            # Split as text mode's universal newlines split: a \r\n or a lone
            # \r ends a line as \n does, and reads as \n.
            for piece in data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(True):
                line_number += 1
                try:
                    line = piece.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise TrajectoryCorrupt(f"line {line_number}: {exc}") from exc
                yield _event(line, line_number)


def _open_calls(payload: dict[str, Any], line: int) -> dict[Any, int]:
    """The ids of the calls a turn event lists, counted."""
    calls = payload.get("tool_calls", [])
    if type(calls) is not list:
        raise TrajectoryCorrupt(f"line {line}: tool_calls is not an array of objects")
    ids: dict[Any, int] = {}
    for call in calls:
        if type(call) is not dict:
            raise TrajectoryCorrupt(f"line {line}: tool_calls is not an array of objects")
        call_id = call.get("id")
        if type(call_id) is list or type(call_id) is dict:
            raise TrajectoryCorrupt(f"line {line}: tool_calls id is an array or object")
        ids[call_id] = ids.get(call_id, 0) + 1
    return ids


def replay(path: str | Path) -> ReplayReport:
    events = 0
    seq_head: list[Any] = []  # the first 20 seqs, quoted by the gap message
    gap_free = True
    first_kind = kind = None
    starts = ends = 0
    totals: Any = None  # the first run_end's usage_totals
    prompt_sum = completion_sum = 0  # usage, checked against the run_end totals
    # Per (slot, agent) conversation: [its latest turn's number, the ids of
    # that turn's calls no observation has answered yet, its transcript, its
    # turn numbers]. Each is made at the conversation's first transcribed event.
    conversations: dict[tuple, list[Any]] = {}
    turned: list[tuple] = []  # (scope, state) in the order of their first turn
    unpaired: dict[tuple, int] = {}  # (scope, call id) -> count
    orphans: dict[tuple, int] = {}
    turns_by_scope: dict[tuple, list[Any]] = {}
    turns_contiguous = True
    transcripts: dict[str, list[dict[str, Any]]] = {}

    for event in _read_events(path):
        events += 1
        seq = event["seq"]
        kind = event["kind"]
        if events <= 20:
            seq_head.append(seq)
            if events == 1:
                first_kind = kind
        if seq != events:
            gap_free = False
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
        name = _TRANSCRIBED.get(kind)
        if name is None:
            continue

        scope = (event.get("slot"), event.get("agent"))
        state = conversations.get(scope)
        if state is None:
            slot = scope[0] or "(run)"
            key = f"{slot}/{scope[1]}" if scope[1] else slot
            state = conversations[scope] = [None, _NO_CALLS, transcripts.setdefault(key, []), []]
        turn = event.get("turn")
        if kind == "turn":
            calls = state[1]
            if calls is _NO_CALLS:
                turned.append((scope, state))
            for call_id, count in calls.items():  # unanswered
                unpaired[scope, call_id] = unpaired.get((scope, call_id), 0) + count
            state[0] = turn
            state[1] = _open_calls(payload, events)
            if turn is not None:
                turns = state[3]
                if not turns:
                    turns_by_scope[scope] = turns
                turns.append(turn)
                if turn != len(turns):
                    turns_contiguous = False
        elif kind == "observation":
            action_id = payload.get("action_id")
            if type(action_id) is list or type(action_id) is dict:
                raise TrajectoryCorrupt(f"line {events}: action_id is an array or object")
            calls = state[1]
            if action_id in calls and state[0] == turn:
                left = calls[action_id] - 1
                if left:
                    calls[action_id] = left
                else:
                    del calls[action_id]
            else:
                orphans[scope, action_id] = orphans.get((scope, action_id), 0) + 1
        state[2].append({"kind": name, "turn": turn, "content": payload.get("content", "")})

    if not events:
        return ReplayReport(False, ["empty trajectory"], 0)
    last_kind = kind  # the loop leaves the last event's kind behind
    for scope, state in turned:
        for call_id, count in state[1].items():
            unpaired[scope, call_id] = unpaired.get((scope, call_id), 0) + count

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
    if not turns_contiguous:
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
    """The trajectory as canonical JSON lines with volatile fields masked.

    A payload nested too deep to mask is a TrajectoryCorrupt naming its line.
    """
    lines = []
    for line_number, event in enumerate(_read_events(path), 1):
        try:
            lines.append(json.dumps(mask_volatile(event), ensure_ascii=False, sort_keys=True))
        except RecursionError as exc:
            raise TrajectoryCorrupt(f"line {line_number}: nested too deep to mask") from exc
    return lines
