"""Trajectory verification and reconstruction.

replay() re-reads a trajectory file and checks the structural guarantees the
recorder is supposed to provide: gap-free sequence numbers, run_start/run_end
bracketing, every tool call paired with its observation, and per-turn usage
summing to the run_end totals. Any single-line mutation of a valid trajectory
trips at least one of these checks. It also reconstructs one dialogue
transcript per (slot, agent) conversation for auditing.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import EvokitError

# Fields masked before byte-comparing trajectories from repeated runs. The
# top-level keys vary per run; the payload keys are wall-clock measurements.
VOLATILE_TOP_KEYS = ("ts", "run_id")
VOLATILE_PAYLOAD_KEYS = ("duration_ms", "wall_seconds")


class TrajectoryCorrupt(EvokitError):
    pass


@dataclass
class ReplayReport:
    complete: bool
    violations: list[str] = field(default_factory=list)
    events: int = 0
    transcripts: dict[str, list[dict[str, Any]]] = field(default_factory=dict)


def _load_events(path: str | Path) -> list[dict[str, Any]]:
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                raise TrajectoryCorrupt(f"line {line_number}: blank line")
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TrajectoryCorrupt(f"line {line_number}: {exc}") from exc
            if not isinstance(event, dict):
                raise TrajectoryCorrupt(f"line {line_number}: not a JSON object")
            events.append(event)
    return events


def replay(path: str | Path) -> ReplayReport:
    events = _load_events(path)
    violations: list[str] = []

    if not events:
        return ReplayReport(False, ["empty trajectory"], 0)

    seqs = [e.get("seq") for e in events]
    expected = list(range(1, len(events) + 1))
    if seqs != expected:
        violations.append(f"sequence numbers are not gap-free 1..{len(events)}: {seqs[:20]}")

    starts = [e for e in events if e.get("kind") == "run_start"]
    ends = [e for e in events if e.get("kind") == "run_end"]
    if len(starts) != 1 or events[0].get("kind") != "run_start":
        violations.append("expected exactly one run_start at seq 1")
    if len(ends) != 1 or events[-1].get("kind") != "run_end":
        violations.append("expected exactly one run_end as the final event")

    # Action/observation pairing, scoped per (slot, agent) because action ids
    # are only unique within their conversation.
    calls: Counter = Counter()
    observed: Counter = Counter()
    for event in events:
        scope = (event.get("slot"), event.get("agent"))
        payload = event.get("payload") or {}
        if event.get("kind") == "tool_call":
            calls[(scope, payload.get("id"))] += 1
        elif event.get("kind") == "observation":
            observed[(scope, payload.get("action_id"))] += 1
    for key, count in (calls - observed).items():
        violations.append(f"unpaired action {key[1]} in slot {key[0][0]} (x{count})")
    for key, count in (observed - calls).items():
        violations.append(f"orphan observation {key[1]} in slot {key[0][0]} (x{count})")

    # Usage conservation against the run_end totals.
    prompt_sum = completion_sum = 0
    for event in events:
        if event.get("kind") == "run_end":
            continue
        usage = event.get("usage")
        if usage:
            prompt_sum += usage.get("prompt_tokens", 0)
            completion_sum += usage.get("completion_tokens", 0)
    if ends:
        totals = (ends[0].get("payload") or {}).get("usage_totals")
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
    turns_by_scope: dict[tuple, list[int]] = {}
    for event in events:
        if event.get("kind") == "turn" and event.get("turn") is not None:
            scope = (event.get("slot"), event.get("agent"))
            turns_by_scope.setdefault(scope, []).append(event["turn"])
    for scope, turns in turns_by_scope.items():
        if turns != list(range(1, len(turns) + 1)):
            violations.append(f"turn numbers not contiguous for {scope}: {turns}")

    return ReplayReport(
        complete=not violations,
        violations=violations,
        events=len(events),
        transcripts=_transcripts(events),
    )


def _transcripts(events: list[dict[str, Any]]) -> dict[str, list[dict[str, Any]]]:
    transcripts: dict[str, list[dict[str, Any]]] = {}
    for event in events:
        kind = event.get("kind")
        if kind not in ("turn", "observation", "critique"):
            continue
        slot = event.get("slot") or "(run)"
        agent = event.get("agent") or ""
        key = f"{slot}/{agent}" if agent else slot
        payload = event.get("payload") or {}
        transcripts.setdefault(key, []).append(
            {"kind": kind, "turn": event.get("turn"), "content": payload.get("content", "")}
        )
    return transcripts


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
        for event in _load_events(path)
    ]
