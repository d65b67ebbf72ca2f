"""replay() and masked_lines() against the reader and fold they replaced.

The reader decodes a line with the scanner json.loads runs and only falls
back to json.loads for a line the scan does not take whole; the fold keeps
its counts per conversation. Neither may change what a trajectory replays
to. ``_oracle_read_events`` and ``_oracle_replay`` below are the text-mode
reader and the Counter-based fold as they were before, kept as the oracle.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest

from evokit.cli import main
from evokit.harness import (
    ReplayReport,
    TrajectoryCorrupt,
    load_config,
    mask_volatile,
    masked_lines,
    replay,
    run_experiment,
)
from evokit.harness.replay import _read_events
from helpers import FIXTURES, web_search_manifest

# -- the oracle ------------------------------------------------------------------


def _oracle_read_events(path: str | Path) -> Iterator[dict[str, Any]]:
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
                    if type(usage.get(key, 0)) is not int:
                        raise TrajectoryCorrupt(
                            f"line {line_number}: usage {key} is not an integer"
                        )
            for key in ("slot", "agent"):
                value = event.get(key)
                if value is not None and not isinstance(value, str):
                    raise TrajectoryCorrupt(f"line {line_number}: {key} is not a string")
            yield event


def _oracle_open_calls(payload: dict[str, Any], line: int) -> dict[Any, int]:
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


_NO_CALLS: tuple[Any, dict[Any, int]] = (None, {})


def _oracle_replay(path: str | Path) -> ReplayReport:
    events = 0
    seq_head: list[Any] = []
    gap_free = True
    first_kind = last_kind = None
    starts = ends = 0
    totals: Any = None
    prompt_sum = completion_sum = 0
    open_calls: dict[tuple, tuple[Any, dict[Any, int]]] = {}
    unpaired: Counter = Counter()
    orphans: Counter = Counter()
    turns_by_scope: dict[tuple, list[Any]] = {}
    transcripts: dict[str, list[dict[str, Any]]] = {}

    for event in _oracle_read_events(path):
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
            for call_id, count in open_calls.get(scope, _NO_CALLS)[1].items():
                unpaired[scope, call_id] += count
            open_calls[scope] = (event.get("turn"), _oracle_open_calls(payload, events))
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
    for scope, turns in turns_by_scope.items():
        if turns != list(range(1, len(turns) + 1)):
            violations.append(f"turn numbers not contiguous for {scope}: {turns}")

    return ReplayReport(
        complete=not violations,
        violations=violations,
        events=events,
        transcripts=transcripts,
    )


# -- inputs ------------------------------------------------------------------------

GOLDEN = ("draft_improve", "planner_executor", "research", "solve_critique")


def _run(manifest: Path, output_dir: Path) -> Path:
    config = load_config(manifest)
    config.experiment.output_dir = str(output_dir)
    return Path(run_experiment(config).trajectory_path)


@pytest.fixture(scope="module")
def trajectories(tmp_path_factory) -> dict[str, Path]:
    """The golden manifests, both adversarial ones and the 40-turn web_search run."""
    base = tmp_path_factory.mktemp("replay")
    manifests = {name: FIXTURES / "golden" / f"{name}.yaml" for name in GOLDEN}
    manifests.update((path.stem, path) for path in
                     sorted((FIXTURES / "configs").glob("adversarial_*.yaml")))
    manifests["web_search"] = web_search_manifest(base)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("EVO_HOME", str(base / "home"))
        runs = {name: _run(manifest, base / "runs" / name) for name, manifest in manifests.items()}
    assert len(runs) == 7
    return runs


def _outcome(read: Callable[[Path], Iterator[Any]], path: Path) -> tuple[list[Any], str | None]:
    """What ``read`` yields from ``path`` up to its TrajectoryCorrupt, if any."""
    events: list[Any] = []
    try:
        for event in read(path):
            events.append(event)
    except TrajectoryCorrupt as exc:
        return events, str(exc)
    return events, None


def _report(report: ReplayReport) -> tuple:
    """Every field of a report; the transcripts with their order."""
    return (report.complete, report.violations, report.events,
            list(report.transcripts.items()))


# -- the reader ------------------------------------------------------------------

# Edits of one line's bytes (its "\n" included) that no recorder writes.
LINE_EDITS: dict[str, Callable[[bytes], bytes]] = {
    "leading space": lambda line: b" " + line,
    "trailing space": lambda line: line[:-1] + b" \n",
    "crlf": lambda line: line[:-1] + b"\r\n",
    "cr ending": lambda line: line[:-1] + b"\r",
    "cr then crlf": lambda line: line[:-1] + b"\r\r\n",
    "lone cr inside": lambda line: line.replace(b", ", b",\r ", 1),
    "lone cr inside, crlf": lambda line: line.replace(b", ", b",\r ", 1)[:-1] + b"\r\n",
    "cr in whitespace only": lambda line: line[:-1] + b"\r \n",
    "bom": lambda line: b"\xef\xbb\xbf" + line,
    "blank line after": lambda line: line + b"\n",
    "whitespace line after": lambda line: line + b" \t\n",
    "truncated": lambda line: line[: len(line) // 2] + b"\n",
    "0xff byte": lambda line: line[:20] + b"\xff" + line[21:],
    "0xff byte after a lone cr": lambda line: line.replace(b", ", b",\r\xff", 1),
    "cut multibyte character": lambda line: line[:-1] + b"\xe6\x97\n",
    "two objects": lambda line: line[:-1] + line,
    "two objects, spaced": lambda line: line[:-1] + b" " + line,
    "not an object": lambda line: b"[" + line[:-1] + b"]\n",
    "missing final newline": lambda line: line[:-1],
}


@pytest.mark.parametrize("edit", LINE_EDITS.values(), ids=LINE_EDITS.keys())
def test_reader_yields_what_the_text_mode_reader_yields(trajectories, tmp_path, edit) -> None:
    lines = trajectories["research"].read_bytes().splitlines(keepends=True)
    path = tmp_path / "edited.jsonl"
    for index in range(len(lines)):
        edited = [*lines[:index], edit(lines[index]), *lines[index + 1:]]
        if edit is LINE_EDITS["missing final newline"]:
            edited = edited[: index + 1]
        path.write_bytes(b"".join(edited))
        expected = _outcome(_oracle_read_events, path)
        assert _outcome(_read_events, path) == expected, (index, expected[1])
        assert _outcome(lambda p: iter(masked_lines(p)), path)[1] == expected[1]


def test_reader_takes_every_line_of_a_valid_file_as_the_oracle(trajectories) -> None:
    for path in trajectories.values():
        expected = list(_oracle_read_events(path))
        assert list(_read_events(path)) == expected
        assert masked_lines(path) == [
            json.dumps(mask_volatile(event), ensure_ascii=False, sort_keys=True)
            for event in expected
        ]


def test_reader_keeps_line_numbers_across_carriage_returns(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"seq": 1, "kind": "run_start"}\r{"seq": 2, "kind": "run_end"}\r\n'
                     b'{"seq": 3, "kind": "error"}\n\r\n')
    events, message = _outcome(_read_events, path)
    assert ([e["seq"] for e in events], message) == ([1, 2, 3], "line 4: blank line")
    assert _outcome(_oracle_read_events, path) == (events, message)


# -- the fold --------------------------------------------------------------------


def test_reports_equal_the_oracle_on_every_shipped_workflow(trajectories) -> None:
    for name, path in trajectories.items():
        report = replay(path)
        assert _report(report) == _report(_oracle_replay(path)), name
        assert report.complete, (name, report.violations)


def test_reports_equal_the_oracle_with_any_line_deleted(trajectories, tmp_path) -> None:
    lines = trajectories["research"].read_bytes().splitlines(keepends=True)
    path = tmp_path / "deleted.jsonl"
    for index in range(len(lines)):
        path.write_bytes(b"".join(lines[:index] + lines[index + 1:]))
        report = replay(path)
        assert not report.complete
        assert _report(report) == _report(_oracle_replay(path)), index


def test_reports_equal_the_oracle_with_any_two_lines_swapped(trajectories, tmp_path) -> None:
    lines = trajectories["research"].read_bytes().splitlines(keepends=True)
    path = tmp_path / "swapped.jsonl"
    for index in range(len(lines) - 1):
        swapped = list(lines)
        swapped[index:index + 2] = [lines[index + 1], lines[index]]
        path.write_bytes(b"".join(swapped))
        assert _report(replay(path)) == _report(_oracle_replay(path)), index


def test_report_order_equals_the_oracle_across_conversations(tmp_path) -> None:
    """Conversations first seen at an observation, left with unanswered calls,
    with broken turns, or sharing one transcript key report in the oracle's order."""
    def event(kind, slot, agent, turn, payload):
        return {"seq": 0, "kind": kind, "slot": slot, "agent": agent, "turn": turn,
                "payload": payload, "usage": None}

    def calls(*ids):
        return {"content": "t", "tool_calls": [{"id": i} for i in ids]}

    events = [
        {"seq": 0, "kind": "run_start", "payload": {}},
        event("observation", "b", "b#1", 1, {"action_id": "x", "content": "early"}),
        event("turn", "a", "a#1", 1, calls("p", "q")),
        event("critique", "c", None, None, {"content": "note"}),
        event("turn", "b", "b#1", 1, calls("r")),
        event("turn", "c/d", None, 1, calls()),
        event("turn", "c", "d", 1, calls("s", "s")),
        event("observation", "c", "d", 1, {"action_id": "s"}),
        event("error", "a", "a#1", None, {"message": "boom"}),
        event("turn", "a", "a#1", 3, calls("v")),
        event("turn", None, None, None, calls("u")),
        event("turn", "(run)", None, 1, calls()),
        {"seq": 0, "kind": "run_end", "payload": {"usage_totals": {}}},
    ]
    for seq, item in enumerate(events, start=1):
        item["seq"] = seq
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
    report = replay(path)
    assert _report(report) == _report(_oracle_replay(path))
    assert list(report.transcripts) == ["b/b#1", "a/a#1", "c", "c/d", "(run)"]
    assert [v.split(" (x")[0] for v in report.violations if "unpaired" in v] == [
        "unpaired action p in slot a", "unpaired action q in slot a",
        "unpaired action v in slot a", "unpaired action r in slot b",
        "unpaired action s in slot c", "unpaired action u in slot None",
    ]
    assert report.violations[-1] == "turn numbers not contiguous for ('a', 'a#1'): [1, 3]"


# -- integer counts and known kinds --------------------------------------------------


def _research_events(trajectories) -> list[dict[str, Any]]:
    return [json.loads(line) for line in
            trajectories["research"].read_text(encoding="utf-8").splitlines()]


def _index(events: list[dict[str, Any]], kind: str) -> int:
    return next(i for i, e in enumerate(events) if e["kind"] == kind)


def _set(key: str, value: Any) -> Callable[[dict[str, Any]], None]:
    def edit(event: dict[str, Any]) -> None:
        event[key] = value
    return edit


def _float_total(key: str) -> Callable[[dict[str, Any]], None]:
    def edit(event: dict[str, Any]) -> None:
        totals = event["payload"]["usage_totals"]
        totals[key] = float(totals[key])
    return edit


# Edits the oracle replays complete: counts that only compare equal to the int
# they replace, and a kind no recorder writes. (The line, as an index or its
# kind; the edit; what replay says of it.)
UNNOTICED_EDITS = {
    "seq true on line 1": (0, _set("seq", True), "seq is not an integer"),
    "seq 2.0 on line 2": (1, _set("seq", 2.0), "seq is not an integer"),
    "turn true": ("turn", _set("turn", True), "turn is not an integer"),
    "observation turn 1.0": ("observation", _set("turn", 1.0), "turn is not an integer"),
    "float prompt total": ("run_end", _float_total("prompt_tokens"),
                           "usage_totals prompt_tokens is not an integer"),
    "float completion total": ("run_end", _float_total("completion_tokens"),
                               "usage_totals completion_tokens is not an integer"),
    "critique of another kind": ("critique", _set("kind", "critic"), "kind is not an event kind"),
}


@pytest.mark.parametrize("case", UNNOTICED_EDITS.values(), ids=UNNOTICED_EDITS.keys())
def test_edits_the_oracle_missed_are_corrupt(trajectories, tmp_path, capsys, case) -> None:
    where, edit, message = case
    events = _research_events(trajectories)
    index = where if isinstance(where, int) else _index(events, where)
    edit(events[index])
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
    assert _oracle_replay(path).complete  # the edit went unnoticed before
    for read in (replay, masked_lines):
        with pytest.raises(TrajectoryCorrupt, match=f"^line {index + 1}: {message}$"):
            read(path)
    assert main(["replay", "--trajectory", str(path)]) == 3
    assert f"trajectory corrupt: line {index + 1}: {message}" in capsys.readouterr().err


# A line the decoder rejects with a ValueError that is no JSONDecodeError, or
# with a RecursionError, first in the scanner and then in json.loads.
UNDECODABLE_LINES = {
    "5000-digit int": b'{"seq": ' + b"1" * 5000 + b"}\n",
    "100,000 nested arrays": b"[" * 100_000 + b"\n",
}


@pytest.mark.parametrize("line", UNDECODABLE_LINES.values(), ids=UNDECODABLE_LINES.keys())
def test_lines_the_decoder_rejects_are_corrupt(trajectories, tmp_path, capsys, line) -> None:
    lines = trajectories["research"].read_bytes().splitlines(keepends=True)
    path = tmp_path / "edited.jsonl"
    path.write_bytes(b"".join([lines[0], line, *lines[2:]]))
    for read in (replay, masked_lines):
        with pytest.raises(TrajectoryCorrupt, match="^line 2: "):
            read(path)
    assert main(["replay", "--trajectory", str(path)]) == 3
    assert "trajectory corrupt: line 2: " in capsys.readouterr().err


def test_payload_too_deep_to_mask_is_corrupt(trajectories, tmp_path, capsys) -> None:
    # The decoder takes 700 nested arrays, but masking them would recurse past the limit.
    lines = trajectories["research"].read_bytes().splitlines(keepends=True)
    first = json.loads(lines[0])
    first["payload"]["deep"] = json.loads("[" * 700 + "]" * 700)
    path = tmp_path / "deep.jsonl"
    path.write_bytes(b"".join([json.dumps(first).encode() + b"\n", *lines[1:]]))
    assert replay(path).complete
    with pytest.raises(TrajectoryCorrupt, match="^line 1: nested too deep to mask$"):
        masked_lines(path)
