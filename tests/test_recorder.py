from __future__ import annotations

import json
import os
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from evokit.cli import main
from evokit.engine import AgentRun, AgentSpec
from evokit.gateway import TokenUsage
from evokit.harness import (
    EVENT_KINDS,
    KEY_ORDER,
    RecorderClosed,
    TrajectoryCorrupt,
    TrajectoryRecorder,
    load_config,
    masked_lines,
    replay,
    run_experiment,
)
from evokit.harness.recorder import dump_utf8
from evokit.harness.replay import mask_volatile
from helpers import FIXTURES, make_services, scripted_gateway, web_search_manifest


def test_first_event_gets_seq_one(tmp_path) -> None:
    recorder = TrajectoryRecorder(tmp_path / "t.jsonl", "run-1")
    assert recorder.record("run_start", {"config_snapshot": {}}) == 1
    recorder.close()
    event = json.loads((tmp_path / "t.jsonl").read_text().splitlines()[0])
    assert event["seq"] == 1
    assert event["kind"] == "run_start"


def test_keys_serialized_in_fixed_order(tmp_path) -> None:
    recorder = TrajectoryRecorder(tmp_path / "t.jsonl", "run-1")
    recorder.record("run_start", {}, usage=TokenUsage(1, 2))
    recorder.close()
    line = (tmp_path / "t.jsonl").read_text().splitlines()[0]
    assert tuple(json.loads(line).keys()) == KEY_ORDER


def test_readme_names_exactly_the_event_kinds() -> None:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Event kinds: (.*?\.)\s", readme, re.DOTALL)
    assert sentence is not None
    assert tuple(re.findall(r"`(\w+)`", sentence.group(1))) == EVENT_KINDS


def test_record_after_close(tmp_path) -> None:
    recorder = TrajectoryRecorder(tmp_path / "t.jsonl", "run-1")
    recorder.record("run_start", {})
    recorder.close()
    with pytest.raises(RecorderClosed):
        recorder.record("run_end", {})


def test_unknown_kind_rejected(tmp_path) -> None:
    recorder = TrajectoryRecorder(tmp_path / "t.jsonl", "run-1")
    with pytest.raises(ValueError):
        recorder.record("mystery", {})
    recorder.close()


def test_concurrent_records_are_gap_free(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    recorder = TrajectoryRecorder(path, "run-1")
    recorder.record("run_start", {})

    def worker(worker_id: int) -> None:
        for i in range(50):
            recorder.record(
                "turn", {"content": f"w{worker_id}-{i}"}, slot=f"s{worker_id}", turn=i + 1
            )

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    recorder.record("run_end", {"status": "ok", "usage_totals": {"prompt_tokens": 0, "completion_tokens": 0}})
    recorder.close()

    lines = path.read_text().splitlines()
    assert len(lines) == 402
    events = [json.loads(line) for line in lines]
    assert [e["seq"] for e in events] == list(range(1, 403))
    assert events[0]["kind"] == "run_start"
    assert events[-1]["kind"] == "run_end"


def test_lone_surrogate_is_escaped_and_reads_back(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    recorder = TrajectoryRecorder(path, "run-1")
    recorder.record("turn", {"content": "caf\u00e9"}, slot="w", turn=1)
    assert recorder.record("turn", {"content": "caf\u00e9 a\ud800b"}, slot="w", turn=2) == 2
    recorder.close()
    plain, escaped = path.read_bytes().splitlines()
    assert b'"caf\xc3\xa9"' in plain  # UTF-8 as it is when it can be
    assert escaped.isascii()
    assert json.loads(escaped)["payload"]["content"] == "caf\u00e9 a\ud800b"


DUMP_VALUES = [
    "caf\u00e9 \u65e5\u672c \u2028 \U0001f600",
    "a\ud800b",
    {"content": "x\udfff", "n": [1, 2.5, None, True]},
    {"seq": 1, "payload": {"tool_calls": [{"arguments": {"q": "r\u00e9cif", "k": [{"z": {}}]}}]},
     "usage": None, "nan": float("nan"), "big": 10**30},
    [[], {}, "", "\x00\x1f\"\\/"],
]


@pytest.mark.parametrize("value", DUMP_VALUES)
def test_dump_utf8_bytes_are_the_json_dumps_bytes(value) -> None:
    def old(value, **kwargs):
        text = json.dumps(value, ensure_ascii=False, **kwargs)
        try:
            return text.encode("utf-8")
        except UnicodeEncodeError:
            return json.dumps(value, **kwargs).encode("ascii")

    assert dump_utf8(value) == old(value)
    assert dump_utf8(value, indent=2) == old(value, indent=2)


def test_dump_utf8_shared_encoder_under_threads() -> None:
    values = [{"n": n, "text": "caf\u00e9 " * (n % 7), "nested": [{"k": n}] * (n % 3)}
              for n in range(400)]
    expected = [json.dumps(v, ensure_ascii=False).encode("utf-8") for v in values]
    results: list[list[bytes]] = [[] for _ in range(8)]

    def work(index: int) -> None:
        results[index] = [dump_utf8(v) for v in values]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 8


def test_line_that_cannot_be_written_takes_no_seq(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    recorder = TrajectoryRecorder(path, "run-1")
    assert recorder.record("run_start", {}) == 1
    with pytest.raises(TypeError):
        recorder.record("turn", {"content": object()})
    assert recorder.record("run_end", {}) == 2
    recorder.close()
    assert [json.loads(line)["seq"] for line in path.read_text().splitlines()] == [1, 2]


def test_usage_totals_accumulate(tmp_path) -> None:
    recorder = TrajectoryRecorder(tmp_path / "t.jsonl", "run-1")
    recorder.record("turn", {}, usage=TokenUsage(3, 4))
    recorder.record("critique", {}, usage=TokenUsage(1, 1))
    recorder.record("turn", {})
    assert recorder.usage_totals() == TokenUsage(4, 5)
    recorder.close()


# -- line bytes -------------------------------------------------------------------


def _record_one(path, run_id, kind, payload, **scope) -> tuple[int, bytes]:
    """Record one event to a fresh trajectory; its seq and its line's bytes."""
    with TrajectoryRecorder(path, run_id) as recorder:
        seq = recorder.record(kind, payload, **scope)
    return seq, path.read_bytes()


def _event(line: bytes, run_id, kind, payload, slot=None, agent=None, turn=None,
           usage=None) -> dict:
    """The event ``line`` records, in KEY_ORDER, with the ``ts`` it was given."""
    decoded = json.loads(line)
    event = {"seq": decoded["seq"], "ts": decoded["ts"], "run_id": run_id,
             "slot": slot, "agent": agent, "kind": kind, "turn": turn, "payload": payload,
             "usage": usage.as_dict() if usage is not None else None}
    assert tuple(event) == KEY_ORDER
    return event


LINE_CASES = {
    "ascii": ("run-1", "turn", {"content": "go", "finish": "stop", "tool_calls": []},
              {"slot": "w", "agent": "w#1", "turn": 3, "usage": TokenUsage(5, 2)}),
    "non_ascii_scope": ("r\u00e9cif-\u65e5", "observation", {"content": "caf\u00e9 \U0001f600"},
                        {"slot": "s\u00e9", "agent": "\u73ca\u745a#1", "turn": 1}),
    "none_scope": (None, "run_start", {"config_snapshot": {}}, {}),
    "nan_and_big_int": ("run-1", "critique", {"nan": float("nan"), "big": 10**30,
                                              "inf": float("inf"), "neg": -0.0},
                        {"slot": "w", "agent": None, "turn": None, "usage": TokenUsage(0, 0)}),
    "nested_lists": ("run-1", "turn", {"tool_calls": [{"id": "c", "arguments": {
        "q": [[1, [2, []]], {"k": [None, True, False]}]}}], "content": "\x00\x1f\"\\/\u2028"},
        {"slot": "w", "agent": "w#2", "turn": 2}),
    "empty_payload": ("run-1", "run_end", {}, {"usage": TokenUsage(7, 4)}),
}


@pytest.mark.parametrize("case", LINE_CASES.values(), ids=LINE_CASES.keys())
def test_line_is_dump_utf8_of_the_event_in_key_order(tmp_path, case) -> None:
    run_id, kind, payload, scope = case
    seq, line = _record_one(tmp_path / "t.jsonl", run_id, kind, payload, **scope)
    assert seq == 1
    assert line == dump_utf8(_event(line, run_id, kind, payload, **scope)) + b"\n"


@pytest.mark.parametrize("where", ["slot", "agent", "payload", "run_id"])
def test_lone_surrogate_line_is_the_ascii_json_dumps_line(tmp_path, where) -> None:
    lone = "caf\u00e9 a\ud800b"
    run_id = lone if where == "run_id" else "run-1"
    scope = {"slot": "w", "agent": "w#1", "turn": 1, "usage": TokenUsage(1, 2)}
    if where in scope:
        scope[where] = lone
    payload = {"content": lone if where == "payload" else "caf\u00e9"}
    _, line = _record_one(tmp_path / "t.jsonl", run_id, "turn", payload, **scope)
    event = _event(line, run_id, "turn", payload, **scope)
    assert line == json.dumps(event).encode("ascii") + b"\n"


def test_payload_that_cannot_be_encoded_takes_no_seq(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    looped: dict = {"a": [1]}
    looped["self"] = looped
    # Left in place after the failed encode below, and made encodable before
    # it is recorded again: an encoder still holding its id would call it
    # circular.
    shared = [{"x": object()}]
    recorder = TrajectoryRecorder(path, "run-1")
    assert recorder.record("run_start", {}) == 1
    with pytest.raises(TypeError):
        recorder.record("turn", {"content": object()}, slot="w", turn=1)
    with pytest.raises(ValueError, match="Circular"):
        recorder.record("turn", {"content": looped}, slot="w", turn=1)
    with pytest.raises(TypeError):
        recorder.record("turn", {"content": shared}, slot="w", turn=1)
    shared[0] = {"x": "caf\u00e9"}
    payload = {"content": shared, "again": shared}
    assert recorder.record("turn", payload, slot="w", turn=1, usage=TokenUsage(2, 3)) == 2
    recorder.close()
    lines = path.read_bytes().splitlines(keepends=True)
    assert [json.loads(line)["seq"] for line in lines] == [1, 2]
    expected = _event(lines[1], "run-1", "turn", payload, slot="w", turn=1,
                      usage=TokenUsage(2, 3))
    assert lines[1] == dump_utf8(expected) + b"\n"
    assert recorder.usage_totals() == TokenUsage(2, 3)


def _record_mix(recorder) -> list[tuple]:
    """Record a few events of every scope; the arguments of each, in order."""
    calls = [
        ("run_start", {"config_snapshot": {"task": "t"}}, {}),
        ("turn", {"content": "caf\u00e9 " * 9, "tool_calls": []},
         {"slot": "w", "agent": "w#1", "turn": 1, "usage": TokenUsage(3, 4)}),
        ("observation", {"action_id": "c", "content": "\u65e5\u672c" * 5},
         {"slot": "w", "agent": "w#1", "turn": 1}),
        ("critique", {"content": "x\ud800"}, {"slot": "w", "agent": "w#1", "turn": 1}),
        ("turn", {"content": "b"}, {"slot": "v", "agent": "v#1", "turn": 1}),
        ("run_end", {"usage_totals": {"prompt_tokens": 3, "completion_tokens": 4}}, {}),
    ]
    for kind, payload, scope in calls:
        recorder.record(kind, payload, **scope)
    return calls


def _expected_lines(lines: list[bytes], calls: list[tuple]) -> list[bytes]:
    expected = []
    for line, (kind, payload, scope) in zip(lines, calls):
        event = _event(line, "run-1", kind, payload, **scope)
        expected.append(dump_utf8(event) + b"\n")
    return expected


def test_short_writes_still_write_whole_lines(tmp_path, monkeypatch) -> None:
    path = tmp_path / "t.jsonl"
    write = os.write
    sizes = []

    def short_write(fd, data):
        sizes.append(len(data))
        return write(fd, bytes(data[:7]))

    recorder = TrajectoryRecorder(path, "run-1")
    monkeypatch.setattr(os, "write", short_write)
    calls = _record_mix(recorder)
    monkeypatch.setattr(os, "write", write)
    recorder.close()
    assert len(sizes) > 10 * len(calls)  # every line took many writes
    lines = path.read_bytes().splitlines(keepends=True)
    assert lines == _expected_lines(lines, calls)


def test_each_event_is_one_write_before_record_returns(tmp_path, monkeypatch) -> None:
    path = tmp_path / "t.jsonl"
    write = os.write
    writes = []
    on_disk = []

    def counted_write(fd, data):
        writes.append(bytes(data))
        return write(fd, data)

    recorder = TrajectoryRecorder(path, "run-1")
    monkeypatch.setattr(os, "write", counted_write)
    original = recorder.record

    def record(*args, **kwargs):
        seq = original(*args, **kwargs)
        on_disk.append(path.read_bytes())
        return seq

    recorder.record = record
    calls = _record_mix(recorder)
    monkeypatch.setattr(os, "write", write)
    recorder.close()
    lines = path.read_bytes().splitlines(keepends=True)
    assert writes == lines == _expected_lines(lines, calls)
    assert on_disk == [b"".join(lines[:n]) for n in range(1, len(calls) + 1)]


def test_lines_stay_exact_under_threads(tmp_path) -> None:
    """Threads share the recorder's encoder and its per-conversation parts,
    and some of their payloads fail to encode."""
    path = tmp_path / "t.jsonl"
    recorder = TrajectoryRecorder(path, "run-1")
    recorded: dict[int, tuple] = {}
    failures = []

    def work(index: int) -> None:
        for i in range(60):
            scope = {"slot": f"s{index % 3}", "agent": f"a\u00e9#{index}", "turn": i + 1,
                     "usage": TokenUsage(i, index)}
            payload = {"content": f"w{index}-{i} " + "\u65e5" * (i % 5), "n": [i, {"k": i}]}
            if i % 7 == 3:
                payload["bad"] = [object()]
                try:
                    recorder.record("turn", payload, **scope)
                except TypeError:
                    failures.append(index)
                continue
            recorded[recorder.record("turn", payload, **scope)] = ("turn", payload, scope)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    recorder.close()
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(failures) == 8 * 9
    assert sorted(recorded) == list(range(1, len(lines) + 1)) and len(lines) == 8 * 51
    calls = [recorded[seq] for seq in range(1, len(lines) + 1)]
    assert lines == _expected_lines(lines, calls)
    assert recorder.usage_totals() == TokenUsage(
        sum(scope["usage"].prompt_tokens for _, _, scope in calls),
        sum(scope["usage"].completion_tokens for _, _, scope in calls),
    )


def test_every_harness_line_is_its_json_round_trip(tmp_path, monkeypatch) -> None:
    """What the harness writes, line by line, is what json.dumps writes for
    the event the line decodes to: the envelope built from parts drifts from
    nothing json would write."""
    monkeypatch.setenv("EVO_HOME", str(tmp_path / "home"))
    manifests = [FIXTURES / "golden" / f"{name}.yaml" for name in
                 ("draft_improve", "planner_executor", "research", "solve_critique")]
    manifests += sorted((FIXTURES / "configs").glob("adversarial_*.yaml"))
    manifests.append(web_search_manifest(tmp_path))
    kinds = set()
    for index, manifest in enumerate(manifests):
        config = load_config(manifest)
        config.experiment.output_dir = str(tmp_path / "runs" / str(index))
        lines = Path(run_experiment(config).trajectory_path).read_bytes().splitlines(True)
        assert lines
        for line in lines:
            event = json.loads(line)
            assert line == (json.dumps(event, ensure_ascii=False) + "\n").encode(), manifest
            kinds.add(event["kind"])
    assert len(manifests) == 7
    assert {"turn", "observation", "critique", "compression", "promotion"} <= kinds


# -- replay ---------------------------------------------------------------------


def _write_valid_trajectory(path) -> list[dict]:
    recorder = TrajectoryRecorder(path, "run-x")
    recorder.record("run_start", {"config_snapshot": {}})
    recorder.record(
        "turn", {"content": "go", "finish": "tool_call",
                 "tool_calls": [{"id": "call-0-0", "tool": "exec", "arguments": {}}]},
        slot="w", agent="w", turn=1, usage=TokenUsage(2, 3),
    )
    recorder.record(
        "observation",
        {"action_id": "call-0-0", "status": "ok", "duration_ms": 4, "content": "hi"},
        slot="w", agent="w", turn=1,
    )
    recorder.record("turn", {"content": "FINAL: hi", "finish": "stop"}, slot="w", agent="w", turn=2,
                    usage=TokenUsage(5, 1))
    recorder.record(
        "run_end",
        {"status": "ok", "usage_totals": {"prompt_tokens": 7, "completion_tokens": 4}},
    )
    recorder.close()
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_replay_accepts_valid_trajectory(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    _write_valid_trajectory(path)
    report = replay(path)
    assert report.complete
    assert report.violations == []
    assert report.events == 5
    assert "w/w" in report.transcripts
    assert [t["turn"] for t in report.transcripts["w/w"] if t["kind"] == "turn"] == [1, 2]


def test_deleted_observation_is_unpaired_action(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    _write_valid_trajectory(path)
    lines = path.read_text().splitlines()
    kept = [line for line in lines if '"observation"' not in line]
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    report = replay(path)
    assert not report.complete
    assert any("unpaired action call-0-0" in v for v in report.violations)


def test_usage_mismatch_detected(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    events = _write_valid_trajectory(path)
    events[-1]["payload"]["usage_totals"]["prompt_tokens"] = 999
    path.write_text("\n".join(json.dumps(e) for e in events) + "\n", encoding="utf-8")
    report = replay(path)
    assert any("usage totals mismatch" in v for v in report.violations)


def test_truncated_final_line_is_corrupt(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    _write_valid_trajectory(path)
    text = path.read_text()
    path.write_text(text[:-10], encoding="utf-8")
    with pytest.raises(TrajectoryCorrupt) as excinfo:
        replay(path)
    assert "line 5" in str(excinfo.value)


def test_replay_violation_wording_and_order(tmp_path) -> None:
    def event(seq, kind, payload=None, slot=None, agent=None, turn=None, usage=None):
        return {"seq": seq, "ts": 0.0, "run_id": "r", "slot": slot, "agent": agent,
                "kind": kind, "turn": turn, "payload": payload, "usage": usage}

    w = {"slot": "w", "agent": "w#1"}
    events = [
        event(1, "run_start", {}),
        event(2, "run_start", {}),
        event(3, "turn", {"content": "a", "tool_calls": [{"id": "call-b"}]}, turn=1,
              usage={"prompt_tokens": 2, "completion_tokens": 3}, **w),
        event(4, "turn", {"content": "c", "tool_calls": [{"id": "call-a"}]},
              slot="v", agent="v#1", turn=1),
        event(6, "observation", {"action_id": "ghost", "content": "?"}, turn=1, **w),
        event(7, "turn", {"content": "b"}, turn=3,
              usage={"prompt_tokens": 1, "completion_tokens": 1}, **w),
        event(9, "run_end", {"usage_totals": {"prompt_tokens": 9, "completion_tokens": 4}}),
    ]
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
    report = replay(path)
    assert (report.complete, report.events) == (False, 7)
    assert report.violations == [
        "sequence numbers are not gap-free 1..7: [1, 2, 3, 4, 6, 7, 9]",
        "expected exactly one run_start at seq 1",
        "unpaired action call-b in slot w (x1)",
        "unpaired action call-a in slot v (x1)",
        "orphan observation ghost in slot w (x1)",
        "usage totals mismatch: events sum to (3, 4), run_end says (9, 4)",
        "turn numbers not contiguous for ('w', 'w#1'): [1, 3]",
    ]
    assert report.transcripts == {
        "w/w#1": [
            {"kind": "turn", "turn": 1, "content": "a"},
            {"kind": "observation", "turn": 1, "content": "?"},
            {"kind": "turn", "turn": 3, "content": "b"},
        ],
        "v/v#1": [{"kind": "turn", "turn": 1, "content": "c"}],
    }


def _engine_lines(tmp_path, calls: int, turns: int = 3) -> list[str]:
    """A trajectory the engine writes for one scripted run of ``turns`` turns,
    each listing ``calls`` file reads. A one-entry script repeats its ids every
    turn: ``call-0-0``, ``call-0-1``, ..."""
    read = {"name": "file_read", "arguments": {"path": "missing.txt"}}
    gateway = scripted_gateway(tmp_path, m=[{"content": "look", "tool_calls": [read] * calls}])
    spec = AgentSpec("agent", "You are a test agent.", "m", tool_names=("file_read",),
                     max_turns=turns, critique_every=99)
    path = tmp_path / "engine.jsonl"
    with TrajectoryRecorder(path, "run-e") as recorder:
        recorder.record("run_start", {})
        services = make_services(tmp_path, gateway, recorder=recorder)
        AgentRun.start("task", spec, services).run_to_end()
        recorder.record("run_end", {"usage_totals": recorder.usage_totals().as_dict()})
    lines = path.read_text(encoding="utf-8").splitlines()
    assert replay(path).complete
    return lines


def _replay_events(tmp_path, events: list[dict]):
    """Replay ``events`` written in order with their seqs renumbered."""
    path = tmp_path / "mutated.jsonl"
    for seq, event in enumerate(events, start=1):
        event["seq"] = seq
    path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
    return replay(path)


def _observation_index(events: list[dict], turn: int) -> int:
    return next(i for i, e in enumerate(events) if e["kind"] == "observation"
                and e["turn"] == turn)


@pytest.mark.parametrize("edited_turn", [1, 3])
def test_observation_edited_to_another_turn_listing_its_id(tmp_path, edited_turn) -> None:
    events = [json.loads(line) for line in _engine_lines(tmp_path, calls=1)]
    assert {c["id"] for e in events if e["kind"] == "turn"
            for c in e["payload"]["tool_calls"]} == {"call-0-0"}
    events[_observation_index(events, 2)]["turn"] = edited_turn
    report = _replay_events(tmp_path, events)
    assert report.violations == [
        "unpaired action call-0-0 in slot None (x1)",
        "orphan observation call-0-0 in slot None (x1)",
    ]


def test_observation_moved_before_its_turn(tmp_path) -> None:
    events = [json.loads(line) for line in _engine_lines(tmp_path, calls=1)]
    observation = events.pop(_observation_index(events, 2))
    turn = next(i for i, e in enumerate(events) if e["kind"] == "turn" and e["turn"] == 2)
    events.insert(turn, observation)
    report = _replay_events(tmp_path, events)
    assert report.violations == [
        "unpaired action call-0-0 in slot None (x1)",
        "orphan observation call-0-0 in slot None (x1)",
    ]


def test_turn_with_two_calls_and_one_observation_deleted(tmp_path) -> None:
    events = [json.loads(line) for line in _engine_lines(tmp_path, calls=2)]
    assert [c["id"] for c in events[1]["payload"]["tool_calls"]] == ["call-0-0", "call-0-1"]
    second = next(i for i, e in enumerate(events) if e["kind"] == "observation"
                  and e["turn"] == 2 and e["payload"]["action_id"] == "call-0-1")
    del events[second]
    report = _replay_events(tmp_path, events)
    assert report.violations == ["unpaired action call-0-1 in slot None (x1)"]
    report = _replay_events(tmp_path, [e for e in events if e["kind"] != "observation"])
    assert report.violations == ["unpaired action call-0-0 in slot None (x3)",
                                 "unpaired action call-0-1 in slot None (x3)"]


def test_trajectory_with_a_tool_call_event_is_corrupt(tmp_path) -> None:
    """The recorder lists each call in its turn event only; a line of the
    ``tool_call`` kind, which no recorder writes, is no event."""
    events = [json.loads(line) for line in _engine_lines(tmp_path, calls=2)]
    index = _observation_index(events, 1)
    call = events[index - 1]["payload"]["tool_calls"][0]
    events.insert(index, dict(events[index], kind="tool_call", payload=call))
    with pytest.raises(TrajectoryCorrupt, match=f"^line {index + 1}: kind is not an event kind$"):
        _replay_events(tmp_path, events)


# Line edits that give a line a shape no recorder writes.
BAD_SHAPES = [
    *(("payload", value) for value in ("x", 2, [])),
    *(("usage", value) for value in ("x", 2, [])),
    *((key, value) for key in ("slot", "agent") for value in ([], {}, 2)),
    *(("usage", {"prompt_tokens": value}) for value in ("7", 1.5, None, True)),
    ("usage", {"prompt_tokens": 1, "completion_tokens": "1"}),
    *(("seq", value) for value in (None, True, 2.0, "2")),
    *(("turn", value) for value in (True, 1.0, "1", [])),
    *(("kind", value) for value in (None, 3, ["turn"], "Turn", "critic", "tool_calls")),
]


def test_bad_line_shapes_are_trajectory_corrupt(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("EVO_HOME", str(tmp_path / "home"))
    config = load_config(FIXTURES / "golden/research.yaml")
    config.experiment.output_dir = str(tmp_path / "runs")
    trajectory = Path(run_experiment(config).trajectory_path)
    lines = trajectory.read_text(encoding="utf-8").splitlines()
    mutated = tmp_path / "mutated.jsonl"
    for index in range(len(lines)):
        for key, value in BAD_SHAPES:
            event = json.loads(lines[index])
            event[key] = value
            edited = [*lines[:index], json.dumps(event), *lines[index + 1:]]
            mutated.write_text("\n".join(edited) + "\n", encoding="utf-8")
            with pytest.raises(TrajectoryCorrupt, match=f"^line {index + 1}: "):
                replay(mutated)
    assert main(["replay", "--trajectory", str(mutated)]) == 3


def _research_lines(tmp_path, monkeypatch) -> list[str]:
    monkeypatch.setenv("EVO_HOME", str(tmp_path / "home"))
    config = load_config(FIXTURES / "golden/research.yaml")
    config.experiment.output_dir = str(tmp_path / "runs")
    trajectory = Path(run_experiment(config).trajectory_path)
    return trajectory.read_text(encoding="utf-8").splitlines()


def _assert_edit_is_corrupt(tmp_path, capsys, lines, index, edit, message) -> None:
    """Replacing line ``index`` with ``edit`` of its event is TrajectoryCorrupt."""
    event = json.loads(lines[index])
    edit(event)
    mutated = tmp_path / "mutated.jsonl"
    edited = [*lines[:index], json.dumps(event), *lines[index + 1:]]
    mutated.write_text("\n".join(edited) + "\n", encoding="utf-8")
    with pytest.raises(TrajectoryCorrupt, match=f"^line {index + 1}: {message}$"):
        replay(mutated)
    assert main(["replay", "--trajectory", str(mutated)]) == 3
    assert f"trajectory corrupt: line {index + 1}: " in capsys.readouterr().err


@pytest.mark.parametrize("value", [[], {}], ids=["array", "object"])
def test_action_id_that_cannot_be_paired_is_corrupt(tmp_path, monkeypatch, capsys,
                                                     value) -> None:
    lines = _research_lines(tmp_path, monkeypatch)
    events = [json.loads(line) for line in lines]
    calling = next(i for i, e in enumerate(events) if e["kind"] == "turn"
                   and e["payload"]["tool_calls"])
    observing = next(i for i, e in enumerate(events) if e["kind"] == "observation")

    def call_id(event):
        event["payload"]["tool_calls"][0]["id"] = value

    def action_id(event):
        event["payload"]["action_id"] = value

    _assert_edit_is_corrupt(tmp_path, capsys, lines, calling, call_id,
                            "tool_calls id is an array or object")
    _assert_edit_is_corrupt(tmp_path, capsys, lines, observing, action_id,
                            "action_id is an array or object")


@pytest.mark.parametrize("value", ["exec", {}, None, 2, ["exec"], [[]], [{"id": "a"}, 1]])
def test_turn_whose_tool_calls_are_not_objects_is_corrupt(tmp_path, monkeypatch, capsys,
                                                          value) -> None:
    lines = _research_lines(tmp_path, monkeypatch)
    turn = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "turn")

    def tool_calls(event):
        event["payload"]["tool_calls"] = value

    _assert_edit_is_corrupt(tmp_path, capsys, lines, turn, tool_calls,
                            "tool_calls is not an array of objects")


def test_byte_that_is_not_utf8_is_corrupt(tmp_path, capsys) -> None:
    path = tmp_path / "t.jsonl"
    recorder = TrajectoryRecorder(path, "run-x")
    recorder.record("run_start", {})
    recorder.record("turn", {"content": "caf\u00e9 \u65e5\u672c \u2028 \U0001f600"}, slot="w",
                    turn=1)
    recorder.record("run_end", {"usage_totals": {"prompt_tokens": 0, "completion_tokens": 0}})
    recorder.close()
    report = replay(path)
    assert report.complete
    assert report.transcripts["w"][0]["content"] == "caf\u00e9 \u65e5\u672c \u2028 \U0001f600"

    data = path.read_bytes()
    path.write_bytes(data.replace("\u00e9".encode(), b"\xff"))
    with pytest.raises(TrajectoryCorrupt, match="^line 2: .*0xff"):
        replay(path)
    with pytest.raises(TrajectoryCorrupt, match="^line 2: "):
        masked_lines(path)
    assert main(["replay", "--trajectory", str(path)]) == 3
    assert "trajectory corrupt: line 2: " in capsys.readouterr().err


def _write_long_trajectory(path, turns: int) -> None:
    """A long single-agent run: a turn listing one tool call and its
    observation per turn, and critiques.

    Every action id is distinct, as an HTTP provider's are.
    """
    recorder = TrajectoryRecorder(path, "long-run-20260101-000000-a1b2c3")
    recorder.record("run_start", {"config_snapshot": {"task": "survey"}})
    scope = {"slot": "researcher", "agent": "researcher#1"}
    for turn in range(1, turns + 1):
        call = {"id": f"call_{turn:024x}", "tool": "web_search",
                "arguments": {"query": f"q-{turn:04d}"}}
        recorder.record("turn", {"content": f"note {turn} " + "n" * 120, "finish": "tool_call",
                                 "tool_calls": [call]},
                        turn=turn, usage=TokenUsage(70 + turn, 37), **scope)
        recorder.record("observation", {"action_id": call["id"], "status": "ok", "duration_ms": 0,
                                        "content": f"result {turn} " + "r" * 640},
                        turn=turn, **scope)
        if turn % 10 == 0:
            recorder.record("critique", {"content": f"critique {turn} " + "c" * 120},
                            turn=turn, usage=TokenUsage(2000, 36), **scope)
    totals = recorder.usage_totals()
    recorder.record("run_end", {"status": "partial", "usage_totals": totals.as_dict()})
    recorder.close()


def test_replay_memory_stays_below_the_file_size(tmp_path) -> None:
    path = tmp_path / "long.jsonl"
    _write_long_trajectory(path, 1620)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        report = replay(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.complete and report.events > 3400
    assert peak < size, f"replay peaked at {peak} B for a {size} B trajectory"


def test_mask_volatile_hides_documented_fields() -> None:
    event = {
        "seq": 1,
        "ts": 123.4,
        "run_id": "r",
        "payload": {"duration_ms": 9, "nested": [{"wall_seconds": 1.2, "keep": "x"}]},
    }
    masked = mask_volatile(event)
    assert masked["ts"] == "<masked>"
    assert masked["run_id"] == "<masked>"
    assert masked["payload"]["duration_ms"] == "<masked>"
    assert masked["payload"]["nested"][0]["wall_seconds"] == "<masked>"
    assert masked["payload"]["nested"][0]["keep"] == "x"
    assert event["ts"] == 123.4  # original untouched


def test_masked_lines_equal_for_identical_content(tmp_path) -> None:
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_valid_trajectory(a)
    _write_valid_trajectory(b)
    assert masked_lines(a) == masked_lines(b)
