from __future__ import annotations

import json
import os
import re
import time
import warnings
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from evokit import gateway, skills
from evokit.harness import (
    TrajectoryRecorder,
    from_dict,
    load_config,
    masked_lines,
    replay,
    run_experiment,
)
from evokit.harness.runner import ExperimentRecord, _write_record, cache_root_for
from evokit.playgrounds import CognitiveCache
from helpers import FIXTURES, write_script
from stubs import ChatCompletionsStub


@pytest.fixture(autouse=True)
def _no_evo_home(monkeypatch):
    monkeypatch.delenv("EVO_HOME", raising=False)


def _load(name: str, out_dir: Path):
    config = load_config(FIXTURES / name)
    config.experiment.output_dir = str(out_dir)
    return config


def test_min_run_completes_and_replays(tmp_path) -> None:
    record = run_experiment(_load("configs/min.yaml", tmp_path))
    assert record.status == "ok"
    assert record.result is not None
    assert record.result.final_answer == "pong"

    run_dir = Path(record.run_dir)
    assert (run_dir / "trajectory.jsonl").is_file()
    assert (run_dir / "record.json").is_file()
    assert (run_dir / "workspace").is_dir()

    report = replay(record.trajectory_path)
    assert report.complete, report.violations

    saved = json.loads((run_dir / "record.json").read_text())
    assert saved["status"] == "ok"
    assert saved["result"]["final_answer"] == "pong"


def test_an_empty_final_answer_is_a_failed_run_not_an_error(tmp_path) -> None:
    snapshot = load_config(FIXTURES / "configs/min.yaml").to_dict()
    script = write_script(tmp_path, "empty.script", [{"content": "FINAL:"}])
    snapshot["llm"]["profiles"][0]["script_path"] = str(script)
    snapshot["experiment"]["output_dir"] = str(tmp_path / "runs")
    record = run_experiment(from_dict(snapshot))
    saved = json.loads(Path(record.record_path).read_text(encoding="utf-8"))
    assert (saved["status"], saved["result"]["status"]) == ("failed", "failed")
    assert saved["result"]["final_answer"] == ""
    events = [json.loads(line) for line in Path(record.trajectory_path).read_text().splitlines()]
    assert not [e for e in events if e["kind"] == "error"]


def test_run_start_snapshot_revalidates(tmp_path) -> None:
    for name in ("configs/min.yaml", "configs/skills.yaml"):
        record = run_experiment(_load(name, tmp_path))
        first_line = Path(record.trajectory_path).read_text().splitlines()[0]
        snapshot = json.loads(first_line)["payload"]["config_snapshot"]
        rebuilt = from_dict(snapshot)
        assert rebuilt.to_dict() == snapshot


def _counting(counts: Counter, key: str, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize(
    ("name", "scripts", "skill_files"),
    [("golden/draft_improve.yaml", 4, 0), ("configs/skills.yaml", 1, 4)],
)
def test_each_input_parsed_once_per_load_and_run(
    tmp_path, monkeypatch, name, scripts, skill_files
) -> None:
    counts: Counter = Counter()
    monkeypatch.setattr(gateway, "parse_script", _counting(counts, "script", gateway.parse_script))
    monkeypatch.setattr(
        skills, "_parse_manifest", _counting(counts, "skill", skills._parse_manifest)
    )
    record = run_experiment(_load(name, tmp_path))
    assert record.status == "ok"
    assert (counts["script"], counts["skill"]) == (scripts, skill_files)


def test_script_edited_after_load_does_not_change_the_run(tmp_path) -> None:
    # Each profile plays its script back as load parsed it.
    snapshot = load_config(FIXTURES / "golden/draft_improve.yaml").to_dict()
    copies = []
    for profile in snapshot["llm"]["profiles"]:
        copy = tmp_path / "scripts" / Path(profile["script_path"]).name
        copy.parent.mkdir(exist_ok=True)
        copy.write_text(Path(profile["script_path"]).read_text(), encoding="utf-8")
        profile["script_path"] = str(copy)
        copies.append(copy)
    snapshot["experiment"]["output_dir"] = str(tmp_path / "runs")
    config = from_dict(snapshot)
    for copy in copies:
        copy.write_text("not a script", encoding="utf-8")
    record = run_experiment(config)
    golden = (FIXTURES / "golden/answers/draft_improve.txt").read_text(encoding="utf-8")
    assert record.status == "ok"
    assert record.result is not None and record.result.final_answer == golden


@pytest.mark.parametrize(
    "name", ["planner_executor", "draft_improve", "research", "solve_critique"]
)
def test_record_json_result_is_the_playground_result(tmp_path, name) -> None:
    record = run_experiment(_load(f"golden/{name}.yaml", tmp_path))
    saved = json.loads(Path(record.record_path).read_text(encoding="utf-8"))
    assert record.result is not None
    assert saved["result"] == asdict(record.result)
    assert list(saved["result"]) == ["final_answer", "status", "per_slot_outcomes", "rounds_used"]


RECORD_KEYS = ["run_id", "status", "wall_seconds", "trajectory_path", "result"]


def _masker(record, out_dir: Path):
    """A function that masks the run id and checkout paths in a parsed JSON value."""
    subs = [(record.run_id, "<run_id>"), (str(out_dir), "<out>"), (str(FIXTURES), "<fixtures>")]

    def mask(value):
        if isinstance(value, dict):
            return {k: mask(v) for k, v in value.items()}
        if isinstance(value, list):
            return [mask(v) for v in value]
        if isinstance(value, str):
            for old, new in subs:
                value = value.replace(old, new)
        return value

    return mask


def _masked_record(record, out_dir: Path) -> dict:
    """record.json parsed, with the run id, wall_seconds and checkout paths masked."""
    saved = json.loads(Path(record.record_path).read_bytes())
    saved["wall_seconds"] = "<masked>"
    return _masker(record, out_dir)(saved)


def _run_start_snapshot(record) -> dict:
    """The config snapshot the trajectory's run_start event carries."""
    with open(record.trajectory_path, encoding="utf-8") as handle:
        first = json.loads(handle.readline())
    assert first["kind"] == "run_start"
    return first["payload"]["config_snapshot"]


@pytest.mark.parametrize(
    "name", ["planner_executor", "draft_improve", "research", "solve_critique"]
)
def test_record_json_is_one_compact_line(tmp_path, name) -> None:
    record = run_experiment(_load(f"golden/{name}.yaml", tmp_path))
    raw = Path(record.record_path).read_bytes()
    saved = json.loads(raw)
    assert list(saved) == RECORD_KEYS
    assert raw == json.dumps(saved, ensure_ascii=False).encode("utf-8") + b"\n"
    assert raw.count(b"\n") == 1
    # The indented record.json of earlier releases, whose config snapshot now
    # lives only in the trajectory's run_start event.
    expected = json.loads((FIXTURES / "golden/records.json").read_text(encoding="utf-8"))
    pinned_snapshot = expected[name].pop("config_snapshot")
    assert _masked_record(record, tmp_path) == expected[name]
    assert _masker(record, tmp_path)(_run_start_snapshot(record)) == pinned_snapshot


def test_readme_names_exactly_the_record_keys(tmp_path) -> None:
    record = ExperimentRecord(
        run_id="r", status="ok", wall_seconds=0.0, trajectory_path="t",
        record_path=str(tmp_path / "record.json"), run_dir=str(tmp_path),
    )
    _write_record(record)
    written = list(json.loads(Path(record.record_path).read_bytes()))
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = re.search(
        r"`record\.json` is one\s+compact JSON line.*?holding(.*?), in that\s+order",
        readme,
        re.DOTALL,
    )
    assert sentence is not None
    assert re.findall(r"`(\w+)`", sentence.group(1)) == written == RECORD_KEYS


def test_run_id_collision_draws_a_fresh_id(tmp_path, monkeypatch) -> None:
    # Two runs of one manifest in one second that draw the same three random
    # bytes get the same run id; the second must not write into the first's dir.
    real_urandom, real_strftime = os.urandom, time.strftime
    repeats = [b"\xab\xcd\xef"] * 2
    monkeypatch.setattr(
        os, "urandom", lambda n: repeats.pop() if n == 3 and repeats else real_urandom(n)
    )
    monkeypatch.setattr(
        time, "strftime",
        lambda fmt, *args: "20260101-000000" if not args else real_strftime(fmt, *args),
    )
    first = run_experiment(_load("golden/planner_executor.yaml", tmp_path))
    second = run_experiment(_load("golden/planner_executor.yaml", tmp_path))
    assert first.run_id.endswith("-20260101-000000-abcdef")
    assert second.run_id != first.run_id
    assert second.run_dir != first.run_dir
    for record in (first, second):
        assert record.status == "ok"
        report = replay(record.trajectory_path)
        assert report.complete, report.violations
        saved = json.loads(Path(record.record_path).read_bytes())
        assert saved["run_id"] == record.run_id


def test_empty_output_dir_is_the_working_directory(tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    record = run_experiment(_load("configs/min.yaml", ""))
    assert record.status == "ok"
    assert record.run_dir == record.run_id
    assert (tmp_path / record.run_id / "record.json").is_file()


def test_a_run_makes_each_directory_with_one_mkdir(tmp_path, monkeypatch) -> None:
    calls: list[str] = []
    failures: list[tuple[str, str]] = []
    real_mkdir = os.mkdir

    def counting_mkdir(path, *args, **kwargs):
        calls.append(os.fspath(path))
        try:
            real_mkdir(path, *args, **kwargs)
        except OSError as exc:
            failures.append((os.fspath(path), type(exc).__name__))
            raise

    home, out = tmp_path / "home", tmp_path / "out"
    monkeypatch.setenv("EVO_HOME", str(home))
    config = _load("golden/draft_improve.yaml", out)
    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    record = run_experiment(config)
    assert record.status == "ok"
    created = [str(root) for root in (home, out)] + [
        os.path.join(parent, name)
        for root in (home, out)
        for parent, names, _ in os.walk(root)
        for name in names
    ]
    # output_dir and run dir (no workspace: the manifest installs no tool that
    # works in one); cache root, runs, runs/<id>, rounds and wisdom.
    assert len(created) == 7
    assert sorted(calls) == sorted(created)
    assert failures == []

    # Writing again into directories that exist makes none.
    calls.clear()
    cache = CognitiveCache(home, record.run_id)
    assert cache.prefetch("task") == [record.result.final_answer]
    cache.promote_round(1, "again")
    TrajectoryRecorder(os.path.join(record.run_dir, "again.jsonl"), "again").close()
    assert calls == []


@pytest.mark.parametrize(
    "builtin, made",
    [
        ([], False),
        (["web_search", "web_fetch", "pdf_extract"], False),
        (["exec"], True),
        (["file_read"], True),
        (["web_search", "file_write"], True),
    ],
    ids=["none", "retrieval_only", "exec", "file_read", "file_write"],
)
def test_a_run_makes_a_workspace_only_for_the_tools_that_work_in_it(
    tmp_path, builtin, made
) -> None:
    manifest = load_config(FIXTURES / "configs/min.yaml").to_dict()
    manifest["experiment"]["output_dir"] = str(tmp_path)
    manifest["tools"]["builtin"] = builtin
    record = run_experiment(from_dict(manifest))
    assert record.status == "ok"
    assert (Path(record.run_dir) / "workspace").is_dir() is made


def test_file_tools_work_in_the_workspace_the_run_makes(tmp_path) -> None:
    script = write_script(tmp_path, "w.script", [
        {"content": "", "tool_calls": [
            {"name": "file_write", "arguments": {"path": "notes/a.txt", "content": "kept"}},
        ]},
        {"content": "", "tool_calls": [
            {"name": "file_read", "arguments": {"path": "notes/a.txt"}},
        ]},
        {"content": "FINAL: {{last}}"},
    ])
    record = run_experiment(from_dict({
        "experiment": {"name": "files", "task": "Write.", "output_dir": str(tmp_path / "runs")},
        "llm": {"profiles": [{"name": "m", "provider": "scripted", "model": "m",
                              "script_path": str(script)}]},
        "tools": {"builtin": ["file_write", "file_read"]},
        "playground": {"name": "sequential_handoff", "params": {}, "slots": [
            {"slot_name": "w", "role": "worker", "llm_profile": "m", "max_turns": 3,
             "critique_every": 99, "tools": ["file_write", "file_read"]}]},
    }))
    assert record.status == "ok"
    assert record.result is not None and record.result.final_answer == "kept"
    assert (Path(record.run_dir) / "workspace/notes/a.txt").read_text(encoding="utf-8") == "kept"


def test_reply_nested_past_the_decoder_limit_is_recorded_and_retried(tmp_path) -> None:
    with ChatCompletionsStub(raw_body=b"[" * 100_000) as stub:
        record = run_experiment(from_dict({
            "experiment": {"name": "deep", "task": "Answer.", "output_dir": str(tmp_path)},
            "llm": {"profiles": [{"name": "m", "provider": "http-openai-compatible",
                                  "model": "m", "base_url": stub.url}]},
            "tools": {"builtin": []},
            "playground": {"name": "sequential_handoff", "params": {}, "slots": [
                {"slot_name": "w", "role": "worker", "llm_profile": "m", "max_turns": 2}]},
        }))
        assert len(stub.requests) == 2  # the call and its one retry
    events = [json.loads(line) for line in Path(record.trajectory_path).read_text().splitlines()]
    errors = [e["payload"] for e in events if e["kind"] == "error"]
    assert [e.get("retrying") for e in errors] == [True, None]
    assert all(e["error"].startswith("malformed provider response: ") for e in errors)
    assert record.result is not None
    assert record.result.per_slot_outcomes["w"].status == "error"
    assert record.status == "failed"
    report = replay(record.trajectory_path)
    assert report.complete, report.violations


def test_reply_with_a_lone_surrogate_is_recorded_and_replays(tmp_path) -> None:
    # A lone surrogate is legal in JSON text but has no UTF-8 form.
    reply = {"choices": [{"message": {"content": "FINAL: a\ud800b"}, "finish_reason": "stop"}],
             "usage": {"prompt_tokens": 5, "completion_tokens": 2}}
    with ChatCompletionsStub(reply=reply) as stub:
        record = run_experiment(from_dict({
            "experiment": {"name": "surrogate", "task": "Answer.", "output_dir": str(tmp_path)},
            "llm": {"profiles": [{"name": "m", "provider": "http-openai-compatible",
                                  "model": "m", "base_url": stub.url}]},
            "tools": {"builtin": []},
            "playground": {"name": "sequential_handoff", "params": {}, "slots": [
                {"slot_name": "w", "role": "worker", "llm_profile": "m", "max_turns": 2}]},
        }))
    assert record.status == "ok"
    assert record.result is not None and record.result.final_answer == "a\ud800b"
    saved = json.loads(Path(record.record_path).read_text(encoding="utf-8"))
    assert saved["result"]["final_answer"] == "a\ud800b"
    report = replay(record.trajectory_path)
    assert report.complete, report.violations
    assert report.transcripts["w/w#1"][0]["content"] == "FINAL: a\ud800b"


def test_wall_clock_timeout_enforced(tmp_path) -> None:
    config = _load("configs/timeout.yaml", tmp_path)
    t0 = time.monotonic()
    record = run_experiment(config)
    elapsed = time.monotonic() - t0
    assert record.status == "timeout"
    assert elapsed <= 2.5
    assert record.wall_seconds <= 2.5
    events = [json.loads(line) for line in Path(record.trajectory_path).read_text().splitlines()]
    assert events[-1]["kind"] == "run_end"
    assert events[-1]["payload"]["status"] == "timeout"


def test_unknown_playground_becomes_error_status(tmp_path) -> None:
    config = _load("configs/min.yaml", tmp_path)
    config.playground.name = "no_such_pattern"
    record = run_experiment(config)
    assert record.status == "error"
    events = [json.loads(line) for line in Path(record.trajectory_path).read_text().splitlines()]
    assert events[-1]["kind"] == "run_end"
    assert any(e["kind"] == "error" for e in events)


@pytest.mark.parametrize("answer", ["pick \u00b2", "\u2460", "x 1\u00b2 y"])
def test_selector_answer_with_non_decimal_digits_fails(tmp_path, answer) -> None:
    """Superscripts and circled numbers are digits but not decimals: no choice."""
    config = _load("golden/solve_critique.yaml", tmp_path / "runs")
    script = write_script(tmp_path, "selector.script", [{"content": f"FINAL: {answer}"}])
    config.profiles = [replace(p, script_path=str(script)) if p.name == "selector-m" else p
                       for p in config.profiles]
    record = run_experiment(config)
    kinds = [json.loads(line)["kind"] for line in open(record.trajectory_path, encoding="utf-8")]
    assert (record.status, record.result.final_answer) == ("failed", "")
    assert "error" not in kinds


def test_same_seed_same_masked_trajectory(tmp_path) -> None:
    # Identical config means identical output_dir too; run_id subdirectories
    # keep the two runs apart.
    first = run_experiment(_load("golden/planner_executor.yaml", tmp_path))
    second = run_experiment(_load("golden/planner_executor.yaml", tmp_path))
    assert masked_lines(first.trajectory_path) == masked_lines(second.trajectory_path)


def test_cache_root_env_override(tmp_path, monkeypatch) -> None:
    config = _load("configs/min.yaml", tmp_path)
    assert cache_root_for(config) == str(tmp_path / "cache")
    monkeypatch.setenv("EVO_HOME", str(tmp_path / "elsewhere"))
    assert cache_root_for(config) == str(tmp_path / "elsewhere")


def test_cache_holds_each_promotion_once(tmp_path) -> None:
    # The run's wisdom lives in the cross-run store and its promotion event,
    # not in a second copy under the run's own cache directory.
    record = run_experiment(_load("golden/draft_improve.yaml", tmp_path))
    assert record.result is not None and record.result.rounds_used > 0
    cache_root = tmp_path / "cache"
    files = sorted(str(p.relative_to(cache_root)) for p in cache_root.rglob("*") if p.is_file())
    rounds = [
        f"runs/{record.run_id}/rounds/{i:04d}.txt"
        for i in range(1, record.result.rounds_used + 1)
    ]
    assert files == rounds + ["wisdom/0001-wisdom.txt"]

    with open(record.trajectory_path, encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle]
    run_wisdom = [
        e["payload"]["wisdom"]
        for e in events
        if e["kind"] == "promotion" and e["payload"]["tier"] == "run"
    ]
    stored = (cache_root / "wisdom/0001-wisdom.txt").read_text(encoding="utf-8")
    assert run_wisdom == [stored]


def test_seed_override_lands_in_snapshot(tmp_path) -> None:
    config = _load("configs/min.yaml", tmp_path)
    config.experiment.seed = 777
    record = run_experiment(config)
    assert _run_start_snapshot(record)["experiment"]["seed"] == 777


# -- model connections ----------------------------------------------------------------

BRANCHES = 3
ROUNDS = 20
# The drafter's one call, then per round each branch's improver and evaluator.
CALLS = 1 + ROUNDS * BRANCHES * 2


def _tagline_reply(request: dict) -> dict:
    prompt = request["messages"][-1]["content"]
    content = "SCORE: 5" if "SCORE:" in prompt else f"FINAL: tagline {len(prompt)}"
    return {"choices": [{"message": {"content": content}}], "usage": {}}


def _fanout_config(base_url: str, out_dir: Path):
    slots = [
        {"slot_name": name, "role": role, "llm_profile": "m", "max_turns": 1, "critique_every": 99}
        for name, role in [
            ("drafter", "drafter"),
            *((f"imp-{i}", "improver") for i in range(BRANCHES)),
            ("evaluator", "evaluator"),
        ]
    ]
    return from_dict(
        {
            "experiment": {"name": "fanout", "task": "Write a tagline.", "output_dir": str(out_dir)},
            "llm": {
                "profiles": [
                    {"name": "m", "provider": "http-openai-compatible", "model": "m",
                     "base_url": base_url}
                ]
            },
            "tools": {"builtin": []},
            "playground": {"name": "draft_and_improve", "params": {"max_rounds": ROUNDS},
                           "slots": slots},
        }
    )


def _run_fanout(stub, out_dir: Path) -> Counter:
    """Run the fan-out against ``stub``; return the trajectory's event kinds."""
    record = run_experiment(_fanout_config(stub.url, out_dir))
    assert (record.status, record.result.rounds_used) == ("ok", ROUNDS)
    assert len(stub.requests) == CALLS
    lines = Path(record.trajectory_path).read_text(encoding="utf-8").splitlines()
    return Counter(json.loads(line)["kind"] for line in lines)


def _wait_closed(stub, seconds: float = 2.0) -> int:
    deadline = time.monotonic() + seconds
    while stub.open_connections and time.monotonic() < deadline:
        time.sleep(0.01)
    return stub.open_connections


def test_run_reuses_model_connections_and_closes_them(tmp_path) -> None:
    # A socket left for the garbage collector to close warns as it goes.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with ChatCompletionsStub(reply=_tagline_reply, keep_alive=True) as stub:
            kinds = _run_fanout(stub, tmp_path)
            assert stub.connections <= BRANCHES + 1
            assert _wait_closed(stub) == 0
    assert kinds["turn"] == CALLS
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_server_dropping_idle_connections_costs_no_error(tmp_path) -> None:
    with ChatCompletionsStub(reply=_tagline_reply, keep_alive=True, drop_after_reply=True) as stub:
        kinds = _run_fanout(stub, tmp_path)
    assert (kinds["error"], kinds["turn"]) == (0, CALLS)
    assert stub.connections == CALLS


def test_http10_server_gets_a_connection_per_request(tmp_path) -> None:
    with ChatCompletionsStub(reply=_tagline_reply) as stub:
        kinds = _run_fanout(stub, tmp_path)
        assert _wait_closed(stub) == 0
    assert (kinds["error"], kinds["turn"]) == (0, CALLS)
    assert stub.connections == CALLS
