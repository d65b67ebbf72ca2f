from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

from evokit import gateway, skills
from evokit.harness import (
    from_dict,
    load_config,
    masked_lines,
    replay,
    run_experiment,
)
from evokit.harness.runner import cache_root_for
from helpers import FIXTURES


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


def test_same_seed_same_masked_trajectory(tmp_path) -> None:
    # Identical config means identical output_dir too; run_id subdirectories
    # keep the two runs apart.
    first = run_experiment(_load("golden/planner_executor.yaml", tmp_path))
    second = run_experiment(_load("golden/planner_executor.yaml", tmp_path))
    assert masked_lines(first.trajectory_path) == masked_lines(second.trajectory_path)


def test_cache_root_env_override(tmp_path, monkeypatch) -> None:
    config = _load("configs/min.yaml", tmp_path)
    assert cache_root_for(config) == tmp_path / "cache"
    monkeypatch.setenv("EVO_HOME", str(tmp_path / "elsewhere"))
    assert cache_root_for(config) == tmp_path / "elsewhere"


def test_seed_override_lands_in_snapshot(tmp_path) -> None:
    config = _load("configs/min.yaml", tmp_path)
    config.experiment.seed = 777
    record = run_experiment(config)
    assert record.config_snapshot["experiment"]["seed"] == 777
