from __future__ import annotations

import json

import pytest
import yaml

import evokit.harness.config as config_module
from evokit.cli import main
from evokit.prompts import DEFAULT_FINAL_MARKER
from evokit.harness import (
    DEFAULT_MAX_WALL_SECONDS,
    ParseError,
    ValidationError,
    from_dict,
    load_config,
)
from helpers import FIXTURES

MIN = FIXTURES / "configs/min.yaml"


def test_minimal_manifest_gets_defaults() -> None:
    config = load_config(MIN)
    assert config.experiment.name == "min"
    assert config.experiment.max_wall_seconds == DEFAULT_MAX_WALL_SECONDS
    assert config.experiment.seed == 1
    assert config.tools.builtin  # default builtin set filled in
    assert config.skills.paths == []
    assert config.playground.slots[0].spec.budget.max_tokens == 8192


def test_default_wall_limit_is_24_hours() -> None:
    assert DEFAULT_MAX_WALL_SECONDS == 86_400


def test_relative_paths_resolve_against_manifest_dir() -> None:
    config = load_config(MIN)
    script = config.profiles[0].script_path
    assert script is not None and script.endswith("scripts/min_worker.script")
    from pathlib import Path

    assert Path(script).is_file()
    assert Path(config.experiment.output_dir).name == "runs"


def test_unresolved_profile_named() -> None:
    with pytest.raises(ValidationError) as excinfo:
        load_config(FIXTURES / "configs/bad-ref.yaml")
    assert "ghost" in str(excinfo.value)


def test_unknown_keys_strict_vs_lenient(tmp_path) -> None:
    text = MIN.read_text(encoding="utf-8") + "\nmystery_section:\n  x: 1\n"
    path = tmp_path / "extra.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError):
        load_config(path)
    # Lenient mode tolerates the unknown section, but the script path now
    # resolves against tmp_path, so point it back at the fixtures.
    fixed = text.replace("../scripts", str(FIXTURES / "scripts"))
    path.write_text(fixed, encoding="utf-8")
    config = load_config(path, lenient=True)
    assert config.experiment.name == "min"


def test_parse_error_reports_location(tmp_path) -> None:
    path = tmp_path / "broken.yaml"
    path.write_text("experiment: [unclosed\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_config(path)
    assert "line" in str(excinfo.value)


# libyaml's loader where PyYAML has it; the pure-Python loader always.
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
MANIFESTS = sorted(FIXTURES.rglob("*.yaml"))


def _load_with(monkeypatch, loader: type, path) -> object:
    """``load_config(path)`` parsed by ``loader``: the config, or the error it raised."""
    monkeypatch.setattr(config_module, "_LOADER", loader)
    try:
        return load_config(path)
    except (ParseError, ValidationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_libyaml_loader_in_use_when_available() -> None:
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert config_module._LOADER is expected


@pytest.fixture
def json_manifest(tmp_path):
    """A manifest written the way perfbench writes them: indented JSON."""
    path = tmp_path / "manifest.yaml"
    path.write_text(json.dumps(_min_data(), indent=1), encoding="utf-8")
    return path


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize(
    "path",
    [*MANIFESTS, "json_manifest"],
    ids=lambda p: p if isinstance(p, str) else str(p.relative_to(FIXTURES)),
)
def test_loaders_build_equal_configs(monkeypatch, request, path) -> None:
    if isinstance(path, str):
        path = request.getfixturevalue(path)
    text = path.read_text(encoding="utf-8")
    # Same data in the same key order, so snapshots keep their bytes.
    assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(yaml.safe_load(text))
    pure, fast = (_load_with(monkeypatch, loader, path) for loader in LOADERS)
    assert fast == pure


def test_pure_python_loader_without_libyaml(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(config_module, "_LOADER", yaml.SafeLoader)
    for path in (FIXTURES / "golden").glob("*.yaml"):
        assert load_config(path).experiment.name
    path = tmp_path / "broken.yaml"
    path.write_text("experiment:\n  name: [unclosed\n", encoding="utf-8")
    with pytest.raises(ParseError, match="at line 3, column 1"):
        load_config(path)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize(
    "text, location",
    [
        ("name: a\x07b\n", "line 1, column 8"),
        # Multi-byte characters before it: libyaml counts bytes, the location characters.
        ("experiment:\r\n  task: \u00e9t\u00e9\r\n  name: \u00e9\x1bb\n", "line 3, column 10"),
        ("a: 1\rb: \u2028c\x00\n", "line 3, column 2"),
    ],
    ids=["bell", "after_utf8", "other_breaks"],
)
def test_disallowed_character_reports_location(
    monkeypatch, tmp_path, loader, text, location
) -> None:
    path = tmp_path / "control.yaml"
    path.write_text(text, encoding="utf-8", newline="")
    monkeypatch.setattr(config_module, "_LOADER", loader)
    with pytest.raises(ParseError, match=f"at {location}:"):
        load_config(path)


def _min_data() -> dict:
    return {
        "experiment": {"name": "n", "task": "t", "seed": 2},
        "llm": {
            "profiles": [
                {
                    "name": "p",
                    "provider": "scripted",
                    "model": "m",
                    "script_path": str(FIXTURES / "scripts/min_worker.script"),
                }
            ]
        },
        "playground": {
            "name": "sequential_handoff",
            "params": {},
            "slots": [{"slot_name": "w", "role": "worker", "llm_profile": "p"}],
        },
    }


def test_unknown_slot_tool_rejected_without_mcp() -> None:
    data = _min_data()
    data["playground"]["slots"][0]["tools"] = ["ghost_tool"]
    with pytest.raises(ValidationError) as excinfo:
        from_dict(data)
    assert "ghost_tool" in str(excinfo.value)


def test_mcp_defers_tool_name_validation() -> None:
    data = _min_data()
    data["tools"] = {"mcp": [{"alias": "stub", "endpoint": "http://127.0.0.1:9/"}]}
    data["playground"]["slots"][0]["tools"] = ["stub.add"]
    config = from_dict(data)
    assert config.tools.mcp[0].alias == "stub"
    # A tool_pack is a list of tool names, checked the same way.
    data["playground"].update(name="single_agent_research", params={"tool_pack": ["stub.add"]})
    data["playground"]["slots"][0]["role"] = "researcher"
    assert from_dict(data).playground.params == {"tool_pack": ["stub.add"]}
    del data["tools"]
    with pytest.raises(ValidationError, match="param 'tool_pack' references unknown tool"):
        from_dict(data)


def test_duplicate_names_rejected() -> None:
    data = _min_data()
    data["llm"]["profiles"].append(dict(data["llm"]["profiles"][0]))
    with pytest.raises(ValidationError):
        from_dict(data)
    data = _min_data()
    data["playground"]["slots"].append(dict(data["playground"]["slots"][0]))
    with pytest.raises(ValidationError):
        from_dict(data)


def test_missing_script_file_rejected() -> None:
    data = _min_data()
    data["llm"]["profiles"][0]["script_path"] = "/nonexistent/rules.script"
    with pytest.raises(ValidationError):
        from_dict(data)


def test_seed_must_be_integer() -> None:
    data = _min_data()
    data["experiment"]["seed"] = "seven"
    with pytest.raises(ValidationError):
        from_dict(data)


def test_snapshot_round_trip_is_identical() -> None:
    config = load_config(MIN)
    snapshot = config.to_dict()
    rebuilt = from_dict(snapshot)
    assert rebuilt == config
    assert rebuilt.to_dict() == snapshot


def test_snapshot_shares_nothing_with_the_config() -> None:
    data = _min_data()
    data["tools"] = {"mcp": [{"alias": "stub", "endpoint": "http://127.0.0.1:9/"}]}
    data["skills"] = {"paths": [str(FIXTURES / "skills/pack_a")]}
    data["playground"].update(
        name="single_agent_research",
        params={"tool_pack": ["stub.add"]},
    )
    data["playground"]["slots"][0]["role"] = "researcher"
    config = from_dict(data)
    snapshot = config.to_dict()
    expected = json.loads(json.dumps(snapshot))

    snapshot["playground"]["params"]["tool_pack"].append("ghost")
    snapshot["llm"]["profiles"][0]["model"] = "other"
    snapshot["tools"]["mcp"][0]["alias"] = "other"
    snapshot["tools"]["builtin"].clear()
    snapshot["skills"]["paths"].append("elsewhere")
    snapshot["playground"]["slots"][0]["budget"]["max_tokens"] = 1
    snapshot["playground"]["slots"][0]["tools"].append("ghost")
    snapshot["experiment"]["name"] = "other"

    assert config.to_dict() == expected


@pytest.mark.parametrize(
    "bad",
    [
        {"max_turns": 0},
        {"critique_every": 0},
        {"budget": {"strategy": "bogus"}},
        {"budget": {"compress_at": 7}},
        {"budget": {"max_tokens": -5}},
        {"max_turns": "many"},
    ],
    ids=["max_turns", "critique_every", "strategy", "compress_at", "max_tokens", "not_an_int"],
)
def test_invalid_slot_values_rejected_at_load(tmp_path, bad) -> None:
    data = _min_data()
    data["playground"]["slots"][0].update(bad)
    with pytest.raises(ValidationError) as excinfo:
        from_dict(data)
    assert "slot 'w'" in str(excinfo.value)
    path = tmp_path / "bad.yaml"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    # A run stops at load time, before it creates a run directory.
    runs = tmp_path / "runs"
    assert main(["run", "--config", str(path), "--out", str(runs)]) == 2
    assert not runs.exists()


def test_null_slot_text_takes_the_default() -> None:
    data = _min_data()
    data["playground"]["slots"][0].update(system_prompt=None, final_marker=None)
    spec = from_dict(data).playground.slots[0].spec
    assert spec.system_prompt == ""
    assert spec.final_marker == DEFAULT_FINAL_MARKER


def test_lenient_accepts_unknown_budget_key(tmp_path) -> None:
    data = _min_data()
    data["playground"]["slots"][0]["budget"] = {"max_tokens": 512, "mystery": 1}
    with pytest.raises(ValidationError):
        from_dict(data)
    config = from_dict(data, lenient=True)
    assert config.playground.slots[0].spec.budget.max_tokens == 512
    path = tmp_path / "extra.yaml"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["validate", "--config", str(path), "--lenient"]) == 0
