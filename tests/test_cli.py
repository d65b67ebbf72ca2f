from __future__ import annotations

import json
from pathlib import Path

import pytest

from evokit.cli import main
from evokit.harness import load_config
from evokit.mcp_stub import StubMcpServer
from helpers import FIXTURES

MIN = str(FIXTURES / "configs/min.yaml")


def test_validate_ok(capsys) -> None:
    assert main(["validate", "--config", MIN]) == 0
    assert "ok: min" in capsys.readouterr().out


def test_validate_bad_ref_names_ghost(capsys) -> None:
    assert main(["validate", "--config", str(FIXTURES / "configs/bad-ref.yaml")]) == 2
    assert "ghost" in capsys.readouterr().err


def test_list_playgrounds(capsys) -> None:
    assert main(["list", "playgrounds"]) == 0
    names = capsys.readouterr().out.splitlines()
    for expected in (
        "sequential_handoff",
        "parallel_explore",
        "solve_critique_rewrite_select",
        "planner_executor",
        "draft_and_improve",
        "single_agent_research",
    ):
        assert expected in names


def test_list_tools(capsys) -> None:
    assert main(["list", "tools"]) == 0
    names = capsys.readouterr().out.splitlines()
    assert "exec" in names
    assert "load_skill" in names


def test_list_skills_requires_config(capsys) -> None:
    assert main(["list", "skills"]) == 1


def test_list_skills_from_config(capsys) -> None:
    assert main(["list", "skills", "--config", str(FIXTURES / "configs/skills.yaml")]) == 0
    assert capsys.readouterr().out.splitlines() == ["alpha", "beta", "gamma"]


def test_usage_errors(capsys) -> None:
    assert main([]) == 1
    assert main(["run"]) == 1  # missing --config
    assert main(["mystery"]) == 1


def test_run_then_replay_roundtrip(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.delenv("EVO_HOME", raising=False)
    assert main(["run", "--config", MIN, "--out", str(tmp_path), "--seed", "42"]) == 0
    record_path = capsys.readouterr().out.strip()
    record = json.loads(Path(record_path).read_text())
    assert record["status"] == "ok"

    trajectory = record["trajectory_path"]
    run_start = json.loads(Path(trajectory).read_text().splitlines()[0])
    assert run_start["payload"]["config_snapshot"]["experiment"]["seed"] == 42
    assert main(["replay", "--trajectory", trajectory]) == 0
    out = capsys.readouterr().out
    assert "complete: true" in out

    lines = Path(trajectory).read_text().splitlines()
    Path(trajectory).write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
    assert main(["replay", "--trajectory", trajectory]) == 3


def test_replay_missing_file() -> None:
    assert main(["replay", "--trajectory", "/nonexistent/t.jsonl"]) == 3


def test_run_error_status_exits_3(tmp_path, capsys, monkeypatch) -> None:
    # A valid manifest whose model endpoint refuses connections fails at runtime.
    monkeypatch.delenv("EVO_HOME", raising=False)
    text = (FIXTURES / "configs/min.yaml").read_text(encoding="utf-8")
    text = text.replace(
        "provider: scripted, model: scripted-v1, script_path: ../scripts/min_worker.script",
        'provider: http-openai-compatible, model: m, base_url: "http://127.0.0.1:9/v1"',
    )
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 0
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 3
    assert "status=failed" in capsys.readouterr().err


def _params(**params):
    return lambda manifest: manifest["playground"]["params"].update(params)


def _profile(**values):
    return lambda manifest: manifest["llm"]["profiles"][0].update(values)


def _rename_playground(manifest) -> None:
    manifest["playground"]["name"] = "not_a_playground"


def _drop_critic(manifest) -> None:
    slots = manifest["playground"]["slots"]
    slots[:] = [slot for slot in slots if slot["role"] != "critic"]


def _misspell_drafter(manifest) -> None:
    manifest["playground"]["slots"][0]["role"] = "drafterr"


def _set(section, key, value):
    return lambda manifest: manifest[section].update({key: value})


def _slot_tools_string(manifest) -> None:
    manifest["playground"]["slots"][0]["tools"] = "web_search"


def _empty_final_marker(manifest) -> None:
    manifest["playground"]["slots"][0]["final_marker"] = ""


BAD_MANIFESTS = [
    # (golden manifest, edit, text the error message must contain)
    ("planner_executor", _rename_playground, "not_a_playground"),
    ("solve_critique", _drop_critic, "'critic'"),
    ("draft_improve", _misspell_drafter, "'drafterr'"),
    ("planner_executor", _params(bogus=1), "bogus"),
    ("planner_executor", _params(max_rounds="ten"), "max_rounds"),
    ("draft_improve", _params(max_rounds=0), "max_rounds"),
    ("draft_improve", _params(branches=5), "branches"),
    ("solve_critique", _params(n_solvers=9), "n_solvers"),
    ("research", _params(tool_pack=[]), "tool_pack"),
    ("research", _params(tool_pack=["nope"]), "'nope'"),
    ("research", _profile(temperature="hot"), "researcher-m"),
    ("research", _profile(max_output_tokens="many"), "researcher-m"),
    ("research", _set("tools", "builtin", [[1]]), "builtin"),
    ("research", _set("skills", "paths", 5), "skills: paths: must be a list"),
    ("research", _set("tools", "mcp", 5), "tools: mcp: must be a list"),
    ("research", _set("playground", "slots", 5), "playground: slots: must be a list"),
    ("research", _slot_tools_string, "slot 'researcher': tools: must be a list"),
    ("research", _profile(script_path=str(FIXTURES / "scripts/bad_content.script")), "content"),
    ("research", _set("skills", "paths", [str(FIXTURES / "bad_skills")]), "front matter"),
    ("research", _profile(api_key_env=5), "api_key_env"),
    ("research", _set("experiment", "name", "../escaped/x"), "'../escaped/x'"),
    ("research", _empty_final_marker, "slot 'researcher': researcher: final_marker"),
    ("research", _set("experiment", "name", "a\0b"), "experiment.name 'a\\x00b' must not hold"),
    ("research", _set("experiment", "output_dir", "ru\0ns"), "output_dir: must not contain a NUL"),
    ("research", _set("tools", "corpus", "cor\0pus"), "corpus: must not contain a NUL"),
    ("research", _set("skills", "paths", ["sk\0"]), "paths: must not contain a NUL"),
    ("research", _profile(script_path="m\0.script"), "script_path: must not contain a NUL"),
    ("research", _set("experiment", "max_wall_seconds", int("9" * 400)), "max_wall_seconds"),
]


@pytest.mark.parametrize(
    "golden,edit,named",
    BAD_MANIFESTS,
    ids=[
        "unknown_playground", "no_critic", "role_typo", "unknown_param",
        "max_rounds_ten", "max_rounds_zero", "branches_over_improvers",
        "n_solvers_over_solvers", "empty_tool_pack", "unknown_tool_pack_tool",
        "temperature_hot", "max_output_tokens_many", "builtin_nested_list",
        "skills_paths_int", "mcp_int", "slots_int", "slot_tools_string",
        "malformed_script", "malformed_skill", "api_key_env_int", "name_escapes_output_dir",
        "empty_final_marker", "name_nul", "output_dir_nul", "corpus_nul", "skills_paths_nul",
        "script_path_nul", "max_wall_seconds_overflow",
    ],
)
def test_bad_manifest_rejected_at_load(tmp_path, capsys, golden, edit, named) -> None:
    manifest = load_config(FIXTURES / f"golden/{golden}.yaml").to_dict()
    edit(manifest)
    path = tmp_path / "bad.yaml"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    assert named in capsys.readouterr().err
    runs = tmp_path / "runs"
    assert main(["run", "--config", str(path), "--out", str(runs)]) == 2
    assert named in capsys.readouterr().err
    assert not runs.exists()


def test_script_the_decoder_rejects_exits_2(tmp_path, capsys) -> None:
    script = tmp_path / "deep.script"
    script.write_text("[" * 100_000, encoding="utf-8")
    manifest = load_config(FIXTURES / "golden/research.yaml").to_dict()
    manifest["llm"]["profiles"][0]["script_path"] = str(script)
    path = tmp_path / "bad.yaml"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    assert f"{script}: invalid JSON" in capsys.readouterr().err


def test_manifest_that_is_not_utf8_exits_2(tmp_path, capsys) -> None:
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"name: n\xff\n")
    assert main(["validate", "--config", str(path)]) == 2
    expected = f"{path}: manifest is not UTF-8 (byte 7: invalid start byte)"
    assert expected in capsys.readouterr().err
    runs = tmp_path / "runs"
    assert main(["run", "--config", str(path), "--out", str(runs)]) == 2
    assert "manifest is not UTF-8" in capsys.readouterr().err
    assert not runs.exists()


def test_script_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys) -> None:
    script = tmp_path / "latin1.script"
    script.write_bytes(b'[{"content": "caf\xe9"}]')
    manifest = load_config(MIN).to_dict()
    manifest["llm"]["profiles"][0]["script_path"] = str(script)
    path = tmp_path / "bad.yaml"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    expected = f"{script}: script is not UTF-8 (byte 17: invalid continuation byte)"
    assert f"profile 'worker-m': {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("secs", ["0", "-5", pytest.param("9" * 400, id="overflow")])
def test_max_wall_secs_override_checked(tmp_path, capsys, secs) -> None:
    runs = tmp_path / "runs"
    assert main(["run", "--config", MIN, "--out", str(runs), "--max-wall-secs", secs]) == 2
    assert "max_wall_seconds" in capsys.readouterr().err
    assert not runs.exists()


def test_golden_and_adversarial_manifests_validate(capsys) -> None:
    manifests = sorted((FIXTURES / "golden").glob("*.yaml"))
    manifests += sorted((FIXTURES / "configs").glob("adversarial_*.yaml"))
    assert len(manifests) == 6
    for manifest in manifests:
        assert main(["validate", "--config", str(manifest)]) == 0, manifest


def test_mcp_probe_lists_stub_tools(capsys) -> None:
    with StubMcpServer() as server:
        assert main(["mcp-probe", "--endpoint", server.url]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("add\t")
    assert "lookup" in out


def test_mcp_probe_unreachable() -> None:
    assert main(["mcp-probe", "--endpoint", "http://127.0.0.1:9/"]) == 3
