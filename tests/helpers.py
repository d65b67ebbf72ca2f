"""Shared test utilities: script writing and service assembly."""

from __future__ import annotations

import json
import time
from pathlib import Path

from evokit.engine import RunServices
from evokit.gateway import LlmGateway, ModelProfile
from evokit.tools import ToolRegistry, install_builtin_tools

FIXTURES = Path(__file__).parent / "fixtures"


def write_script(directory: Path, name: str, entries: list[dict]) -> Path:
    path = directory / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def scripted_gateway(tmp_path: Path, **scripts: list[dict]) -> LlmGateway:
    """A gateway with one scripted profile per keyword argument."""
    gateway = LlmGateway()
    for name, entries in scripts.items():
        path = write_script(tmp_path / "scripts", f"{name}.script", entries)
        gateway.register_profile(
            ModelProfile(
                name=name, provider="scripted", model="scripted-v1", script_path=str(path)
            )
        )
    return gateway


def make_services(
    tmp_path: Path,
    gateway: LlmGateway,
    recorder=None,
    builtin=("exec", "file_read", "file_write"),
    fetcher=None,
    skills=None,
    cache=None,
    deadline=None,
) -> RunServices:
    registry = ToolRegistry()
    workspace = tmp_path / "workspace"
    workspace.mkdir(exist_ok=True)
    install_builtin_tools(registry, workspace, names=list(builtin), fetcher=fetcher)
    return RunServices(
        gateway=gateway,
        tools=registry,
        skills=skills,
        recorder=recorder,
        cache=cache,
        deadline=deadline,
    )


def web_search_manifest(tmp_path: Path) -> Path:
    """A 40-turn web_search run that critiques every 5 turns and compresses."""
    inputs = tmp_path / "inputs"
    corpus = inputs / "corpus"
    corpus.mkdir(parents=True)
    script = []
    for i in range(8):
        query = f"r\u00e9cif-{i}"
        (corpus / f"search-{query}.txt").write_text(
            f"result {i} \u73ca\u745a \U0001f41f \"quoted\" \\ " + "reef " * 120, encoding="utf-8")
        script.append({"content": f"note {i} caf\u00e9 " + "n" * 100,
                       "tool_calls": [{"name": "web_search", "arguments": {"query": query}}]})
    (inputs / "researcher.script").write_text(json.dumps(script), encoding="utf-8")
    manifest = {
        "experiment": {"name": "parity", "task": "Survey the reef.", "seed": 3},
        "llm": {"profiles": [{"name": "m", "provider": "scripted", "model": "scripted-v1",
                              "script_path": "researcher.script"}]},
        "tools": {"builtin": ["web_search"], "corpus": "corpus"},
        "playground": {
            "name": "single_agent_research",
            "params": {"tool_pack": ["web_search"]},
            "slots": [{"slot_name": "researcher", "role": "researcher", "llm_profile": "m",
                       "max_turns": 40, "critique_every": 5,
                       "budget": {"max_tokens": 2048, "compress_at": 0.8,
                                  "strategy": "summarize"}}],
        },
    }
    path = inputs / "parity.yaml"
    path.write_text(json.dumps(manifest), encoding="utf-8")  # JSON is YAML
    return path


def gone_or_zombie(pid: int, within_s: float) -> bool:
    """Whether process ``pid`` has ended (or is a zombie) within ``within_s`` seconds."""
    deadline = time.monotonic() + within_s
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return True
        if stat.rsplit(")", 1)[1].split()[0] == "Z":
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
