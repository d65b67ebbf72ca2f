"""What importing evokit binds and loads.

Each package's ``__all__`` lists exactly the public names its ``__init__``
binds, and no third-party HTTP client is loaded. A module evokit imports at
its first use is not loaded by the import, and each such use works when it is
the first thing a fresh interpreter does after importing evokit.
"""

from __future__ import annotations

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import evokit.harness
import evokit.playgrounds
from evokit.harness import ParseError, load_config
from helpers import FIXTURES


def _bound_public_names(module) -> set[str]:
    """Names bound at the top of the module's source, from its own submodules or by itself."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("module", [evokit.harness, evokit.playgrounds], ids=lambda m: m.__name__)
def test_all_matches_bound_public_names(module) -> None:
    assert set(module.__all__) == _bound_public_names(module)


SRC = Path(evokit.__file__).resolve().parents[1]
# Loaded at their first use: PyYAML by the first manifest parse, subprocess
# and signal by the first exec or MCP stdio call.
LAZY = ("yaml", "subprocess", "signal")


def _fresh(code: str) -> str:
    """What ``code`` prints, run by a fresh interpreter from ``src/``."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=SRC
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def _loaded(imports: str, names: tuple[str, ...]) -> list[str]:
    """The modules of ``names`` a fresh ``import <imports>`` loads; a package's with its own."""
    code = (
        f"import json, sys, {imports}\n"
        f"names = {names!r}\n"
        "loaded = (m for m in sys.modules if m in names or m.split('.')[0] in names)\n"
        "print(json.dumps(sorted(loaded)))"
    )
    return json.loads(_fresh(code))


def test_import_loads_no_http_client_library() -> None:
    imports = "evokit, evokit.cli, evokit.harness, evokit.mcp_stub"
    assert _loaded(imports, ("requests", "urllib3")) == []


def test_import_loads_no_transport_or_hashing_module() -> None:
    # A scripted run never speaks HTTP, so the HTTP client (and the TLS and
    # hashing modules it pulls in) loads on the first request instead; nor
    # does every process parse a manifest or start a command (LAZY).
    heavy = ("http.client", "urllib.request", "ssl", "hashlib", "secrets", *LAZY)
    assert _loaded("evokit, evokit.cli, evokit.harness, evokit.playgrounds", heavy) == []


def test_import_loads_no_logging_or_executor_module() -> None:
    # A run logs only on a fault or an MCP registration, and fan_out runs on
    # the parked tool workers, so neither module is part of every run's memory.
    heavy = ("logging", "concurrent.futures")
    assert _loaded("evokit, evokit.harness, evokit.playgrounds", heavy) == []


def _cold(code: str) -> str:
    """What ``code`` prints after a fresh import of evokit, with no LAZY module loaded yet."""
    return _fresh(
        "import json, sys\n"
        "import evokit, evokit.cli, evokit.harness, evokit.playgrounds\n"
        f"assert not [m for m in sys.modules if m.split('.')[0] in {LAZY!r}]\n" + code
    )


def test_first_manifest_parse_in_a_fresh_interpreter() -> None:
    paths = sorted(str(path) for path in (FIXTURES / "golden").glob("*.yaml"))
    code = (
        "from evokit.harness import load_config\n"
        f"print(json.dumps([load_config(path).to_dict() for path in {paths!r}]))"
    )
    assert _cold(code) == json.dumps([load_config(path).to_dict() for path in paths])


def test_first_manifest_parse_errors_in_a_fresh_interpreter(tmp_path) -> None:
    # A syntax error (YAMLError) and a character YAML does not allow (ReaderError).
    cases = {"experiment: [unclosed\n": "line 2, column 1", "name: a\x07b\n": "line 1, column 8"}
    paths, expected = [], []
    for index, (text, location) in enumerate(cases.items()):
        path = tmp_path / f"bad{index}.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_config(path)
        assert str(excinfo.value).startswith(f"{path}: YAML parse error at {location}: ")
        paths.append(str(path))
        expected.append(str(excinfo.value))
    code = (
        "from evokit.harness import ParseError, load_config\n"
        "messages = []\n"
        f"for path in {paths!r}:\n"
        "    try:\n        load_config(path)\n"
        "    except ParseError as exc:\n        messages.append(str(exc))\n"
        "print(json.dumps(messages))"
    )
    assert json.loads(_cold(code)) == expected


def test_first_exec_in_a_fresh_interpreter(tmp_path) -> None:
    code = (
        "from evokit.tools import Action, ToolRegistry, install_builtin_tools\n"
        "registry = ToolRegistry()\n"
        f"install_builtin_tools(registry, {str(tmp_path)!r}, names=['exec'])\n"
        "for cmd in ('echo ok', 'echo no; exit 3'):\n"
        "    execution, observation = registry.invoke(Action('a1', 'exec', {'cmd': cmd}))\n"
        "    print(json.dumps([execution.status, observation.content]))"
    )
    assert [json.loads(line) for line in _cold(code).splitlines()] == [
        ["ok", "ok\n"], ["failed", "tool error: command exited with 3: no"]
    ]


def test_first_mcp_stdio_call_in_a_fresh_interpreter() -> None:
    code = (
        "from evokit.mcp import McpClient, McpEndpoint, McpTransportError\n"
        "client = McpClient(McpEndpoint(alias='quiet', endpoint='true', transport='stdio'))\n"
        "try:\n    client.list_tools()\n"
        "except McpTransportError as exc:\n    print(exc)"
    )
    assert _cold(code) == "quiet: no response on stdout"
