"""What importing evokit binds and loads.

Each package's ``__all__`` lists exactly the public names its ``__init__``
binds, and no third-party HTTP client is loaded.
"""

from __future__ import annotations

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import evokit.harness
import evokit.playgrounds


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


def test_import_loads_no_http_client_library() -> None:
    code = (
        "import sys, evokit, evokit.cli, evokit.harness, evokit.mcp_stub\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('requests', 'urllib3')))"
    )
    src = Path(evokit.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60, cwd=src,
    )
    assert result.stdout.strip() == "[]"


def test_import_loads_no_transport_or_hashing_module() -> None:
    # A scripted run never speaks HTTP, so the HTTP client (and the TLS and
    # hashing modules it pulls in) loads on the first request instead.
    code = (
        "import sys, evokit, evokit.cli, evokit.harness, evokit.playgrounds\n"
        "heavy = ('http.client', 'urllib.request', 'ssl', 'hashlib', 'secrets')\n"
        "print(sorted(m for m in heavy if m in sys.modules))"
    )
    src = Path(evokit.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60, cwd=src,
    )
    assert result.stdout.strip() == "[]"


def test_import_loads_no_logging_or_executor_module() -> None:
    # A run logs only on a fault or an MCP registration, and fan_out runs on
    # the parked tool workers, so neither module is part of every run's memory.
    code = (
        "import sys, evokit, evokit.harness, evokit.playgrounds\n"
        "heavy = ('logging', 'concurrent.futures')\n"
        "print(sorted(m for m in heavy if m in sys.modules))"
    )
    src = Path(evokit.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60, cwd=src,
    )
    assert result.stdout.strip() == "[]"
