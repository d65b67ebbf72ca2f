"""Each package's ``__all__`` lists exactly the public names its ``__init__`` binds."""

from __future__ import annotations

import ast
import inspect

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
