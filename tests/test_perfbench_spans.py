"""perfbench's span wrappers still find every evokit entry point they trace.

``perfbench/spans.py`` wraps functions and methods by name from outside the
package, so renaming or moving a traced entry point would otherwise only show
up as a ``KeyError`` or ``AttributeError`` in a traced benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import evokit.harness as harness
from helpers import FIXTURES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bound(module: str, cls: str | None, attr: str):
    owner = sys.modules[module]
    return getattr(getattr(owner, cls) if cls else owner, attr)


def test_tracer_wraps_and_restores_every_target(tmp_path, monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("EVO_HOME", raising=False)
    import spans

    targets = [target[:3] for target in spans.TARGETS]
    originals = [_bound(*target) for target in targets]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert [_bound(*target).__wrapped__ for target in targets] == originals
        for golden in ("research", "draft_improve"):
            config = harness.load_config(FIXTURES / f"golden/{golden}.yaml")
            config.experiment.output_dir = str(tmp_path / golden)
            harness.replay(harness.run_experiment(config).trajectory_path)
    finally:
        tracer.uninstall()
    assert [_bound(*target) for target in targets] == originals
    # Every span name is hit by the two runs, and no traced call raised.
    assert {target[3] for target in spans.TARGETS} == {span[0] for span in tracer.spans}
    assert not [span for span in tracer.spans if span[4] == "raised"]
