"""Span recorder that wraps evokit's public entry points from the outside.

Nothing in ``src/`` is edited: ``Tracer.install`` replaces each traced
function or method with a timing wrapper and ``Tracer.uninstall`` puts the
originals back. Module-level functions are replaced in every ``evokit``
module that bound them, because ``from x import f`` copies the reference
(each playground binds ``run_slot``; the runner binds ``run_playground``).

Spans stay in memory as ``[name, start, end, parent, info, thread]`` lists
and are aggregated, or written out, only after the measured work has finished.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter

from stub import request_key

# (module, class or None, attribute, span name). The span name is the
# layer-qualified name used by the per-layer metrics.
TARGETS = (
    ("evokit.engine", "AgentRun", "step", "engine.step"),
    ("evokit.context", "ContextManager", "render", "context.render"),
    ("evokit.context", "ContextManager", "maybe_compress", "context.compress"),
    ("evokit.gateway", "LlmGateway", "complete", "gateway.complete"),
    ("evokit.gateway", None, "scripted_step", "gateway.scripted_step"),
    ("evokit.tools", "ToolRegistry", "invoke", "tools.invoke"),
    ("evokit.harness.recorder", "TrajectoryRecorder", "record", "harness.recorder.record"),
    ("evokit.harness.config", None, "load_config", "harness.config.load"),
    ("evokit.harness.runner", None, "run_experiment", "harness.runner.run_experiment"),
    ("evokit.harness.replay", None, "replay", "harness.replay"),
    ("evokit.playgrounds", None, "run_playground", "playgrounds.run_playground"),
    ("evokit.playgrounds.base", None, "run_slot", "playgrounds.run_slot"),
    ("evokit.playgrounds.cache", "CognitiveCache", "prefetch", "playgrounds.cache.prefetch"),
    ("evokit.playgrounds.cache", "CognitiveCache", "promote_round", "playgrounds.cache.promote"),
    ("evokit.playgrounds.cache", "CognitiveCache", "promote_run", "playgrounds.cache.promote"),
)


def _render_info(args, kwargs, result):
    return len(result)


def _compress_info(args, kwargs, result):
    return None if result is None else result.before_tokens - result.after_tokens


def _complete_info(args, kwargs, result):
    messages = args[2] if len(args) > 2 else kwargs["messages"]
    key = request_key([{"content": m.content} for m in messages])
    return result.usage.prompt_tokens, key


def _invoke_info(args, kwargs, result):
    return result[0].status


def _replay_info(args, kwargs, result):
    return result.events, len(result.violations)


def _prefetch_info(args, kwargs, result):
    return len(result)


INFO = {
    "context.render": _render_info,
    "context.compress": _compress_info,
    "gateway.complete": _complete_info,
    "tools.invoke": _invoke_info,
    "harness.replay": _replay_info,
    "playgrounds.cache.prefetch": _prefetch_info,
}


class Tracer:
    """Installs timing wrappers; one instance per traced benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None, threading.get_ident()]
            stack.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = "raised"
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                spans.append(span)
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for other_name, other in list(sys.modules.items()):
                if other_name.split(".")[0] != "evokit" or other is None:
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._restore.append((other, key, original))
                        setattr(other, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as a Chrome Trace Event complete ("X") event."""
        if not self.spans:
            return
        origin = min(s[1] for s in self.spans)
        events = [
            {
                "name": s[0],
                "ph": "X",
                "ts": round((s[1] - origin) * 1e6, 3),
                "dur": round((s[2] - s[1]) * 1e6, 3),
                "pid": 1,
                "tid": s[5],
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
