"""Thread-safe append-only trajectory recorder.

One JSON object per line, keys always serialized in the fixed order
``seq, ts, run_id, slot, agent, kind, turn, payload, usage``. Sequence
numbers are assigned and the line written under one lock, so concurrent
producers can never tear a line or leave a gap, and file order always equals
sequence order; a line that cannot be serialized or written takes no
sequence number. Text is written as UTF-8 as it is, except on a line holding
a lone surrogate (legal in JSON, e.g. from a model reply), which is written
as ASCII with ``\\uXXXX`` escapes and decodes back unchanged. The recorder also
accumulates token usage as events pass through, which is what the run_end
totals are built from.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any

from ..errors import EvokitError
from ..gateway import TokenUsage

EVENT_KINDS = (
    "run_start",
    "turn",
    "observation",
    "critique",
    "compression",
    "promotion",
    "run_end",
    "error",
)

KEY_ORDER = ("seq", "ts", "run_id", "slot", "agent", "kind", "turn", "payload", "usage")


class RecorderClosed(EvokitError):
    pass


# What ``json.dumps(value, ensure_ascii=False)`` builds on every call, built
# once: an encoder keeps no state between calls, so threads may share it.
_UTF8_ENCODER = json.JSONEncoder(ensure_ascii=False)


def dump_utf8(value: Any, **kwargs: Any) -> bytes:
    """``value`` as UTF-8 JSON, with non-ASCII text left unescaped.

    A lone surrogate has no UTF-8 form, so a value holding one is written
    with ASCII escapes instead, which JSON decodes back to the same string.
    ``kwargs`` go to ``json.dumps``.
    """
    if kwargs:
        text = json.dumps(value, ensure_ascii=False, **kwargs)
    else:
        text = _UTF8_ENCODER.encode(value)
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        return json.dumps(value, **kwargs).encode("ascii")


class TrajectoryRecorder:
    """Appends to the trajectory at ``path`` (kept as text in ``self.path``),
    creating its missing parent directories."""

    def __init__(self, path: str | Path, run_id: str):
        self.path = os.fspath(path)
        self.run_id = run_id
        try:
            self._handle = open(self.path, "ab")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            self._handle = open(self.path, "ab")
        self._lock = threading.Lock()
        self._seq = 0
        self._usage = TokenUsage()

    def record(
        self,
        kind: str,
        payload: dict[str, Any],
        *,
        slot: str | None = None,
        agent: str | None = None,
        turn: int | None = None,
        usage: TokenUsage | None = None,
    ) -> int:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind: {kind!r}")
        with self._lock:
            if self._handle.closed:
                raise RecorderClosed("trajectory recorder is closed")
            event = {
                "seq": self._seq + 1,
                "ts": time.time(),
                "run_id": self.run_id,
                "slot": slot,
                "agent": agent,
                "kind": kind,
                "turn": turn,
                "payload": payload,
                "usage": usage.as_dict() if usage else None,
            }
            self._handle.write(dump_utf8(event) + b"\n")
            self._seq += 1
            self._handle.flush()
            if usage is not None:
                self._usage = self._usage + usage
            return self._seq

    def usage_totals(self) -> TokenUsage:
        with self._lock:
            return self._usage

    def close(self) -> None:
        with self._lock:
            self._handle.close()

    def __enter__(self) -> "TrajectoryRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
