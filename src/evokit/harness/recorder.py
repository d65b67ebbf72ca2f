"""Thread-safe append-only trajectory recorder.

One JSON object per line, keys always serialized in the fixed order
``seq, ts, run_id, slot, agent, kind, turn, payload, usage``: each line is
the bytes ``json.dumps(event, ensure_ascii=False)`` gives, UTF-8 encoded.
Sequence numbers are assigned and the line written under one lock, so
concurrent producers can never tear a line or leave a gap, and file order
always equals sequence order; a line that cannot be serialized or written
takes no sequence number. Each line reaches the file in one unbuffered
``os.write`` (repeated only on a short write) before ``record`` returns.

A line is built from parts so that only what changes per event is encoded
per event. The ``run_id``, ``slot`` and ``agent`` part is encoded once per
conversation, ``seq`` and ``ts`` are formatted as json formats an int and a
float, and ``turn``, the payload and the usage go through one C encoder kept
by the recorder. Text is written as UTF-8 as it is, except on a line holding
a lone surrogate (legal in JSON, e.g. from a model reply), which is written
as ASCII with ``\\uXXXX`` escapes and decodes back unchanged. The recorder
also sums token usage as events pass through, which is what the run_end
totals are built from.
"""

from __future__ import annotations

import json
import os
import threading
import time
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Any, Callable, Sequence

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


def dump_utf8(value: Any, **kwargs: Any) -> bytes:
    """``value`` as UTF-8 JSON, with non-ASCII text left unescaped.

    A lone surrogate has no UTF-8 form, so a value holding one is written
    with ASCII escapes instead, which JSON decodes back to the same string.
    ``kwargs`` go to ``json.dumps``.
    """
    text = json.dumps(value, ensure_ascii=False, **kwargs)
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        return json.dumps(value, **kwargs).encode("ascii")


# The settings ``json.dumps(value, ensure_ascii=False)`` encodes with.
_SETTINGS = json.JSONEncoder(ensure_ascii=False)


def _make_encoder() -> Callable[[Any, int], Sequence[str]]:
    """The C encoder ``json.dumps(value, ensure_ascii=False)`` builds per
    call, built once: called as ``encoder(value, 0)``, it returns the chunks
    of the text. It keeps the ids of the containers it is inside in its
    markers dict, and a failed encode leaves them there, so it must be
    replaced after one."""
    return c_make_encoder(
        {}, _SETTINGS.default, encode_basestring, _SETTINGS.indent,
        _SETTINGS.key_separator, _SETTINGS.item_separator, _SETTINGS.sort_keys,
        _SETTINGS.skipkeys, _SETTINGS.allow_nan,
    )


class TrajectoryRecorder:
    """Appends to the trajectory at ``path`` (kept as text in ``self.path``),
    creating its missing parent directories."""

    def __init__(self, path: str | Path, run_id: str):
        self.path = os.fspath(path)
        self.run_id = run_id
        # Unbuffered: each line goes to ``os.write`` on the descriptor. The
        # file object owns the descriptor, so a recorder dropped unclosed
        # still closes it.
        try:
            self._file = open(self.path, "ab", buffering=0)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            self._file = open(self.path, "ab", buffering=0)
        self._fd = self._file.fileno()
        self._lock = threading.Lock()
        self._seq = 0
        self._encode = _make_encoder()
        # ``, "run_id": …, "slot": …, "agent": …, "kind": "`` per (slot, agent).
        self._middles: dict[tuple[str | None, str | None], str] = {}
        self._prompt_tokens = 0
        self._completion_tokens = 0

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
        usage_dict = usage.as_dict() if usage is not None else None
        with self._lock:
            if self._file.closed:
                raise RecorderClosed("trajectory recorder is closed")
            seq = self._seq + 1
            ts = time.time()
            try:
                middle = self._middles.get((slot, agent))
                if middle is None:
                    scope = {"run_id": self.run_id, "slot": slot, "agent": agent}
                    text = "".join(self._encode(scope, 0))
                    middle = self._middles[slot, agent] = f', {text[1:-1]}, "kind": "'
                tail = "".join(
                    self._encode({"turn": turn, "payload": payload, "usage": usage_dict}, 0)
                )
            except BaseException:
                self._encode = _make_encoder()
                raise
            line = f'{{"seq": {seq}, "ts": {ts!r}{middle}{kind}", {tail[1:]}\n'
            try:
                data = line.encode("utf-8")
            except UnicodeEncodeError:
                event = {
                    "seq": seq, "ts": ts, "run_id": self.run_id, "slot": slot,
                    "agent": agent, "kind": kind, "turn": turn, "payload": payload,
                    "usage": usage_dict,
                }
                data = json.dumps(event).encode("ascii") + b"\n"
            written = os.write(self._fd, data)
            while written < len(data):
                written += os.write(self._fd, data[written:])
            self._seq = seq
            if usage is not None:
                self._prompt_tokens += usage.prompt_tokens
                self._completion_tokens += usage.completion_tokens
            return seq

    def usage_totals(self) -> TokenUsage:
        with self._lock:
            return TokenUsage(self._prompt_tokens, self._completion_tokens)

    def close(self) -> None:
        with self._lock:
            self._file.close()

    def __enter__(self) -> "TrajectoryRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
