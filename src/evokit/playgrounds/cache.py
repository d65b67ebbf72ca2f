"""Three-tier cognitive cache: prefetch, round knowledge, run wisdom.

Plain text records under a cache root, one file per record:

    <cache_root>/wisdom/<seq>-wisdom.txt          cross-run wisdom store
    <cache_root>/runs/<run_id>/rounds/<round>.txt round-level knowledge

Durable, diff-able, no database. The cross-run store is append-only; writes
use exclusive creation with a sequence retry so concurrent runs cannot
clobber each other. Directories are made on first write: a write that finds
its directory missing creates it (and its parents) once and writes again, so
a round promoted into an existing directory costs no ``mkdir``. Paths are
joined as text, and ``root``, ``wisdom_dir`` and ``run_dir`` are strings.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path
from typing import Iterator

from ..errors import EvokitError

_WISDOM_PATTERN = re.compile(r"^(\d+)-wisdom\.txt$")


class CacheReadError(EvokitError):
    pass


class DoubleRunPromotion(EvokitError):
    pass


class CognitiveCache:
    def __init__(self, root: Path | str, run_id: str):
        self.root = os.fspath(root)
        self.run_id = run_id
        self.wisdom_dir = os.path.join(self.root, "wisdom")
        self.run_dir = os.path.join(self.root, "runs", run_id)
        self._run_promoted = False
        self._lock = threading.Lock()

    def prefetch(self, task: str) -> list[str]:
        """All prior run-wisdom records, newest first; empty on a fresh cache.

        The task argument is accepted for future relevance filtering; today
        every record is returned.
        """
        del task
        records = []
        for _, path in sorted(self._wisdom_records(), reverse=True):
            try:
                with open(path, encoding="utf-8") as handle:
                    records.append(handle.read())
            except (OSError, UnicodeDecodeError) as exc:
                raise CacheReadError(f"corrupted wisdom record {path}: {exc}") from exc
        return records

    def promote_round(self, round_index: int, findings: str) -> None:
        if round_index < 1:
            raise ValueError("round indices start at 1")
        rounds_dir = os.path.join(self.run_dir, "rounds")
        path = os.path.join(rounds_dir, f"{round_index:04d}.txt")
        try:
            handle = open(path, "w", encoding="utf-8")
        except FileNotFoundError:
            os.makedirs(rounds_dir, exist_ok=True)
            handle = open(path, "w", encoding="utf-8")
        with handle:
            handle.write(findings)

    def promote_run(self, wisdom: str) -> None:
        """Persist this run's wisdom to the cross-run store, once per run."""
        with self._lock:
            if self._run_promoted:
                raise DoubleRunPromotion(f"run {self.run_id} already promoted wisdom")
            self._run_promoted = True
        seq = max((seq for seq, _ in self._wisdom_records()), default=0) + 1
        while True:
            target = os.path.join(self.wisdom_dir, f"{seq:04d}-wisdom.txt")
            try:
                fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                seq += 1
                continue
            except FileNotFoundError:
                os.makedirs(self.wisdom_dir, exist_ok=True)
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(wisdom)
            return

    def _wisdom_records(self) -> Iterator[tuple[int, str]]:
        """``(seq, path)`` of every record in the cross-run store, unordered;
        none when the store does not exist yet."""
        try:
            names = os.listdir(self.wisdom_dir)
        except (FileNotFoundError, NotADirectoryError):
            return
        for name in names:
            match = _WISDOM_PATTERN.match(name)
            if match:
                yield int(match.group(1)), os.path.join(self.wisdom_dir, name)

