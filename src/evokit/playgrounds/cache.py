"""Three-tier cognitive cache: prefetch, round knowledge, run wisdom.

Plain text records under a cache root, one file per record:

    <cache_root>/wisdom/<seq>-wisdom.txt          cross-run wisdom store
    <cache_root>/runs/<run_id>/rounds/<round>.txt round-level knowledge
    <cache_root>/runs/<run_id>/wisdom.txt         this run's distilled wisdom

Durable, diff-able, no database. The cross-run store is append-only; writes
use exclusive creation with a sequence retry so concurrent runs cannot
clobber each other.
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
        self.root = Path(root)
        self.run_id = run_id
        self._run_promoted = False
        self._lock = threading.Lock()

    @property
    def wisdom_dir(self) -> Path:
        return self.root / "wisdom"

    @property
    def run_dir(self) -> Path:
        return self.root / "runs" / self.run_id

    def prefetch(self, task: str) -> list[str]:
        """All prior run-wisdom records, newest first; empty on a fresh cache.

        The task argument is accepted for future relevance filtering; today
        every record is returned.
        """
        del task
        if not self.wisdom_dir.is_dir():
            return []
        records = []
        for _, path in sorted(self._wisdom_records(), reverse=True):
            try:
                records.append(path.read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError) as exc:
                raise CacheReadError(f"corrupted wisdom record {path}: {exc}") from exc
        return records

    def promote_round(self, round_index: int, findings: str) -> None:
        if round_index < 1:
            raise ValueError("round indices start at 1")
        rounds_dir = self.run_dir / "rounds"
        rounds_dir.mkdir(parents=True, exist_ok=True)
        (rounds_dir / f"{round_index:04d}.txt").write_text(findings, encoding="utf-8")

    def round_records(self) -> list[str]:
        rounds_dir = self.run_dir / "rounds"
        if not rounds_dir.is_dir():
            return []
        return [
            p.read_text(encoding="utf-8") for p in sorted(rounds_dir.glob("*.txt"))
        ]

    def promote_run(self, wisdom: str) -> None:
        """Persist this run's wisdom to the run dir and the cross-run store."""
        with self._lock:
            if self._run_promoted:
                raise DoubleRunPromotion(f"run {self.run_id} already promoted wisdom")
            self._run_promoted = True
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / "wisdom.txt").write_text(wisdom, encoding="utf-8")
        self.wisdom_dir.mkdir(parents=True, exist_ok=True)
        seq = self._next_sequence()
        while True:
            target = self.wisdom_dir / f"{seq:04d}-wisdom.txt"
            try:
                fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                seq += 1
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(wisdom)
            return

    def _wisdom_records(self) -> Iterator[tuple[int, Path]]:
        """``(seq, path)`` of every record in the cross-run store, unordered."""
        for path in self.wisdom_dir.iterdir():
            match = _WISDOM_PATTERN.match(path.name)
            if match:
                yield int(match.group(1)), path

    def _next_sequence(self) -> int:
        return max((seq for seq, _ in self._wisdom_records()), default=0) + 1
