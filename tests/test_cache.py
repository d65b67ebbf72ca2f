from __future__ import annotations

import pytest

from evokit.playgrounds import CacheReadError, CognitiveCache, DoubleRunPromotion


def test_fresh_cache_prefetches_nothing(tmp_path) -> None:
    cache = CognitiveCache(tmp_path, "run-1")
    assert cache.prefetch("any task") == []


def test_wisdom_visible_to_next_run_newest_first(tmp_path) -> None:
    CognitiveCache(tmp_path, "run-1").promote_run("W1")
    CognitiveCache(tmp_path, "run-2").promote_run("W2")
    assert CognitiveCache(tmp_path, "run-3").prefetch("task") == ["W2", "W1"]


def test_double_run_promotion_rejected(tmp_path) -> None:
    cache = CognitiveCache(tmp_path, "run-1")
    cache.promote_run("once")
    with pytest.raises(DoubleRunPromotion):
        cache.promote_run("twice")


def test_corrupted_wisdom_names_file(tmp_path) -> None:
    cache = CognitiveCache(tmp_path, "run-1")
    cache.promote_run("fine")
    bad = tmp_path / "wisdom" / "0002-wisdom.txt"
    bad.write_bytes(b"\xff\xfe\x00broken\xff")
    with pytest.raises(CacheReadError) as excinfo:
        CognitiveCache(tmp_path, "run-2").prefetch("task")
    assert "0002-wisdom.txt" in str(excinfo.value)


def test_round_records_are_indexed(tmp_path) -> None:
    cache = CognitiveCache(tmp_path, "run-1")
    for i in (1, 2, 3):
        cache.promote_round(i, f"finding {i}")
    rounds = sorted((tmp_path / "runs/run-1/rounds").iterdir())
    assert [p.name for p in rounds] == ["0001.txt", "0002.txt", "0003.txt"]
    assert [p.read_text(encoding="utf-8") for p in rounds] == [
        "finding 1", "finding 2", "finding 3"
    ]
    with pytest.raises(ValueError):
        cache.promote_round(0, "bad index")


def test_prefetch_length_counts_promoting_runs(tmp_path) -> None:
    lengths = []
    for i in range(1, 5):
        cache = CognitiveCache(tmp_path, f"run-{i}")
        lengths.append(len(cache.prefetch("task")))
        cache.promote_run(f"wisdom {i}")
    assert lengths == [0, 1, 2, 3]
