from __future__ import annotations

import pytest

from evokit.context import (
    CompressionEvent,
    ContextBudget,
    ContextEntry,
    ContextManager,
    InvariantViolation,
    PinnedOverflow,
)
from evokit.gateway import ChatMessage, LlmGateway, ModelProfile, ProviderError
from evokit.tools import Action
from helpers import scripted_gateway


def _entry(content: str, *, pinned: bool = False, kind: str = "dialogue", role: str = "user") -> ContextEntry:
    return ContextEntry(ChatMessage(role, content), kind=kind, pinned=pinned)


def _manager_with(entries: list[ContextEntry]) -> ContextManager:
    manager = ContextManager()
    for entry in entries:
        manager.append(entry)
    return manager


# -- append and totals ------------------------------------------------------------


def test_append_preserves_order_and_totals() -> None:
    manager = _manager_with([_entry("aaaa"), _entry("bbbb"), _entry("cccc")])
    assert [e.message.content for e in manager.entries()] == ["aaaa", "bbbb", "cccc"]
    assert manager.total_tokens == 3
    assert len(manager.entries()) == 3


def test_system_entries_must_be_pinned() -> None:
    with pytest.raises(InvariantViolation):
        ContextEntry(ChatMessage("system", "prompt"), kind="system", pinned=False)
    with pytest.raises(InvariantViolation):
        ContextEntry(ChatMessage("user", "task"), kind="task", pinned=False)


def test_tokens_match_estimator() -> None:
    entry = _entry("abcdefgh")
    assert entry.tokens == 2
    assert entry.message.tokens == 2
    assert "tokens" not in repr(entry.message)


def test_fresh_context_usage() -> None:
    manager = ContextManager()
    assert manager.total_tokens == 0
    assert manager.entries() == ()


# -- render -----------------------------------------------------------------------


def test_render_returns_everything_when_it_fits() -> None:
    manager = _manager_with(
        [_entry("sys prompt", pinned=True, kind="system", role="system"), _entry("hello")]
    )
    messages = manager.render(ContextBudget(max_tokens=100))
    assert [m.content for m in messages] == ["sys prompt", "hello"]


def test_render_drops_exactly_two_oldest_unpinned() -> None:
    # 6-entry fixture: 1 pinned (2 tokens) + unpinned tokens [3, 3, 2, 2, 2].
    pinned = _entry("x" * 8, pinned=True, kind="system", role="system")
    unpinned = [
        _entry("a" * 12),
        _entry("b" * 12),
        _entry("c" * 8),
        _entry("d" * 8),
        _entry("e" * 8),
    ]
    manager = _manager_with([pinned, *unpinned])
    budget = ContextBudget(max_tokens=9)

    # Independent oracle: brute force over unpinned suffix lengths.
    def brute_force_keep() -> list[str]:
        pinned_cost = pinned.tokens
        best: list[ContextEntry] = []
        for k in range(len(unpinned) + 1):
            suffix = unpinned[len(unpinned) - k :]
            if pinned_cost + sum(e.tokens for e in suffix) <= budget.max_tokens:
                best = suffix
        return [pinned.message.content] + [e.message.content for e in best]

    rendered = [m.content for m in manager.render(budget)]
    assert rendered == brute_force_keep()
    assert rendered == ["x" * 8, "c" * 8, "d" * 8, "e" * 8]


def test_render_pinned_overflow() -> None:
    manager = _manager_with([_entry("x" * 40, pinned=True, kind="system", role="system")])
    with pytest.raises(PinnedOverflow):
        manager.render(ContextBudget(max_tokens=5))


def _call_pair(call_id: str, rng) -> list[ContextEntry]:
    """An assistant message with one or two calls, then their observations."""
    ids = [f"{call_id}-{k}" for k in range(rng.randrange(1, 3))]
    calls = tuple(Action(i, "exec", {}) for i in ids)
    call = ChatMessage("assistant", "a" * rng.randrange(1, 40), tool_calls=calls)
    return [ContextEntry(call)] + [
        ContextEntry(ChatMessage("tool", "o" * rng.randrange(1, 40), tool_call_id=i)) for i in ids
    ]


def _assert_no_orphaned_tool(messages: list[ChatMessage]) -> None:
    called: set[str] = set()
    for m in messages:
        called.update(a.id for a in m.tool_calls)
        if m.role == "tool":
            assert m.tool_call_id in called, [x.role for x in messages]


def test_render_never_exceeds_budget_fuzz() -> None:
    import random

    rng = random.Random(99)
    for n in range(200):
        manager = ContextManager()
        manager.append(_entry("sys", pinned=True, kind="system", role="system"))
        for k in range(rng.randrange(0, 20)):
            if rng.random() < 0.3:
                for entry in _call_pair(f"c{n}-{k}", rng):
                    manager.append(entry)
            else:
                manager.append(_entry("w" * rng.randrange(1, 40)))
        budget = ContextBudget(max_tokens=rng.randrange(5, 50))
        messages = manager.render(budget)
        total = sum((len(m.content) + 3) // 4 for m in messages)
        assert total <= budget.max_tokens
        _assert_no_orphaned_tool(messages)


def test_render_drops_orphaned_tool_message() -> None:
    manager = _manager_with(
        [
            _entry("s" * 8, pinned=True, kind="system", role="system"),
            _entry("u" * 40),
            ContextEntry(
                ChatMessage("assistant", "a" * 80, tool_calls=(Action("c1", "exec", {}),))
            ),
            ContextEntry(ChatMessage("tool", "t" * 60, tool_call_id="c1")),
        ]
    )
    # The observation fits the budget but its call does not: both go.
    assert [m.role for m in manager.render(ContextBudget(max_tokens=30))] == ["system"]
    assert [m.role for m in manager.render(ContextBudget(max_tokens=40))] == [
        "system",
        "assistant",
        "tool",
    ]


def _reference_render(entries: tuple[ContextEntry, ...], budget: ContextBudget) -> list[ChatMessage]:
    """The original index-set render, plus dropping orphaned observations."""

    def cost(e: ContextEntry) -> int:
        return (len(e.message.content) + 3) // 4

    pinned_total = sum(cost(e) for e in entries if e.pinned)
    if pinned_total > budget.max_tokens:
        raise PinnedOverflow("reference")
    unpinned = [i for i, e in enumerate(entries) if not e.pinned]
    keep: set[int] = set()
    remaining = budget.max_tokens - pinned_total
    for i in reversed(unpinned):
        if cost(entries[i]) > remaining:
            break
        keep.add(i)
        remaining -= cost(entries[i])
    if len(keep) < len(unpinned):
        for i in sorted(keep):
            if entries[i].message.role != "tool":
                break
            keep.discard(i)
    return [e.message for i, e in enumerate(entries) if e.pinned or i in keep]


def test_running_totals_and_render_match_reference_fuzz(tmp_path) -> None:
    import random

    gateway = scripted_gateway(
        tmp_path, summarizer=[{"content": "S" * 6}, {"content": "summary " * 30}]
    )
    rng = random.Random(4242)
    for n in range(150):
        manager = ContextManager()
        manager.append(_entry("sys prompt", pinned=True, kind="system", role="system"))
        strategy = rng.choice(["summarize", "sliding_window"])
        renders = []
        for k in range(rng.randrange(5, 60)):
            roll = rng.random()
            if roll < 0.45:
                role = rng.choice(["user", "assistant"])
                manager.append(_entry("w" * rng.randrange(0, 50), role=role))
            elif roll < 0.65:
                for entry in _call_pair(f"c{n}-{k}", rng):
                    manager.append(entry)
            elif roll < 0.7:
                manager.append(_entry("note " * rng.randrange(1, 4), pinned=True, kind="task"))
            elif roll < 0.85:
                budget = ContextBudget(
                    max_tokens=rng.randrange(20, 120),
                    compress_at=rng.uniform(0.3, 1.0),
                    strategy=strategy,
                )
                event = manager.maybe_compress(budget, gateway, "summarizer")
                if event is not None:
                    assert event.before_tokens > event.after_tokens == manager.total_tokens
            else:
                budget = ContextBudget(max_tokens=rng.randrange(5, 150))
                try:
                    expected = _reference_render(manager.entries(), budget)
                except PinnedOverflow:
                    with pytest.raises(PinnedOverflow):
                        manager.render(budget)
                else:
                    rendered = manager.render(budget)
                    assert rendered == expected
                    assert rendered.tokens == sum(m.tokens for m in rendered)
                    assert rendered.assistants == sum(m.role == "assistant" for m in rendered)
                    renders.append((rendered, (list(rendered), rendered.tokens, rendered.assistants)))
            # Later appends and compressions leave every earlier render as it was.
            for rendered, snapshot in renders:
                assert (rendered, rendered.tokens, rendered.assistants) == snapshot
            entries = manager.entries()
            assert all(e.tokens == (len(e.message.content) + 3) // 4 for e in entries)
            assert manager.total_tokens == sum(e.tokens for e in entries)


# -- compression -------------------------------------------------------------------


def _ten_dialogue_manager() -> ContextManager:
    manager = ContextManager()
    manager.append(_entry("sys!", pinned=True, kind="system", role="system"))
    for i in range(10):
        manager.append(_entry(f"turn {i:02d}"))  # 7 chars -> 2 tokens each
    return manager


def test_below_threshold_is_identity(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, summarizer=[{"content": "SUMMARY-1"}])
    manager = _ten_dialogue_manager()
    before = manager.entries()
    event = manager.maybe_compress(
        ContextBudget(max_tokens=1000, compress_at=0.9), gateway, "summarizer"
    )
    assert event is None
    assert manager.entries() == before


def test_summarize_replaces_oldest_half(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, summarizer=[{"content": "SUMMARY-1"}])
    manager = _ten_dialogue_manager()
    before_tokens = manager.total_tokens
    event = manager.maybe_compress(
        ContextBudget(max_tokens=25, compress_at=0.8), gateway, "summarizer"
    )
    assert isinstance(event, CompressionEvent)
    assert event.replaced_count == 5
    assert event.before_tokens == before_tokens
    assert event.after_tokens < event.before_tokens
    summaries = [e for e in manager.entries() if e.kind == "summary"]
    assert len(summaries) == 1
    assert summaries[0].message.content == "SUMMARY-1"
    assert not summaries[0].pinned
    # The recent half survives verbatim, in order, after the summary.
    contents = [e.message.content for e in manager.entries()]
    assert contents == ["sys!", "SUMMARY-1"] + [f"turn {i:02d}" for i in range(5, 10)]
    assert event.after_tokens == manager.total_tokens


def test_sliding_window_drops_span_without_model(tmp_path) -> None:
    manager = _ten_dialogue_manager()
    event = manager.maybe_compress(
        ContextBudget(max_tokens=25, compress_at=0.8, strategy="sliding_window")
    )
    assert event is not None
    assert event.replaced_count == 5
    assert event.summary_tokens == 0
    assert event.usage is None
    assert event.after_tokens < event.before_tokens
    assert [e.message.content for e in manager.entries()] == ["sys!"] + [
        f"turn {i:02d}" for i in range(5, 10)
    ]


def test_provider_error_leaves_history_unchanged() -> None:
    gateway = LlmGateway()
    gateway.register_profile(
        ModelProfile("dead", "http-openai-compatible", "m", base_url="http://127.0.0.1:9")
    )
    manager = _ten_dialogue_manager()
    before = manager.entries()
    before_tokens = manager.total_tokens
    with pytest.raises(ProviderError):
        manager.maybe_compress(ContextBudget(max_tokens=25, compress_at=0.8), gateway, "dead")
    assert manager.entries() == before
    assert manager.total_tokens == before_tokens


def test_span_extends_over_tool_pair(tmp_path) -> None:
    from evokit.tools import Action

    gateway = scripted_gateway(tmp_path, summarizer=[{"content": "S"}])
    manager = ContextManager()
    manager.append(_entry("sys!", pinned=True, kind="system", role="system"))
    # Three 2-token turns, then an action/observation pair right at the
    # half-way boundary: the span must swallow the whole pair.
    manager.append(_entry("turn aa"))
    manager.append(_entry("turn bb"))
    manager.append(
        ContextEntry(
            ChatMessage("assistant", "turn cc", tool_calls=(Action("c1", "exec", {}),))
        )
    )
    manager.append(ContextEntry(ChatMessage("tool", "tool out", tool_call_id="c1")))
    manager.append(_entry("turn dd"))
    manager.append(_entry("turn ee"))
    event = manager.maybe_compress(
        ContextBudget(max_tokens=16, compress_at=0.5), gateway, "summarizer"
    )
    assert event is not None
    # Half of 12 unpinned tokens is covered by the first three turns, but the
    # boundary extends through the tool observation.
    assert event.replaced_count == 4
    roles = [e.message.role for e in manager.entries()]
    assert "tool" not in roles


def test_pinned_survive_every_compression(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, summarizer=[{"content": "S"}])
    manager = _ten_dialogue_manager()
    manager.maybe_compress(ContextBudget(max_tokens=25, compress_at=0.5), gateway, "summarizer")
    rendered = manager.render(ContextBudget(max_tokens=25))
    assert rendered[0].content == "sys!"
