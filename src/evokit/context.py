"""Per-agent message history kept under a token budget.

System prompts, task statements, and skill metadata are pinned and always
survive; dialogue is either summarized through a model call or dropped by a
sliding window once the running total crosses the compression threshold.
Each message's token estimate is computed once, when the message is built;
the manager keeps its pinned and unpinned totals, its message list and its
assistant count incrementally, so a turn below the threshold costs the same
however long the history has grown.
One instance belongs to one agent: single writer, movable between threads,
never mutated concurrently.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import EvokitError
from .gateway import ChatMessage, Prompt, TokenUsage, estimate_tokens
from .prompts import SUMMARIZE_PROMPT

if TYPE_CHECKING:
    from .gateway import LlmGateway

ENTRY_KINDS = ("system", "task", "dialogue", "summary", "critique")
COMPRESSION_STRATEGIES = ("summarize", "sliding_window")


class InvariantViolation(EvokitError):
    pass


class PinnedOverflow(EvokitError):
    pass


@dataclass(frozen=True)
class ContextEntry:
    message: ChatMessage
    kind: str = "dialogue"
    pinned: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ENTRY_KINDS:
            raise InvariantViolation(f"unknown entry kind: {self.kind!r}")
        if self.kind in ("system", "task") and not self.pinned:
            raise InvariantViolation(f"{self.kind} entries must be pinned")

    @property
    def tokens(self) -> int:
        return self.message.tokens


@dataclass(frozen=True)
class ContextBudget:
    max_tokens: int = 8192
    compress_at: float = 0.8
    strategy: str = "summarize"

    def __post_init__(self) -> None:
        # maybe_compress's threshold, compress_at * max_tokens, is a float.
        if not 0 < self.max_tokens <= sys.float_info.max:
            raise InvariantViolation("max_tokens must be positive and at most the largest float")
        if not 0.0 < self.compress_at <= 1.0:
            raise InvariantViolation("compress_at must be in (0, 1]")
        if self.strategy not in COMPRESSION_STRATEGIES:
            raise InvariantViolation(f"unknown strategy: {self.strategy!r}")


@dataclass(frozen=True)
class CompressionEvent:
    replaced_count: int
    summary_tokens: int
    before_tokens: int
    after_tokens: int
    strategy: str
    usage: TokenUsage | None = None


class ContextManager:
    def __init__(self) -> None:
        self._entries: list[ContextEntry] = []
        # The entries' messages, and how many are assistant messages, in step
        # with _entries, so a render that fits copies them without a rescan.
        self._messages: list[ChatMessage] = []
        self._assistants = 0
        self._pinned_tokens = 0
        self._unpinned_tokens = 0

    def append(self, entry: ContextEntry) -> None:
        self._entries.append(entry)
        self._messages.append(entry.message)
        if entry.message.role == "assistant":
            self._assistants += 1
        if entry.pinned:
            self._pinned_tokens += entry.tokens
        else:
            self._unpinned_tokens += entry.tokens

    def entries(self) -> tuple[ContextEntry, ...]:
        return tuple(self._entries)

    @property
    def total_tokens(self) -> int:
        return self._pinned_tokens + self._unpinned_tokens

    def render(self, budget: ContextBudget) -> Prompt:
        """Pinned entries plus the largest recent unpinned suffix that fits.

        When the whole history fits, the Prompt is a copy of the kept message
        list carrying the running token total and assistant count: no Python
        loop runs over the messages. Only the over-budget cut walks the
        entries, and ``Prompt.of`` counts what it keeps. Every call returns a
        new Prompt, which later appends and compressions leave unchanged.

        Chronological order is preserved. The suffix never opens with a tool
        message whose assistant call was cut off: such leading observations
        are dropped too, as _compression_span keeps call and observation
        together. Raises PinnedOverflow when the pinned entries alone exceed
        the budget — nothing below this layer can shrink those.
        """
        entries = self._entries
        if self._pinned_tokens > budget.max_tokens:
            raise PinnedOverflow(
                f"pinned entries use {self._pinned_tokens} tokens, budget is {budget.max_tokens}"
            )
        remaining = budget.max_tokens - self._pinned_tokens
        if self._unpinned_tokens <= remaining:
            return Prompt(self._messages, self.total_tokens, self._assistants)
        # Walk back to the first unpinned entry that does not fit; everything
        # after it survives, and before it only the pinned entries do.
        cut = len(entries)
        while cut:
            entry = entries[cut - 1]
            if not entry.pinned:
                if entry.tokens > remaining:
                    break
                remaining -= entry.tokens
            cut -= 1
        # Skipping a pinned entry keeps it: the prefix below holds it.
        while cut < len(entries) and (
            entries[cut].pinned or entries[cut].message.role == "tool"
        ):
            cut += 1
        return Prompt.of(
            [e.message for e in entries[:cut] if e.pinned] + [e.message for e in entries[cut:]]
        )

    def maybe_compress(
        self,
        budget: ContextBudget,
        gateway: "LlmGateway | None" = None,
        profile_name: str | None = None,
    ) -> CompressionEvent | None:
        """Compress the oldest half of unpinned history once over threshold.

        Below the trigger the history is untouched and None is returned. A
        summarizer ProviderError propagates before any mutation, so failure
        leaves the history exactly as it was.
        """
        before = self.total_tokens
        if before < budget.compress_at * budget.max_tokens:
            return None
        span = self._compression_span()
        if span is None:
            return None

        if budget.strategy == "summarize":
            if gateway is None or profile_name is None:
                raise ValueError("summarize strategy needs a gateway and profile_name")
            summary_text, usage = self._summarize(span, gateway, profile_name)
            replacement = [ContextEntry(ChatMessage("user", summary_text), kind="summary")]
        else:
            replacement = []
            usage = None

        insert_at = span[0]
        removed = set(span)
        kept = [e for i, e in enumerate(self._entries) if i not in removed]
        kept[insert_at:insert_at] = replacement
        self._entries = kept
        self._messages = [e.message for e in kept]
        self._assistants = Prompt.of(self._messages).assistants
        # The span and its replacement are unpinned, so the pinned total holds.
        self._unpinned_tokens = sum(e.tokens for e in kept if not e.pinned)
        return CompressionEvent(
            replaced_count=len(span),
            summary_tokens=replacement[0].tokens if replacement else 0,
            before_tokens=before,
            after_tokens=self.total_tokens,
            strategy=budget.strategy,
            usage=usage,
        )

    def _compression_span(self) -> list[int] | None:
        """Oldest contiguous unpinned indices covering >= half the unpinned tokens.

        The boundary never splits a tool-call/observation pair: while the next
        unpinned entry is a tool message the span keeps extending, so an
        action is never summarized away from its observation. Returns None
        when there is nothing compressible (no unpinned tokens at all).
        """
        unpinned = [i for i, e in enumerate(self._entries) if not e.pinned]
        if not unpinned:
            return None
        total = self._unpinned_tokens
        if total == 0:
            return None
        span: list[int] = []
        covered = 0
        for pos, i in enumerate(unpinned):
            span.append(i)
            covered += self._entries[i].tokens
            if covered * 2 >= total:
                for j in unpinned[pos + 1 :]:
                    if self._entries[j].message.role != "tool":
                        break
                    span.append(j)
                break
        if covered == 0:
            return None
        return span

    def _summarize(
        self, span: list[int], gateway: "LlmGateway", profile_name: str
    ) -> tuple[str, TokenUsage]:
        excerpt = "\n\n".join(
            f"[{self._entries[i].message.role}] {self._entries[i].message.content}"
            for i in span
        )
        response = gateway.complete(
            profile_name,
            [ChatMessage("system", SUMMARIZE_PROMPT), ChatMessage("user", excerpt)],
        )
        span_tokens = sum(self._entries[i].tokens for i in span)
        summary = response.content
        # Clip so compression is guaranteed to shrink the running total even
        # when a summarizer rambles longer than the span it replaces.
        if estimate_tokens(summary) >= span_tokens:
            summary = summary[: max(0, (span_tokens - 1) * 4)]
        return summary, response.usage
