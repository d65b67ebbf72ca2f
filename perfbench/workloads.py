"""The benchmark's workloads: seeded inputs, the experiments to run, output checks.

Each workload writes its inputs (manifests, scripts, corpus) into a directory
of its own from the seed alone, so the program sees only generated files.
The seed changes the text of the inputs, never their sizes, so every seed
asks for the same amount of work. A workload hands out ``Job`` lists: one
list is one unit of the closed loop, and ``warm_jobs`` is a smaller unit run
during set-up so lazy initialisation finishes before timing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import stub as latency_stub

Check = Callable[[Any], "str | None"]

LONG_LOOP_TURNS = 2000
LONG_LOOP_BUDGET = 131_072
LONG_LOOP_CRITIQUE_EVERY = 10
LONG_LOOP_QUERIES = 64
LONG_LOOP_RESULT_CHARS = 640
LONG_LOOP_NOTE_CHARS = 120
WARM_TURNS = 20

FANOUT_ROUNDS = 20
FANOUT_IMPROVERS = ("a", "b")

GOLDEN = (
    ("draft_and_improve", "draft_improve.yaml", "draft_improve.txt"),
    ("planner_executor", "planner_executor.yaml", "planner_executor.txt"),
    ("single_agent_research", "research.yaml", "research.txt"),
    ("solve_critique_rewrite_select", "solve_critique.yaml", "solve_critique.txt"),
)

_WORDS = (
    "reef", "thermal", "anomaly", "survey", "bleaching", "factor", "coral",
    "ocean", "stress", "local", "recovery", "model", "signal", "season",
    "depth", "light", "sample", "estimate", "trend", "baseline",
)


@dataclass(frozen=True)
class Job:
    label: str
    manifest: Path
    check: Check


class Workload:
    """Generates its inputs on construction; a context manager for what it runs."""

    name = ""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def jobs(self) -> list[Job]:
        """The experiments of one unit of the measured loop."""
        raise NotImplementedError

    def warm_jobs(self) -> list[Job]:
        """A smaller unit run during set-up."""
        raise NotImplementedError


def _text(rng: random.Random, chars: int) -> str:
    """Seeded prose of exactly ``chars`` characters."""
    words: list[str] = []
    length = 0
    while length < chars:
        word = rng.choice(_WORDS)
        words.append(word)
        length += len(word) + 1
    return " ".join(words)[:chars]


def _write_json(path: Path, data: Any) -> Path:
    # JSON is valid YAML, so manifests are written with the json module.
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")
    return path


def _check_partial(turns: int) -> Check:
    def check(record) -> str | None:
        result = record.result
        if record.status != "partial" or result is None:
            return f"status {record.status!r}, expected 'partial'"
        outcome = result.per_slot_outcomes.get("researcher")
        if result.rounds_used != turns or outcome is None or outcome.turns != turns:
            return f"ran {result.rounds_used} turns, expected {turns}"
        return None

    return check


class LongLoop(Workload):
    """One long single-agent research run with tools, critique and compression."""

    name = "long_loop"

    def __init__(self, root: Path, inputs: Path, seed: int):
        rng = random.Random(seed)
        corpus = inputs / "corpus"
        corpus.mkdir(parents=True)
        queries = [f"{rng.choice(_WORDS)}-{i:03d}" for i in range(LONG_LOOP_QUERIES)]
        for query in queries:
            (corpus / f"search-{query}.txt").write_text(
                _text(rng, LONG_LOOP_RESULT_CHARS), encoding="utf-8"
            )
        script = [
            {
                "content": _text(rng, LONG_LOOP_NOTE_CHARS),
                "tool_calls": [{"name": "web_search", "arguments": {"query": query}}],
            }
            for query in queries
        ]
        _write_json(inputs / "researcher.script", script)
        self._main = self._manifest(inputs, "long_loop.yaml", seed, LONG_LOOP_TURNS)
        self._warm = self._manifest(inputs, "long_loop_warm.yaml", seed, WARM_TURNS)

    @staticmethod
    def _manifest(inputs: Path, name: str, seed: int, turns: int) -> Path:
        return _write_json(
            inputs / name,
            {
                "experiment": {
                    "name": "bench-long-loop",
                    "task": "Survey what drives coral bleaching and keep notes.",
                    "seed": seed,
                },
                "llm": {
                    "profiles": [
                        {
                            "name": "researcher-m",
                            "provider": "scripted",
                            "model": "scripted-v1",
                            "script_path": "researcher.script",
                        }
                    ]
                },
                "tools": {"builtin": ["web_search"], "corpus": "corpus"},
                "playground": {
                    "name": "single_agent_research",
                    "params": {"tool_pack": ["web_search"]},
                    "slots": [
                        {
                            "slot_name": "researcher",
                            "role": "researcher",
                            "llm_profile": "researcher-m",
                            "max_turns": turns,
                            "critique_every": LONG_LOOP_CRITIQUE_EVERY,
                            "budget": {
                                "max_tokens": LONG_LOOP_BUDGET,
                                "compress_at": 0.8,
                                "strategy": "summarize",
                            },
                        }
                    ],
                },
            },
        )

    def jobs(self) -> list[Job]:
        return [Job(self.name, self._main, _check_partial(LONG_LOOP_TURNS))]

    def warm_jobs(self) -> list[Job]:
        return [Job(self.name + ".warm", self._warm, _check_partial(WARM_TURNS))]


def expected_fanout_answer(seed: int, rounds: int) -> str:
    """The final answer draft_and_improve must reach against the stub's scores."""
    solution = f"gen0-{latency_stub.seed_tag(seed)}"
    for generation in range(1, rounds + 1):
        proposals = {
            f"imp-{x}": latency_stub.proposal(f"improver-{x}", generation, seed)
            for x in FANOUT_IMPROVERS
        }
        scores = {name: latency_stub.score(seed, text) for name, text in proposals.items()}
        best = max(scores.values())
        solution = proposals[min(n for n, s in scores.items() if s == best)]
    return solution


class FanoutHttp(Workload):
    """draft_and_improve with every model call going to the latency stub."""

    name = "fanout_http"

    def __init__(self, root: Path, inputs: Path, seed: int):
        inputs.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.stub = latency_stub.LatencyStub(seed)
        self._main = self._manifest(inputs, "fanout.yaml", FANOUT_ROUNDS)
        self._warm = self._manifest(inputs, "fanout_warm.yaml", 1)

    def _manifest(self, inputs: Path, name: str, rounds: int) -> Path:
        models = {"drafter": "bench-drafter", "evaluator": "bench-evaluator"}
        models.update({f"imp-{x}": f"bench-improver-{x}" for x in FANOUT_IMPROVERS})
        slots = [{"slot_name": "drafter", "role": "drafter", "max_turns": 1}]
        slots += [
            {"slot_name": f"imp-{x}", "role": "improver", "max_turns": 2}
            for x in FANOUT_IMPROVERS
        ]
        slots.append({"slot_name": "evaluator", "role": "evaluator", "max_turns": 1})
        for slot in slots:
            slot["llm_profile"] = slot["slot_name"] + "-m"
            slot["critique_every"] = 99
            slot["system_prompt"] = f"You are the {slot['slot_name']} of a tagline team."
        return _write_json(
            inputs / name,
            {
                "experiment": {
                    "name": "bench-fanout",
                    "task": "Write a tagline for the observatory.",
                    "seed": self.seed,
                },
                "llm": {
                    "profiles": [
                        {
                            "name": slot + "-m",
                            "provider": "http-openai-compatible",
                            "model": model,
                            "base_url": self.stub.url,
                        }
                        for slot, model in models.items()
                    ]
                },
                "tools": {"builtin": []},
                "playground": {
                    "name": "draft_and_improve",
                    "params": {"max_rounds": rounds},
                    "slots": slots,
                },
            },
        )

    def _check(self, rounds: int) -> Check:
        expected = expected_fanout_answer(self.seed, rounds)

        def check(record) -> str | None:
            result = record.result
            if record.status != "ok" or result is None:
                return f"status {record.status!r}, expected 'ok'"
            if result.rounds_used != rounds:
                return f"{result.rounds_used} rounds used, expected {rounds}"
            if result.final_answer != expected:
                return f"answer {result.final_answer!r}, expected {expected!r}"
            return None

        return check

    def __enter__(self) -> "FanoutHttp":
        self.stub.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stub.__exit__(*exc_info)

    def jobs(self) -> list[Job]:
        return [Job(self.name, self._main, self._check(FANOUT_ROUNDS))]

    def warm_jobs(self) -> list[Job]:
        return [Job(self.name + ".warm", self._warm, self._check(1))]


def _check_answer(expected: str) -> Check:
    def check(record) -> str | None:
        answer = record.result.final_answer if record.result else None
        if answer != expected:
            return f"answer {answer!r}, expected {expected!r}"
        return None

    return check


class GoldenMix(Workload):
    """The four golden manifests back to back, in a seeded order per pass."""

    name = "golden_mix"

    def __init__(self, root: Path, inputs: Path, seed: int):
        golden = root / "tests" / "fixtures" / "golden"
        self._jobs = [
            Job(
                playground,
                golden / manifest,
                _check_answer((golden / "answers" / answer).read_text(encoding="utf-8")),
            )
            for playground, manifest, answer in GOLDEN
        ]
        self._rng = random.Random(seed)

    def jobs(self) -> list[Job]:
        order = list(self._jobs)
        self._rng.shuffle(order)
        return order

    def warm_jobs(self) -> list[Job]:
        return list(self._jobs)


WORKLOADS = {w.name: w for w in (LongLoop, FanoutHttp, GoldenMix)}
