"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines as they execute.
"""

from __future__ import annotations

import ast
import json
import random
import re
import string
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from evokit.context import ContextBudget, ContextEntry, ContextManager
from evokit.gateway import ChatMessage
from evokit.harness import from_dict, load_config, masked_lines, replay, run_experiment
from evokit.mcp import McpClient, McpEndpoint, register_mcp_tools
from evokit.mcp_stub import StubMcpServer, call_stub_tool
from evokit.playgrounds import CognitiveCache, select_best
from evokit.tools import Action, ToolRegistry, install_builtin_tools
from helpers import FIXTURES, scripted_gateway, write_script

GOLDEN_RUNS = [
    ("solve_critique_rewrite_select", "golden/solve_critique.yaml", "solve_critique.txt"),
    ("planner_executor", "golden/planner_executor.yaml", "planner_executor.txt"),
    ("draft_and_improve", "golden/draft_improve.yaml", "draft_improve.txt"),
    ("single_agent_research", "golden/research.yaml", "research.txt"),
]

REFERENCE_WORKFLOW_MODULES = [
    "solve_critique.py",
    "planner_executor.py",
    "draft_improve.py",
    "research.py",
]


@contextmanager
def _criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


@pytest.fixture(autouse=True)
def _no_evo_home(monkeypatch):
    monkeypatch.delenv("EVO_HOME", raising=False)


def _run_fixture_config(name: str, out_dir: Path):
    config = load_config(FIXTURES / name)
    config.experiment.output_dir = str(out_dir)
    return run_experiment(config)


# -- 1. golden end-to-end runs -------------------------------------------------------


def test_c01_golden_reference_runs(tmp_path) -> None:
    with _criterion(1, "golden reference playground runs"):
        for playground, config_name, answer_name in GOLDEN_RUNS:
            t0 = time.monotonic()
            record = _run_fixture_config(config_name, tmp_path / playground)
            elapsed = time.monotonic() - t0
            golden = (FIXTURES / "golden/answers" / answer_name).read_text(encoding="utf-8")
            assert record.status == "ok", (playground, record.status)
            assert record.result is not None
            assert record.result.final_answer == golden, playground
            assert elapsed < 10.0, (playground, elapsed)


# -- 2. round bounds under adversarial scripts ------------------------------------------


def test_c02_round_bounds_exact(tmp_path) -> None:
    with _criterion(2, "planner<=10 and draft<=20 round bounds"):
        planner = _run_fixture_config("configs/adversarial_planner.yaml", tmp_path / "pe")
        assert planner.result is not None
        assert planner.result.rounds_used == 10
        draft = _run_fixture_config("configs/adversarial_draft.yaml", tmp_path / "di")
        assert draft.result is not None
        assert draft.result.rounds_used == 20


# -- 3. the ~100-line orchestration claim -----------------------------------------------


def test_c03_reference_workflows_within_line_budget() -> None:
    import evokit.playgrounds as playgrounds_pkg

    with _criterion(3, "reference workflows <= 150 non-blank lines"):
        package_dir = Path(playgrounds_pkg.__file__).parent
        for module_name in REFERENCE_WORKFLOW_MODULES:
            source = (package_dir / module_name).read_text(encoding="utf-8")
            non_blank = [line for line in source.splitlines() if line.strip()]
            assert len(non_blank) <= 150, (module_name, len(non_blank))


def test_builtin_workflows_leave_the_status_to_their_definition() -> None:
    # A workflow returns its definition's result(); only base.py decides a
    # status. The role_effects declaration beside slot_roles is data.
    import evokit.playgrounds as playgrounds_pkg
    from evokit.playgrounds.base import RESULT_STATUSES

    package_dir = Path(playgrounds_pkg.__file__).parent
    for definition in playgrounds_pkg.BUILTIN_DEFINITIONS:
        module_name = definition.workflow.__module__.rsplit(".", 1)[-1]
        tree = ast.parse((package_dir / f"{module_name}.py").read_text(encoding="utf-8"))
        declared = {
            id(node)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "PlaygroundDefinition"
            for keyword in call.keywords
            if keyword.arg == "role_effects"
            for node in ast.walk(keyword.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                assert getattr(node.func, "id", None) != "PlaygroundResult", module_name
            if isinstance(node, ast.Constant) and id(node) not in declared:
                assert node.value not in RESULT_STATUSES, (module_name, node.lineno)


# -- 4. trajectory completeness + mutation detection ----------------------------------------


def _fuzz_config(rng: random.Random, base: Path, index: int) -> dict:
    scripts_dir = base / "scripts"
    slots = []
    profiles = []
    for slot_index in range(rng.randrange(1, 4)):
        entries = []
        for turn in range(rng.randrange(0, 3)):
            if rng.random() < 0.5:
                entries.append(
                    {
                        "content": "",
                        "tool_calls": [
                            {"name": "exec", "arguments": {"cmd": f"echo t{turn}"}}
                        ],
                    }
                )
            else:
                entries.append({"content": f"working {turn} " + "x" * rng.randrange(0, 60)})
        entries.append({"content": f"FINAL: answer-{index}-{slot_index}"})
        name = f"w{slot_index}"
        path = write_script(scripts_dir, f"{index}-{name}.script", entries)
        profiles.append(
            {
                "name": f"{name}-m",
                "provider": "scripted",
                "model": "scripted-v1",
                "script_path": str(path),
            }
        )
        slots.append(
            {
                "slot_name": name,
                "role": "worker",
                "llm_profile": f"{name}-m",
                "tools": ["exec"],
                "max_turns": 5,
                "critique_every": rng.choice([1, 2, 99]),
                "budget": {
                    "max_tokens": rng.choice([60, 4096]),
                    "compress_at": 0.5,
                    "strategy": "sliding_window",
                },
            }
        )
    return {
        "experiment": {
            "name": f"fuzz-{index}",
            "task": "fuzzed task " + "y" * rng.randrange(0, 40),
            "seed": index,
            "output_dir": str(base / "runs"),
        },
        "llm": {"profiles": profiles},
        "tools": {"builtin": ["exec"]},
        "playground": {"name": "sequential_handoff", "params": {}, "slots": slots},
    }


def test_c04_fuzzed_runs_replay_complete_and_mutations_detected(tmp_path) -> None:
    with _criterion(4, "100 fuzzed runs replay complete; mutation detection 100%"):
        rng = random.Random(1701)
        for index in range(100):
            config = from_dict(_fuzz_config(rng, tmp_path, index))
            record = run_experiment(config)
            report = replay(record.trajectory_path)
            assert report.complete, (index, report.violations)

        golden = _run_fixture_config("golden/research.yaml", tmp_path / "golden")
        lines = Path(golden.trajectory_path).read_text().splitlines()
        mutated = tmp_path / "mutated.jsonl"

        mutations = 0
        detected = 0
        for drop in range(len(lines)):
            mutations += 1
            mutated.write_text(
                "\n".join(line for i, line in enumerate(lines) if i != drop) + "\n",
                encoding="utf-8",
            )
            if not replay(mutated).complete:
                detected += 1

        def edit(index: int, transform) -> None:
            nonlocal mutations, detected
            mutations += 1
            edited = [json.dumps(transform(json.loads(line))) if i == index else line
                      for i, line in enumerate(lines)]
            mutated.write_text("\n".join(edited) + "\n", encoding="utf-8")
            if not replay(mutated).complete:
                detected += 1

        def bump_seq(event):
            event["seq"] += 1
            return event

        def forge_usage(event):
            event["payload"]["usage_totals"]["prompt_tokens"] += 1
            return event

        def drop_action_id(event):
            event["payload"]["action_id"] = "forged"
            return event

        edit(3, bump_seq)
        edit(len(lines) - 1, forge_usage)
        observation_index = next(
            i for i, line in enumerate(lines) if json.loads(line)["kind"] == "observation"
        )
        edit(observation_index, drop_action_id)
        assert detected == mutations, f"only {detected}/{mutations} mutations detected"


# -- 5. concurrency stress -----------------------------------------------------------------------


def _stress_config(base: Path) -> dict:
    scripts_dir = base / "scripts"
    loop = write_script(scripts_dir, "loop.script", [{"content": "still exploring"}])
    agg = write_script(scripts_dir, "agg.script", [{"content": "FINAL: merged"}])
    profiles = [
        {"name": "loop-m", "provider": "scripted", "model": "s", "script_path": str(loop)},
        {"name": "agg-m", "provider": "scripted", "model": "s", "script_path": str(agg)},
    ]
    slots = [
        {
            "slot_name": f"e{i}",
            "role": "explorer",
            "llm_profile": "loop-m",
            "max_turns": 26,
            "critique_every": 1,
        }
        for i in range(1, 9)
    ]
    slots.append(
        {
            "slot_name": "aggregator",
            "role": "aggregator",
            "llm_profile": "agg-m",
            "max_turns": 2,
            "critique_every": 99,
        }
    )
    return {
        "experiment": {
            "name": "stress",
            "task": "explore concurrently",
            "seed": 9,
            "output_dir": str(base / "runs"),
        },
        "llm": {"profiles": profiles},
        "tools": {"builtin": []},
        "playground": {"name": "parallel_explore", "params": {}, "slots": slots},
    }


def test_c05_concurrent_slots_keep_sequences_gap_free(tmp_path) -> None:
    with _criterion(5, "8-slot concurrency stress, 20 repetitions"):
        for repetition in range(20):
            base = tmp_path / f"rep{repetition}"
            config = from_dict(_stress_config(base))
            record = run_experiment(config)
            lines = Path(record.trajectory_path).read_text().splitlines()
            events = [json.loads(line) for line in lines]  # every line parses
            seqs = [e["seq"] for e in events]
            assert seqs == list(range(1, len(events) + 1)), repetition
            per_slot = {}
            for event in events:
                if event["slot"] and event["slot"].startswith("e"):
                    per_slot[event["slot"]] = per_slot.get(event["slot"], 0) + 1
            assert len(per_slot) == 8
            assert all(count >= 50 for count in per_slot.values()), per_slot
            assert replay(record.trajectory_path).complete


# -- 6. context budget fuzz ------------------------------------------------------------------------


def test_c06_context_budget_fuzz(tmp_path) -> None:
    with _criterion(6, "1000 append/compress sequences stay within budget"):
        gateway = scripted_gateway(tmp_path, summarizer=[{"content": "S"}])
        rng = random.Random(2026)
        for _ in range(1000):
            manager = ContextManager()
            pinned_texts = ["sys"]
            manager.append(
                ContextEntry(ChatMessage("system", "sys"), kind="system", pinned=True)
            )
            if rng.random() < 0.5:
                pinned_texts.append("task here")
                manager.append(
                    ContextEntry(ChatMessage("user", "task here"), kind="task", pinned=True)
                )
            budget = ContextBudget(
                max_tokens=rng.randrange(20, 80),
                compress_at=rng.uniform(0.3, 0.9),
                strategy=rng.choice(["summarize", "sliding_window"]),
            )
            for _ in range(rng.randrange(3, 25)):
                roll = rng.random()
                if roll < 0.65:
                    content = "".join(rng.choices(string.ascii_lowercase, k=rng.randrange(1, 60)))
                    role = rng.choice(["user", "assistant"])
                    manager.append(ContextEntry(ChatMessage(role, content)))
                elif roll < 0.8:
                    action = Action(f"c{rng.randrange(10_000)}", "exec", {})
                    manager.append(
                        ContextEntry(ChatMessage("assistant", "call", tool_calls=(action,)))
                    )
                    manager.append(
                        ContextEntry(ChatMessage("tool", "out" * rng.randrange(1, 6), tool_call_id=action.id))
                    )
                else:
                    event = manager.maybe_compress(budget, gateway, "summarizer")
                    if event is not None:
                        assert event.after_tokens < event.before_tokens
                rendered = manager.render(budget)
                total = sum((len(m.content) + 3) // 4 for m in rendered)
                assert total <= budget.max_tokens
                contents = [m.content for m in rendered]
                positions = [contents.index(p) for p in pinned_texts]
                assert positions == sorted(positions)  # pinned present, in order


# -- 7. determinism over ten trials --------------------------------------------------------------------


def test_c07_ten_trial_determinism(tmp_path) -> None:
    with _criterion(7, "10 identical runs produce identical masked trajectories"):
        baselines = None
        for _ in range(10):
            record = _run_fixture_config("golden/planner_executor.yaml", tmp_path)
            lines = masked_lines(record.trajectory_path)
            if baselines is None:
                baselines = lines
            else:
                assert lines == baselines


def test_ten_trial_record_json_determinism(tmp_path) -> None:
    # Beside c07: record.json's bytes repeat too, once its run id and
    # wall_seconds are masked (all ten runs share one output_dir).
    baseline = None
    for _ in range(10):
        record = _run_fixture_config("golden/planner_executor.yaml", tmp_path)
        raw = Path(record.record_path).read_bytes().replace(record.run_id.encode(), b"<run_id>")
        masked, count = re.subn(rb'"wall_seconds": [^,]+,', b'"wall_seconds": "<masked>",', raw)
        assert count == 1
        if baseline is None:
            baseline = masked
        else:
            assert masked == baseline


# -- 8. cognitive cache across runs ----------------------------------------------------------------------


def test_c08_two_run_cache_integration(tmp_path) -> None:
    with _criterion(8, "run 2 prefetches exactly run 1's promoted wisdom"):
        first = _run_fixture_config("golden/draft_improve.yaml", tmp_path)
        assert first.result is not None
        wisdom = first.result.final_answer

        cache_root = tmp_path / "cache"
        rounds_dir = cache_root / "runs" / first.run_id / "rounds"
        assert len(list(rounds_dir.glob("*.txt"))) == first.result.rounds_used
        assert CognitiveCache(cache_root, "probe").prefetch("task") == [wisdom]

        second = _run_fixture_config("golden/draft_improve.yaml", tmp_path)
        events = [
            json.loads(line)
            for line in Path(second.trajectory_path).read_text().splitlines()
        ]
        prefetch_events = [
            e for e in events
            if e["kind"] == "promotion" and e["payload"].get("tier") == "prefetch"
        ]
        assert len(prefetch_events) == 1
        assert prefetch_events[0]["payload"]["items"] == [wisdom]
        assert prefetch_events[0]["payload"]["count"] == 1


# -- 9. wall-clock enforcement ---------------------------------------------------------------------------------


def test_c09_wall_clock_enforced(tmp_path) -> None:
    with _criterion(9, "stalling tool terminates as timeout within 2.5 s"):
        t0 = time.monotonic()
        record = _run_fixture_config("configs/timeout.yaml", tmp_path)
        elapsed = time.monotonic() - t0
        assert record.status == "timeout"
        assert elapsed <= 2.5, elapsed
        events = [
            json.loads(line)
            for line in Path(record.trajectory_path).read_text().splitlines()
        ]
        assert events[-1]["kind"] == "run_end"


# -- 10. MCP conformance --------------------------------------------------------------------------------------------


def test_c10_mcp_stub_conformance(tmp_path) -> None:
    with _criterion(10, "stub MCP tools invokable with matching results"):
        with StubMcpServer() as server:
            client = McpClient(McpEndpoint(alias="stub", endpoint=server.url))
            registry = ToolRegistry()
            install_builtin_tools(registry, tmp_path, names=["exec"])
            registered = register_mcp_tools(registry, client)
            assert "stub.exec" in registered  # collision prefixing

            sample_args = {
                "add": {"a": 2, "b": 3},
                "stub.exec": {"text": "ping"},
                "lookup": {"key": "answer"},
            }
            remote_names = {"add": "add", "stub.exec": "exec", "lookup": "lookup"}
            for local_name in registered:
                execution, observation = registry.invoke(
                    Action("probe", local_name, sample_args[local_name])
                )
                assert execution.status == "ok", (local_name, observation.content)
                direct = call_stub_tool(remote_names[local_name], sample_args[local_name])
                assert observation.content == direct


# -- 11. selection oracle -----------------------------------------------------------------------------------------------


def test_c11_selection_matches_bruteforce_argmax() -> None:
    with _criterion(11, "adoption equals brute-force argmax over 1000 vectors"):
        rng = random.Random(7614)
        values = [-1.0, 0.0, 1.5, 2.0, 3.25, 5.0, 7.0, float("-inf")]
        for _ in range(1000):
            names = rng.sample(
                ["imp-a", "imp-b", "imp-c", "imp-d", "imp-e", "imp-f"],
                k=rng.randrange(1, 6),
            )
            scores = {name: rng.choice(values) for name in names}

            best = max(scores.values())
            if best == float("-inf"):
                expected = None
            else:
                expected = sorted(n for n, s in scores.items() if s == best)[0]
            assert select_best(scores) == expected


# -- every shipped workflow replays clean --------------------------------------------------------------------------------


def test_golden_and_adversarial_runs_replay_complete(tmp_path) -> None:
    manifests = [config_name for _, config_name, _ in GOLDEN_RUNS] + sorted(
        f"configs/{path.name}" for path in (FIXTURES / "configs").glob("adversarial_*.yaml")
    )
    assert len(manifests) == 6
    for index, name in enumerate(manifests):
        record = _run_fixture_config(name, tmp_path / str(index))
        report = replay(record.trajectory_path)
        assert report.complete, (name, report.violations)


# -- a warm run's fixed costs ------------------------------------------------------------------


def test_warm_golden_runs_start_no_thread(tmp_path, monkeypatch) -> None:
    started = []
    start = threading.Thread.start

    def counting_start(thread) -> None:
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for playground, config_name, _ in GOLDEN_RUNS:
        counts = []
        for attempt in range(2):
            started.clear()
            _run_fixture_config(config_name, tmp_path / playground / str(attempt))
            counts.append(len(started))
        # The first run may start the workers it needs; they stay parked.
        assert counts[1] == 0, (playground, counts)


def test_golden_research_run_interns_no_path(tmp_path, monkeypatch) -> None:
    config = load_config(FIXTURES / "golden/research.yaml")
    config.experiment.output_dir = str(tmp_path)
    interned = []
    intern = sys.intern

    def counting_intern(text: str) -> str:
        interned.append(text)
        return intern(text)

    monkeypatch.setattr(sys, "intern", counting_intern)
    record = run_experiment(config)
    monkeypatch.undo()
    assert record.result.status == "ok"
    assert interned == []
