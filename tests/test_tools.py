from __future__ import annotations

import json
import os
import queue
import random
import re
import socket
import string
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from evokit import tools
from evokit.engine import AgentRun, AgentSpec
from evokit.playgrounds import fan_out
from evokit.tools import (
    DEFAULT_OUTPUT_CAP,
    Action,
    DuplicateTool,
    FetchError,
    InvalidDescriptor,
    LocalCorpusFetcher,
    ToolDescriptor,
    ToolRegistry,
    TRUNCATION_MARKER,
    descriptor_wire_form,
    install_builtin_tools,
    truncate_output,
)
from helpers import gone_or_zombie, make_services, scripted_gateway


def _descriptor(name: str) -> ToolDescriptor:
    return ToolDescriptor(
        name=name,
        description=f"test tool {name}",
        parameters={"type": "object", "properties": {}, "required": []},
    )


@pytest.fixture
def registry(tmp_path) -> ToolRegistry:
    reg = ToolRegistry()
    workspace = tmp_path / "workspace"
    workspace.mkdir()
    install_builtin_tools(reg, workspace, names=["exec", "file_read", "file_write"])
    return reg


# -- registration ---------------------------------------------------------------


def test_register_and_list(registry) -> None:
    registry.register_tool(_descriptor("file_probe"), lambda args: "ok")
    assert "file_probe" in registry.names()


def test_duplicate_tool_rejected(registry) -> None:
    registry.register_tool(_descriptor("dup"), lambda args: "ok")
    with pytest.raises(DuplicateTool):
        registry.register_tool(_descriptor("dup"), lambda args: "ok")


def test_empty_name_rejected() -> None:
    with pytest.raises(InvalidDescriptor):
        _descriptor("")


def test_malformed_parameters_rejected() -> None:
    with pytest.raises(InvalidDescriptor):
        ToolDescriptor("x", "d", parameters={"properties": "not a dict"})
    with pytest.raises(InvalidDescriptor):
        ToolDescriptor("x", "d", parameters={"properties": {}, "required": ["ghost"]})


# -- invocation -----------------------------------------------------------------


def test_exec_echo(registry) -> None:
    execution, observation = registry.invoke(
        Action("a1", "exec", {"cmd": "echo hi"})
    )
    assert execution.status == "ok"
    assert observation.content == "hi\n"
    assert not observation.is_error


def test_unknown_tool_becomes_failed_pair(registry) -> None:
    execution, observation = registry.invoke(Action("a1", "no_such_tool", {}))
    assert execution.status == "failed"
    assert observation.is_error
    assert "unknown tool" in observation.content


def test_exec_timeout_is_bounded(registry) -> None:
    t0 = time.monotonic()
    execution, observation = registry.invoke(
        Action("a1", "exec", {"cmd": "sleep 10"}), timeout_ms=100
    )
    elapsed = time.monotonic() - t0
    assert execution.status == "timeout"
    assert observation.is_error
    assert elapsed < 2.0


def test_handler_exception_is_captured(registry) -> None:
    registry.register_tool(
        _descriptor("boom"), lambda args: (_ for _ in ()).throw(RuntimeError("kapow"))
    )
    execution, observation = registry.invoke(Action("a1", "boom", {}))
    assert execution.status == "failed"
    assert "kapow" in observation.content


class _Halt(BaseException):
    pass


def test_handler_exit_is_captured_and_ends_its_worker(monkeypatch) -> None:
    ended = queue.SimpleQueue()
    monkeypatch.setattr(threading, "excepthook", ended.put)
    registry = ToolRegistry()
    registry.register_tool(_descriptor("quit"), lambda args: sys.exit(3))
    execution, observation = registry.invoke(Action("a1", "quit", {}))
    assert execution.status == "failed"
    assert observation.content == "tool error: 3"
    assert ended.get(timeout=5).exc_type is SystemExit

    # A fan-out item that exits ends its worker the same way, and the caller
    # gets the exit only once the other items have ended.
    halted, finished = [], []

    def item(k: int) -> int:
        if k == 1:
            halted.append(threading.get_native_id())
            raise _Halt(k)
        time.sleep(0.05)
        finished.append(k)
        return k

    with pytest.raises(_Halt):
        fan_out(item, [0, 1, 2])
    assert sorted(finished) == [0, 2]
    hook = ended.get(timeout=5)
    assert hook.exc_type is _Halt
    assert hook.thread.native_id == halted[0]
    hook.thread.join(5)
    assert not hook.thread.is_alive()
    registry.register_tool(_descriptor("ident"), lambda args: str(threading.get_native_id()))
    for i in range(20):
        assert fan_out(lambda _: threading.get_native_id(), [0, 1])[1] != halted[0]
        assert registry.invoke(Action(f"i{i}", "ident", {}))[1].content != str(halted[0])


def test_exec_nonzero_exit_fails(registry) -> None:
    execution, observation = registry.invoke(Action("a1", "exec", {"cmd": "false"}))
    assert execution.status == "failed"
    assert observation.is_error


def test_exec_timeout_kills_the_whole_command(registry, tmp_path) -> None:
    t0 = time.monotonic()
    execution, observation = registry.invoke(
        Action("a1", "exec", {"cmd": "sleep 30 & echo $! > pid; wait"}), timeout_ms=300
    )
    assert time.monotonic() - t0 < 1.0
    assert execution.status == "timeout"
    assert execution.duration_ms >= 300
    assert observation.content == "tool timed out after 300 ms"
    assert gone_or_zombie(int((tmp_path / "workspace" / "pid").read_text()), within_s=1.0)


def test_exec_returns_at_its_limit_while_a_process_that_left_its_session_holds_the_pipes(
    registry,
) -> None:
    # The shell has exited by the limit; the setsid grandchild keeps stdout open.
    action = Action("a1", "exec", {"cmd": "setsid sleep 5 &"})
    t0 = time.monotonic()
    execution, _ = registry.invoke(action, timeout_ms=300)
    assert time.monotonic() - t0 < 1.0
    assert execution.status == "timeout"


def test_exec_runs_on_the_callers_thread(registry, dispatches) -> None:
    for cmd in ("echo hi", "false", "sleep 1"):
        registry.invoke(Action("a1", "exec", {"cmd": cmd}), timeout_ms=50)
    assert dispatches == []


def test_exec_reads_no_stdin_of_the_agent(tmp_path) -> None:
    # A fresh interpreter whose stdin is a pipe this test keeps open.
    code = (
        "import json, sys, time\n"
        "from evokit.tools import Action, ToolRegistry, install_builtin_tools\n"
        "registry = ToolRegistry()\n"
        f"install_builtin_tools(registry, {str(tmp_path)!r}, names=['exec'])\n"
        "t0 = time.monotonic()\n"
        "execution, observation = registry.invoke(Action('a1', 'exec', {'cmd': 'cat'}), 1000)\n"
        "print(json.dumps([execution.status, observation.content, time.monotonic() - t0]))"
    )
    src = Path(tools.__file__).resolve().parents[1]
    with subprocess.Popen(
        [sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=src
    ) as proc:
        output = proc.stdout.read()
        proc.stdin.close()
    status, content, elapsed = json.loads(output)
    assert (status, content) == ("ok", "")
    assert elapsed < 0.5


# -- worker threads -------------------------------------------------------------


def test_calls_reuse_parked_workers() -> None:
    registry = ToolRegistry()
    # Kernel thread ids, unlike get_ident(), are not reused by the next thread.
    registry.register_tool(_descriptor("ident"), lambda args: str(threading.get_native_id()))
    before = threading.active_count()
    idents = set()
    for i in range(500):
        execution, observation = registry.invoke(Action(f"a{i}", "ident", {}))
        assert execution.status == "ok"
        idents.add(observation.content)
    # A second worker may serve calls if a handler abandoned by an earlier
    # timeout returns meanwhile and is parked.
    assert len(idents) <= 2
    assert threading.active_count() <= before + 1

    # A 2-item fan-out runs its first item on the caller and hands the
    # second to the same parked workers.
    caller = threading.get_native_id()
    fan_out(lambda _: None, [0, 1])  # warm
    before = threading.active_count()
    idents = set()
    for _ in range(200):
        first, second = fan_out(lambda _: threading.get_native_id(), [0, 1])
        assert first == caller
        idents.add(second)
    assert caller not in idents
    assert len(idents) <= 2
    assert threading.active_count() <= before + 1


def test_stalled_handler_is_isolated() -> None:
    release = threading.Event()
    returned = threading.Event()

    def stall(args):
        release.wait(10)
        returned.set()
        return "late result"

    registry = ToolRegistry()
    registry.register_tool(_descriptor("stall"), stall)
    registry.register_tool(_descriptor("noop"), lambda args: "noop result")
    registry.register_tool(_descriptor("echo"), lambda args: args["value"])

    execution, observation = registry.invoke(Action("s", "stall", {}), timeout_ms=50)
    assert execution.status == "timeout"
    assert "timed out after 50 ms" in observation.content

    t0 = time.monotonic()
    execution, observation = registry.invoke(Action("n", "noop", {}))
    assert execution.status == "ok"
    assert observation.content == "noop result"
    assert time.monotonic() - t0 < 1.0

    release.set()
    assert returned.wait(5)
    contents = []
    for i in range(20):
        contents.append(registry.invoke(Action(f"n{i}", "noop", {}))[1].content)

    mismatches = []

    def echo_many(value: str) -> None:
        for i in range(50):
            execution, observation = registry.invoke(
                Action(f"{value}-{i}", "echo", {"value": value})
            )
            contents.append(observation.content)
            if execution.status != "ok" or observation.content != value:
                mismatches.append((value, execution.status, observation.content))

    def fan_out_many(value: str) -> None:
        for i in range(50):
            expected = [f"{value}-{i}-{k}" for k in range(3)]
            got = fan_out(lambda k: f"{value}-{i}-{k}", range(3))
            if got != expected:
                mismatches.append((value, got))

    threads = [threading.Thread(target=echo_many, args=(f"v{k}",)) for k in range(8)]
    threads += [threading.Thread(target=fan_out_many, args=(f"f{k}",)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    # Every worker is parked at most once, or two calls could share one.
    with tools._idle_lock:
        parked = [id(inbox) for inbox in tools._idle_inboxes]
    assert len(parked) == len(set(parked))
    assert len(contents) == 20 + 8 * 50
    assert "late result" not in contents


def test_nested_fan_out_and_tool_call_do_not_wait_on_themselves() -> None:
    registry = ToolRegistry()
    registry.register_tool(_descriptor("echo"), lambda args: args["value"])

    def invoke(value: str) -> str:
        return registry.invoke(Action(value, "echo", {"value": value}))[1].content

    def item(k: int) -> list:
        return fan_out(invoke, [f"{k}-a", f"{k}-b"]) + [invoke(f"{k}-c")]

    results = []
    outer = threading.Thread(target=lambda: results.append(fan_out(item, [0, 1])), daemon=True)
    outer.start()
    outer.join(5)
    assert not outer.is_alive()
    assert results == [[["0-a", "0-b", "0-c"], ["1-a", "1-b", "1-c"]]]


# -- truncation ---------------------------------------------------------------


def test_truncation_flag_and_length() -> None:
    rng = random.Random(7)
    for _ in range(200):
        length = rng.randrange(0, 200)
        cap = rng.randrange(1, 120)
        content = "".join(rng.choices(string.ascii_letters, k=length))
        text, truncated = truncate_output(content, cap)
        assert truncated == (length > cap)
        assert len(text) <= cap + len(TRUNCATION_MARKER)
        if not truncated:
            assert text == content


def test_invoke_applies_output_cap(registry) -> None:
    registry.register_tool(_descriptor("big"), lambda args: "z" * (DEFAULT_OUTPUT_CAP + 10))
    _, observation = registry.invoke(Action("a1", "big", {}))
    assert observation.truncated
    assert observation.content == "z" * DEFAULT_OUTPUT_CAP + TRUNCATION_MARKER


# -- totality and pairing fuzz ---------------------------------------------------


def test_invoke_totality_fuzz(registry) -> None:
    rng = random.Random(1234)
    names = ["exec", "file_read", "file_write", "nope", "", "weird tool"]
    actions, executions, observations = [], [], []
    for i in range(1000):
        tool = rng.choice(names)
        arguments = {
            rng.choice(["cmd", "path", "content", "junk"]): "".join(
                rng.choices(string.printable, k=rng.randrange(0, 12))
            )
            for _ in range(rng.randrange(0, 3))
        }
        action = Action(f"fuzz-{i}", tool, arguments)
        execution, observation = registry.invoke(action, timeout_ms=2000)
        assert execution.status in ("ok", "failed", "timeout")
        assert observation.is_error == (execution.status != "ok")
        assert isinstance(observation.content, str)
        actions.append(action)
        executions.append(execution)
        observations.append(observation)
    assert Counter(a.id for a in actions) == Counter(e.action_id for e in executions)
    assert Counter(a.id for a in actions) == Counter(o.action_id for o in observations)


# -- builtin file tools -----------------------------------------------------------


def test_file_roundtrip_in_workspace(registry) -> None:
    _, wrote = registry.invoke(
        Action("w", "file_write", {"path": "notes/a.txt", "content": "hello"})
    )
    assert "wrote 5 chars" in wrote.content
    _, read = registry.invoke(Action("r", "file_read", {"path": "notes/a.txt"}))
    assert read.content == "hello"


def test_file_escape_is_rejected(registry) -> None:
    execution, observation = registry.invoke(
        Action("r", "file_read", {"path": "../../etc/hostname"})
    )
    assert execution.status == "failed"
    assert "escapes" in observation.content
    execution, _ = registry.invoke(Action("r2", "file_read", {"path": "/etc/hostname"}))
    assert execution.status == "failed"


def test_symlink_out_of_the_workspace_is_rejected(registry, tmp_path) -> None:
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "secret.txt").write_text("s", encoding="utf-8")
    (tmp_path / "workspace" / "link").symlink_to(outside)
    execution, observation = registry.invoke(
        Action("r", "file_read", {"path": "link/secret.txt"})
    )
    assert (execution.status, "escapes" in observation.content) == ("failed", True)
    execution, _ = registry.invoke(
        Action("w", "file_write", {"path": "link/new.txt", "content": "x"})
    )
    assert execution.status == "failed"
    assert sorted(os.listdir(outside)) == ["secret.txt"]


def test_sibling_whose_name_extends_the_workspace_is_rejected(registry, tmp_path) -> None:
    sibling = tmp_path / "workspace-x"
    sibling.mkdir()
    (sibling / "f").write_text("s", encoding="utf-8")
    for tool, args in (("file_read", {}), ("file_write", {"content": "x"})):
        execution, observation = registry.invoke(
            Action("a", tool, {"path": "../workspace-x/f", **args})
        )
        assert (execution.status, "escapes" in observation.content) == ("failed", True)
    assert (sibling / "f").read_text(encoding="utf-8") == "s"


def test_workspace_reached_through_a_symlink(tmp_path) -> None:
    real = tmp_path / "real"
    real.mkdir()
    (tmp_path / "ws").symlink_to(real)
    reg = ToolRegistry()
    install_builtin_tools(reg, str(tmp_path / "ws"), names=["file_read", "file_write"])
    execution, _ = reg.invoke(Action("w", "file_write", {"path": "d/a.txt", "content": "hi"}))
    assert execution.status == "ok"
    assert (real / "d" / "a.txt").read_text(encoding="utf-8") == "hi"
    _, read = reg.invoke(Action("r", "file_read", {"path": "d/../d/a.txt"}))
    assert read.content == "hi"
    # Through the link or not, the workspace is the directory it resolves to.
    _, read = reg.invoke(Action("r", "file_read", {"path": "../ws/d/a.txt"}))
    assert read.content == "hi"
    (tmp_path / "f").write_text("s", encoding="utf-8")
    execution, observation = reg.invoke(Action("e", "file_read", {"path": "../f"}))
    assert (execution.status, "escapes" in observation.content) == ("failed", True)


# -- wire schemas ------------------------------------------------------------------


def _wire_forms(registry: ToolRegistry) -> list[dict]:
    return [descriptor_wire_form(d) for d in registry.descriptors()]


def test_render_schemas_empty() -> None:
    assert _wire_forms(ToolRegistry()) == []


def test_render_schemas_sorted_by_name() -> None:
    registry = ToolRegistry()
    registry.register_tool(_descriptor("bravo"), lambda a: "")
    registry.register_tool(_descriptor("alpha"), lambda a: "")
    names = [w["function"]["name"] for w in _wire_forms(registry)]
    assert names == ["alpha", "bravo"]


def test_file_read_schema_shape(registry) -> None:
    wire = [w for w in _wire_forms(registry) if w["function"]["name"] == "file_read"]
    assert len(wire) == 1
    parameters = wire[0]["function"]["parameters"]
    assert parameters["required"] == ["path"]
    assert set(parameters["properties"]) == {"path"}


# -- corpus fetcher -----------------------------------------------------------------


def test_corpus_fetcher_maps_urls(tmp_path) -> None:
    (tmp_path / "example.org_doc.txt").write_text("doc body", encoding="utf-8")
    (tmp_path / "search-reef_studies.txt").write_text("1. doc", encoding="utf-8")
    fetcher = LocalCorpusFetcher(tmp_path)
    assert fetcher.fetch("https://example.org/doc.txt") == "doc body"
    assert fetcher.search("reef studies") == "1. doc"


@pytest.mark.parametrize("text", [
    string.punctuation, " \t\n\r\x0b\x0c", "a/b", "../x", "..", "caf\u00e9", "\u0663",
    "\u00b2", "e\u0301", "\U0001f600", "reef-2017_v1.txt",
])
def test_flatten_matches_the_character_rule(text) -> None:
    # The reference rule: alphanumerics, ".", "_" and "-" stay; any other
    # character becomes "_".
    old = "".join(c if c.isalnum() or c in "._-" else "_" for c in text)
    assert LocalCorpusFetcher._flatten(text) == old


def test_corpus_fetcher_missing_is_error(tmp_path, registry) -> None:
    fetcher = LocalCorpusFetcher(tmp_path)
    reg = ToolRegistry()
    workspace = tmp_path / "ws"
    workspace.mkdir()
    install_builtin_tools(reg, workspace, names=["web_fetch"], fetcher=fetcher)
    execution, observation = reg.invoke(
        Action("a", "web_fetch", {"url": "https://nowhere.example/x"})
    )
    assert execution.status == "failed"
    assert "404" in observation.content


class _PathlibFetcher(LocalCorpusFetcher):
    """The corpus reads as ``Path.is_file`` then ``Path.read_text``: the reference."""

    def fetch(self, url: str) -> str:
        path = self.root / self._flatten(url.split("://", 1)[-1])
        if not path.is_file():
            raise FetchError(f"404 not found: {url}")
        return path.read_text(encoding="utf-8")

    def search(self, query: str) -> str:
        path = self.root / f"search-{self._flatten(query)}.txt"
        if not path.is_file():
            raise FetchError(f"no results for query: {query}")
        return path.read_text(encoding="utf-8")


# Each corpus tool with the arguments it is invoked with and the file they read.
CORPUS_TOOLS = {
    "web_search": ({"query": "reef studies"}, "search-reef_studies.txt"),
    "web_fetch": ({"url": "https://example.org/doc.txt"}, "example.org_doc.txt"),
    "pdf_extract": ({"url": "https://example.org/paper.pdf"}, "example.org_paper.pdf"),
}

def _bind_socket(path: Path) -> None:
    """Leave a Unix socket file at ``path`` (bound by name: socket paths are short)."""
    cwd = os.getcwd()
    os.chdir(path.parent)
    try:
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind(path.name)
    finally:
        os.chdir(cwd)


# What sits at the document's name, and the status its read must end in.
CORPUS_CASES = {
    "missing": (lambda path: None, "failed"),
    "directory": (lambda path: path.mkdir(), "failed"),
    "fifo": (lambda path: os.mkfifo(path), "failed"),
    "socket": (_bind_socket, "failed"),
    "symlink_loop": (lambda path: path.symlink_to(path), "failed"),
    "dangling_symlink": (lambda path: path.symlink_to(path.parent / "gone"), "failed"),
    "crlf_and_lone_cr": (lambda path: path.write_bytes(b"a\r\nb\rc\r\r\nd\r"), "ok"),
    "bom": (lambda path: path.write_bytes(b"\xef\xbb\xbfcaf\xc3\xa9\n"), "ok"),
    "not_utf8": (lambda path: path.write_bytes(b"ok\r\n\xff\xfe end"), "failed"),
    "empty": (lambda path: path.write_bytes(b""), "ok"),
    "large": (lambda path: path.write_bytes("é\r\n".encode() * 50_000), "ok"),
}


@pytest.mark.parametrize("case", sorted(CORPUS_CASES))
@pytest.mark.parametrize("tool", sorted(CORPUS_TOOLS))
def test_corpus_reads_observe_as_pathlib_reads(tmp_path, tool, case) -> None:
    arguments, name = CORPUS_TOOLS[tool]
    make, status = CORPUS_CASES[case]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    make(corpus / name)
    workspace = tmp_path / "ws"
    workspace.mkdir()
    pairs = []
    for fetcher in (LocalCorpusFetcher(corpus), _PathlibFetcher(corpus)):
        reg = ToolRegistry()
        install_builtin_tools(reg, workspace, names=[tool], fetcher=fetcher)
        try:
            # _PathlibFetcher's read runs on a worker: one that blocked (a
            # FIFO opened without O_NONBLOCK) would end in "timeout" here.
            # LocalCorpusFetcher's runs on this thread, so the bounded wait
            # of test_fifo_named_like_a_document_answers_promptly guards it.
            execution, observation = reg.invoke(
                Action("a", tool, dict(arguments)), timeout_ms=5_000
            )
        finally:
            if case == "fifo":
                try:  # release a worker left blocked in open(), if any
                    os.close(os.open(corpus / name, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:
                    pass
        pairs.append((execution.status, observation))
    assert pairs[0] == pairs[1]
    assert pairs[0][0] == status
    if case == "crlf_and_lone_cr":
        assert pairs[0][1].content == "a\nb\nc\n\nd\n"
    elif case == "bom":
        assert pairs[0][1].content == "\ufeffcafé\n"
    elif case == "not_utf8":
        assert "can't decode byte 0xff in position 4" in pairs[0][1].content


def test_corpus_read_error_that_is_not_a_miss_propagates(tmp_path) -> None:
    query = "q" * 300  # a file name longer than the file system allows
    for fetcher in (LocalCorpusFetcher(tmp_path), _PathlibFetcher(tmp_path)):
        with pytest.raises(OSError, match="File name too long") as excinfo:
            fetcher.search(query)
        assert not isinstance(excinfo.value, FetchError)


def test_corpus_fetcher_keeps_its_root(tmp_path) -> None:
    assert LocalCorpusFetcher(str(tmp_path)).root == tmp_path


# -- corpus tools on the caller's thread -----------------------------------------


@pytest.fixture
def dispatches(monkeypatch) -> list:
    """Every handler the registry hands to a worker, in order."""
    sent = []
    real = tools._dispatch

    def spy(fn, argument):
        sent.append(fn)
        return real(fn, argument)

    monkeypatch.setattr(tools, "_dispatch", spy)
    return sent


def _corpus(tmp_path: Path) -> Path:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for _, name in CORPUS_TOOLS.values():
        (corpus / name).write_text(f"text of {name}", encoding="utf-8")
    return corpus


@pytest.mark.parametrize("backend", ["corpus", "none"])
def test_corpus_tools_run_on_the_callers_thread(tmp_path, dispatches, backend) -> None:
    fetcher = LocalCorpusFetcher(_corpus(tmp_path)) if backend == "corpus" else None
    reg = ToolRegistry()
    install_builtin_tools(reg, tmp_path, names=sorted(CORPUS_TOOLS), fetcher=fetcher)
    for tool, (arguments, _) in sorted(CORPUS_TOOLS.items()):
        for args in (arguments, {}):  # a document, and a call missing its argument
            execution, observation = reg.invoke(Action("a", tool, dict(args)))
            ok = backend == "corpus" and bool(args)
            assert (execution.status, observation.is_error) == (
                ("ok", False) if ok else ("failed", True)
            ), observation.content
    assert dispatches == []


def test_research_loop_makes_no_dispatch(tmp_path, dispatches) -> None:
    call = {"name": "web_search", "arguments": CORPUS_TOOLS["web_search"][0]}
    search = {"content": "", "tool_calls": [call]}
    gateway = scripted_gateway(tmp_path, m=[search] * 20)
    services = make_services(
        tmp_path, gateway, builtin=("web_search",), fetcher=LocalCorpusFetcher(_corpus(tmp_path))
    )
    spec = AgentSpec("r", "", "m", tool_names=("web_search",), max_turns=20, critique_every=99)
    outcome = AgentRun.start("task", spec, services).run_to_end()
    assert (outcome.status, outcome.turns) == ("max_turns", 20)
    assert dispatches == []


class _DuckFetcher:
    """A retrieval backend of its own type: it may block, so it keeps the worker."""

    def __init__(self, release: threading.Event):
        self.release = release

    def fetch(self, url: str) -> str:
        self.release.wait(10)
        return "fetched"

    def search(self, query: str) -> str:
        self.release.wait(10)
        return "found"


def test_other_tools_dispatch_to_a_worker(tmp_path, dispatches) -> None:
    workspace = tmp_path / "ws"
    workspace.mkdir()
    reg = ToolRegistry()
    install_builtin_tools(reg, workspace, names=["file_read", "file_write"])
    reg.register_tool(_descriptor("probe"), lambda args: "probed")
    calls = [
        ("file_write", {"path": "a.txt", "content": "x"}),
        ("file_read", {"path": "a.txt"}),
        ("probe", {}),
    ]
    for tool, args in calls:
        assert reg.invoke(Action("a", tool, args))[0].status == "ok"
    assert len(dispatches) == len(calls)

    # A custom fetcher, a LocalCorpusFetcher subclass included, keeps the
    # worker, and with it the timeout.
    corpus = _corpus(tmp_path)
    for fetcher in (_PathlibFetcher(corpus), _DuckFetcher(threading.Event())):
        reg = ToolRegistry()
        install_builtin_tools(reg, workspace, names=sorted(CORPUS_TOOLS), fetcher=fetcher)
        stalls = isinstance(fetcher, _DuckFetcher)
        for tool, (arguments, _) in sorted(CORPUS_TOOLS.items()):
            del dispatches[:]
            execution, _ = reg.invoke(
                Action("a", tool, dict(arguments)), timeout_ms=50 if stalls else 5_000
            )
            assert len(dispatches) == 1
            assert execution.status == ("timeout" if stalls else "ok")
        if stalls:
            fetcher.release.set()


def test_fifo_named_like_a_document_answers_promptly(tmp_path) -> None:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    os.mkfifo(corpus / "search-reef_studies.txt")
    reg = ToolRegistry()
    install_builtin_tools(reg, tmp_path, names=["web_search"], fetcher=LocalCorpusFetcher(corpus))
    action = Action("a", "web_search", {"query": "reef studies"})
    answers = []
    caller = threading.Thread(target=lambda: answers.append(reg.invoke(action)), daemon=True)
    caller.start()
    caller.join(5)
    try:
        assert not caller.is_alive()
    finally:
        if caller.is_alive():  # release an open() that blocked
            os.close(os.open(corpus / "search-reef_studies.txt", os.O_WRONLY | os.O_NONBLOCK))
    execution, observation = answers[0]
    assert execution.status == "failed"
    assert observation.content == "tool error: no results for query: reef studies"


class _Answer:
    def __str__(self) -> str:
        return "an answer"


# Each handler also takes the timeout an inline call is given.
def _raise(args, *_):
    raise ValueError("bad input")


@pytest.mark.parametrize(
    "handler",
    [lambda args, *_: "plain text", _raise, lambda args, *_: 42, lambda args, *_: _Answer()],
    ids=["ok", "error", "int", "object"],
)
def test_inline_and_worker_calls_give_equal_pairs(handler, dispatches) -> None:
    pairs = []
    for inline in (True, False):
        reg = ToolRegistry()
        reg._register(_descriptor("t"), handler, inline=inline)
        execution, observation = reg.invoke(Action("a", "t", {}))
        pairs.append((execution.action_id, execution.status, observation))
    assert len(dispatches) == 1
    assert pairs[0] == pairs[1]


def test_inline_handler_exit_propagates(dispatches) -> None:
    reg = ToolRegistry()
    reg._register(_descriptor("quit"), lambda args, *_: sys.exit(3), inline=True)
    with pytest.raises(SystemExit):
        reg.invoke(Action("a", "quit", {}))
    assert dispatches == []


def test_only_the_named_builtin_tools_are_built(tmp_path, monkeypatch) -> None:
    resolved = []
    realpath = os.path.realpath
    monkeypatch.setattr(tools.os.path, "realpath", lambda p: resolved.append(p) or realpath(p))
    for names, registered, resolves in (
        ([], [], 0),
        (["web_search"], ["web_search"], 0),
        (["exec", "pdf_extract"], ["exec", "pdf_extract"], 0),
        (["file_read", "file_write"], ["file_read", "file_write"], 1),
    ):
        del resolved[:]
        reg = ToolRegistry()
        install_builtin_tools(reg, tmp_path, names=names)
        assert reg.names() == registered
        assert len(resolved) == resolves
    reg = ToolRegistry()
    install_builtin_tools(reg, tmp_path)
    assert reg.names() == sorted(tools.BUILTIN_TOOL_NAMES)


def test_readme_names_the_inline_tools() -> None:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = re.search(
        r"run on the agent's own\s+thread:(.*?)\.", readme, re.DOTALL
    )
    assert sentence is not None
    assert re.findall(r"`(\w+)`", sentence.group(1)) == sorted(tools._INLINE_TOOLS)
