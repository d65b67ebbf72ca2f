"""Tool registry and executor built around the action/execution/observation cycle.

Every invocation returns an ``(Execution, Observation)`` pair. Failures never
escape as exceptions: unknown tools, handler errors, and timeouts all
materialize inside the pair so an agent loop can observe them and keep going.
"""

from __future__ import annotations

import errno
import os
import queue
import re
import stat
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

from .errors import EvokitError

ToolHandler = Callable[[dict[str, Any]], str]

TRUNCATION_MARKER = "…[truncated]"
DEFAULT_OUTPUT_CAP = 16_384
DEFAULT_TIMEOUT_MS = 30_000

TOOL_SOURCES = ("builtin", "mcp", "skill")

# Catalog of tools install_builtin_tools() can provide ("load_skill" is added
# separately by the skill system): name -> (description, {parameter:
# description}, required parameters). Every parameter is a string.
_BUILTIN_TOOLS = {
    "exec": (
        "Run a shell command inside the run workspace and return its output.",
        {"cmd": "shell command line"},
        ["cmd"],
    ),
    "file_read": (
        "Read a text file from the run workspace.",
        {"path": "workspace-relative path"},
        ["path"],
    ),
    "file_write": (
        "Write a text file inside the run workspace.",
        {"path": "workspace-relative path", "content": "text to write"},
        ["path"],
    ),
    "pdf_extract": (
        "Extract the text of a PDF document (stub: text passthrough).",
        {"url": "document location"},
        ["url"],
    ),
    "web_fetch": (
        "Fetch a URL and return its text content.",
        {"url": "location to fetch"},
        ["url"],
    ),
    "web_search": (
        "Search for documents and return a result listing.",
        {"query": "search query"},
        ["query"],
    ),
}
BUILTIN_TOOL_NAMES = tuple(_BUILTIN_TOOLS)

WORKSPACE_TOOLS = frozenset(("exec", "file_read", "file_write"))  # work in the run workspace

# The corpus tools. Over a LocalCorpusFetcher, or with no fetcher, they run on
# the caller's thread: the read opens without blocking and takes only a regular
# file, so it cannot stall the loop, and they ignore the call's timeout (``*_``).
_INLINE_TOOLS = frozenset(("pdf_extract", "web_fetch", "web_search"))


class DuplicateTool(EvokitError):
    pass


class InvalidDescriptor(EvokitError):
    pass


@dataclass(frozen=True)
class ToolDescriptor:
    """Registry entry describing one callable tool."""

    name: str
    description: str
    parameters: dict[str, Any]
    source: str = "builtin"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise InvalidDescriptor(f"tool name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.description, str):
            raise InvalidDescriptor(f"{self.name}: description must be a string")
        if self.source not in TOOL_SOURCES:
            raise InvalidDescriptor(f"unknown tool source: {self.source!r}")
        if not isinstance(self.parameters, dict):
            raise InvalidDescriptor(f"{self.name}: parameters must be an object")
        props = self.parameters.get("properties", {})
        if not isinstance(props, dict):
            raise InvalidDescriptor(f"{self.name}: properties must be an object")
        required = self.parameters.get("required", [])
        if not isinstance(required, list) or any(r not in props for r in required):
            raise InvalidDescriptor(
                f"{self.name}: required entries must name declared properties"
            )


@dataclass(frozen=True)
class Action:
    """One tool invocation requested by a model response.

    Ids need only be unique within the turn that asked for them: replay pairs
    each observation with a call its own turn lists. The scripted provider's
    ``call-<position>-<k>`` ids repeat across the turns of a long scripted
    conversation, as its position stops at the script's last entry.
    """

    id: str
    tool: str
    arguments: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not isinstance(self.tool, str):
            raise TypeError(f"action id and tool must be strings: {self.id!r}, {self.tool!r}")
        if not isinstance(self.arguments, dict):
            raise TypeError(f"{self.tool}: arguments must be an object, got {self.arguments!r}")


@dataclass(frozen=True)
class Execution:
    action_id: str
    duration_ms: int
    status: str  # ok | failed | timeout


@dataclass(frozen=True)
class Observation:
    action_id: str
    content: str
    truncated: bool = False
    is_error: bool = False


def truncate_output(content: str, cap: int) -> tuple[str, bool]:
    """Cap tool output, appending a visible marker when anything was cut."""
    if len(content) <= cap:
        return content, False
    return content[:cap] + TRUNCATION_MARKER, True


def descriptor_wire_form(descriptor: ToolDescriptor) -> dict[str, Any]:
    """Provider wire shape for one descriptor (chat-completions style)."""
    return {
        "type": "function",
        "function": {
            "name": descriptor.name,
            "description": descriptor.description,
            "parameters": descriptor.parameters,
        },
    }


class ToolRegistry:
    """Name-keyed registry of descriptors plus their handlers.

    Registration happens during single-threaded setup; invoke() is read-only
    with respect to the registry and safe to call concurrently.

    A handler runs on a parked worker under the call's timeout, except the builtin
    tools ``install_builtin_tools`` marks inline (``exec``, and the corpus reads, which
    cannot block): they run on the caller's thread as ``handler(arguments, timeout_ms)``.
    """

    def __init__(self) -> None:
        # name -> (descriptor, handler, runs on the caller's thread)
        self._tools: dict[str, tuple[ToolDescriptor, ToolHandler, bool]] = {}
        self._lock = threading.Lock()

    def register_tool(self, descriptor: ToolDescriptor, handler: ToolHandler) -> None:
        self._register(descriptor, handler, inline=False)

    def _register(self, descriptor: ToolDescriptor, handler: Callable, inline: bool) -> None:
        with self._lock:
            if descriptor.name in self._tools:
                raise DuplicateTool(f"tool already registered: {descriptor.name}")
            self._tools[descriptor.name] = (descriptor, handler, inline)

    def names(self) -> list[str]:
        return sorted(self._tools)

    def get(self, name: str) -> ToolDescriptor | None:
        entry = self._tools.get(name)
        return entry[0] if entry else None

    def descriptors(self) -> list[ToolDescriptor]:
        return [self._tools[name][0] for name in self.names()]

    def invoke(
        self, action: Action, timeout_ms: int = DEFAULT_TIMEOUT_MS
    ) -> tuple[Execution, Observation]:
        """Run one action and always return a well-formed pair."""
        t0 = time.monotonic()
        entry = self._tools.get(action.tool)
        if entry is None:
            return self._finish(action, t0, "failed", f"unknown tool: {action.tool}")

        _, handler, inline = entry
        if inline:
            result = _run(handler, action.arguments, timeout_ms)
        else:
            # On a parked worker, so a stalled tool cannot stall the loop. A call
            # that times out abandons its worker, which is parked again once the
            # handler returns; the late result goes to an outbox nobody reads.
            outbox = _dispatch(handler, action.arguments)
            try:
                result = outbox.get(timeout=max(timeout_ms, 1) / 1000.0)
            except queue.Empty:
                result = "failed", _TimedOut(timeout_ms)
        return self._finish(action, t0, *_observed(*result))

    @staticmethod
    def _finish(
        action: Action, t0: float, status: str, content: str
    ) -> tuple[Execution, Observation]:
        duration_ms = int((time.monotonic() - t0) * 1000)
        text, truncated = truncate_output(content, DEFAULT_OUTPUT_CAP)
        execution = Execution(action.id, duration_ms, status)
        observation = Observation(action.id, text, truncated, status != "ok")
        return execution, observation


# Inboxes of parked workers, shared by every registry and by ``fan_out`` so that
# a warm run starts no thread. The pool has no cap: a call never waits on itself.
_idle_inboxes: list[queue.SimpleQueue] = []
_idle_lock = threading.Lock()


def _run(fn: Callable[..., Any], *args: Any) -> tuple[str, Any]:
    """``("ok", fn(*args))``, or ``("failed", exc)`` when it raises an Exception.

    Any other BaseException propagates.
    """
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 — materialized in the pair
        return "failed", exc


class _TimedOut(Exception):
    """A call that passed its ``timeout_ms``, the one argument."""


def _observed(status: str, value: Any) -> tuple[str, str]:
    """The status and observation text of a handler's ``_run`` result."""
    if isinstance(value, _TimedOut):
        return "timeout", f"tool timed out after {value.args[0]} ms"
    if status == "failed":
        return "failed", f"tool error: {value}"
    return "ok", value if isinstance(value, str) else str(value)


def _serve(inbox: queue.SimpleQueue) -> None:
    """Worker loop: run each callable sent to ``inbox`` on its argument, then park again."""
    while True:
        fn, argument, outbox = inbox.get()
        try:
            result = _run(fn, argument)
        except BaseException as exc:
            outbox.put(("failed", exc))
            raise  # this worker ends here and is never parked again
        # Park before answering, so the caller's next dispatch finds this worker idle.
        with _idle_lock:
            _idle_inboxes.append(inbox)
        outbox.put(result)


def _dispatch(fn: Callable[[Any], Any], argument: Any) -> queue.SimpleQueue:
    """Run ``fn(argument)`` on an idle worker, or a new one; return the outbox it answers on."""
    with _idle_lock:
        inbox = _idle_inboxes.pop() if _idle_inboxes else None
    if inbox is None:
        inbox = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(inbox,), daemon=True).start()
    outbox: queue.SimpleQueue = queue.SimpleQueue()
    inbox.put((fn, argument, outbox))
    return outbox


class ToolExecutionError(EvokitError):
    pass


class FetchError(EvokitError):
    pass


# What a document name cannot hold: in a str pattern ``\w`` is exactly
# ``str.isalnum()`` plus ``_``, so ``.``, ``_``, ``-`` and every alphanumeric
# character are kept.
_UNSAFE_NAME_CHAR = re.compile(r"[^\w.-]")


class LocalCorpusFetcher:
    """Offline stand-in for web retrieval, backed by a fixture directory.

    URLs map to files by stripping the scheme and flattening the remainder:
    ``https://example.org/a/b.txt`` reads ``example.org_a_b.txt``. Searches
    read ``search-<flattened query>.txt``. Missing files raise, which the tool
    layer converts into error observations — the offline analogue of a 404.

    A document is read with one ``open``, ``fstat`` and ``read`` to EOF, and
    decoded as ``Path.read_text(encoding="utf-8")`` decodes it: ``\\r\\n``
    and ``\\r`` become ``\\n`` and a BOM is kept. A name that is not a
    regular file (a directory, a FIFO, a socket) counts as missing; the open
    does not block, so a FIFO never stalls the tool.
    """

    def __init__(self, root: Path | str):
        self._root = os.fspath(root)  # as text: a Path interns each component

    @property
    def root(self) -> Path:
        return Path(self._root)

    @staticmethod
    def _flatten(text: str) -> str:
        return _UNSAFE_NAME_CHAR.sub("_", text)

    def fetch(self, url: str) -> str:
        remainder = url.split("://", 1)[-1]
        text = self._read(self._flatten(remainder))
        if text is None:
            raise FetchError(f"404 not found: {url}")
        return text

    def search(self, query: str) -> str:
        text = self._read(f"search-{self._flatten(query)}.txt")
        if text is None:
            raise FetchError(f"no results for query: {query}")
        return text

    def _read(self, name: str) -> str | None:
        """The text of the regular file ``name`` under root, or None if there is none."""
        path = os.path.join(self._root, name)
        try:
            fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        except OSError as exc:
            # Answer as ``Path.is_file()`` then ``read_text()`` would: a name
            # that is missing or not a regular file is no document, and any
            # other error propagates.
            if exc.errno in _MISSING_ERRNOS or not _is_regular(path):
                return None
            raise
        try:
            info = os.fstat(fd)
            if not stat.S_ISREG(info.st_mode):
                return None
            chunks = []
            while chunk := os.read(fd, info.st_size + 1):
                chunks.append(chunk)
        finally:
            os.close(fd)
        return decode_utf8(b"".join(chunks))


def decode_utf8(data: bytes) -> str:
    """``data`` as a file opened in text mode as UTF-8 reads it.

    The decoding is strict, so bytes that are not UTF-8 raise
    UnicodeDecodeError; ``\\r\\n`` and a lone ``\\r`` read as ``\\n``, and a
    BOM is kept.
    """
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_utf8(path: str | Path) -> str:
    """The text of the file ``path``, from one binary read, as ``decode_utf8`` reads it."""
    with open(path, "rb", buffering=0) as handle:
        return decode_utf8(handle.read())


# The errnos ``Path.is_file()`` reads as "no such file" rather than raising.
_MISSING_ERRNOS = frozenset((errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP))


def _is_regular(path: str) -> bool:
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except OSError as exc:
        if exc.errno in _MISSING_ERRNOS:
            return False
        raise


def _no_backend(_: str) -> str:
    raise FetchError(
        "no retrieval backend configured; point tools.corpus at a fixture directory"
    )


def _confined(root: str, raw: Any) -> str:
    """``raw`` resolved under ``root``, itself resolved; no path outside it."""
    rel = str(raw)
    candidate = os.path.realpath(os.path.join(root, rel))
    if os.path.isabs(rel) or os.path.commonpath((root, candidate)) != root:
        raise ToolExecutionError(f"path escapes the run workspace: {rel}")
    return candidate


def run_shell(cmd: str, limit_s: float, cwd: Any = None, stdin: str | None = None) -> tuple:
    """``(returncode, stdout, stderr)`` of ``cmd``, run by /bin/sh in a session of its own.

    Stdin is ``stdin``, or /dev/null. At ``limit_s`` the whole process group is killed
    and TimeoutError raised; the pipes are closed undrained, as a ``setsid`` child may
    hold them open.
    """
    import signal  # on the first command: a run that never starts one loads neither
    import subprocess

    with subprocess.Popen(
        cmd,
        shell=True,
        cwd=cwd,
        stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(stdin, timeout=limit_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the unreaped shell still holds its group id
            raise TimeoutError(f"timed out after {limit_s} s") from None
    return proc.returncode, stdout, stderr


def _exec(workspace: str | Path, args: dict[str, Any], timeout_ms: int) -> str:
    try:
        returncode, stdout, stderr = run_shell(str(args["cmd"]), timeout_ms / 1000, workspace)
    except TimeoutError:
        raise _TimedOut(timeout_ms) from None
    output = stdout + stderr
    if returncode != 0:
        raise ToolExecutionError(f"command exited with {returncode}: {output.strip()}")
    return output


def _file_read(root: str, args: dict[str, Any]) -> str:
    with open(_confined(root, args["path"]), encoding="utf-8") as handle:
        return handle.read()


def _file_write(root: str, args: dict[str, Any]) -> str:
    path = _confined(root, args["path"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    content = str(args.get("content", ""))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return f"wrote {len(content)} chars to {args['path']}"


def _fetch(fetch: Callable[[str], str], args: dict[str, Any], *_: int) -> str:
    # pdf_extract is stubbed as text passthrough over the same backend as web_fetch.
    return fetch(str(args["url"]))


def _search(search: Callable[[str], str], args: dict[str, Any], *_: int) -> str:
    return search(str(args["query"]))


def install_builtin_tools(
    registry: ToolRegistry,
    workspace: str | Path,
    names: list[str] | None = None,
    fetcher: LocalCorpusFetcher | None = None,
) -> None:
    """Build and register the built-in tools in ``names`` (all of them by default).

    File tools are confined to ``workspace``; exec runs a shell command in it
    on the caller's thread (``run_shell``); web_fetch/pdf_extract and
    web_search delegate to ``fetcher.fetch`` and ``fetcher.search``, and
    without a fetcher they fail with a "no retrieval backend" error. Over a
    LocalCorpusFetcher or no fetcher, those three run on the caller's thread
    (``_INLINE_TOOLS``); any other fetcher may block, so they run on a worker.
    """
    wanted = set(BUILTIN_TOOL_NAMES if names is None else names)
    unknown = wanted - _BUILTIN_TOOLS.keys()
    if unknown:
        raise InvalidDescriptor(f"unknown builtin tools: {sorted(unknown)}")
    if "file_read" in wanted or "file_write" in wanted:
        # Kept as text and resolved once: pathlib would intern the run id.
        root = os.path.realpath(workspace)
    inline = fetcher is None or type(fetcher) is LocalCorpusFetcher
    for name in BUILTIN_TOOL_NAMES:
        if name not in wanted:
            continue
        if name == "exec":
            handler = partial(_exec, workspace)
        elif name == "file_read":
            handler = partial(_file_read, root)
        elif name == "file_write":
            handler = partial(_file_write, root)
        elif name == "web_search":
            handler = partial(_search, fetcher.search if fetcher else _no_backend)
        else:
            handler = partial(_fetch, fetcher.fetch if fetcher else _no_backend)
        description, props, required = _BUILTIN_TOOLS[name]
        parameters = {
            "type": "object",
            "properties": {k: {"type": "string", "description": v} for k, v in props.items()},
            "required": list(required),
        }
        registry._register(
            ToolDescriptor(name, description, parameters),
            handler,
            inline=name == "exec" or (inline and name in _INLINE_TOOLS),
        )
