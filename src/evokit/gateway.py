"""Provider-agnostic chat model access.

Two provider kinds are supported: ``scripted`` (a deterministic offline
backend driven by JSON script files, used by every test) and
``http-openai-compatible`` (the de-facto chat-completions wire shape).
Profiles are registered once up front and then looked up by name, so an
agent swaps backends by changing one string.
"""

from __future__ import annotations

import copy
import json
import os
import re
import threading
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from .errors import EvokitError
from .tools import Action, ToolDescriptor, descriptor_wire_form, read_utf8

ROLES = ("system", "user", "assistant", "tool")
PROVIDERS = ("scripted", "http-openai-compatible")
FINISH_REASONS = ("stop", "tool_call", "length")
HTTP_TIMEOUT_S = 30.0  # per chat-completions request
# A script's tool-call arguments nest at most this deep. A playback copies
# them with deepcopy and the recorder and replay walk them, all recursively.
_MAX_ARG_DEPTH = 64


class DuplicateProfile(EvokitError):
    pass


class InvalidProfile(EvokitError):
    pass


class ProfileNotFound(EvokitError):
    pass


class ScriptParseError(EvokitError):
    pass


class ProviderError(EvokitError):
    """Transport or HTTP failure, or a malformed reply, from a model provider."""

    def __init__(self, message: str, status: int | None = None, body: str | None = None):
        detail = message
        if status is not None:
            detail += f" (status {status})"
        if body:
            detail += f": {body[:200]}"
        super().__init__(detail)
        self.status = status
        self.body = body


def estimate_tokens(text: str) -> int:
    """Deterministic token estimate: ceil(len(text) / 4).

    Not a real tokenizer, but monotone, dependency-free, and good enough for
    budget enforcement; the context manager only needs relative sizes.
    """
    return (len(text) + 3) // 4


@dataclass(frozen=True)
class TokenUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be non-negative")

    def as_dict(self) -> dict[str, int]:
        return {
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
        }


@dataclass(frozen=True)
class ChatMessage:
    """One chat turn; ``tokens`` is its content's estimate, computed once here."""

    role: str
    content: str
    tool_calls: tuple[Action, ...] = ()
    tool_call_id: str | None = None
    tokens: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role: {self.role!r}")
        if self.role == "tool" and not self.tool_call_id:
            raise ValueError("tool messages must carry a tool_call_id")
        if self.role != "assistant" and self.tool_calls:
            raise ValueError("only assistant messages may carry tool calls")
        object.__setattr__(self, "tokens", estimate_tokens(self.content))


class Prompt(list):
    """The messages of one model call, with two counts read off them.

    ``tokens`` is the sum of the messages' ``ChatMessage.tokens`` and
    ``assistants`` is how many of them are ``assistant`` messages. Both are
    read-only: they are fixed when the prompt is built, so a Prompt must not
    be mutated after that.
    """

    __slots__ = ("tokens", "assistants")

    def __init__(self, messages: Iterable[ChatMessage], tokens: int, assistants: int) -> None:
        super().__init__(messages)
        self.tokens = tokens
        self.assistants = assistants

    @classmethod
    def of(cls, messages: Sequence[ChatMessage]) -> "Prompt":
        """``messages`` itself if it is a Prompt, else a Prompt counted once here."""
        if isinstance(messages, Prompt):
            return messages
        tokens = 0
        assistants = 0
        for m in messages:
            tokens += m.tokens
            if m.role == "assistant":
                assistants += 1
        return cls(messages, tokens, assistants)


@dataclass(frozen=True)
class ChatResponse:
    content: str
    tool_calls: tuple[Action, ...] = ()
    usage: TokenUsage = TokenUsage()
    finish: str = "stop"

    def __post_init__(self) -> None:
        if not isinstance(self.content, str):
            raise TypeError(f"response content must be a string, got {self.content!r}")
        if self.finish not in FINISH_REASONS:
            raise ValueError(f"unknown finish reason: {self.finish!r}")
        if (self.finish == "tool_call") != bool(self.tool_calls):
            raise ValueError("finish=tool_call iff tool_calls is non-empty")


@dataclass(frozen=True)
class ModelProfile:
    """A named model backend; a scripted one parses its script here, once.

    ``script`` is the parsed ``script_path`` (None for other providers). It
    is not a manifest key, so it is left out of comparisons and snapshots, and
    the gateway plays it back as it was when the profile was built.
    """

    name: str
    provider: str
    model: str
    base_url: str | None = None
    api_key_env: str | None = None
    temperature: float = 0.0
    max_output_tokens: int = 1024
    script_path: str | None = None
    script: Script | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for key in ("name", "provider", "model", "base_url", "api_key_env", "script_path"):
            value = getattr(self, key)
            optional = key in ("base_url", "api_key_env", "script_path")
            if not isinstance(value, str) and not (optional and value is None):
                raise InvalidProfile(f"{self.name}: {key} must be a string")
        if not self.name:
            raise InvalidProfile("profile name must be non-empty")
        if self.provider not in PROVIDERS:
            raise InvalidProfile(f"{self.name}: unknown provider {self.provider!r}")
        if not 0.0 <= self.temperature <= 2.0:
            raise InvalidProfile(f"{self.name}: temperature must be in [0, 2]")
        if self.max_output_tokens <= 0:
            raise InvalidProfile(f"{self.name}: max_output_tokens must be positive")
        if self.provider == "scripted" and not self.script_path:
            raise InvalidProfile(f"{self.name}: scripted profiles need a script_path")
        if self.provider == "http-openai-compatible" and not self.base_url:
            raise InvalidProfile(f"{self.name}: http profiles need a base_url")
        script = load_script(self.script_path) if self.provider == "scripted" else None
        object.__setattr__(self, "script", script)


@dataclass(frozen=True)
class ScriptEntry:
    """One canned response; ``call_tokens`` is its tool calls' token estimate.

    ``call_tokens`` sums ``estimate_tokens`` over each call's arguments as
    sorted-key JSON. It is computed once, here, since every playback of the
    entry sends the same arguments. ``nested`` says whether any argument
    value is an object or an array, which decides how a playback copies the
    arguments: nested ones deeply, flat ones one level (see ``scripted_step``).
    """

    content: str
    tool_calls: tuple[tuple[str, dict[str, Any]], ...] = ()
    match: re.Pattern[str] | None = None
    call_tokens: int = field(init=False, repr=False, compare=False)
    nested: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tokens = sum(
            estimate_tokens(json.dumps(args, sort_keys=True)) for _, args in self.tool_calls
        )
        object.__setattr__(self, "call_tokens", tokens)
        nested = any(
            isinstance(value, (dict, list))
            for _, args in self.tool_calls
            for value in args.values()
        )
        object.__setattr__(self, "nested", nested)


@dataclass(frozen=True)
class Script:
    """Ordered canned responses for the scripted provider.

    The playback position is derived from the conversation itself (the number
    of assistant messages already present), never from hidden state, so
    identical message lists always replay identically and concurrent
    conversations cannot interleave each other's scripts. When the entries
    run out the last one repeats, leaving loop termination to the engine.
    """

    entries: tuple[ScriptEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ScriptParseError("a script needs at least one entry")


def parse_script(text: str, source: str = "<script>") -> Script:
    """The script in the JSON ``text``; one leading BOM is skipped, as YAML's reader skips it."""
    try:
        data = json.loads(text.removeprefix("\ufeff"))
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, or an int too long
        raise ScriptParseError(f"{source}: invalid JSON ({exc})") from exc
    if not isinstance(data, list) or not data:
        raise ScriptParseError(f"{source}: expected a non-empty JSON array")
    entries = []
    for i, raw in enumerate(data):
        if not isinstance(raw, dict):
            raise ScriptParseError(f"{source}: entry {i} is not an object")
        unknown = set(raw) - {"match", "content", "tool_calls"}
        if unknown:
            raise ScriptParseError(f"{source}: entry {i} has unknown keys {sorted(unknown)}")
        content = raw.get("content", "")
        if not isinstance(content, str):
            raise ScriptParseError(f"{source}: entry {i} content must be a string")
        pattern = None
        if raw.get("match") is not None:
            try:
                pattern = re.compile(raw["match"])
            except (re.error, TypeError) as exc:
                raise ScriptParseError(f"{source}: entry {i} bad match regex ({exc})") from exc
        calls = []
        for call in raw.get("tool_calls", []) or []:
            if not isinstance(call, dict) or "name" not in call:
                raise ScriptParseError(f"{source}: entry {i} tool_calls need a name")
            args = call.get("arguments", {})
            if not isinstance(args, dict):
                raise ScriptParseError(f"{source}: entry {i} arguments must be an object")
            if nested_deeper_than(args, _MAX_ARG_DEPTH):
                raise ScriptParseError(
                    f"{source}: entry {i} arguments nest deeper than {_MAX_ARG_DEPTH} levels"
                )
            calls.append((str(call["name"]), args))
        entries.append(ScriptEntry(content, tuple(calls), pattern))
    return Script(tuple(entries))


def nested_deeper_than(value: Any, limit: int) -> bool:
    """Whether dicts, lists and tuples in ``value`` nest more than ``limit`` deep.

    The walk is iterative, so any depth is safe to check. A container met
    again is walked again only when met deeper than before, so a shared
    container costs at most ``limit`` walks, and a container that holds
    itself counts as too deep.
    """
    deepest: dict[int, int] = {}  # id of each container walked -> its deepest depth
    stack = [(value, 1)]
    while stack:
        item, depth = stack.pop()
        if not isinstance(item, (dict, list, tuple)) or deepest.get(id(item), 0) >= depth:
            continue
        if depth > limit:
            return True
        deepest[id(item)] = depth
        children = item.values() if isinstance(item, dict) else item
        stack.extend((child, depth + 1) for child in children)
    return False


def load_script(path: str | Path) -> Script:
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise ScriptParseError(f"{path}: cannot read script ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ScriptParseError(
            f"{path}: script is not UTF-8 (byte {exc.start}: {exc.reason})"
        ) from exc
    return parse_script(text, source=os.fspath(path))


def _last_non_assistant(messages: Sequence[ChatMessage]) -> str:
    for message in reversed(messages):
        if message.role != "assistant":
            return message.content
    return ""


def scripted_step(script: Script, messages: Sequence[ChatMessage]) -> ChatResponse:
    """Produce the next canned response for this conversation.

    The position is the number of assistant messages in the conversation, and
    the reported prompt tokens are the sum of its messages' tokens. Both come
    from ``Prompt.of``: a rendered Prompt already carries them, and any other
    message list is counted once here.

    Scans forward from that position for the first entry whose match
    regex (if any) hits the last non-assistant message; entries without a
    match always hit. Falls back to the final entry when nothing matches.
    The placeholder ``{{last}}`` in entry content is replaced with the last
    non-assistant message, which is how echo scripts are written.

    Each ``Action`` gets its own copy of the entry's arguments, nested
    objects and arrays included, so a tool handler that mutates them cannot
    change a later playback.
    """
    prompt = Prompt.of(messages)
    target = _last_non_assistant(messages)
    position = min(prompt.assistants, len(script.entries) - 1)
    selected = None
    for entry in script.entries[position:]:
        if entry.match is None or entry.match.search(target):
            selected = entry
            break
    if selected is None:
        selected = script.entries[-1]

    content = selected.content.replace("{{last}}", target)
    copy_args = copy.deepcopy if selected.nested else dict
    actions = tuple(
        Action(id=f"call-{position}-{k}", tool=name, arguments=copy_args(args))
        for k, (name, args) in enumerate(selected.tool_calls)
    )
    return ChatResponse(
        content=content,
        tool_calls=actions,
        usage=TokenUsage(prompt.tokens, estimate_tokens(content) + selected.call_tokens),
        finish="tool_call" if actions else "stop",
    )


class LlmGateway:
    """Profile registry plus a uniform complete() across providers.

    HTTP profiles post through ``pool``; without one, every request opens
    and closes its own connection.
    """

    def __init__(self, pool: ConnectionPool | None = None) -> None:
        self._profiles: dict[str, ModelProfile] = {}
        self._lock = threading.Lock()
        self._pool = pool

    def register_profile(self, profile: ModelProfile) -> None:
        with self._lock:
            if profile.name in self._profiles:
                raise DuplicateProfile(f"profile already registered: {profile.name}")
            self._profiles[profile.name] = profile

    def has_profile(self, name: str) -> bool:
        return name in self._profiles

    def list_profiles(self) -> list[str]:
        return sorted(self._profiles)

    def complete(
        self,
        profile_name: str,
        messages: Sequence[ChatMessage],
        tools: Sequence[ToolDescriptor] = (),
    ) -> ChatResponse:
        profile = self._profiles.get(profile_name)
        if profile is None:
            raise ProfileNotFound(f"no such profile: {profile_name}")
        if not messages:
            raise ValueError("messages must be non-empty")
        if messages[0].role not in ("system", "user"):
            raise ValueError("conversations must open with a system or user message")
        if profile.provider == "scripted":
            return scripted_step(profile.script, messages)
        return self._http_complete(profile, messages, tools)

    def _http_complete(
        self,
        profile: ModelProfile,
        messages: Sequence[ChatMessage],
        tools: Sequence[ToolDescriptor],
    ) -> ChatResponse:
        headers: dict[str, str] = {}
        if profile.api_key_env:
            key = os.environ.get(profile.api_key_env)
            if not key:
                raise ProviderError(
                    f"api key env var {profile.api_key_env} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"

        body: dict[str, Any] = {
            "model": profile.model,
            "messages": [_wire_message(m) for m in messages],
            "temperature": profile.temperature,
            "max_tokens": profile.max_output_tokens,
        }
        if tools:
            body["tools"] = [descriptor_wire_form(d) for d in tools]

        url = profile.base_url.rstrip("/") + "/chat/completions"
        try:
            status, reply = post_json(url, body, headers, HTTP_TIMEOUT_S, self._pool)
        except OSError as exc:
            raise ProviderError(f"transport failure: {exc}") from exc
        if status != 200:
            raise ProviderError(
                "provider returned an error", status, reply.decode("utf-8", "replace")
            )
        try:
            return _parse_reply(json.loads(reply))
        except (ValueError, KeyError, IndexError, TypeError, AttributeError, RecursionError) as exc:
            # RecursionError: a reply nested past the JSON decoder's limit.
            raise ProviderError(f"malformed provider response: {exc}") from exc


class ConnectionPool:
    """Kept-alive HTTP connections for ``post_json``, reused until ``close``.

    Connections are keyed by scheme, host, port and proxy. A request takes an
    idle connection for its key or opens one, and gives it back after a full
    reply unless the server said it would close it; so the pool never holds
    more connections than there were requests in flight at once. ``close``
    closes the idle connections and any given back later. A run closes its
    pool when it ends, so no connection outlives it. The proxy settings for
    a URL are read on its first request through the pool.
    """

    def __init__(self) -> None:
        self._idle: dict[tuple, list[Any]] = {}
        self._routes: dict[str, tuple] = {}
        self._lock = threading.Lock()
        self._closed = False

    def _route(self, url: str) -> tuple:
        route = self._routes.get(url)
        if route is None:
            route = self._routes[url] = _route(url)
        return route

    def _take(self, key: tuple) -> Any:
        with self._lock:
            idle = self._idle.get(key)
            return idle.pop() if idle else None

    def _give(self, key: tuple, connection: Any) -> None:
        with self._lock:
            if not self._closed:
                self._idle.setdefault(key, []).append(connection)
                return
        connection.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for connections in idle.values():
            for connection in connections:
                connection.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def post_json(
    url: str,
    payload: Any,
    headers: dict[str, str],
    timeout: float,
    pool: ConnectionPool | None = None,
) -> tuple[int, bytes]:
    """POST ``payload`` as JSON; return ``(status, body)``.

    The request reuses an idle connection of ``pool`` or opens one; without a
    pool its connection closes after the reply. A reused connection that
    fails before any reply byte, because the server closed it while it was
    idle, is retried once on a fresh connection.

    Every HTTP reply is returned, non-2xx included. Every transport failure
    raises ``OSError``: a refused, dropped or timed-out connection, a
    protocol error, a malformed URL, a payload that is not valid JSON (NaN),
    and any scheme but http/https. ``timeout`` applies per request. HTTPS
    verifies against the system CA store. Proxies come from ``HTTP_PROXY``,
    ``HTTPS_PROXY`` and ``NO_PROXY`` as ``urllib`` reads them: an http URL
    goes to the proxy as an absolute URI, an https one through a ``CONNECT``
    tunnel, and credentials in the proxy URL go with either.
    """
    import http.client  # on the first request: a scripted run never loads it

    try:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        route = pool._route(url) if pool is not None else _route(url)
        key, target, proxy_headers = route
        headers = {
            "User-Agent": "evokit",
            **headers,
            **proxy_headers,
            "Content-Type": "application/json",
        }
        connection = pool._take(key) if pool is not None else None
        try:
            if connection is not None:
                connection.sock.settimeout(timeout)
                try:
                    response = _send(connection, target, body, headers)
                except ConnectionError:  # closed while idle: no reply byte came
                    connection.close()
                    connection = None
            if connection is None:
                connection = _connect(key, timeout)
                response = _send(connection, target, body, headers)
            data = response.read()
        except BaseException:
            if connection is not None:
                connection.close()
            raise
        if pool is not None and not response.will_close:
            pool._give(key, connection)
        else:
            connection.close()
        return response.status, data
    except (http.client.HTTPException, ValueError) as exc:
        raise OSError(f"{type(exc).__name__}: {exc}") from exc


def _route(url: str) -> tuple[tuple, str, dict[str, str]]:
    """``(key, target, headers)`` of a request to ``url``.

    ``key`` is ``(scheme, host, port, proxy)``, where ``proxy`` is None or
    ``(scheme, host, port, authorization)``; ``target`` is the URI of the
    request line, and ``headers`` carries the proxy's credentials when the
    request itself goes to the proxy.
    """
    import urllib.request  # proxy settings, read the way urlopen reads them

    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise OSError(f"unsupported URL scheme: {url}")
    if not parts.hostname:
        raise OSError(f"no host in URL: {url}")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    proxy_url = urllib.request.getproxies().get(parts.scheme)
    if not proxy_url or urllib.request.proxy_bypass(parts.netloc.rpartition("@")[2]):
        return (parts.scheme, parts.hostname, parts.port, None), target, {}
    proxy = _parse_proxy(proxy_url)
    key = (parts.scheme, parts.hostname, parts.port, proxy)
    if parts.scheme == "https":  # tunnelled: the proxy sees only the CONNECT
        return key, target, {}
    auth = proxy[3]
    return key, url.partition("#")[0], {"Proxy-Authorization": auth} if auth else {}


def _parse_proxy(proxy_url: str) -> tuple[str, str, int, str | None]:
    """``(scheme, host, port, authorization)`` of a proxy URL such as ``user:pw@host:3128``."""
    if "://" not in proxy_url:
        proxy_url = "http://" + proxy_url
    parts = urllib.parse.urlsplit(proxy_url)
    if not parts.hostname:
        raise OSError(f"no host in proxy URL: {proxy_url}")
    port = parts.port or (443 if parts.scheme == "https" else 80)
    auth = None
    if parts.username and parts.password:
        import base64

        user = urllib.parse.unquote(parts.username)
        password = urllib.parse.unquote(parts.password)
        auth = "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
    return parts.scheme, parts.hostname, port, auth


def _connect(key: tuple, timeout: float) -> Any:
    """A new, not yet connected, ``http.client`` connection for ``key``."""
    import http.client

    scheme, host, port, proxy = key
    if proxy is None:
        cls = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        return cls(host, port, timeout=timeout)
    proxy_scheme, proxy_host, proxy_port, auth = proxy
    if scheme == "https":
        connection = http.client.HTTPSConnection(proxy_host, proxy_port, timeout=timeout)
        connection.set_tunnel(host, port, {"Proxy-Authorization": auth} if auth else None)
        return connection
    cls = http.client.HTTPSConnection if proxy_scheme == "https" else http.client.HTTPConnection
    return cls(proxy_host, proxy_port, timeout=timeout)


def _send(connection: Any, target: str, body: bytes, headers: dict[str, str]) -> Any:
    connection.request("POST", target, body, headers)
    return connection.getresponse()


def _parse_reply(payload: Any) -> ChatResponse:
    """A chat-completions payload as a ChatResponse; any malformed part raises.

    ``Action`` and ``ChatResponse`` check their own fields, so tool-call
    arguments must decode to a JSON object and content must be a string.
    """
    choice = payload["choices"][0]
    message = choice["message"]
    actions = []
    for k, call in enumerate(message.get("tool_calls") or []):
        fn = call.get("function", {})
        arguments = json.loads(fn.get("arguments") or "{}")
        actions.append(
            Action(id=call.get("id") or f"call-http-{k}", tool=fn.get("name", ""), arguments=arguments)
        )

    if actions:
        finish = "tool_call"
    elif choice.get("finish_reason") == "length":
        finish = "length"
    else:
        finish = "stop"

    usage = payload.get("usage") or {}
    return ChatResponse(
        content=message.get("content") or "",
        tool_calls=tuple(actions),
        usage=TokenUsage(
            int(usage.get("prompt_tokens", 0)),
            int(usage.get("completion_tokens", 0)),
        ),
        finish=finish,
    )


def _wire_message(message: ChatMessage) -> dict[str, Any]:
    wire: dict[str, Any] = {"role": message.role, "content": message.content}
    if message.tool_calls:
        wire["tool_calls"] = [
            {
                "id": a.id,
                "type": "function",
                "function": {"name": a.tool, "arguments": json.dumps(a.arguments, sort_keys=True)},
            }
            for a in message.tool_calls
        ]
    if message.tool_call_id:
        wire["tool_call_id"] = message.tool_call_id
    return wire
