"""Model Context Protocol adapter.

Speaks JSON-RPC 2.0 (methods ``tools/list`` and ``tools/call``) over HTTP or
a one-shot stdio subprocess, and converts remote tools into native registry
entries. Remote failures during a call are materialized as failed
observations, mirroring the local tool executor.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any

from .errors import EvokitError
from .gateway import ConnectionPool, post_json
from .tools import InvalidDescriptor, ToolDescriptor, ToolRegistry, run_shell

MCP_TRANSPORTS = ("http", "stdio")
MCP_TIMEOUT_S = 10.0  # per JSON-RPC request, either transport; stdio kills its process group


class McpTransportError(EvokitError):
    pass


class McpProtocolError(EvokitError):
    pass


class McpToolError(EvokitError):
    """JSON-RPC error returned by the remote server for a tool call."""


@dataclass(frozen=True)
class McpEndpoint:
    alias: str
    endpoint: str
    transport: str = "http"

    def __post_init__(self) -> None:
        if not self.alias or not self.endpoint:
            raise McpProtocolError("an MCP endpoint needs a non-empty alias and endpoint")
        if self.transport not in MCP_TRANSPORTS:
            raise McpProtocolError(f"unknown MCP transport: {self.transport!r}")


class McpClient:
    """JSON-RPC client of one endpoint; HTTP requests go through ``pool`` if given."""

    def __init__(self, endpoint: McpEndpoint, pool: ConnectionPool | None = None):
        self.endpoint = endpoint
        self._pool = pool
        self._next_id = 0
        self._lock = threading.Lock()

    def _request_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _rpc(self, method: str, params: dict[str, Any]) -> Any:
        request = {
            "jsonrpc": "2.0",
            "id": self._request_id(),
            "method": method,
            "params": params,
        }
        if self.endpoint.transport == "http":
            reply = self._rpc_http(request)
        else:
            reply = self._rpc_stdio(request)
        try:
            raw = json.loads(reply)
        except ValueError as exc:
            raise McpProtocolError(f"{self.endpoint.alias}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise McpProtocolError(f"{method}: response is not a JSON object")
        error = raw.get("error")
        if error is not None:
            if not isinstance(error, dict):
                raise McpProtocolError(
                    f"{self.endpoint.alias}: {method}: malformed error {error!r}"
                )
            raise McpToolError(f"{error.get('code')}: {error.get('message')}")
        return raw.get("result")

    def _rpc_http(self, request: dict[str, Any]) -> bytes:
        try:
            status, body = post_json(
                self.endpoint.endpoint, request, {}, MCP_TIMEOUT_S, self._pool
            )
        except OSError as exc:
            raise McpTransportError(f"{self.endpoint.alias}: {exc}") from exc
        if status != 200:
            raise McpTransportError(f"{self.endpoint.alias}: HTTP {status}")
        return body

    def _rpc_stdio(self, request: dict[str, Any]) -> str:
        # One-shot line-delimited exchange: spawn, write one request line,
        # read one response line. Good enough for batch tooling servers.
        line = json.dumps(request) + "\n"
        try:
            _, stdout, _ = run_shell(self.endpoint.endpoint, MCP_TIMEOUT_S, stdin=line)
        except OSError as exc:  # TimeoutError included
            raise McpTransportError(f"{self.endpoint.alias}: {exc}") from exc
        lines = stdout.strip().splitlines()
        if not lines:
            raise McpTransportError(f"{self.endpoint.alias}: no response on stdout")
        return lines[0]

    def list_tools(self) -> list[ToolDescriptor]:
        result = self._rpc("tools/list", {})
        if not isinstance(result, dict) or not isinstance(result.get("tools"), list):
            raise McpProtocolError(f"{self.endpoint.alias}: malformed tools/list result")
        descriptors = []
        for raw in result["tools"]:
            if not isinstance(raw, dict):
                raise McpProtocolError(f"{self.endpoint.alias}: malformed tool entry {raw!r}")
            try:
                descriptors.append(
                    ToolDescriptor(
                        name=raw.get("name"),
                        description=raw.get("description", ""),
                        parameters=raw.get("inputSchema") or {"type": "object", "properties": {}},
                        source="mcp",
                    )
                )
            except InvalidDescriptor as exc:
                raise McpProtocolError(
                    f"{self.endpoint.alias}: malformed tool entry ({exc})"
                ) from exc
        return descriptors

    def call_tool(self, name: str, arguments: dict[str, Any]) -> str:
        result = self._rpc("tools/call", {"name": name, "arguments": arguments})
        if not isinstance(result, dict) or not isinstance(result.get("content"), list):
            raise McpProtocolError(f"{self.endpoint.alias}: malformed tools/call result")
        parts = [
            item.get("text", "")
            for item in result["content"]
            if isinstance(item, dict) and item.get("type") == "text"
        ]
        try:
            return "\n".join(parts)
        except TypeError as exc:  # a text part whose text is not a string
            raise McpProtocolError(f"{self.endpoint.alias}: malformed tools/call result") from exc


def register_mcp_tools(registry: ToolRegistry, client: McpClient) -> list[str]:
    """List the endpoint's tools and register each as a native tool.

    A remote name that collides with an already-registered tool is prefixed
    with the endpoint alias (``stub.exec``). Returns the registered names.
    """
    registered = []
    for descriptor in sorted(client.list_tools(), key=lambda d: d.name):
        remote_name = descriptor.name
        local_name = remote_name
        if registry.get(local_name) is not None:
            local_name = f"{client.endpoint.alias}.{remote_name}"

        def handler(arguments: dict[str, Any], _remote: str = remote_name) -> str:
            return client.call_tool(_remote, arguments)

        registry.register_tool(
            ToolDescriptor(
                name=local_name,
                description=descriptor.description,
                parameters=descriptor.parameters,
                source="mcp",
            ),
            handler,
        )
        registered.append(local_name)
    return registered
