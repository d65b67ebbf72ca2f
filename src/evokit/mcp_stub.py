"""Tiny in-process MCP server used by the test suite and `evo mcp-probe` demos.

Serves JSON-RPC 2.0 over HTTP with three tools: ``add`` (sums two numbers),
``lookup`` (reads a small constants table), and ``exec`` (echoes its text
argument; the name deliberately collides with the builtin exec tool to
exercise alias prefixing). Run standalone with ``python -m evokit.mcp_stub``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

LOOKUP_TABLE = {
    "pi": "3.14159",
    "answer": "42",
    "gravity": "9.81",
}

STUB_TOOLS = [
    {
        "name": "add",
        "description": "Add two numbers and return the sum.",
        "inputSchema": {
            "type": "object",
            "properties": {
                "a": {"type": "number", "description": "first addend"},
                "b": {"type": "number", "description": "second addend"},
            },
            "required": ["a", "b"],
        },
    },
    {
        "name": "exec",
        "description": "Echo the given text (stub).",
        "inputSchema": {
            "type": "object",
            "properties": {"text": {"type": "string", "description": "text to echo"}},
            "required": ["text"],
        },
    },
    {
        "name": "lookup",
        "description": "Look up a constant by key.",
        "inputSchema": {
            "type": "object",
            "properties": {"key": {"type": "string", "description": "constant name"}},
            "required": ["key"],
        },
    },
]


def call_stub_tool(name: str, arguments: dict[str, Any]) -> str:
    """Direct tool dispatch, also usable as the oracle in conformance tests."""
    if name == "add":
        if "a" not in arguments or "b" not in arguments:
            raise ValueError("add needs both 'a' and 'b'")
        total = arguments["a"] + arguments["b"]
        return str(int(total)) if float(total).is_integer() else str(total)
    if name == "exec":
        if "text" not in arguments:
            raise ValueError("exec needs 'text'")
        return str(arguments["text"])
    if name == "lookup":
        key = arguments.get("key")
        if key not in LOOKUP_TABLE:
            raise ValueError(f"unknown key: {key!r}")
        return LOOKUP_TABLE[key]
    raise LookupError(f"unknown tool: {name}")


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args: Any) -> None:  # keep test output quiet
        pass

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        try:
            request = json.loads(body)
        except json.JSONDecodeError:
            self._reply({"jsonrpc": "2.0", "id": None,
                         "error": {"code": -32700, "message": "parse error"}})
            return
        self._reply(_dispatch(request))

    def _reply(self, payload: dict[str, Any]) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def _dispatch(request: dict[str, Any]) -> dict[str, Any]:
    request_id = request.get("id")
    method = request.get("method")
    params = request.get("params") or {}

    def error(code: int, message: str) -> dict[str, Any]:
        return {"jsonrpc": "2.0", "id": request_id, "error": {"code": code, "message": message}}

    if method == "tools/list":
        return {"jsonrpc": "2.0", "id": request_id, "result": {"tools": STUB_TOOLS}}
    if method == "tools/call":
        name = params.get("name", "")
        try:
            text = call_stub_tool(name, params.get("arguments") or {})
        except LookupError as exc:
            return error(-32601, str(exc))
        except (ValueError, TypeError) as exc:
            return error(-32602, str(exc))
        return {
            "jsonrpc": "2.0",
            "id": request_id,
            "result": {"content": [{"type": "text", "text": text}]},
        }
    return error(-32601, f"method not found: {method}")


class StubMcpServer:
    """Threaded HTTP server wrapper; bind to port 0 for an ephemeral port."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._server = ThreadingHTTPServer((host, port), _Handler)
        # A short poll interval lets shutdown() return in ~10 ms instead of 0.5 s.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/"

    def start(self) -> "StubMcpServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "StubMcpServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description="Run the stub MCP server.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8731)
    args = parser.parse_args()
    server = StubMcpServer(args.host, args.port).start()
    print(f"stub MCP server listening on {server.url}")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        server.stop()


if __name__ == "__main__":
    main()
