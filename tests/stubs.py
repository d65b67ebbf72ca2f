"""In-process HTTP stub for chat-completions provider tests."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

DEFAULT_REPLY = {
    "choices": [{"message": {"content": "stub reply"}, "finish_reason": "stop"}],
    "usage": {"prompt_tokens": 12, "completion_tokens": 3},
}


class ChatCompletionsStub:
    """Serves POST requests with a canned or computed chat-completions payload."""

    def __init__(
        self,
        reply: dict[str, Any] | Callable[[dict], dict] | None = None,
        status: int = 200,
        raw_body: bytes | None = None,
    ):
        self.reply = reply or DEFAULT_REPLY
        self.status = status
        self.raw_body = raw_body
        self.requests: list[dict[str, Any]] = []
        stub = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: Any) -> None:
                pass

            def do_POST(self) -> None:  # noqa: N802 — http.server API
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                stub.requests.append(
                    {
                        "path": self.path,
                        "body": body,
                        "authorization": self.headers.get("Authorization"),
                    }
                )
                if stub.raw_body is not None:
                    data = stub.raw_body
                else:
                    payload = stub.reply(body) if callable(stub.reply) else stub.reply
                    data = json.dumps(payload).encode("utf-8")
                self.send_response(stub.status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        # A short poll interval lets shutdown() return in ~10 ms instead of 0.5 s.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "ChatCompletionsStub":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._server.shutdown()
        self._server.server_close()
