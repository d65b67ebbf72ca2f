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
    """Serves POST requests with a canned or computed chat-completions payload.

    By default the stub speaks HTTP/1.0, so each reply closes its connection.
    With ``keep_alive`` it speaks HTTP/1.1 and keeps connections open between
    requests; ``drop_after_reply`` then closes each connection after its
    reply without saying so, as a server does that drops idle connections.
    ``connections`` counts the connections accepted and ``open_connections``
    those not closed yet. A ``CONNECT`` (a proxy tunnel) is recorded and
    refused with 502.
    """

    def __init__(
        self,
        reply: dict[str, Any] | Callable[[dict], dict] | None = None,
        status: int = 200,
        raw_body: bytes | None = None,
        keep_alive: bool = False,
        drop_after_reply: bool = False,
    ):
        self.reply = reply or DEFAULT_REPLY
        self.status = status
        self.raw_body = raw_body
        self.requests: list[dict[str, Any]] = []
        self.connections = 0
        self.open_connections = 0
        self._lock = threading.Lock()
        stub = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
            timeout = 5  # a connection the client never closes ends here
            # Headers and body in one segment with Nagle off, so a kept-alive
            # connection does not wait on the client's delayed ACK.
            wbufsize = -1
            disable_nagle_algorithm = True

            def log_message(self, *args: Any) -> None:
                pass

            def setup(self) -> None:
                super().setup()
                with stub._lock:
                    stub.connections += 1
                    stub.open_connections += 1

            def finish(self) -> None:
                try:
                    super().finish()
                finally:
                    with stub._lock:
                        stub.open_connections -= 1

            def _record(self, body: Any) -> None:
                stub.requests.append(
                    {
                        "method": self.command,
                        "path": self.path,
                        "body": body,
                        "authorization": self.headers.get("Authorization"),
                        "proxy_authorization": self.headers.get("Proxy-Authorization"),
                    }
                )

            def do_CONNECT(self) -> None:  # noqa: N802 — http.server API
                self._record(None)
                self.send_error(502)

            def do_POST(self) -> None:  # noqa: N802 — http.server API
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                self._record(body)
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
                if drop_after_reply:
                    self.close_connection = True

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
