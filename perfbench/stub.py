"""In-process chat-completions server with a fixed service delay.

Stands in for a remote model in the ``fanout_http`` workload. Every request
sleeps the same fixed delay and gets a reply derived only from the seed and
the request, so runs are repeatable. The server measures, from its own side,
each request's service time and the peak number of requests in flight; the
benchmark subtracts the service time from the client's call time to get the
transport overhead, and reads overlap of independent calls from the peak.

Replies by the ``model`` field of the request:

- ``bench-drafter``: ``FINAL: gen0-<tag>``
- ``bench-improver-<x>``: first turn a plan without a final marker, second
  turn ``FINAL: improver-<x>-gen<g+1>-<tag>`` where ``g`` is the generation
  of the current solution quoted in the task
- ``bench-evaluator``: ``SCORE: <score(seed, candidate)>``
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from collections import defaultdict, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter, sleep
from typing import Any

DELAY_S = 0.020

_GENERATION = re.compile(r"gen(\d+)-")
_CANDIDATE = re.compile(r"Candidate solution:\n(.*?)\n\nReply", re.DOTALL)


def seed_tag(seed: int) -> str:
    return hashlib.sha256(f"tag:{seed}".encode()).hexdigest()[:6]


def score(seed: int, candidate: str) -> float:
    """The evaluator's deterministic score for one candidate, in [0, 100)."""
    digest = hashlib.sha256(f"score:{seed}:{candidate}".encode()).hexdigest()
    return int(digest[:8], 16) % 1000 / 10


def proposal(improver: str, generation: int, seed: int) -> str:
    return f"{improver}-gen{generation}-{seed_tag(seed)}"


def request_key(messages: list[dict[str, Any]]) -> tuple[str, int, str]:
    """Identifies a request on both sides of the wire (see spans._complete_info)."""
    return messages[0]["content"], len(messages), messages[-1]["content"]


def _tokens(text: str) -> int:
    return (len(text) + 3) // 4


def reply_content(body: dict[str, Any], seed: int) -> str:
    model = body["model"]
    messages = body["messages"]
    task = messages[-1]["content"]
    if model == "bench-drafter":
        return f"FINAL: gen0-{seed_tag(seed)}"
    if model.startswith("bench-improver-"):
        if not any(m["role"] == "assistant" for m in messages):
            return "Plan: keep what scored well and tighten the wording."
        user_task = next(m["content"] for m in messages if m["role"] == "user")
        match = _GENERATION.search(user_task)
        generation = int(match.group(1)) + 1 if match else 1
        return "FINAL: " + proposal(model[len("bench-"):], generation, seed)
    if model == "bench-evaluator":
        match = _CANDIDATE.search(task)
        candidate = match.group(1) if match else ""
        return f"SCORE: {score(seed, candidate)}"
    raise ValueError(f"unknown model {model!r}")


class LatencyStub:
    """Threaded HTTP server; use as a context manager."""

    def __init__(self, seed: int):
        self.seed = seed
        self.inflight_max = 0
        self._inflight = 0
        self._service: dict[tuple, deque[float]] = defaultdict(deque)
        self._lock = threading.Lock()
        stub = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 2  # idle keep-alive connections close, so close() can join
            # Send headers and body in one segment with Nagle off: otherwise
            # delayed ACKs add ~40 ms per call, a cost of the stub, not evokit.
            wbufsize = -1
            disable_nagle_algorithm = True

            def log_message(self, *args: Any) -> None:
                pass

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                started = perf_counter()
                key = None
                with stub._lock:
                    stub._inflight += 1
                    stub.inflight_max = max(stub.inflight_max, stub._inflight)
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    body = json.loads(self.rfile.read(length))
                    key = request_key(body["messages"])
                    content = reply_content(body, stub.seed)
                    sleep(DELAY_S)
                    payload = {
                        "choices": [
                            {"message": {"content": content}, "finish_reason": "stop"}
                        ],
                        "usage": {
                            "prompt_tokens": sum(_tokens(m["content"]) for m in body["messages"]),
                            "completion_tokens": _tokens(content),
                        },
                    }
                    data = json.dumps(payload).encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                finally:
                    elapsed = perf_counter() - started
                    with stub._lock:
                        stub._inflight -= 1
                        if key is not None:
                            stub._service[key].append(elapsed)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.daemon_threads = False
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def pop_service_s(self, key: tuple) -> float | None:
        """Service time of the oldest unclaimed request with this key."""
        with self._lock:
            queue = self._service.get(key)
            return queue.popleft() if queue else None

    def reset_counters(self) -> None:
        with self._lock:
            self.inflight_max = 0
            self._service.clear()

    def __enter__(self) -> "LatencyStub":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._server.shutdown()
        self._server.server_close()  # joins the per-connection handler threads
        self._thread.join()
