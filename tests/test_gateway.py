from __future__ import annotations

import base64
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import evokit

from evokit.gateway import (
    ChatMessage,
    ChatResponse,
    DuplicateProfile,
    InvalidProfile,
    LlmGateway,
    ModelProfile,
    ProfileNotFound,
    ProviderError,
    ScriptParseError,
    TokenUsage,
    estimate_tokens,
    load_script,
    nested_deeper_than,
    parse_script,
    scripted_step,
)
from evokit.tools import Action, ToolDescriptor, descriptor_wire_form
from helpers import FIXTURES, scripted_gateway, write_script
from stubs import DEFAULT_REPLY, ChatCompletionsStub


# -- token estimation ---------------------------------------------------------


def test_estimate_tokens_formula() -> None:
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("hello world") == 3


def test_estimate_tokens_monotone_and_subadditive() -> None:
    rng = random.Random(42)
    for _ in range(200):
        a = "x" * rng.randrange(0, 50)
        b = "y" * rng.randrange(0, 50)
        assert estimate_tokens(a + b) >= estimate_tokens(a)
        assert estimate_tokens(a + b) <= estimate_tokens(a) + estimate_tokens(b) + 1


# -- message and response invariants -------------------------------------------


def test_tool_message_requires_call_id() -> None:
    with pytest.raises(ValueError):
        ChatMessage("tool", "result")
    ChatMessage("tool", "result", tool_call_id="call-1")


def test_only_assistant_messages_carry_tool_calls() -> None:
    from evokit.tools import Action

    action = Action("call-1", "exec", {"cmd": "true"})
    with pytest.raises(ValueError):
        ChatMessage("user", "hi", tool_calls=(action,))
    ChatMessage("assistant", "", tool_calls=(action,))


def test_response_finish_matches_tool_calls() -> None:
    from evokit.tools import Action

    with pytest.raises(ValueError):
        ChatResponse(content="x", finish="tool_call")
    with pytest.raises(ValueError):
        ChatResponse(content="x", tool_calls=(Action("a", "t"),), finish="stop")


def test_usage_rejects_negative_counts() -> None:
    with pytest.raises(ValueError):
        TokenUsage(prompt_tokens=-1)


# -- profile registry -----------------------------------------------------------


def test_register_and_list_profiles(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, mock_a=[{"content": "FINAL: ok"}])
    assert gateway.list_profiles() == ["mock_a"]
    assert gateway.has_profile("mock_a")


def test_duplicate_profile_rejected(tmp_path) -> None:
    path = write_script(tmp_path, "echo.script", [{"content": "hi"}])
    gateway = LlmGateway()
    profile = ModelProfile("mock-a", "scripted", "m", script_path=str(path))
    gateway.register_profile(profile)
    with pytest.raises(DuplicateProfile):
        gateway.register_profile(profile)


def test_scripted_profile_parses_its_script_when_built(tmp_path) -> None:
    path = write_script(tmp_path, "s.script", [{"content": "first"}])
    gateway = LlmGateway()
    gateway.register_profile(ModelProfile("s", "scripted", "m", script_path=str(path)))
    path.write_text("not a script", encoding="utf-8")
    assert gateway.complete("s", [ChatMessage("user", "hi")]).content == "first"
    with pytest.raises(ScriptParseError):
        ModelProfile("s", "scripted", "m", script_path=str(path))


def test_http_profile_requires_base_url() -> None:
    with pytest.raises(InvalidProfile):
        LlmGateway().register_profile(ModelProfile("h", "http-openai-compatible", "m"))


def test_scripted_profile_requires_script_path() -> None:
    with pytest.raises(InvalidProfile):
        LlmGateway().register_profile(ModelProfile("s", "scripted", "m"))


def test_temperature_range_checked(tmp_path) -> None:
    path = write_script(tmp_path, "s.script", [{"content": "x"}])
    with pytest.raises(InvalidProfile):
        LlmGateway().register_profile(
            ModelProfile("s", "scripted", "m", temperature=3.0, script_path=str(path))
        )


@pytest.mark.parametrize("key", ["model", "base_url", "api_key_env"])
def test_profile_text_fields_checked_at_construction(key) -> None:
    fields = {"name": "h", "provider": "http-openai-compatible", "model": "m", "base_url": "http://x/"}
    with pytest.raises(InvalidProfile, match=key):
        ModelProfile(**{**fields, key: 5})


def test_unknown_profile_raises(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, mock_a=[{"content": "hi"}])
    with pytest.raises(ProfileNotFound):
        gateway.complete("nope", [ChatMessage("user", "hi")])


# -- scripted provider ------------------------------------------------------------


def test_echo_script(tmp_path) -> None:
    gateway = LlmGateway()
    gateway.register_profile(
        ModelProfile(
            "echo", "scripted", "m", script_path=str(FIXTURES / "scripts/echo.script")
        )
    )
    response = gateway.complete("echo", [ChatMessage("user", "ping")])
    assert response.content == "ping"
    assert response.finish == "stop"


def test_planner_script_first_entry_emits_tool_call() -> None:
    script = load_script(FIXTURES / "scripts/planner.script")
    response = scripted_step(script, [ChatMessage("user", "find q1")])
    assert response.finish == "tool_call"
    assert len(response.tool_calls) == 1
    assert response.tool_calls[0].tool == "web_search"
    assert response.tool_calls[0].arguments == {"query": "q1"}


def test_script_exhaustion_repeats_last_entry(tmp_path) -> None:
    script = parse_script('[{"content": "one"}, {"content": "two"}]')
    messages = [ChatMessage("user", "go")]
    first = scripted_step(script, messages)
    assert first.content == "one"
    messages.append(ChatMessage("assistant", first.content))
    second = scripted_step(script, messages)
    assert second.content == "two"
    messages.append(ChatMessage("assistant", second.content))
    third = scripted_step(script, messages)
    assert third.content == "two"


def test_match_entry_selected_by_last_message() -> None:
    script = load_script(FIXTURES / "scripts/match.script")
    response = scripted_step(script, [ChatMessage("user", "FINAL: 42")])
    assert response.content == "done"


def test_match_falls_back_to_last_entry() -> None:
    script = parse_script('[{"match": "alpha", "content": "a"}, {"match": "beta", "content": "b"}]')
    response = scripted_step(script, [ChatMessage("user", "nothing matches")])
    assert response.content == "b"


def test_malformed_script_raises(tmp_path) -> None:
    bad = tmp_path / "bad.script"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(ScriptParseError):
        load_script(bad)
    with pytest.raises(ScriptParseError):
        parse_script("[]")
    with pytest.raises(ScriptParseError):
        parse_script('[{"content": "x", "bogus": 1}]')
    with pytest.raises(ScriptParseError):
        parse_script('[{"content": "x", "match": "(unclosed"}]')
    with pytest.raises(ScriptParseError):
        load_script(tmp_path / "missing.script")


@pytest.mark.parametrize(
    "text", ["[" * 100_000, "[" + "1" * 5000 + "]"], ids=["100,000 nested arrays", "5000-digit int"]
)
def test_script_the_decoder_rejects_raises(tmp_path, text) -> None:
    path = tmp_path / "deep.script"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScriptParseError, match=f"^{re.escape(str(path))}: invalid JSON"):
        load_script(path)


def _deep_args_script(levels: int) -> str:
    """A script whose one tool call's arguments object nests ``levels`` deep in all."""
    args = {"a": json.loads("[" * (levels - 1) + "]" * (levels - 1))}
    return json.dumps([{"tool_calls": [{"name": "exec", "arguments": args}]}])


def test_script_arguments_nested_too_deep_raise_at_load(tmp_path) -> None:
    # 700 levels decode, but a playback's deepcopy of them would recurse past the limit.
    path = tmp_path / "deep.script"
    path.write_text(_deep_args_script(700), encoding="utf-8")
    with pytest.raises(ScriptParseError, match="entry 0 arguments nest deeper than 64 levels"):
        load_script(path)
    with pytest.raises(ScriptParseError):
        parse_script(_deep_args_script(65))
    script = parse_script(_deep_args_script(64))
    assert scripted_step(script, [ChatMessage("user", "go")]).tool_calls[0].tool == "exec"


def test_nested_deeper_than_walks_shared_and_cyclic_containers() -> None:
    shared: list = []
    for _ in range(40):  # 2**40 paths, 40 containers
        shared = [shared, shared]
    assert not nested_deeper_than(shared, 41)
    assert nested_deeper_than(shared, 40)
    # Met shallow first (the walk takes the last value first) and deep later,
    # a container still counts at its deepest: 1 + 3 + 3 levels.
    inner = [[[]]]
    assert nested_deeper_than({"deep": [[[inner]]], "shallow": inner}, 6)
    assert not nested_deeper_than({"deep": [[[inner]]], "shallow": inner}, 7)
    cycle: list = []
    cycle.append(cycle)
    assert nested_deeper_than({"k": cycle}, 64)
    assert not nested_deeper_than("text", 0)


def test_scripted_complete_is_deterministic(tmp_path) -> None:
    gateway = scripted_gateway(
        tmp_path, det=[{"content": "alpha"}, {"content": "beta"}]
    )
    messages = [ChatMessage("user", "same input")]
    responses = [gateway.complete("det", messages) for _ in range(5)]
    assert all(r.content == responses[0].content for r in responses)
    assert all(r.usage == responses[0].usage for r in responses)


def test_complete_requires_leading_system_or_user(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, det=[{"content": "x"}])
    with pytest.raises(ValueError):
        gateway.complete("det", [])
    with pytest.raises(ValueError):
        gateway.complete("det", [ChatMessage("assistant", "hi")])


def test_scripted_usage_is_populated(tmp_path) -> None:
    gateway = scripted_gateway(tmp_path, det=[{"content": "abcdefgh"}])
    response = gateway.complete("det", [ChatMessage("user", "abcd")])
    assert response.usage.prompt_tokens == 1
    assert response.usage.completion_tokens == 2


def _old_completion_tokens(response: ChatResponse) -> int:
    """The per-call count scripted_step made before entries carried theirs."""
    return estimate_tokens(response.content) + sum(
        estimate_tokens(json.dumps(a.arguments, sort_keys=True)) for a in response.tool_calls
    )


def test_scripted_usage_matches_the_per_call_formula() -> None:
    script = parse_script(json.dumps([
        {"content": "plan {{last}}", "tool_calls": [
            {"name": "web_search", "arguments": {"query": "récif corallien 珊瑚礁"}},
            {"name": "web_fetch", "arguments": {"url": "https://example.org/ü", "z": 1, "a": [2]}},
            {"name": "exec", "arguments": {}},
        ]},
        {"content": "", "tool_calls": [
            {"name": "file_write", "arguments": {"path": "π.txt", "content": {"k": ["é", None]}}},
            {"name": "file_read", "arguments": {"path": "\U0001f600"}},
        ]},
        {"content": "FINAL: done"},
    ]))
    messages = [ChatMessage("user", "naïve ☃")]
    for _ in range(5):  # past the end too, where the last entry repeats
        response = scripted_step(script, messages)
        assert response.usage.completion_tokens == _old_completion_tokens(response)
        messages.append(ChatMessage("assistant", response.content, response.tool_calls))
        messages.extend(ChatMessage("tool", "r", tool_call_id=a.id) for a in response.tool_calls)
        messages.append(ChatMessage("user", "next"))
    # ensure_ascii: "é" counts as its six-character escape, as before.
    script = parse_script('[{"tool_calls": [{"name": "t", "arguments": {"q": "é"}}]}]')
    assert script.entries[0].call_tokens == estimate_tokens('{"q": "\\u00e9"}') == 4


def test_scripted_actions_own_their_arguments() -> None:
    nested_args = {"a": [1], "b": {"c": 1}}
    script = parse_script(json.dumps([{"tool_calls": [{"name": "t", "arguments": nested_args}]}]))
    flat = parse_script('[{"tool_calls": [{"name": "t", "arguments": {"q": "x"}}]}]')
    messages = [ChatMessage("user", "go")]
    first = scripted_step(script, messages).tool_calls[0].arguments
    first["a"].append(2)
    first["b"]["c"] = 9
    assert scripted_step(script, messages).tool_calls[0].arguments == {"a": [1], "b": {"c": 1}}
    assert script.entries[0].tool_calls[0][1] == {"a": [1], "b": {"c": 1}}
    scripted_step(flat, messages).tool_calls[0].arguments["q"] = "y"
    assert scripted_step(flat, messages).tool_calls[0].arguments == {"q": "x"}
    # Whether a copy must go deep is decided once, when the script is parsed.
    assert script.entries[0].nested and not flat.entries[0].nested


# -- http provider ------------------------------------------------------------------


def _http_gateway(url: str, api_key_env: str | None = None) -> LlmGateway:
    gateway = LlmGateway()
    gateway.register_profile(
        ModelProfile(
            "remote",
            "http-openai-compatible",
            "test-model",
            base_url=url,
            api_key_env=api_key_env,
        )
    )
    return gateway


def test_http_provider_parses_content_and_usage() -> None:
    with ChatCompletionsStub() as stub:
        gateway = _http_gateway(stub.url)
        response = gateway.complete("remote", [ChatMessage("user", "hi")])
    assert response.content == "stub reply"
    assert response.usage == TokenUsage(12, 3)
    assert stub.requests[0]["path"] == "/chat/completions"
    assert stub.requests[0]["body"]["model"] == "test-model"


def test_http_provider_parses_tool_calls() -> None:
    reply = {
        "choices": [
            {
                "message": {
                    "content": "",
                    "tool_calls": [
                        {
                            "id": "call_9",
                            "type": "function",
                            "function": {"name": "web_search", "arguments": '{"query": "x"}'},
                        }
                    ],
                },
                "finish_reason": "tool_calls",
            }
        ],
        "usage": {"prompt_tokens": 5, "completion_tokens": 2},
    }
    with ChatCompletionsStub(reply=reply) as stub:
        gateway = _http_gateway(stub.url)
        response = gateway.complete("remote", [ChatMessage("user", "hi")])
    assert response.finish == "tool_call"
    assert response.tool_calls[0].id == "call_9"
    assert response.tool_calls[0].arguments == {"query": "x"}


def test_http_request_carries_tool_calls_results_and_descriptors() -> None:
    search = Action("call-a", "web_search", {"query": "reefs", "limit": 2})
    read = Action("call-b", "file_read", {})
    messages = [
        ChatMessage("system", "You are a test agent."),
        ChatMessage("user", "Find two things."),
        ChatMessage("assistant", "", tool_calls=(search, read)),
        ChatMessage("tool", "found", tool_call_id="call-a"),
        ChatMessage("tool", "tool error: 404", tool_call_id="call-b"),
    ]
    descriptors = [
        ToolDescriptor("web_search", "Search.", {"type": "object", "properties": {}}),
        ToolDescriptor(
            "file_read",
            "Read.",
            {"type": "object", "properties": {"path": {"type": "string"}}, "required": ["path"]},
        ),
    ]
    with ChatCompletionsStub() as stub:
        _http_gateway(stub.url).complete("remote", messages, descriptors)
    body = stub.requests[0]["body"]
    assert body["messages"] == [
        {"role": "system", "content": "You are a test agent."},
        {"role": "user", "content": "Find two things."},
        {
            "role": "assistant",
            "content": "",
            "tool_calls": [
                {
                    "id": "call-a",
                    "type": "function",
                    "function": {
                        "name": "web_search",
                        "arguments": '{"limit": 2, "query": "reefs"}',
                    },
                },
                {
                    "id": "call-b",
                    "type": "function",
                    "function": {"name": "file_read", "arguments": "{}"},
                },
            ],
        },
        {"role": "tool", "content": "found", "tool_call_id": "call-a"},
        {"role": "tool", "content": "tool error: 404", "tool_call_id": "call-b"},
    ]
    assert body["tools"] == [descriptor_wire_form(d) for d in descriptors]


def test_http_reply_cut_at_its_length_finishes_length() -> None:
    reply = {"choices": [{"message": {"content": "half an ans"}, "finish_reason": "length"}]}
    with ChatCompletionsStub(reply=reply) as stub:
        response = _http_gateway(stub.url).complete("remote", [ChatMessage("user", "hi")])
    assert (response.content, response.finish) == ("half an ans", "length")
    assert "tools" not in stub.requests[0]["body"]


def test_http_provider_error_carries_status_and_body() -> None:
    with ChatCompletionsStub(status=500, raw_body=b"boom") as stub:
        gateway = _http_gateway(stub.url)
        with pytest.raises(ProviderError) as excinfo:
            gateway.complete("remote", [ChatMessage("user", "hi")])
    assert excinfo.value.status == 500
    assert "boom" in str(excinfo.value)


def test_http_reply_nested_past_the_decoder_limit_is_a_provider_error() -> None:
    with ChatCompletionsStub(raw_body=b"[" * 100_000) as stub:
        gateway = _http_gateway(stub.url)
        with pytest.raises(ProviderError, match="^malformed provider response: ") as excinfo:
            gateway.complete("remote", [ChatMessage("user", "hi")])
    assert isinstance(excinfo.value.__cause__, RecursionError)


def test_http_provider_requires_api_key_env(monkeypatch) -> None:
    monkeypatch.delenv("EVOKIT_TEST_KEY", raising=False)
    with ChatCompletionsStub() as stub:
        gateway = _http_gateway(stub.url, api_key_env="EVOKIT_TEST_KEY")
        with pytest.raises(ProviderError):
            gateway.complete("remote", [ChatMessage("user", "hi")])
        monkeypatch.setenv("EVOKIT_TEST_KEY", "secret")
        gateway.complete("remote", [ChatMessage("user", "hi")])
        assert stub.requests[-1]["authorization"] == "Bearer secret"


@pytest.mark.parametrize(
    "base_url",
    [
        "http://127.0.0.1:9",  # discard port, nothing listens
        "http://127.0.0.1:abc",  # malformed port
        "ftp://127.0.0.1:9",
        "file://{tmp_path}",  # holds a valid reply, yet only http/https are spoken
    ],
    ids=["refused", "bad_port", "ftp", "file"],
)
def test_http_transport_failure_is_provider_error(base_url, tmp_path) -> None:
    (tmp_path / "chat").mkdir()
    (tmp_path / "chat" / "completions").write_text(json.dumps(DEFAULT_REPLY))
    gateway = _http_gateway(base_url.format(tmp_path=tmp_path))
    with pytest.raises(ProviderError):
        gateway.complete("remote", [ChatMessage("user", "hi")])


def _reply(message, usage=None) -> dict:
    return {"choices": [{"message": message}], "usage": usage or {}}


def _tool_call(arguments) -> dict:
    return {"id": "c1", "function": {"name": "exec", "arguments": arguments}}


MALFORMED_REPLIES = {
    "no_choices": {"unexpected": True},
    "usage_not_a_number": _reply({"content": "x"}, {"prompt_tokens": "n/a"}),
    "usage_negative": _reply({"content": "x"}, {"prompt_tokens": -1}),
    "message_a_string": _reply("x"),
    "tool_call_a_string": _reply({"content": "", "tool_calls": ["exec"]}),
    "arguments_an_object": _reply({"content": "", "tool_calls": [_tool_call({"cmd": "ls"})]}),
    "arguments_a_list": _reply({"content": "", "tool_calls": [_tool_call("[1]")]}),
    "content_a_number": _reply({"content": 5}),
    "tool_call_id_an_object": _reply(
        {"content": "", "tool_calls": [dict(_tool_call("{}"), id={"n": 1})]}
    ),
}


@pytest.mark.parametrize("reply", MALFORMED_REPLIES.values(), ids=MALFORMED_REPLIES.keys())
def test_http_malformed_payload_is_provider_error(reply) -> None:
    with ChatCompletionsStub(reply=reply) as stub:
        gateway = _http_gateway(stub.url)
        with pytest.raises(ProviderError, match="malformed provider response"):
            gateway.complete("remote", [ChatMessage("user", "hi")])


# -- proxies ------------------------------------------------------------------------

_PROXIED_CALL = """
import sys
from evokit.gateway import ChatMessage, LlmGateway, ModelProfile, ProviderError
gateway = LlmGateway()
gateway.register_profile(ModelProfile("remote", "http-openai-compatible", "m", base_url=sys.argv[1]))
try:
    print(gateway.complete("remote", [ChatMessage("user", "hi")]).content)
except ProviderError as exc:
    print(f"ProviderError: {exc}")
"""


def _complete_in_fresh_process(base_url: str, **proxy_env: str) -> str:
    """One completion in a new interpreter whose only proxy settings are ``proxy_env``.

    A fresh interpreter, because an HTTP client may read the proxy settings
    once per process.
    """
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(Path(evokit.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _PROXIED_CALL, base_url],
        capture_output=True, text=True, check=True, timeout=60, env={**env, **proxy_env},
    )
    return result.stdout.strip()


def test_http_proxy_gets_absolute_uri_and_credentials() -> None:
    with ChatCompletionsStub() as proxy:
        proxy_url = proxy.url.replace("http://", "http://user:p%40ss@")
        content = _complete_in_fresh_process("http://model.invalid/v1", HTTP_PROXY=proxy_url)
    assert content == "stub reply"
    [request] = proxy.requests
    assert request["path"] == "http://model.invalid/v1/chat/completions"
    assert request["proxy_authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_no_proxy_host_bypasses_the_proxy() -> None:
    # The bypassed host is the local target itself, so the call needs no DNS.
    with ChatCompletionsStub() as proxy, ChatCompletionsStub() as target:
        content = _complete_in_fresh_process(
            target.url + "/v1", HTTP_PROXY=proxy.url, NO_PROXY="example.org,127.0.0.1"
        )
    assert content == "stub reply"
    assert proxy.requests == []
    assert [r["path"] for r in target.requests] == ["/v1/chat/completions"]


def test_https_through_proxy_opens_a_tunnel() -> None:
    with ChatCompletionsStub() as proxy:
        content = _complete_in_fresh_process("https://model.invalid/v1", HTTPS_PROXY=proxy.url)
    assert content.startswith("ProviderError: transport failure")
    assert [(r["method"], r["path"]) for r in proxy.requests] == [
        ("CONNECT", "model.invalid:443")
    ]
