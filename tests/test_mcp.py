from __future__ import annotations

import time

import pytest

from evokit import mcp
from evokit.cli import main
from evokit.mcp import (
    McpClient,
    McpEndpoint,
    McpProtocolError,
    McpTransportError,
    register_mcp_tools,
)
from evokit.mcp_stub import StubMcpServer, call_stub_tool
from evokit.tools import Action, ToolRegistry, install_builtin_tools
from helpers import gone_or_zombie
from stubs import ChatCompletionsStub


@pytest.fixture
def stub_server():
    with StubMcpServer() as server:
        yield server


def _client(server: StubMcpServer, alias: str = "stub") -> McpClient:
    return McpClient(McpEndpoint(alias=alias, endpoint=server.url))


def test_list_tools_converts_descriptors(stub_server) -> None:
    descriptors = McpClient(McpEndpoint(alias="stub", endpoint=stub_server.url)).list_tools()
    names = sorted(d.name for d in descriptors)
    assert names == ["add", "exec", "lookup"]
    assert all(d.source == "mcp" for d in descriptors)
    add = next(d for d in descriptors if d.name == "add")
    assert add.parameters["required"] == ["a", "b"]


def test_unreachable_endpoint_is_transport_error() -> None:
    client = McpClient(McpEndpoint(alias="down", endpoint="http://127.0.0.1:9/"))
    with pytest.raises(McpTransportError):
        client.list_tools()


def test_malformed_listing_is_protocol_error() -> None:
    with ChatCompletionsStub(reply={"jsonrpc": "2.0", "id": 1, "result": {"bogus": True}}) as bad:
        client = McpClient(McpEndpoint(alias="bad", endpoint=bad.url))
        with pytest.raises(McpProtocolError):
            client.list_tools()


@pytest.mark.parametrize(
    ("stub", "error"),
    [
        ({"reply": {"jsonrpc": "2.0", "id": 1, "error": "boom"}}, McpProtocolError),
        ({"reply": {"jsonrpc": "2.0", "id": 1, "result": {"tools": [{"name": 5}]}}},
         McpProtocolError),
        ({"reply": {"jsonrpc": "2.0", "id": 1,
                    "result": {"tools": [{"name": "t", "description": 7}]}}},
         McpProtocolError),
        ({"status": 500}, McpTransportError),
    ],
    ids=["string_error", "int_name", "int_description", "http_500"],
)
def test_malformed_reply_fails_mcp_probe(stub, error) -> None:
    with ChatCompletionsStub(**stub) as bad:
        with pytest.raises(error):
            McpClient(McpEndpoint(alias="bad", endpoint=bad.url)).list_tools()
        assert main(["mcp-probe", "--endpoint", bad.url]) == 3


@pytest.mark.parametrize(
    "fields",
    [{"alias": "", "endpoint": "http://127.0.0.1:9/"}, {"alias": "a", "endpoint": ""},
     {"alias": "a", "endpoint": "http://127.0.0.1:9/", "transport": "smoke"}],
    ids=["empty_alias", "empty_endpoint", "unknown_transport"],
)
def test_endpoint_checked_at_construction(fields) -> None:
    with pytest.raises(McpProtocolError):
        McpEndpoint(**fields)


def test_collision_prefixed_with_alias(tmp_path, stub_server) -> None:
    registry = ToolRegistry()
    install_builtin_tools(registry, tmp_path, names=["exec"])
    registered = register_mcp_tools(registry, _client(stub_server))
    assert registered == ["add", "stub.exec", "lookup"]
    assert registry.get("stub.exec") is not None
    assert registry.get("stub.exec").source == "mcp"


def test_registered_tool_invokes_remote(tmp_path, stub_server) -> None:
    registry = ToolRegistry()
    register_mcp_tools(registry, _client(stub_server))
    execution, observation = registry.invoke(Action("a1", "add", {"a": 2, "b": 3}))
    assert execution.status == "ok"
    assert observation.content == "5"


def test_remote_validation_error_becomes_failed_pair(tmp_path, stub_server) -> None:
    registry = ToolRegistry()
    register_mcp_tools(registry, _client(stub_server))
    execution, observation = registry.invoke(Action("a1", "add", {"a": 2}))
    assert execution.status == "failed"
    assert observation.is_error
    assert "b" in observation.content


def test_mcp_invoke_direct(stub_server) -> None:
    registry = ToolRegistry()
    register_mcp_tools(registry, _client(stub_server))
    execution, observation = registry.invoke(Action("a1", "lookup", {"key": "pi"}))
    assert execution.status == "ok"
    assert observation.content == "3.14159"
    assert observation.content == call_stub_tool("lookup", {"key": "pi"})


def test_endpoint_down_mid_call_fails_in_pair() -> None:
    server = StubMcpServer().start()
    registry = ToolRegistry()
    assert len(register_mcp_tools(registry, _client(server))) == 3
    server.stop()
    execution, observation = registry.invoke(Action("a1", "add", {"a": 1, "b": 1}))
    assert execution.status == "failed"
    assert observation.is_error


def test_non_string_text_part_fails_in_pair() -> None:
    def reply(request: dict) -> dict:
        if request["method"] == "tools/list":
            result = {"tools": [{"name": "t", "description": "d"}]}
        else:
            result = {"content": [{"type": "text", "text": 5}]}
        return {"jsonrpc": "2.0", "id": request["id"], "result": result}

    with ChatCompletionsStub(reply=reply) as bad:
        registry = ToolRegistry()
        register_mcp_tools(registry, McpClient(McpEndpoint(alias="bad", endpoint=bad.url)))
        execution, observation = registry.invoke(Action("a1", "t", {}))
    assert execution.status == "failed"
    assert observation.is_error
    assert "bad: malformed tools/call result" in observation.content


def test_stdio_transport_one_shot() -> None:
    command = (
        "python3 -c 'import sys,json; r=json.loads(sys.stdin.readline()); "
        'print(json.dumps({"jsonrpc":"2.0","id":r["id"],"result":{"tools":'
        '[{"name":"t1","description":"d","inputSchema":{"type":"object","properties":{}}}]}}))\''
    )
    client = McpClient(McpEndpoint(alias="sio", endpoint=command, transport="stdio"))
    descriptors = client.list_tools()
    assert [d.name for d in descriptors] == ["t1"]


def test_stdio_request_past_its_limit_kills_the_process_group(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(mcp, "MCP_TIMEOUT_S", 0.3)
    pid_file = tmp_path / "pid"
    command = f"sleep 30 & echo $! > {pid_file}; wait; echo '{{}}'"
    client = McpClient(McpEndpoint(alias="slow", endpoint=command, transport="stdio"))
    t0 = time.monotonic()
    with pytest.raises(McpTransportError, match="^slow: timed out after 0.3 s$"):
        client.list_tools()
    assert time.monotonic() - t0 < 1.0
    assert gone_or_zombie(int(pid_file.read_text()), within_s=1.0)
