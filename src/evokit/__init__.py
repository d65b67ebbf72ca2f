"""evokit: an evolving-agent orchestration runtime.

Three layers: playgrounds orchestrate multi-agent workflows over declarative
agent slots, the experiment harness owns configuration, limits, and the
append-only trajectory, and the agent engine drives the per-agent loop of
reason, tool use, observation, and self-critique. A deterministic scripted
model backend makes every workflow runnable and replayable offline.
"""

from .context import (
    CompressionEvent,
    ContextBudget,
    ContextEntry,
    ContextManager,
    InvariantViolation,
    PinnedOverflow,
)
from .engine import (
    AgentOutcome,
    AgentRun,
    AgentSpec,
    ConfigError,
    RunServices,
    SteppedAfterTermination,
    parse_final,
)
from .errors import EvokitError
from .gateway import (
    ChatMessage,
    ChatResponse,
    ConnectionPool,
    DuplicateProfile,
    InvalidProfile,
    LlmGateway,
    ModelProfile,
    ProfileNotFound,
    Prompt,
    ProviderError,
    Script,
    ScriptParseError,
    TokenUsage,
    estimate_tokens,
    load_script,
    scripted_step,
)
from .mcp import McpClient, McpEndpoint, McpProtocolError, McpTransportError
from .skills import SkillIndex, SkillManifest, discover, load_body, render_metadata
from .tools import (
    Action,
    DuplicateTool,
    Execution,
    InvalidDescriptor,
    LocalCorpusFetcher,
    Observation,
    ToolDescriptor,
    ToolRegistry,
)

__version__ = "0.1.0"
