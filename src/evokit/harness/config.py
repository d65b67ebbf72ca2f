"""YAML experiment manifests: parsing, strict validation, defaults.

A manifest has five top-level sections: ``experiment``, ``llm``, ``tools``,
``skills``, and ``playground``. Unknown keys anywhere are a ValidationError
unless lenient mode is on, and every cross-reference (profiles named by
slots, tool names, file paths) is resolved at load time so a run never fails
halfway through on a typo. Each slot is parsed straight into an AgentSlot
holding the engine's AgentSpec and ContextBudget, so their defaults and value
checks apply at load time too, and the playground's registered definition
checks its slot roles and params (``check_inputs``). Relative paths resolve
against the manifest's own directory, which keeps configs shareable.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import yaml

from ..context import ContextBudget, InvariantViolation
from ..engine import AgentSpec, ConfigError
from ..errors import EvokitError
from ..gateway import ModelProfile, InvalidProfile
from ..playgrounds import (
    TOOL_NAMES, AgentSlot, InvalidParams, PlaygroundDefinition, PlaygroundNotFound,
    SlotConfigError, check_inputs, default_registry,
)
from ..skills import SKILL_TOOL_NAME
from ..tools import BUILTIN_TOOL_NAMES

DEFAULT_MAX_WALL_SECONDS = 86_400  # 24 h


class ParseError(EvokitError):
    pass


class ValidationError(EvokitError):
    pass


@dataclass
class ExperimentSection:
    name: str
    task: str
    seed: int = 0
    max_wall_seconds: int = DEFAULT_MAX_WALL_SECONDS
    output_dir: str = "runs"


@dataclass
class McpServerConfig:
    alias: str
    endpoint: str
    transport: str = "http"


@dataclass
class ToolsSection:
    builtin: list[str] = field(default_factory=lambda: list(BUILTIN_TOOL_NAMES))
    mcp: list[McpServerConfig] = field(default_factory=list)
    corpus: str | None = None


@dataclass
class SkillsSection:
    paths: list[str] = field(default_factory=list)


@dataclass
class PlaygroundSection:
    name: str
    params: dict[str, Any] = field(default_factory=dict)
    slots: list[AgentSlot] = field(default_factory=list)


@dataclass
class ExperimentConfig:
    experiment: ExperimentSection
    profiles: list[ModelProfile]
    tools: ToolsSection = field(default_factory=ToolsSection)
    skills: SkillsSection = field(default_factory=SkillsSection)
    playground: PlaygroundSection = field(default_factory=lambda: PlaygroundSection(name=""))

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": asdict(self.experiment),
            "llm": {"profiles": [asdict(p) for p in self.profiles]},
            "tools": asdict(self.tools),
            "skills": asdict(self.skills),
            "playground": {
                "name": self.playground.name,
                "params": copy.deepcopy(self.playground.params),
                "slots": [_slot_to_dict(s) for s in self.playground.slots],
            },
        }


def _slot_to_dict(slot: AgentSlot) -> dict[str, Any]:
    """A slot in its manifest shape and key order."""
    spec = slot.spec
    return {
        "slot_name": slot.slot_name,
        "role": slot.role,
        "llm_profile": spec.llm_profile,
        "system_prompt": spec.system_prompt,
        "tools": list(spec.tool_names),
        "max_turns": spec.max_turns,
        "critique_every": spec.critique_every,
        "final_marker": spec.final_marker,
        "budget": asdict(spec.budget),
    }


_TOP_KEYS = {"experiment", "llm", "tools", "skills", "playground"}
_EXPERIMENT_KEYS = {"name", "task", "seed", "max_wall_seconds", "output_dir"}
_PROFILE_KEYS = {
    "name", "provider", "model", "base_url", "api_key_env",
    "temperature", "max_output_tokens", "script_path",
}
_TOOLS_KEYS = {"builtin", "mcp", "corpus"}
_MCP_KEYS = {"alias", "endpoint", "transport"}
# Optional slot keys: manifest key -> (AgentSpec field, coercion). A key the
# manifest leaves out takes the AgentSpec/ContextBudget default.
_SLOT_FIELDS = {
    "tools": ("tool_names", lambda tools: tuple(str(t) for t in tools or ())),
    "max_turns": ("max_turns", int),
    "critique_every": ("critique_every", int),
    "final_marker": ("final_marker", str),
}
_SLOT_KEYS = {"slot_name", "role", "llm_profile", "system_prompt", "budget", *_SLOT_FIELDS}
_BUDGET_FIELDS = {"max_tokens": int, "compress_at": float, "strategy": str}
_PLAYGROUND_KEYS = {"name", "params", "slots"}


def _require(mapping: Any, where: str) -> dict:
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where} must be a mapping")
    return mapping


def _check_keys(mapping: dict, allowed: set[str], where: str, lenient: bool) -> None:
    unknown = set(mapping) - allowed
    if unknown and not lenient:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")


def _resolve(base_dir: Path | None, raw: str) -> str:
    path = Path(raw)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return str(path)


def load_config(path: str | Path, lenient: bool = False) -> ExperimentConfig:
    """Parse and fully validate a manifest file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read manifest ({exc})") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        location = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParseError(f"{path}: YAML parse error{location}: {exc}") from exc
    return from_dict(data, base_dir=path.parent, lenient=lenient)


def from_dict(
    data: Any, base_dir: Path | None = None, lenient: bool = False
) -> ExperimentConfig:
    """Build and validate a config from parsed YAML/JSON data."""
    data = _require(data, "manifest")
    _check_keys(data, _TOP_KEYS, "manifest", lenient)

    exp_raw = _require(data.get("experiment"), "experiment")
    _check_keys(exp_raw, _EXPERIMENT_KEYS, "experiment", lenient)
    for required in ("name", "task"):
        if not exp_raw.get(required):
            raise ValidationError(f"experiment.{required} is required")
    seed = exp_raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError("experiment.seed must be an integer")
    max_wall = exp_raw.get("max_wall_seconds", DEFAULT_MAX_WALL_SECONDS)
    if not isinstance(max_wall, int) or isinstance(max_wall, bool) or max_wall <= 0:
        raise ValidationError("experiment.max_wall_seconds must be a positive integer")
    experiment = ExperimentSection(
        name=str(exp_raw["name"]),
        task=str(exp_raw["task"]),
        seed=seed,
        max_wall_seconds=max_wall,
        output_dir=_resolve(base_dir, str(exp_raw.get("output_dir", "runs"))),
    )

    llm_raw = _require(data.get("llm"), "llm")
    _check_keys(llm_raw, {"profiles"}, "llm", lenient)
    profiles_raw = llm_raw.get("profiles") or []
    if not isinstance(profiles_raw, list) or not profiles_raw:
        raise ValidationError("llm.profiles must be a non-empty list")
    profiles = []
    seen_profiles = set()
    for raw in profiles_raw:
        raw = _require(raw, "llm.profiles entry")
        _check_keys(raw, _PROFILE_KEYS, f"profile {raw.get('name')!r}", lenient)
        script_path = raw.get("script_path")
        if script_path is not None:
            script_path = _resolve(base_dir, str(script_path))
        try:
            profile = ModelProfile(
                name=str(raw.get("name", "")),
                provider=str(raw.get("provider", "")),
                model=str(raw.get("model", "")),
                base_url=raw.get("base_url"),
                api_key_env=raw.get("api_key_env"),
                temperature=float(raw.get("temperature", 0.0)),
                max_output_tokens=int(raw.get("max_output_tokens", 1024)),
                script_path=script_path,
            )
            profile.validate()
        except (InvalidProfile, TypeError, ValueError) as exc:
            raise ValidationError(f"profile {raw.get('name')!r}: {exc}") from exc
        if profile.name in seen_profiles:
            raise ValidationError(f"duplicate profile name {profile.name!r}")
        seen_profiles.add(profile.name)
        profiles.append(profile)

    tools_raw = _require(data.get("tools", {}), "tools")
    _check_keys(tools_raw, _TOOLS_KEYS, "tools", lenient)
    builtin = tools_raw.get("builtin", list(BUILTIN_TOOL_NAMES))
    if not isinstance(builtin, list):
        raise ValidationError("tools.builtin must be a list")
    unknown_builtin = set(builtin) - set(BUILTIN_TOOL_NAMES)
    if unknown_builtin:
        raise ValidationError(f"tools.builtin: unknown tools {sorted(unknown_builtin)}")
    mcp_servers = []
    for raw in tools_raw.get("mcp") or []:
        raw = _require(raw, "tools.mcp entry")
        _check_keys(raw, _MCP_KEYS, "tools.mcp entry", lenient)
        if not raw.get("alias") or not raw.get("endpoint"):
            raise ValidationError("tools.mcp entries need alias and endpoint")
        transport = raw.get("transport", "http")
        if transport not in ("http", "stdio"):
            raise ValidationError(f"tools.mcp: unknown transport {transport!r}")
        mcp_servers.append(
            McpServerConfig(alias=str(raw["alias"]), endpoint=str(raw["endpoint"]), transport=transport)
        )
    corpus = tools_raw.get("corpus")
    tools = ToolsSection(
        builtin=[str(b) for b in builtin],
        mcp=mcp_servers,
        corpus=_resolve(base_dir, str(corpus)) if corpus else None,
    )

    skills_raw = _require(data.get("skills", {}), "skills")
    _check_keys(skills_raw, {"paths"}, "skills", lenient)
    skill_paths = [_resolve(base_dir, str(p)) for p in skills_raw.get("paths") or []]
    for skill_path in skill_paths:
        if not Path(skill_path).is_dir():
            raise ValidationError(f"skills path does not exist: {skill_path}")
    skills = SkillsSection(paths=skill_paths)

    pg_raw = _require(data.get("playground"), "playground")
    _check_keys(pg_raw, _PLAYGROUND_KEYS, "playground", lenient)
    if not pg_raw.get("name"):
        raise ValidationError("playground.name is required")
    params = pg_raw.get("params") or {}
    if not isinstance(params, dict):
        raise ValidationError("playground.params must be a mapping")
    slots = []
    seen_slots = set()
    for raw in pg_raw.get("slots") or []:
        slot = _parse_slot(_require(raw, "playground.slots entry"), lenient)
        if slot.slot_name in seen_slots:
            raise ValidationError(f"duplicate slot name {slot.slot_name!r}")
        seen_slots.add(slot.slot_name)
        slots.append(slot)
    playground = PlaygroundSection(name=str(pg_raw["name"]), params=dict(params), slots=slots)
    try:
        definition = default_registry().get(playground.name)
        check_inputs(definition, playground.params, slots)
    except (PlaygroundNotFound, SlotConfigError, InvalidParams) as exc:
        raise ValidationError(f"playground {playground.name!r}: {exc}") from exc

    config = ExperimentConfig(
        experiment=experiment,
        profiles=profiles,
        tools=tools,
        skills=skills,
        playground=playground,
    )
    _validate_references(config, definition)
    return config


def _parse_slot(raw: dict, lenient: bool) -> AgentSlot:
    """One slot, with its AgentSpec and ContextBudget checks run at load time."""
    _check_keys(raw, _SLOT_KEYS, f"slot {raw.get('slot_name')!r}", lenient)
    for required in ("slot_name", "role", "llm_profile"):
        if not raw.get(required):
            raise ValidationError(f"slot entries need {required}")
    name = str(raw["slot_name"])
    budget_raw = _require(raw.get("budget", {}), "slot budget")
    _check_keys(budget_raw, set(_BUDGET_FIELDS), "slot budget", lenient)
    try:
        budget = ContextBudget(
            **{k: coerce(budget_raw[k]) for k, coerce in _BUDGET_FIELDS.items() if k in budget_raw}
        )
        spec = AgentSpec(
            name=name,
            system_prompt=str(raw.get("system_prompt", "")),
            llm_profile=str(raw["llm_profile"]),
            budget=budget,
            **{attr: coerce(raw[k]) for k, (attr, coerce) in _SLOT_FIELDS.items() if k in raw},
        )
    except (ConfigError, InvariantViolation, TypeError, ValueError) as exc:
        raise ValidationError(f"slot {name!r}: {exc}") from exc
    return AgentSlot(slot_name=name, role=str(raw["role"]), spec=spec)


def _validate_references(
    config: ExperimentConfig, definition: PlaygroundDefinition
) -> None:
    profile_names = {p.name for p in config.profiles}
    # MCP tool names are only knowable after listing the endpoint, so when
    # any endpoint is configured unknown tool names are deferred to runtime.
    known_tools = set(config.tools.builtin)
    if config.skills.paths:
        known_tools.add(SKILL_TOOL_NAME)
    tool_refs = [
        (f"param {key!r}", tool)
        for key, value in config.playground.params.items()
        if definition.params_schema[key] == TOOL_NAMES
        for tool in map(str, value)
    ]
    for slot in config.playground.slots:
        if slot.spec.llm_profile not in profile_names:
            raise ValidationError(
                f"slot {slot.slot_name!r} references unknown profile {slot.spec.llm_profile!r}"
            )
        tool_refs += [(f"slot {slot.slot_name!r}", tool) for tool in slot.spec.tool_names]
    for where, tool in tool_refs:
        if tool not in known_tools and not config.tools.mcp:
            raise ValidationError(f"{where} references unknown tool {tool!r}")
    for profile in config.profiles:
        if profile.provider == "scripted" and not Path(profile.script_path or "").is_file():
            raise ValidationError(
                f"profile {profile.name!r} script not found: {profile.script_path}"
            )
