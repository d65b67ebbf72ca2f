"""YAML experiment manifests: parsing, strict validation, defaults.

A manifest has five top-level sections: ``experiment``, ``llm``, ``tools``,
``skills``, and ``playground``. Each is built with the constructor of the
type it configures, so its keys are that type's fields, its defaults are the
type's defaults and its value checks are the type's own. Unknown keys are a
ValidationError unless lenient mode is on. Slots become AgentSlots holding
the engine's AgentSpec and ContextBudget, and the playground's registered
definition checks its slot roles and params (``check_inputs``). Every
cross-reference is resolved at load time, and each script and skill manifest
is parsed once, by the scripted ``ModelProfile`` and the ``SkillsSection``
that name it; the run uses what load parsed, so it never fails halfway
through on a typo or on a file edited since. Relative paths resolve against
the manifest's own directory, which keeps configs shareable.

A manifest, like a script, is read as strict UTF-8 with ``\r\n`` and a lone
``\r`` read as ``\n``; bytes that are not UTF-8 are a ParseError naming the
first one's offset. A manifest is the JSON-shaped part of YAML: block or
flow mappings and sequences of untagged scalars, in one document, so every
JSON manifest is one. The data is built straight from ``_LOADER``'s parser
events: each scalar gets the tag the loader's resolver picks and the value
the loader's constructor builds (a null, bool or plain decimal int is built
directly, as the constructor builds it), so it is exactly what ``yaml.load``
returns for that document. An anchor, alias, explicit tag, ``<<`` or ``=``
scalar, collection used as a key or second document is a ParseError naming
its line, column and construct, and so is nesting deeper than
``_MAX_DEPTH`` levels and a value the constructor cannot build. Where an
integer is expected, a bool or a float with a fraction is a ValidationError
naming the key (``2.0`` reads as 2), and where a number is expected, a bool
is one.
"""

from __future__ import annotations

import copy
import os
import re
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

import yaml
from yaml.events import (
    DocumentEndEvent, MappingEndEvent, MappingStartEvent, ScalarEvent, SequenceEndEvent,
    SequenceStartEvent, StreamEndEvent,
)
from yaml.nodes import ScalarNode
from yaml.reader import Reader, ReaderError

from ..context import ContextBudget
from ..engine import AgentSpec
from ..errors import EvokitError
from ..gateway import ModelProfile
from ..mcp import McpEndpoint
from ..playgrounds import (
    TOOL_NAMES, AgentSlot, InvalidParams, PlaygroundDefinition, PlaygroundNotFound,
    SlotConfigError, check_inputs, default_registry,
)
from ..skills import SKILL_TOOL_NAME, ManifestParseError, SkillIndex, discover
from ..tools import BUILTIN_TOOL_NAMES, read_utf8

DEFAULT_MAX_WALL_SECONDS = 86_400  # 24 h
# libyaml's safe loader when PyYAML was built with it, else the pure-Python
# one. Both resolve tags and construct with the same Python classes, so they
# build equal data; libyaml only parses faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# Manifests nest at most 5 levels. A document nested deeper is refused as its
# events are read, before any code that recurses through the data (the
# snapshot's deepcopy and json.dumps) could hit the recursion limit.
_MAX_DEPTH = 64
_STR_TAG = "tag:yaml.org,2002:str"
_NULL_TAG, _BOOL_TAG, _INT_TAG = (f"tag:yaml.org,2002:{name}" for name in ("null", "bool", "int"))
# The other tags of an untagged scalar that the event builder builds itself:
# a null, a bool and a plain decimal int directly, the rest with the loader's
# own constructor for its tag.
_SCALAR_TAGS = frozenset(
    (_NULL_TAG, _BOOL_TAG, _INT_TAG, "tag:yaml.org,2002:float", "tag:yaml.org,2002:timestamp")
)
# An int tag's text that int() reads as the constructor does: no sign,
# underscore, base prefix, leading zero or colon, and no more digits than
# CPython converts to an int by default.
_DECIMAL = re.compile(r"[1-9][0-9]{0,4299}|0").fullmatch
# What PyYAML's constructor raises on an untagged scalar it cannot build: an
# int of more digits than CPython converts, or a date or time zone out of
# range. The resolver's patterns let no other text reach it.
_UNBUILDABLE = ValueError

T = TypeVar("T")


class ParseError(EvokitError):
    pass


class ValidationError(EvokitError):
    pass


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value: Any) -> int:
    """A manifest integer: ``2.0`` reads as 2, but a bool or a fraction is no integer."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, not {value!r}")
    return int(value)


def _float(value: Any) -> float:
    """A manifest number; a bool is none."""
    if isinstance(value, bool):
        raise ValueError(f"must be a number, not {value!r}")
    return float(value)


@dataclass
class ExperimentSection:
    name: str
    task: str
    seed: int = 0
    max_wall_seconds: int = DEFAULT_MAX_WALL_SECONDS
    output_dir: str = "runs"

    def __post_init__(self) -> None:
        for key in ("name", "task"):
            if not getattr(self, key):
                raise ValidationError(f"experiment.{key} is required")
        # The run directory is <output_dir>/<name>-..., so the name must not leave it.
        if "/" in self.name or "\\" in self.name or self.name in (".", ".."):
            raise ValidationError(
                f"experiment.name {self.name!r} must not contain '/' or '\\' or be '.' or '..'"
            )
        if not _is_int(self.seed):
            raise ValidationError("experiment.seed must be an integer")
        if not _is_int(self.max_wall_seconds) or self.max_wall_seconds <= 0:
            raise ValidationError("experiment.max_wall_seconds must be a positive integer")


@dataclass
class ToolsSection:
    builtin: list[str] = field(default_factory=lambda: list(BUILTIN_TOOL_NAMES))
    mcp: list[McpEndpoint] = field(default_factory=list)
    corpus: str | None = None

    def __post_init__(self) -> None:
        unknown = set(self.builtin) - set(BUILTIN_TOOL_NAMES)
        if unknown:
            raise ValidationError(f"tools.builtin: unknown tools {sorted(unknown)}")


@dataclass
class SkillsSection:
    """Skill roots; ``index`` is what discovery found there when the section was built."""

    paths: list[str] = field(default_factory=list)
    index: SkillIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            self.index = discover(self.paths)
        except (ManifestParseError, OSError) as exc:
            raise ValidationError(f"skills: {exc}") from exc


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
        """The config in its manifest shape; nothing in it is shared with the config."""
        tools = self.tools
        return {
            "experiment": _manifest_keys(self.experiment),
            "llm": {"profiles": [_manifest_keys(p) for p in self.profiles]},
            "tools": {
                "builtin": list(tools.builtin),
                "mcp": [_manifest_keys(e) for e in tools.mcp],
                "corpus": tools.corpus,
            },
            "skills": {"paths": list(self.skills.paths)},
            "playground": {
                "name": self.playground.name,
                "params": copy.deepcopy(self.playground.params),
                "slots": [_slot_to_dict(s) for s in self.playground.slots],
            },
        }


@cache
def _field_table(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The manifest keys of ``cls`` in field order, and those it has no default for."""
    keys = [f for f in fields(cls) if f.init]
    required = (f.name for f in keys if f.default is MISSING and f.default_factory is MISSING)
    return tuple(f.name for f in keys), tuple(required)


def _manifest_keys(section: Any) -> dict[str, Any]:
    """A flat section's manifest keys, without the fields its constructor derives.

    Each value is a scalar (the constructors check or coerce them), so no copy is needed.
    """
    return {name: getattr(section, name) for name in _field_table(type(section))[0]}


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
        "budget": _manifest_keys(spec.budget),
    }


_TOP_KEYS = {"experiment", "llm", "tools", "skills", "playground"}
# Optional slot keys: manifest key -> (AgentSpec field, coercion). A key the
# manifest leaves out takes the AgentSpec/ContextBudget default.
_SLOT_FIELDS = {
    "tools": ("tool_names", lambda tools: tuple(map(str, _require_list(tools, "tools")))),
    "max_turns": ("max_turns", _int),
    "critique_every": ("critique_every", _int),
    "final_marker": ("final_marker", str),
}
_SLOT_KEYS = {"slot_name", "role", "llm_profile", "system_prompt", "budget", *_SLOT_FIELDS}
# Slot text keys whose null (YAML ``key:`` with no value) reads as left out.
_NULL_IS_UNSET = ("system_prompt", "final_marker")


def _require(mapping: Any, where: str) -> dict:
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where} must be a mapping")
    return mapping


def _require_list(value: Any, where: str) -> list:
    """A manifest list; an empty (null) value is an empty list."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a list")
    return value


def _check_keys(mapping: dict, allowed: Iterable[str], where: str, lenient: bool) -> None:
    unknown = set(mapping).difference(allowed)
    if unknown and not lenient:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")


def _text(value: Any) -> str | None:
    """Manifest text: a YAML scalar such as ``2024`` reads as ``"2024"``, null stays null."""
    return None if value is None else str(value)


def _build(cls: type[T], raw: Any, where: str, lenient: bool, **coerce: Callable) -> T:
    """``cls`` built from the keys the manifest sets; the type's defaults fill the rest.

    The allowed keys are the fields of ``cls``, ``coerce`` maps a key to a
    function applied to its value first, and the constructor runs the checks.
    """
    raw = _require(raw, where)
    names, required = _field_table(cls)
    _check_keys(raw, names, where, lenient)
    for name in required:
        if name not in raw:
            raise ValidationError(f"{where} needs {name!r}")
    try:
        return cls(**{
            k: _coerced(coerce[k], k, v) if k in coerce else v
            for k, v in raw.items() if k in names
        })
    except ValidationError:  # from a nested section or this module's types: names its key
        raise
    except (EvokitError, TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _coerced(coerce: Callable[[Any], T], key: str, value: Any) -> T:
    """``coerce(value)``; its TypeError or ValueError is a ValueError naming ``key``."""
    try:
        return coerce(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _reject_duplicates(names: list[str], what: str) -> None:
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValidationError(f"duplicate {what} name {name!r}")


def _resolve(base_dir: str | Path | None, raw: Any) -> str:
    # Joined as text: pathlib would intern each component of each path, and
    # names that only a config holds then enter CPython's interned-string
    # table again on every load.
    path = str(raw)
    if base_dir is not None and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    return path


def load_config(path: str | Path, lenient: bool = False) -> ExperimentConfig:
    """Parse and fully validate a manifest file."""
    path = os.fspath(path)  # opened and split as text, as _resolve joins
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read manifest ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: manifest is not UTF-8 (byte {exc.start}: {exc.reason})"
        ) from exc
    try:
        data = _parse_yaml(text, path)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: YAML parse error{_location(exc, text)}: {exc}") from exc
    return from_dict(data, base_dir=os.path.dirname(path) or ".", lenient=lenient)


def _parse_yaml(text: str, source: str) -> Any:
    """The data of the manifest ``text``, built from the events of ``_LOADER``'s parser."""
    loader = _LOADER(text)
    try:
        return _document(loader, source)
    finally:
        loader.dispose()


@cache
def _implicit_resolvers(loader: type) -> tuple[dict[str, tuple], tuple]:
    """``loader``'s ``(tag, regexp)`` resolvers of a plain scalar, by its first character.

    Each character's entries come first, then the wildcard ones, in the
    loader's order; a character with no entries of its own gets the wildcard
    ones alone. That is the list ``BaseResolver.resolve`` builds on each call
    (keyed ``""`` for the empty text), so the first entry whose regexp
    matches gives the tag it picks. The safe loaders have no path resolvers,
    so a scalar no entry matches is a str.
    """
    resolvers = loader.yaml_implicit_resolvers
    wildcard = tuple(resolvers.get(None, ()))
    table = {
        first: (*entries, *wildcard) for first, entries in resolvers.items() if first is not None
    }
    return table, wildcard


def _document(loader: Any, source: str) -> Any:
    """The single document of ``loader``'s stream, built from its events.

    It builds what the composer and ``SafeConstructor`` build: a mapping is
    a dict in key order whose last duplicate key wins, a sequence a list, a
    str scalar its text, a null None, a bool ``bool_values[text.lower()]``,
    a plain decimal int ``int(text)``, and any other int, float or
    timestamp scalar what the loader's constructor makes of it. Anything
    else is a ParseError naming the line and column of the event where it
    starts: an anchor or alias, an explicit tag, a scalar of another
    resolved tag (``<<``, ``=``), a collection as a key, a second document,
    a scalar that cannot be built, or nesting past ``_MAX_DEPTH``. A syntax
    error is the parser's YAMLError.
    """
    get_event, constructors = loader.get_event, loader.yaml_constructors
    bool_values = loader.bool_values
    resolvers, wildcard = _implicit_resolvers(type(loader))
    get_event()  # StreamStartEvent
    if type(get_event()) is StreamEndEvent:  # else the DocumentStartEvent
        return None
    stack: list[tuple[Any, Any]] = []  # (collection, its pending key) of the outer ones
    top: Any = None  # the innermost open collection
    key: Any = stack  # top's pending key; stack itself while it has none
    root = None
    while True:
        event = get_event()
        kind = type(event)
        if kind is ScalarEvent:
            tag = event.tag
            if event.anchor is not None or (tag is not None and tag != "!"):
                raise _refused(source, event)
            value = event.value
            tag = _STR_TAG
            if event.implicit[0]:  # plain or tagged "!"; a quoted scalar is a str
                for resolved, regexp in resolvers.get(value[:1], wildcard):
                    if regexp.match(value):
                        tag = resolved
                        break
            if tag != _STR_TAG:
                if tag not in _SCALAR_TAGS:  # a merge key "<<" or a value key "="
                    raise _refused(source, event, f"a {value!r} scalar")
                try:
                    if tag == _INT_TAG and _DECIMAL(value):
                        value = int(value)
                    elif tag == _BOOL_TAG:
                        value = bool_values[value.lower()]
                    elif tag == _NULL_TAG:
                        value = None
                    else:
                        value = constructors[tag](loader, ScalarNode(tag, value))
                except _UNBUILDABLE as exc:
                    raise _error(source, event, "value", exc) from exc
        elif kind is MappingStartEvent or kind is SequenceStartEvent:
            tag = event.tag
            if event.anchor is not None or (tag is not None and tag != "!"):
                raise _refused(source, event)
            if key is stack and type(top) is dict:
                raise _refused(source, event, "a collection used as a key")
            if len(stack) == _MAX_DEPTH:
                raise _error(source, event, "parse", f"nested deeper than {_MAX_DEPTH} levels")
            stack.append((top, key))
            top, key = ({} if kind is MappingStartEvent else []), stack
            continue
        elif kind is MappingEndEvent or kind is SequenceEndEvent:
            value = top
            top, key = stack.pop()
        elif kind is DocumentEndEvent:
            event = get_event()
            if type(event) is not StreamEndEvent:
                raise _refused(source, event, "a second document")
            return root
        else:  # an AliasEvent
            raise _refused(source, event, "an alias")
        if top is None:
            root = value
        elif type(top) is list:
            top.append(value)
        elif key is stack:
            key = value
        else:
            top[key] = value
            key = stack


def _refused(source: str, event: Any, construct: str | None = None) -> ParseError:
    """The ParseError for a construct outside manifests; by default ``event``'s anchor or tag."""
    if construct is None:
        construct = "an anchor" if event.anchor is not None else f"the explicit tag {event.tag!r}"
    return _error(source, event, "parse", f"{construct} is not allowed in a manifest")


def _error(source: str, event: Any, kind: str, problem: object) -> ParseError:
    """A ParseError for ``problem`` at the line and column where ``event`` starts."""
    mark = event.start_mark
    return ParseError(
        f"{source}: YAML {kind} error at line {mark.line + 1}, column {mark.column + 1}: {problem}"
    )


def _location(exc: yaml.YAMLError, text: str) -> str:
    """Where in ``text`` a parse error is, as `` at line L, column C``, or ``""``."""
    mark = getattr(exc, "problem_mark", None)
    if mark is not None:
        line, column = mark.line, mark.column
    elif isinstance(exc, ReaderError):
        # A character YAML does not allow: the error has an offset but no mark,
        # and both loaders reject the first character of this set.
        found = Reader.NON_PRINTABLE.search(text)
        if found is None:
            return ""
        # Every line break before it is one that splitlines() also breaks at;
        # "." stands in for it, so a break right before it still starts a row.
        rows = (text[: found.start()] + ".").splitlines()
        line, column = len(rows) - 1, len(rows[-1]) - 1
    else:
        return ""
    return f" at line {line + 1}, column {column + 1}"


def from_dict(
    data: Any, base_dir: str | Path | None = None, lenient: bool = False
) -> ExperimentConfig:
    """Build and validate a config from parsed YAML/JSON data."""
    data = _require(data, "manifest")
    _check_keys(data, _TOP_KEYS, "manifest", lenient)
    path = partial(_resolve, base_dir)

    def optional_path(raw: Any) -> str | None:
        return path(raw) if raw else None

    experiment = _build(
        ExperimentSection, data.get("experiment"), "experiment", lenient,
        name=_text, task=_text, output_dir=path,
    )

    llm_raw = _require(data.get("llm"), "llm")
    _check_keys(llm_raw, {"profiles"}, "llm", lenient)
    profiles = []
    for raw in _require_list(llm_raw.get("profiles"), "llm.profiles"):
        raw = _require(raw, "llm.profiles entry")
        profiles.append(_build(
            ModelProfile, raw, f"profile {raw.get('name')!r}", lenient,
            name=_text, provider=_text, model=_text,
            temperature=_float, max_output_tokens=_int, script_path=optional_path,
        ))
    if not profiles:
        raise ValidationError("llm.profiles must be a non-empty list")
    _reject_duplicates([p.name for p in profiles], "profile")

    tools = _build(
        ToolsSection, data.get("tools", {}), "tools", lenient,
        builtin=lambda raw: list(map(str, _require_list(raw, "tools.builtin"))),
        mcp=lambda raw: [
            _build(McpEndpoint, entry, "tools.mcp entry", lenient, alias=_text, endpoint=_text)
            for entry in _require_list(raw, "tools.mcp")
        ],
        corpus=optional_path,
    )
    skills = _build(
        SkillsSection, data.get("skills", {}), "skills", lenient,
        paths=lambda raw: list(map(path, _require_list(raw, "skills.paths"))),
    )
    playground = _build(
        PlaygroundSection, data.get("playground"), "playground", lenient,
        name=_text, params=lambda raw: dict(_require(raw or {}, "playground.params")),
        slots=lambda raw: _parse_slots(raw, lenient),
    )
    try:
        definition = default_registry().get(playground.name)
        check_inputs(definition, playground.params, playground.slots)
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


def _parse_slots(raw: Any, lenient: bool) -> list[AgentSlot]:
    slots = [
        _parse_slot(_require(entry, "playground.slots entry"), lenient)
        for entry in _require_list(raw, "playground.slots")
    ]
    _reject_duplicates([slot.slot_name for slot in slots], "slot")
    return slots


def _parse_slot(raw: dict, lenient: bool) -> AgentSlot:
    """One slot, with its AgentSpec and ContextBudget checks run at load time."""
    _check_keys(raw, _SLOT_KEYS, f"slot {raw.get('slot_name')!r}", lenient)
    for required in ("slot_name", "role", "llm_profile"):
        if not raw.get(required):
            raise ValidationError(f"slot entries need {required}")
    name = str(raw["slot_name"])
    raw = {k: v for k, v in raw.items() if v is not None or k not in _NULL_IS_UNSET}
    try:
        budget = _build(
            ContextBudget, raw.get("budget", {}), "budget", lenient,
            max_tokens=_int, compress_at=_float, strategy=str,
        )
        spec = AgentSpec(
            name=name,
            system_prompt=str(raw.get("system_prompt", "")),
            llm_profile=str(raw["llm_profile"]),
            budget=budget,
            **{
                attr: _coerced(coerce, k, raw[k])
                for k, (attr, coerce) in _SLOT_FIELDS.items() if k in raw
            },
        )
    except (EvokitError, TypeError, ValueError) as exc:
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
