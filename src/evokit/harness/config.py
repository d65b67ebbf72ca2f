"""YAML experiment manifests: parsing, strict validation, defaults.

A manifest has five top-level sections: ``experiment``, ``llm``, ``tools``,
``skills``, and ``playground``. Each is built with the constructor of the
type it configures, so its keys are that type's fields, its defaults are the
type's defaults and its value checks are the type's own; unknown keys are a
ValidationError unless lenient mode is on. Slots become AgentSlots holding
the engine's AgentSpec and ContextBudget, and the playground's definition
checks its slot roles and params (``check_inputs``). Cross-references are
resolved, and scripts and skill manifests parsed, once, at load time, so a
run never fails halfway on a typo or a file edited since.

Each value is read by the rule of its field's declared type, else it is a
ValidationError naming the section and key. ``str``: a string (``2024`` must
be quoted); the paths ``output_dir``, ``script_path``, ``corpus`` and
``skills.paths`` hold no NUL byte and resolve against the manifest's
directory (the default ``output_dir``, ``runs``, is not written there, so it
stays relative to the working directory), and an empty ``corpus`` or
``script_path`` is unset. ``int``: an int, an integral float (``2.0`` is 2)
or text ``int()`` reads, never a bool. ``float``: an int, a float or text
``float()`` reads, never a bool. A list: a list whose items are read by
their type. ``playground.params``: a mapping. A section: its keys, by these
rules. A null list or mapping is empty; any other null is the key left out,
and a required key left out or empty is a ValidationError.

A manifest, like a script, is read as strict UTF-8 with ``\r\n`` and a lone
``\r`` read as ``\n``; bytes that are not UTF-8 are a ParseError naming the
first one's offset. A manifest is the JSON-shaped part of YAML: block or
flow mappings and sequences of untagged scalars, in one document, so every
JSON manifest is one. The data is built straight from the parser events of
``_loader()``, libyaml's safe loader when PyYAML has it: each scalar
gets the tag the loader's resolver picks and the value the loader's
constructor builds (a null, bool or plain decimal int is built directly, as
the constructor builds it), so it is exactly what ``yaml.load`` returns for
that document. An anchor, alias, explicit tag, ``<<`` or ``=`` scalar,
collection used as a key or second document is a ParseError naming its
line, column and construct, and so is nesting deeper than ``_MAX_DEPTH``
levels and a value the constructor cannot build. PyYAML is imported at the
first parse, so a process that loads no manifest (``evo replay``, a library
run of a config built with ``from_dict``) never loads it.
"""

from __future__ import annotations

import copy
import os
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from operator import attrgetter
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Callable, NamedTuple, get_args, get_origin, get_type_hints

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
# A limit whose milliseconds stay a finite float: the engine rounds them with math.ceil.
_MAX_WALL_SECONDS = 10**305
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

    def __post_init__(self) -> None:
        # The run directory is <output_dir>/<name>-..., so the name must not leave
        # it, and os calls refuse a NUL byte in it.
        if any(c in self.name for c in "/\\\0") or self.name in (".", ".."):
            raise ValidationError(
                f"experiment.name {self.name!r} must not hold '/', '\\' or NUL or be '.' or '..'"
            )
        if not 0 < self.max_wall_seconds <= _MAX_WALL_SECONDS:
            raise ValidationError(
                f"experiment.max_wall_seconds must be an integer in [1, {_MAX_WALL_SECONDS:.0e}]"
            )


@dataclass
class ToolsSection:
    builtin: list[str] = field(default_factory=lambda: list(BUILTIN_TOOL_NAMES))
    mcp: list[McpEndpoint] = field(default_factory=list)
    corpus: str | None = None

    def __post_init__(self) -> None:
        unknown = set(self.builtin) - set(BUILTIN_TOOL_NAMES)
        if unknown:
            raise ValidationError(f"tools.builtin: unknown tools {sorted(unknown)}")
        if self.corpus is not None and not os.path.isdir(self.corpus):
            raise ValidationError(f"tools.corpus: {self.corpus!r} is not a directory")


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
class _Llm:
    profiles: list[ModelProfile]


@dataclass(kw_only=True)
class _Manifest:  # a manifest's top level, read and written like its sections
    experiment: ExperimentSection
    llm: _Llm
    tools: ToolsSection = field(default_factory=ToolsSection)
    skills: SkillsSection = field(default_factory=SkillsSection)
    playground: PlaygroundSection


@dataclass
class ExperimentConfig:
    experiment: ExperimentSection
    profiles: list[ModelProfile]
    tools: ToolsSection = field(default_factory=ToolsSection)
    skills: SkillsSection = field(default_factory=SkillsSection)
    playground: PlaygroundSection = field(default_factory=lambda: PlaygroundSection(name=""))

    def to_dict(self) -> dict[str, Any]:
        """The config in its manifest shape; nothing in it is shared with the config."""
        manifest = _Manifest(
            experiment=self.experiment, llm=_Llm(self.profiles), tools=self.tools,
            skills=self.skills, playground=self.playground,
        )
        return _writer(_Manifest)(manifest)


def load_config(path: str | Path, lenient: bool = False) -> ExperimentConfig:
    """Parse and fully validate a manifest file."""
    path = os.fspath(path)  # opened and split as text, as _path joins
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read manifest ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: manifest is not UTF-8 (byte {exc.start}: {exc.reason})"
        ) from exc
    import yaml  # at the first parse: a process that loads no manifest never loads it

    try:
        data = _parse_yaml(text, path)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: YAML parse error{_location(exc, text)}: {exc}") from exc
    return from_dict(data, base_dir=os.path.dirname(path) or ".", lenient=lenient)


@cache
def _loader() -> type:
    """libyaml's safe loader when PyYAML was built with it, else the pure-Python one.

    Both resolve tags and construct with the same Python classes, so they
    build equal data; libyaml only parses faster. Picked at the first parse.
    """
    import yaml

    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse_yaml(text: str, source: str) -> Any:
    """The data of the manifest ``text``, built from the events of ``_loader()``'s parser."""
    loader = _loader()(text)
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
    from yaml.events import (
        DocumentEndEvent, MappingEndEvent, MappingStartEvent, ScalarEvent, SequenceEndEvent,
        SequenceStartEvent, StreamEndEvent,
    )
    from yaml.nodes import ScalarNode

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


def _location(exc: Exception, text: str) -> str:
    """Where in ``text`` the YAMLError ``exc`` is, as `` at line L, column C``, or ``""``."""
    from yaml.reader import Reader, ReaderError

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
    manifest = _section(_Manifest, data, "manifest", _Load(base_dir, lenient))
    profiles, playground = manifest.llm.profiles, manifest.playground
    _reject_duplicates([p.name for p in profiles], "profile")
    _reject_duplicates([slot.slot_name for slot in playground.slots], "slot")
    try:
        definition = default_registry().get(playground.name)
        check_inputs(definition, playground.params, playground.slots)
    except (PlaygroundNotFound, SlotConfigError, InvalidParams) as exc:
        raise ValidationError(f"playground {playground.name!r}: {exc}") from exc

    config = ExperimentConfig(
        manifest.experiment, profiles, manifest.tools, manifest.skills, playground
    )
    _validate_references(config, definition)
    return config


class _Load(NamedTuple):  # what reading a manifest needs besides its data
    base_dir: str | Path | None
    lenient: bool


# A reader maps a value, its section's name and the load to the field's value;
# its TypeError or ValueError names the section and key. A writer maps the
# field's value to its manifest value, sharing nothing with it. A table maps
# each key of a section to its field, reader, the factory of what a null gives
# it (None: a null is the key left out) and writer, and lists the required keys.
_ReadFn = Callable[[Any, str, _Load], Any]
_WriteFn = Callable[[Any], Any]
_Table = tuple[dict[str, tuple[str, _ReadFn, Callable[[], Any] | None, _WriteFn]], tuple[str, ...]]
# A slot is its AgentSpec's fields, these two under their manifest names, and its role.
_SLOT_KEYS = {"name": "slot_name", "tool_names": "tools"}


def _kwargs(table: _Table, raw: Any, where: str, load: _Load) -> dict[str, Any]:
    """The field values that the section's manifest mapping ``raw`` sets."""
    keys, required = table
    if type(raw) is not dict:
        raise ValidationError(f"{where}: must be a mapping, not {raw!r}")
    if not load.lenient and not keys.keys() >= raw.keys():
        raise ValidationError(f"{where}: unknown keys {sorted(raw.keys() - keys, key=str)}")
    kwargs = {}
    for key, value in raw.items():
        entry = keys.get(key)
        if entry is None:
            continue
        name, read, empty, _ = entry
        if value is None:
            if empty is not None:
                kwargs[name] = empty()
            continue
        try:
            kwargs[name] = read(value, where, load)
        except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge int overflows
            raise ValidationError(f"{where}: {key}: {exc}") from exc
    for key in required:
        if not raw.get(key):
            raise ValidationError(f"{where} needs {key!r}")
    return kwargs


def _construct(cls: type, kwargs: dict[str, Any], where: str) -> Any:
    """``cls(**kwargs)``, its own checks' errors a ValidationError naming ``where``."""
    try:
        return cls(**kwargs)
    except ValidationError:  # from this module's sections: names its key
        raise
    except (EvokitError, TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _section(cls: type, raw: Any, where: str, load: _Load) -> Any:
    """``cls`` built from the keys the manifest sets; the type's defaults fill the rest."""
    return _construct(cls, _kwargs(_fields(cls), raw, where, load), where)


def _profile(raw: Any, where: str, load: _Load) -> ModelProfile:
    raw = _mapping(raw)
    return _section(ModelProfile, raw, f"profile {raw.get('name')!r}", load)


def _slot(raw: Any, where: str, load: _Load) -> AgentSlot:
    """One slot, with its AgentSpec and ContextBudget checks run at load time."""
    raw = _mapping(raw)
    where = f"slot {raw.get('slot_name')!r}"
    kwargs = _kwargs(_slot_fields(), raw, where, load)
    role = kwargs.pop("role")
    spec = _construct(AgentSpec, {"system_prompt": "", **kwargs}, where)
    return AgentSlot(slot_name=spec.name, role=role, spec=spec)


def _str(value: Any, *_: Any) -> str:
    if type(value) is str:
        return value
    raise ValueError(f"must be a string, not {value!r}")


def _int(value: Any, *_: Any) -> int:
    """An int, an integral float or text ``int()`` reads; never a bool or a fraction."""
    if type(value) in (int, str) or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"must be an integer, not {value!r}")


def _float(value: Any, *_: Any) -> float:
    """An int, a float or text ``float()`` reads; never a bool."""
    if type(value) in (int, float, str):
        return float(value)
    raise ValueError(f"must be a number, not {value!r}")


def _mapping(value: Any, *_: Any) -> dict:
    if type(value) is dict:
        return dict(value)
    raise ValueError(f"must be a mapping, not {value!r}")


def _path(value: Any, where: str, load: _Load) -> str:
    # Joined as text: pathlib would intern each component of each path, and
    # names that only a config holds then enter CPython's interned-string
    # table again on every load.
    path = _str(value)
    if "\0" in path:  # os calls raise on it only at run time
        raise ValueError(f"must not contain a NUL byte: {path!r}")
    if load.base_dir is not None and not os.path.isabs(path):
        path = os.path.join(load.base_dir, path)
    return path


def _optional_path(value: Any, where: str, load: _Load) -> str | None:
    return _path(value, where, load) if _str(value) else None


def _list_of(item: _ReadFn, kind: type) -> _ReadFn:
    def read(value: Any, where: str, load: _Load) -> Any:
        if type(value) is not list:
            raise ValueError(f"must be a list, not {value!r}")
        return kind([item(v, where, load) for v in value])

    return read


def _nested(cls: type, key: str) -> _ReadFn:
    """The reader of a section under ``key``; a top-level one is named by its key alone."""
    return lambda value, where, load: _section(
        cls, value, key if where == "manifest" else f"{where}: {key}", load
    )


# List entries whose errors are named by the entry's name.
_ENTRIES = {AgentSlot: _slot, ModelProfile: _profile}
# The text fields that hold a path, resolved against the manifest's directory.
_PATHS = {
    "output_dir": _path, "paths": _path, "script_path": _optional_path, "corpus": _optional_path
}


def _same(value: Any) -> Any:
    return value


def _reader(hint: Any, key: str) -> tuple[_ReadFn, Callable[[], Any] | None, _WriteFn]:
    """The reader of ``key``'s values by its declared type, what a null gives it, its writer."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is list or origin is tuple:
        read, _, write = _reader(args[0], key)
        return _list_of(read, origin), origin, lambda value: [write(v) for v in value]
    if hint is dict or origin is dict:
        return _mapping, dict, copy.deepcopy
    if origin is UnionType:  # ``X | None``, whose null is left out like any other
        (hint,) = set(args) - {NoneType}
    if hint in _ENTRIES:
        return _ENTRIES[hint], None, _writer(hint)
    if is_dataclass(hint):
        return _nested(hint, key), None, _writer(hint)
    return _PATHS.get(key) or {str: _str, int: _int, float: _float}[hint], None, _same


@cache
def _fields(cls: type) -> _Table:
    """The table of ``cls``'s fields, in field order, read by their declared types."""
    hints, init = get_type_hints(cls), [f for f in fields(cls) if f.init]
    keys = {f.name: (f.name, *_reader(hints[f.name], f.name)) for f in init}
    required = (f.name for f in init if f.default is MISSING and f.default_factory is MISSING)
    return keys, tuple(required)


@cache
def _slot_fields() -> _Table:
    keys = {_SLOT_KEYS.get(key, key): entry for key, entry in _fields(AgentSpec)[0].items()}
    return {**keys, "role": ("role", _str, None, _same)}, ("slot_name", "role", "llm_profile")


@cache
def _writer(cls: type) -> _WriteFn:
    """``cls``'s writer, by its table; a slot's ``role`` is its own, its other keys its spec's."""
    spec = "spec." if cls is AgentSlot else ""
    keys = (_slot_fields() if spec else _fields(cls))[0]
    items = tuple(
        (key, attrgetter(name if name == "role" else spec + name), write)
        for key, (name, _, _, write) in keys.items()
    )
    return lambda value: {key: write(get(value)) for key, get, write in items}


def _reject_duplicates(names: list[str], what: str) -> None:
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValidationError(f"duplicate {what} name {name!r}")


def _validate_references(config: ExperimentConfig, definition: PlaygroundDefinition) -> None:
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
        for tool in value
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
