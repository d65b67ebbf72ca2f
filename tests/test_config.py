from __future__ import annotations

import copy
import functools
import json
import operator
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import evokit.harness.config as config_module
from evokit.cli import main
from evokit.context import ContextBudget
from evokit.gateway import ModelProfile, ScriptParseError, load_script
from evokit.mcp import McpEndpoint
from evokit.prompts import DEFAULT_FINAL_MARKER
from evokit.harness import (
    DEFAULT_MAX_WALL_SECONDS,
    ParseError,
    ValidationError,
    from_dict,
    load_config,
    replay,
    run_experiment,
)
from helpers import FIXTURES

MIN = FIXTURES / "configs/min.yaml"


def test_minimal_manifest_gets_defaults() -> None:
    config = load_config(MIN)
    assert config.experiment.name == "min"
    assert config.experiment.max_wall_seconds == DEFAULT_MAX_WALL_SECONDS
    assert config.experiment.seed == 1
    assert config.tools.builtin  # default builtin set filled in
    assert config.skills.paths == []
    assert config.playground.slots[0].spec.budget.max_tokens == 8192


def test_default_wall_limit_is_24_hours() -> None:
    assert DEFAULT_MAX_WALL_SECONDS == 86_400


def test_relative_paths_resolve_against_manifest_dir() -> None:
    config = load_config(MIN)
    script = config.profiles[0].script_path
    assert script is not None and script.endswith("scripts/min_worker.script")
    from pathlib import Path

    assert Path(script).is_file()
    assert Path(config.experiment.output_dir).name == "runs"


def test_unresolved_profile_named() -> None:
    with pytest.raises(ValidationError) as excinfo:
        load_config(FIXTURES / "configs/bad-ref.yaml")
    assert "ghost" in str(excinfo.value)


def test_unknown_keys_strict_vs_lenient(tmp_path) -> None:
    text = MIN.read_text(encoding="utf-8") + "\nmystery_section:\n  x: 1\n"
    path = tmp_path / "extra.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError):
        load_config(path)
    # Lenient mode tolerates the unknown section, but the script path now
    # resolves against tmp_path, so point it back at the fixtures.
    fixed = text.replace("../scripts", str(FIXTURES / "scripts"))
    path.write_text(fixed, encoding="utf-8")
    config = load_config(path, lenient=True)
    assert config.experiment.name == "min"


def test_parse_error_reports_location(tmp_path) -> None:
    path = tmp_path / "broken.yaml"
    path.write_text("experiment: [unclosed\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_config(path)
    assert "line" in str(excinfo.value)


# libyaml's loader where PyYAML has it; the pure-Python loader always.
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
MANIFESTS = sorted(FIXTURES.rglob("*.yaml"))


def _use(monkeypatch, loader: type) -> None:
    """Make every manifest parse in this test use ``loader``."""
    monkeypatch.setattr(config_module, "_loader", lambda: loader)


def _load_with(monkeypatch, loader: type, path) -> object:
    """``load_config(path)`` parsed by ``loader``: the config, or the error it raised."""
    _use(monkeypatch, loader)
    try:
        return load_config(path)
    except (ParseError, ValidationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_libyaml_loader_in_use_when_available(monkeypatch) -> None:
    # The loader a parse builds, not a module value set only once some test has parsed.
    used = []
    document = config_module._document

    def spy(loader, source):
        used.append(type(loader))
        return document(loader, source)

    monkeypatch.setattr(config_module, "_document", spy)
    load_config(MIN)
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert len(used) == 1 and used[0] is expected


@pytest.fixture
def json_manifest(tmp_path):
    """A manifest written the way perfbench writes them: indented JSON."""
    path = tmp_path / "manifest.yaml"
    path.write_text(json.dumps(_min_data(), indent=1), encoding="utf-8")
    return path


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize(
    "path",
    [*MANIFESTS, "json_manifest"],
    ids=lambda p: p if isinstance(p, str) else str(p.relative_to(FIXTURES)),
)
def test_loaders_build_equal_configs(monkeypatch, request, path) -> None:
    if isinstance(path, str):
        path = request.getfixturevalue(path)
    text = path.read_text(encoding="utf-8")
    # Same data in the same key order, so snapshots keep their bytes.
    assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(yaml.safe_load(text))
    pure, fast = (_load_with(monkeypatch, loader, path) for loader in LOADERS)
    assert fast == pure


def test_pure_python_loader_without_libyaml(monkeypatch, tmp_path) -> None:
    _use(monkeypatch, yaml.SafeLoader)
    for path in (FIXTURES / "golden").glob("*.yaml"):
        assert load_config(path).experiment.name
    path = tmp_path / "broken.yaml"
    path.write_text("experiment:\n  name: [unclosed\n", encoding="utf-8")
    with pytest.raises(ParseError, match="at line 3, column 1"):
        load_config(path)


def _aliased_tool_pack(entries: int, levels: int) -> str:
    """The golden research manifest whose tool_pack nests each entry's alias in the next.

    Each of ``entries`` anchored entries nests ``levels`` sequences around an
    alias of the one before, so the text nests ``levels`` + 3 deep and the
    built data about ``entries`` * ``levels`` deep.
    """
    text = (FIXTURES / "golden/research.yaml").read_text(encoding="utf-8")
    pack = ["      - &a0 " + "[" * levels + "web_search" + "]" * levels]
    pack += [
        f"      - &a{i} " + "[" * levels + f"*a{i - 1}" + "]" * levels for i in range(1, entries)
    ]
    old = "    tool_pack: [web_search, web_fetch, pdf_extract]\n"
    assert old in text
    return text.replace(old, "    tool_pack:\n" + "\n".join(pack) + "\n")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_data_aliases_nest_too_deep_is_a_parse_error_in_a_subprocess(tmp_path, command) -> None:
    """A manifest holds no alias: the first anchor is refused, before any run starts."""
    for name in ("scripts", "corpus"):  # what the manifest's relative paths name
        shutil.copytree(FIXTURES / "golden" / name, tmp_path / name)
    path = tmp_path / "deep.yaml"
    text = _aliased_tool_pack(25, 60)
    path.write_text(text, encoding="utf-8")
    line = text[: text.index("&a0")].count("\n") + 1
    out = ["--out", str(tmp_path / "runs")] if command == "run" else []
    src = Path(config_module.__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-m", "evokit.cli", command, "--config", str(path), *out],
        capture_output=True, text=True, timeout=120, cwd=src,
    )
    assert result.returncode == 2, result.stderr
    assert f"at line {line}, column 9: an anchor is not allowed in a manifest" in result.stderr
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize(
    "text, location",
    [
        ("name: a\x07b\n", "line 1, column 8"),
        # Multi-byte characters before it: libyaml counts bytes, the location characters.
        ("experiment:\r\n  task: \u00e9t\u00e9\r\n  name: \u00e9\x1bb\n", "line 3, column 10"),
        ("a: 1\rb: \u2028c\x00\n", "line 3, column 2"),
    ],
    ids=["bell", "after_utf8", "other_breaks"],
)
def test_disallowed_character_reports_location(
    monkeypatch, tmp_path, loader, text, location
) -> None:
    path = tmp_path / "control.yaml"
    path.write_text(text, encoding="utf-8", newline="")
    _use(monkeypatch, loader)
    with pytest.raises(ParseError, match=f"at {location}:"):
        load_config(path)


_ENDINGS_MANIFEST = """\
# Each line break below is written as \\n, \\r\\n or \\r.
experiment:
  name: endings
  task: |
    First line.
    Second line.
  seed: 3
llm:
  profiles:
    - name: p
      provider: scripted
      model: m
      script_path: endings.script
playground:
  name: sequential_handoff
  params: {}
  slots:
    - slot_name: w
      role: worker
      llm_profile: p
      system_prompt: >
        Folded
        prompt.
"""


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_endings_read_as_newlines(tmp_path, ending) -> None:
    manifest, script = tmp_path / "endings.yaml", tmp_path / "endings.script"
    broken = tmp_path / "broken.script"
    entries = [{"match": "line", "content": "FINAL: ok"}, {"content": "FINAL: {{last}}"}]
    script_text = json.dumps(entries, indent=2)
    texts = {manifest: _ENDINGS_MANIFEST, script: script_text, broken: script_text + "\n,\n"}

    def load() -> tuple:
        config = load_config(manifest)
        # The decoder's message counts lines and characters.
        with pytest.raises(ScriptParseError, match="Extra data") as excinfo:
            load_script(broken)
        return config.to_dict(), config.profiles[0].script, str(excinfo.value)

    for path, text in texts.items():
        path.write_bytes(text.encode("utf-8"))
    expected = load()
    assert expected[0]["experiment"]["task"] == "First line.\nSecond line.\n"
    assert expected[0]["playground"]["slots"][0]["system_prompt"] == "Folded prompt.\n"
    for path, text in texts.items():
        path.write_bytes(text.replace("\n", ending).encode("utf-8"))
    assert load() == expected


def test_a_leading_bom_is_skipped_in_manifests_and_scripts(tmp_path) -> None:
    manifest, script = tmp_path / "endings.yaml", tmp_path / "endings.script"
    loaded = []
    for bom in ("", "\ufeff"):
        manifest.write_text(bom + _ENDINGS_MANIFEST, encoding="utf-8")
        script.write_text(bom + '[{"content": "FINAL: x"}]', encoding="utf-8")
        config = load_config(manifest)
        loaded.append((config.to_dict(), config.profiles[0].script, load_script(script)))
    assert loaded[1] == loaded[0]


# -- the event builder against yaml.load ------------------------------------------


def _oracle(text: str, loader: type) -> object:
    """What the loader gave before the event builder: its data, or its error."""
    return yaml.load(text, Loader=loader)


def _outcome(parse, *args) -> tuple:
    try:
        return "data", repr(parse(*args))
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)


def _no_fallback(*args, **kwargs):
    raise AssertionError("fell back to yaml.load")


# Every YAML 1.1 form of an int, float, bool, null and timestamp, and strings
# that look like one.
SCALARS = [
    "0", "42", "-17", "+7", "0x1F", "-0x1f", "0o17", "017", "0b1010", "1_000", "1:30",
    "-190:20:30", "3.5", "-1.5e3", "6.8523015e+5", "1_000.5", ".5", "1.", ".inf", "-.Inf",
    "+.INF", ".nan", ".NaN", "1:30.5", "yes", "Yes", "NO", "on", "Off", "true", "False",
    "~", "null", "Null", "NULL", "", "2024-01-02", "2024-01-02T03:04:05Z",
    "2024-01-02 03:04:05.123 -05:00", "2001-12-14t21:59:43.10-05:00", "2024-1-2 3:04:05",
    "plain text", "y", "n", "12abc", "1.2.3", "0x", "0b2", "'0x1F'", '"yes"', "'~'",
    "'single ''quoted'''", '"double \\"quoted\\" \\u00e9 \\t"', "é", "-", "=x", "<<x",
]

DOCUMENTS = {
    "empty stream": "",
    "comment only": "# nothing here\n\n",
    "empty document": "---\n...\n",
    "scalar root": "just text\n",
    "sequence root": "- 1\n- [a, {b: c}]\n",
    "literal, folded and quoted": (
        "a: |\n  line one\n   line two\nb: >\n  folded\n  text\n\n  next\nc: |-\n  kept\n"
        "d: >+\n  keep\n\ne: 'it''s'\nf: \"tab\\tend\"\ng: \"multi\n  line\"\n"
    ),
    "duplicate keys": "a: 1\nb: 2\na: 3\nb: {x: 1}\n",
    "int, bool and null keys": "1: one\ntrue: yes\n~: nothing\n1.0: float one\n2: two\n",
    "empty values": "a:\nb: []\nc: {}\nd: ''\ne: [a, , b]\n",
    "block collections": "a:\n  - x\n  - - y\n    - z\n  - k: v\n    l: [1, 2]\nb:\n  c:\n    d: e\n",
    "explicit keys": "? a\n: 1\n? b\n",
    "anchor and alias": "base: &b {x: 1}\nuse: *b\n",
    "anchored scalar": "a: &n 5\nb: *n\n",
    "merge": "base: &b {x: 1, y: 2}\nuse:\n  <<: *b\n  y: 3\n",
    "merge list": "a: &a {x: 1}\nb: &b {y: 2}\nc:\n  <<: [*a, *b]\n",
    "merge without alias": "a:\n  <<: {x: 1}\n  y: 2\n",
    "merge as a value": "a: <<\n",
    "value key": "=: a\nb: c\n",
    "value as a value": "a: =\n",
    "str tag": "a: !!str 12\nb: !!str\n",
    "int tag": "a: !!int '12'\n",
    "binary": "a: !!binary aGVsbG8=\n",
    "set": "a: !!set {x, y}\n",
    "omap": "a: !!omap [x: 1, y: 2]\n",
    "local tag": "a: !custom 1\n",
    "bang tag": "a: ! 12\nb: ! [1, 2]\nc: ! {d: 1}\n",
    "tag directive": "%TAG !e! tag:yaml.org,2002:\n---\na: !e!int 12\n",
    "version directive": "%YAML 1.1\n---\na: 1\n",
    "sequence key": "? [a, b]\n: c\n",
    "mapping key": "? {a: 1}\n: c\n",
    "flow sequence as a key": "{[a]: b}\n",
    "two documents": "a: 1\n---\nb: 2\n",
    "document end then another": "a: 1\n...\n---\n",
    "unclosed flow": "a: [1, 2\n",
    "bad indentation": "a:\n  b: 1\n c: 2\n",
    "tab indentation": "a:\n\tb: 1\n",
    "undefined alias": "a: *nope\n",
    "duplicate anchor": "a: &x 1\nb: &x 2\n",
    "control character": "a: b\x07\n",
    "unterminated quote": "a: 'open\n",
    "syntax error after a value": "a: 1\nb: [\n",
    "decimal int at the digit limit": "a: " + "9" * 4300 + "\n",
}

# The documents above outside the manifest subset: where the ParseError puts
# each, and the construct it names.
REFUSED = {
    "anchor and alias": "line 1, column 7: an anchor",
    "anchored scalar": "line 1, column 4: an anchor",
    "merge": "line 1, column 7: an anchor",
    "merge list": "line 1, column 4: an anchor",
    "merge without alias": "line 2, column 3: a '<<' scalar",
    "merge as a value": "line 1, column 4: a '<<' scalar",
    "value key": "line 1, column 1: a '=' scalar",
    "value as a value": "line 1, column 4: a '=' scalar",
    "str tag": "line 1, column 4: the explicit tag 'tag:yaml.org,2002:str'",
    "int tag": "line 1, column 4: the explicit tag 'tag:yaml.org,2002:int'",
    "binary": "line 1, column 4: the explicit tag 'tag:yaml.org,2002:binary'",
    "set": "line 1, column 4: the explicit tag 'tag:yaml.org,2002:set'",
    "omap": "line 1, column 4: the explicit tag 'tag:yaml.org,2002:omap'",
    "local tag": "line 1, column 4: the explicit tag '!custom'",
    "tag directive": "line 3, column 4: the explicit tag 'tag:yaml.org,2002:int'",
    "sequence key": "line 1, column 3: a collection used as a key",
    "mapping key": "line 1, column 3: a collection used as a key",
    "flow sequence as a key": "line 1, column 2: a collection used as a key",
    "two documents": "line 2, column 1: a second document",
    "document end then another": "line 3, column 1: a second document",
    "undefined alias": "line 1, column 4: an alias",
    "duplicate anchor": "line 1, column 4: an anchor",
}


def _flow(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(SCALARS)
    items = range(rng.randrange(4))
    if rng.random() < 0.5:
        return "[" + ", ".join(_flow(rng, depth - 1) for _ in items) + "]"
    return "{" + ", ".join(f"{rng.choice(SCALARS)}: {_flow(rng, depth - 1)}" for _ in items) + "}"


def _generated(seed: int) -> str:
    """A seeded manifest-shaped document: block mappings and sequences of flow values."""
    rng = random.Random(seed)
    lines = []
    for _ in range(rng.randrange(1, 6)):
        lines.append(f"{rng.choice(SCALARS)}:")
        if rng.random() < 0.3:
            lines += [f"  - {_flow(rng, 2)}" for _ in range(rng.randrange(1, 4))]
        elif rng.random() < 0.3:
            lines += [f"  {rng.choice(SCALARS)}: {_flow(rng, 2)}" for _ in range(rng.randrange(1, 4))]
        else:
            lines[-1] += f" {_flow(rng, 3)}"
    return "\n".join(lines) + "\n"


CORPUS = {
    **{str(path.relative_to(FIXTURES)): path.read_text(encoding="utf-8") for path in MANIFESTS},
    "indented JSON manifest": json.dumps(
        yaml.safe_load((FIXTURES / "golden/research.yaml").read_text(encoding="utf-8")), indent=1
    ),
    **{
        f"scalar {text!r}": f"value: {text}\n{text}: key\nlist: [{text}, {{{text}: {text}}}]\n"
        for text in SCALARS
    },
    **DOCUMENTS,
    **{f"generated {seed}": _generated(seed) for seed in range(40)},
}


def _expected(name: str, loader: type) -> tuple:
    """yaml.load's outcome for a corpus document in the subset, else the refusal REFUSED names."""
    if name in REFUSED:
        return ParseError, f"m.yaml: YAML parse error at {REFUSED[name]} is not allowed in a manifest"
    return _outcome(_oracle, CORPUS[name], loader)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("name", CORPUS)
def test_event_builder_gives_what_yaml_load_gives(monkeypatch, loader, name) -> None:
    _use(monkeypatch, loader)
    assert _outcome(config_module._parse_yaml, CORPUS[name], "m.yaml") == _expected(name, loader)


def test_generated_corpus_mostly_takes_the_fast_path(monkeypatch) -> None:
    monkeypatch.setattr(yaml, "load", _no_fallback)
    built = [
        _outcome(config_module._parse_yaml, _generated(seed), "m.yaml")[0] == "data"
        for seed in range(40)
    ]
    assert sum(built) >= 30


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_fixture_manifests_never_reach_the_fallback(monkeypatch, json_manifest, loader) -> None:
    """Every manifest the tests and the benchmark load takes the event builder."""
    monkeypatch.setattr(yaml, "load", _no_fallback)
    for path in [*MANIFESTS, json_manifest]:
        _load_with(monkeypatch, loader, path)


# A value PyYAML resolves but cannot build. The `fallback` cases put an anchor
# before it, which is refused first.
@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("value", ["2024-02-30", "1" * 5000], ids=["feb_30", "5000_digit_int"])
@pytest.mark.parametrize(
    "prefix, where",
    [
        ("", "YAML value error at line 3, column 9: "),
        ("top: &a 1\n", "YAML parse error at line 1, column 6: an anchor is not allowed"),
    ],
    ids=["fast_path", "fallback"],
)
def test_unbuildable_value_is_a_parse_error_naming_its_line(
    monkeypatch, tmp_path, capsys, loader, value, prefix, where
) -> None:
    _use(monkeypatch, loader)
    path = tmp_path / "bad.yaml"
    path.write_text(f"{prefix}experiment:\n  name: n\n  seed: {value}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=where):
        load_config(path)
    assert main(["validate", "--config", str(path)]) == 2
    assert where in capsys.readouterr().err


def _deep(levels: int, alias: bool = False) -> str:
    """A manifest nesting ``levels`` sequences, after an alias if ``alias``."""
    head = "anchor: &a 1\nalias: *a\n" if alias else ""
    return f"{head}experiment: " + "[" * levels + "]" * levels + "\n"


@pytest.mark.parametrize("alias", [False, True], ids=["plain", "with_alias"])
def test_deep_sequence_is_a_parse_error_in_a_subprocess(tmp_path, alias) -> None:
    path = tmp_path / "deep.yaml"
    path.write_text(_deep(100_000, alias), encoding="utf-8")
    src = Path(config_module.__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-m", "evokit.cli", "validate", "--config", str(path)],
        capture_output=True, text=True, timeout=120, cwd=src,
    )
    assert result.returncode == 2, result.stderr
    if alias:  # refused at the anchor, before the deep part is read
        assert "at line 1, column 9: an anchor is not allowed in a manifest" in result.stderr
    else:
        assert "at line 1, column 76: nested deeper than 64 levels" in result.stderr


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize(
    "text, error",
    [
        (
            "".join("  " * i + f"k{i}:\n" for i in range(3_000)),
            "line 65, column 129: nested deeper than 64 levels",
        ),
        (_deep(3_000, alias=True), "line 1, column 9: an anchor is not allowed in a manifest"),
    ],
    ids=["mapping_3000", "sequence_3000_with_alias"],
)
def test_deep_document_never_reaches_a_composer(
    monkeypatch, tmp_path, loader, text, error
) -> None:
    _use(monkeypatch, loader)
    monkeypatch.setattr(yaml, "load", _no_fallback)
    path = tmp_path / "deep.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"at {error}"):
        load_config(path)
    assert main(["validate", "--config", str(path)]) == 2


def test_nesting_up_to_the_limit_loads(monkeypatch) -> None:
    text = "a: " + "[" * 63 + "]" * 63 + "\n"
    for loader in LOADERS:
        _use(monkeypatch, loader)
        assert config_module._parse_yaml(text, "m.yaml") == _oracle(text, loader)


def _min_data() -> dict:
    return {
        "experiment": {"name": "n", "task": "t", "seed": 2},
        "llm": {
            "profiles": [
                {
                    "name": "p",
                    "provider": "scripted",
                    "model": "m",
                    "script_path": str(FIXTURES / "scripts/min_worker.script"),
                }
            ]
        },
        "playground": {
            "name": "sequential_handoff",
            "params": {},
            "slots": [{"slot_name": "w", "role": "worker", "llm_profile": "p"}],
        },
    }


def test_unknown_slot_tool_rejected_without_mcp() -> None:
    data = _min_data()
    data["playground"]["slots"][0]["tools"] = ["ghost_tool"]
    with pytest.raises(ValidationError) as excinfo:
        from_dict(data)
    assert "ghost_tool" in str(excinfo.value)


def test_mcp_defers_tool_name_validation() -> None:
    data = _min_data()
    data["tools"] = {"mcp": [{"alias": "stub", "endpoint": "http://127.0.0.1:9/"}]}
    data["playground"]["slots"][0]["tools"] = ["stub.add"]
    config = from_dict(data)
    assert config.tools.mcp[0].alias == "stub"
    # A tool_pack is a list of tool names, checked the same way.
    data["playground"].update(name="single_agent_research", params={"tool_pack": ["stub.add"]})
    data["playground"]["slots"][0]["role"] = "researcher"
    assert from_dict(data).playground.params == {"tool_pack": ["stub.add"]}
    del data["tools"]
    with pytest.raises(ValidationError, match="param 'tool_pack' references unknown tool"):
        from_dict(data)


def test_duplicate_names_rejected() -> None:
    data = _min_data()
    data["llm"]["profiles"].append(dict(data["llm"]["profiles"][0]))
    with pytest.raises(ValidationError):
        from_dict(data)
    data = _min_data()
    data["playground"]["slots"].append(dict(data["playground"]["slots"][0]))
    with pytest.raises(ValidationError):
        from_dict(data)


def test_missing_script_file_rejected() -> None:
    data = _min_data()
    data["llm"]["profiles"][0]["script_path"] = "/nonexistent/rules.script"
    with pytest.raises(ValidationError):
        from_dict(data)


def test_seed_must_be_integer() -> None:
    data = _min_data()
    data["experiment"]["seed"] = "seven"
    with pytest.raises(ValidationError):
        from_dict(data)


# Every fixture manifest that loads; bad-ref.yaml names an unknown profile.
MANIFESTS = sorted(
    path
    for path in (*FIXTURES.glob("configs/*.yaml"), *FIXTURES.glob("golden/*.yaml"))
    if path.name != "bad-ref.yaml"
)


@pytest.mark.parametrize("path", MANIFESTS, ids=lambda path: f"{path.parent.name}-{path.stem}")
def test_snapshot_round_trip_is_identical(path) -> None:
    config = load_config(path)
    snapshot = config.to_dict()
    rebuilt = from_dict(snapshot)
    assert rebuilt == config
    # The same data in the same key order.
    assert json.dumps(rebuilt.to_dict()) == json.dumps(snapshot)


def _readme_manifest() -> dict:
    """README's manifest reference, a commented-out ``key: value`` line read as a key."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```yaml\nexperiment:", 1)[1].split("```", 1)[0]
    return yaml.safe_load("experiment:" + re.sub(r"(?m)^( *)# (?=\w+:)", r"\1", block))


def test_readme_manifest_names_each_table_key_in_table_order() -> None:
    manifest = _readme_manifest()
    slots = manifest["playground"]["slots"]
    sections = [
        ([manifest], config_module._Manifest),
        ([manifest["experiment"]], config_module.ExperimentSection),
        ([manifest["llm"]], config_module._Llm),
        (manifest["llm"]["profiles"], ModelProfile),
        ([manifest["tools"]], config_module.ToolsSection),
        (manifest["tools"]["mcp"], McpEndpoint),
        ([manifest["skills"]], config_module.SkillsSection),
        ([manifest["playground"]], config_module.PlaygroundSection),
        (slots, None),
        ([slot["budget"] for slot in slots if "budget" in slot], ContextBudget),
    ]
    for entries, cls in sections:
        table = config_module._slot_fields() if cls is None else config_module._fields(cls)
        keys = list(table[0])
        assert {key for entry in entries for key in entry} == set(keys), cls
        for entry in entries:
            assert list(entry) == [key for key in keys if key in entry], cls


def test_snapshot_shares_nothing_with_the_config() -> None:
    data = _min_data()
    data["tools"] = {"mcp": [{"alias": "stub", "endpoint": "http://127.0.0.1:9/"}]}
    data["skills"] = {"paths": [str(FIXTURES / "skills/pack_a")]}
    data["playground"].update(
        name="single_agent_research",
        params={"tool_pack": ["stub.add"]},
    )
    data["playground"]["slots"][0]["role"] = "researcher"
    config = from_dict(data)
    snapshot = config.to_dict()
    expected = json.loads(json.dumps(snapshot))

    snapshot["playground"]["params"]["tool_pack"].append("ghost")
    snapshot["llm"]["profiles"][0]["model"] = "other"
    snapshot["tools"]["mcp"][0]["alias"] = "other"
    snapshot["tools"]["builtin"].clear()
    snapshot["skills"]["paths"].append("elsewhere")
    snapshot["playground"]["slots"][0]["budget"]["max_tokens"] = 1
    snapshot["playground"]["slots"][0]["tools"].append("ghost")
    snapshot["experiment"]["name"] = "other"

    assert config.to_dict() == expected


@pytest.mark.parametrize(
    "bad",
    [
        {"max_turns": 0},
        {"critique_every": 0},
        {"budget": {"strategy": "bogus"}},
        {"budget": {"compress_at": 7}},
        {"budget": {"max_tokens": -5}},
        {"max_turns": "many"},
        {"max_turns": True},
        {"critique_every": 2.5},
        {"budget": {"max_tokens": 1.5}},
        {"budget": {"compress_at": True}},
        {"max_turns": float("inf")},
        {"budget": {"max_tokens": int("9" * 400)}},
    ],
    ids=[
        "max_turns", "critique_every", "strategy", "compress_at", "max_tokens", "not_an_int",
        "max_turns_bool", "critique_every_fraction", "max_tokens_fraction", "compress_at_bool",
        "max_turns_inf", "max_tokens_overflow",
    ],
)
def test_invalid_slot_values_rejected_at_load(tmp_path, bad) -> None:
    data = _min_data()
    data["playground"]["slots"][0].update(bad)
    with pytest.raises(ValidationError) as excinfo:
        from_dict(data)
    assert "slot 'w'" in str(excinfo.value)
    key, value = next(iter(bad.items()))
    assert (next(iter(value)) if isinstance(value, dict) else key) in str(excinfo.value)
    path = tmp_path / "bad.yaml"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    # A run stops at load time, before it creates a run directory.
    runs = tmp_path / "runs"
    assert main(["run", "--config", str(path), "--out", str(runs)]) == 2
    assert not runs.exists()


@pytest.mark.parametrize(
    "key, value",
    [("temperature", True), ("max_output_tokens", True), ("max_output_tokens", 1.5)],
    ids=["temperature_bool", "max_output_tokens_bool", "max_output_tokens_fraction"],
)
def test_bool_or_fraction_rejected_in_profile(key, value) -> None:
    data = _min_data()
    data["llm"]["profiles"][0][key] = value
    with pytest.raises(ValidationError, match=f"^profile 'p': {key}: must be "):
        from_dict(data)


def test_integral_float_reads_as_int_and_text_is_left_alone() -> None:
    data = _min_data()
    data["llm"]["profiles"][0].update(max_output_tokens=64.0, temperature="0.5")
    data["playground"]["slots"][0].update(max_turns=2.0, budget={"max_tokens": "512"})
    config = from_dict(data)
    spec = config.playground.slots[0].spec
    assert [type(v) for v in (spec.max_turns, spec.budget.max_tokens)] == [int, int]
    assert (spec.max_turns, spec.budget.max_tokens) == (2, 512)
    assert (config.profiles[0].max_output_tokens, config.profiles[0].temperature) == (64, 0.5)


def test_null_slot_text_takes_the_default() -> None:
    data = _min_data()
    data["playground"]["slots"][0].update(system_prompt=None, final_marker=None)
    spec = from_dict(data).playground.slots[0].spec
    assert spec.system_prompt == ""
    assert spec.final_marker == DEFAULT_FINAL_MARKER


def test_lenient_accepts_unknown_budget_key(tmp_path) -> None:
    data = _min_data()
    data["playground"]["slots"][0]["budget"] = {"max_tokens": 512, "mystery": 1}
    with pytest.raises(ValidationError):
        from_dict(data)
    config = from_dict(data, lenient=True)
    assert config.playground.slots[0].spec.budget.max_tokens == 512
    path = tmp_path / "extra.yaml"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["validate", "--config", str(path), "--lenient"]) == 0


GOLDEN = ("draft_improve", "planner_executor", "research", "solve_critique")
WRONG_VALUES = [None, True, 0, -1, 2.5, float("nan"), "", "x", [], [1], {}, {"a": 1}]


def _nodes(value, path=()):
    """Each path below the root of manifest data, with the value found there."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield path + (key,), child
            yield from _nodes(child, path + (key,))


def _never_loads(original, wrong) -> bool:
    """Whether ``wrong`` in place of ``original`` is a type the field can never take."""
    if isinstance(original, str):  # text expected
        return isinstance(wrong, (list, dict))
    if type(original) in (int, float):  # a number expected
        return isinstance(wrong, bool)
    if isinstance(original, (list, dict)):  # a list, a section or params expected
        return wrong is not None and type(wrong) is not type(original)
    return False


def test_every_value_set_to_a_wrong_one_loads_or_is_refused() -> None:
    for name in GOLDEN:
        snapshot = load_config(FIXTURES / f"golden/{name}.yaml").to_dict()
        for path, original in _nodes(snapshot):
            for wrong in WRONG_VALUES:
                data = copy.deepcopy(snapshot)
                parent = functools.reduce(operator.getitem, path[:-1], data)
                parent[path[-1]] = wrong
                try:
                    from_dict(data)
                except (ValidationError, ParseError):
                    continue
                assert not _never_loads(original, wrong), (name, path, wrong)


def test_null_slot_values_take_the_defaults() -> None:
    data = _min_data()
    data["playground"]["slots"][0].update(max_turns=None, budget=None)
    spec = from_dict(data).playground.slots[0].spec
    assert spec.max_turns == 8
    assert spec.budget == ContextBudget()


def test_null_output_dir_runs_under_runs(tmp_path, monkeypatch) -> None:
    data = _min_data()
    data["experiment"]["output_dir"] = None
    manifests = tmp_path / "manifests"
    manifests.mkdir()
    path = manifests / "null_output_dir.yaml"
    path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EVO_HOME", raising=False)
    assert main(["run", "--config", str(path)]) == 0
    assert [p.name for p in (tmp_path / "runs").iterdir() if p.name.startswith("n-")]
    assert sorted(p.name for p in manifests.iterdir()) == ["null_output_dir.yaml"]
    assert not (tmp_path / "None").exists()


def test_limits_at_their_float_bounds_run_and_one_more_is_refused(tmp_path) -> None:
    # research calls tools, so the engine rounds the milliseconds left to the deadline.
    data = load_config(FIXTURES / "golden/research.yaml").to_dict()
    data["experiment"].update(output_dir=str(tmp_path / "runs"), max_wall_seconds=10**305)
    budget = data["playground"]["slots"][0]["budget"]
    budget["max_tokens"] = int(sys.float_info.max)
    record = run_experiment(from_dict(data))
    assert record.status == "ok"
    assert replay(record.trajectory_path).complete
    for section, key in [(data["experiment"], "max_wall_seconds"), (budget, "max_tokens")]:
        section[key] += 1
        with pytest.raises(ValidationError, match=key):
            from_dict(data)
        section[key] -= 1


def test_integral_float_seed_and_wall_limit_read_as_ints() -> None:
    data = _min_data()
    data["experiment"].update(seed=2.0, max_wall_seconds="60")
    experiment = from_dict(data).experiment
    assert (experiment.seed, experiment.max_wall_seconds) == (2, 60)
    assert [type(experiment.seed), type(experiment.max_wall_seconds)] == [int, int]


def test_corpus_must_be_an_existing_directory(tmp_path) -> None:
    data = _min_data()
    data["tools"] = {"corpus": "no/such/dir"}
    with pytest.raises(ValidationError, match="tools.corpus: '.*no/such/dir' is not a directory"):
        from_dict(data, base_dir=tmp_path)
    (tmp_path / "no/such/dir").mkdir(parents=True)
    assert from_dict(data, base_dir=tmp_path).tools.corpus == str(tmp_path / "no/such/dir")
    data["tools"]["corpus"] = ""
    assert from_dict(data, base_dir=tmp_path).tools.corpus is None


def test_tool_pack_items_must_be_names_even_with_mcp() -> None:
    data = _min_data()
    data["tools"] = {"mcp": [{"alias": "stub", "endpoint": "http://127.0.0.1:9/"}]}
    data["playground"].update(name="single_agent_research", params={"tool_pack": [[1]]})
    data["playground"]["slots"][0]["role"] = "researcher"
    with pytest.raises(ValidationError, match="param 'tool_pack' must be a list of tool names"):
        from_dict(data)


def test_json_exponents_read_by_the_declared_type(tmp_path) -> None:
    # json.dumps writes 1e-05, which YAML 1.1 reads as the text "1e-05".
    data = _min_data()
    data["llm"]["profiles"][0]["temperature"] = 1e-05
    path = tmp_path / "exponent.yaml"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert "1e-05" in path.read_text(encoding="utf-8")
    assert load_config(path).profiles[0].temperature == 1e-05
    data["playground"]["slots"][0]["budget"] = {"max_tokens": "1e+16"}
    with pytest.raises(ValidationError, match="slot 'w': budget: max_tokens: "):
        from_dict(data)


def test_unknown_keys_of_mixed_types_are_named() -> None:
    data = _min_data()
    data["experiment"].update({1: "x", "zz": "y"})  # YAML reads the key 1 as an int
    with pytest.raises(ValidationError, match=r"^experiment: unknown keys \[1, 'zz'\]$"):
        from_dict(data)
