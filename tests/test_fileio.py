"""Tests for reading input files."""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from _oracles import jsonl_objects_by_loads

import corename
from corename.errors import ParseError
from corename.fileio import jsonl_objects, load_document, load_json, read_lines, read_text


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["\r", "\n", "\r\n", "a", "é", "\u2028", "\ufeff", " "])).map("".join))
def test_read_text_reads_as_open_does(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("read") / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        assert read_text(path) == fh.read()
    with open(path, encoding="utf-8") as fh:
        assert list(read_lines(path)) == list(fh)


@pytest.mark.parametrize("data, line", [
    (b"\xff", 1), (b"ok\nok\r\n\xc3(\n", 3), (b'{"a": 1}\n\n\xe2\x82', 3),
])
def test_bytes_not_utf8_name_file_and_line(tmp_path, data, line):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    for read in (read_text, load_json, lambda path: list(read_lines(path))):
        with pytest.raises(ParseError, match=f"^{path}: line {line}: not UTF-8 text$"):
            read(path)


def test_load_json_names_the_line(tmp_path):
    path = tmp_path / "input.json"
    path.write_text('{"a": 1,\n}')
    with pytest.raises(ParseError, match=f"^{path}: line 2: invalid JSON: "):
        load_json(path)


@pytest.mark.parametrize("error, message", [
    (ParseError("entity 2: malformed"), "entity 2: malformed"),
    (KeyError("mode"), "not a thing: missing key 'mode'"),
    (AttributeError("no get"), "not a thing: no get"),
    (OverflowError("too large"), "not a thing: too large"),
    (TypeError("not a count: -1"), "not a thing: not a count: -1"),
    (ValueError("unknown mode: 'x'"), "not a thing: unknown mode: 'x'"),
])
def test_load_document_names_the_file(tmp_path, error, message):
    path = tmp_path / "doc.json"
    path.write_text("{}")

    def build(data):
        raise error

    with pytest.raises(ParseError) as caught:
        load_document(path, build, "thing")
    assert str(caught.value) == f"{path}: {message}"
    assert caught.value.source == path


def _objects_outcome(read, lines):
    """The repr of what ``read`` yields for ``lines`` (NaN is not equal to
    itself, its repr is), or the text and line of its ParseError."""
    try:
        return repr(list(read(lines, {"a", "b"}, "row", "in.jsonl")))
    except ParseError as exc:
        return str(exc), exc.line


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.text(st.sampled_from('{}[]",: 01.eE-+abflnrstuINy\\\ufeff\t\x1c\u00a0'), max_size=14)
        | st.builds(
            lambda value, before, after: before + json.dumps(value) + after,
            st.dictionaries(st.sampled_from("abc"), st.integers() | st.text(max_size=2)),
            st.sampled_from(["", " ", "\ufeff", "\x1c", "\u00a0\ufeff"]),
            st.sampled_from(["", " ", " x", "{}", "\ufeff", "\x1c"]),
        ),
        max_size=4,
    )
)
def test_jsonl_objects_as_json_loads_reads_them(lines):
    # the one-decoder reader against the json.loads one it replaced
    assert _objects_outcome(jsonl_objects, lines) == _objects_outcome(
        jsonl_objects_by_loads, lines
    )


@pytest.mark.parametrize(
    "line",
    ["\ufeff{}", " \ufeff {}", "{}\ufeff", "{} x", "{}{}", "{} {}", "NaN", "-Infinity",
     '{"a": NaN, "b": Infinity}', '{"a": 1, "a": 2, "b": 3}', "[1]", '"a"', "3", "null",
     "", " ", "\t\u2028", "{", '{"a": 1'],
)
def test_jsonl_objects_on_named_lines(line):
    lines = ['{"a": 1, "b": 2}', line, '{"a": 1}']
    assert _objects_outcome(jsonl_objects, lines) == _objects_outcome(
        jsonl_objects_by_loads, lines
    )


def test_only_fileio_parses_json():
    # one module decides how malformed JSON input is reported: no other
    # calls json.load/loads, or names a decoder or its raw_decode
    package = Path(corename.__file__).parent
    decoding = {"JSONDecoder", "raw_decode"}
    uses = []
    for module in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module in ("json", "json.decoder")
                and {alias.name for alias in node.names} & {"load", "loads", *decoding}
            ) or (
                isinstance(node, ast.Attribute) and node.attr in decoding
            ) or (
                isinstance(node, ast.Name) and node.id in decoding
            ):
                uses.append(f"{module.relative_to(package)}:{node.lineno}")
    assert [use for use in uses if not use.startswith("fileio.py:")] == []
    assert uses  # fileio itself is seen


@pytest.mark.parametrize("banned", ["dataclasses", "logging"])
def test_no_module_imports(banned):
    # start-up cost that every CLI process would pay: importing dataclasses
    # loads inspect, ast, dis and tokenize, and each class it decorates
    # compiles generated methods, so the value types are named tuples
    # instead; logging loads traceback, tokenize and string, and the
    # warnings it carried are returned as data for the CLI to print
    package = Path(corename.__file__).parent
    uses = []
    for module in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Import)
                and any(alias.name.split(".")[0] == banned for alias in node.names)
            ) or (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == banned
            ):
                uses.append(f"{module.relative_to(package)}:{node.lineno}")
    assert uses == []
