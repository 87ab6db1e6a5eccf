"""Tests for reading input files."""

import pytest
from hypothesis import given, settings, strategies as st

from corename.errors import ParseError
from corename.fileio import load_json, read_lines, read_text


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
