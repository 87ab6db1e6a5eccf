"""Fuzzing the command line's file inputs: every mutated renames, sets, facts,
config, lemma-table, report or profile file ends in exit status 0, 1 or 2,
never in an exception that escapes ``run`` or a traceback on stderr."""

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corename.cli import run
from corename.recommend import default_profile

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"

# no "/" or ".", so that a mutated path in a config file stays inside the
# working directory, which the tests move to a scratch directory
_strings = st.text(alphabet='aZé_-0 "\\\n', max_size=5)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    _strings,
    st.sampled_from(["Class", "Method", "Attribute", "lemma", "raw", "c01", ""]),
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_strings, inner, max_size=3),
    max_leaves=4,
)


# a placeholder value that ``_dumps`` writes as nested arrays or a long integer
_PLACEHOLDER = "\x00placeholder"
# around the decoder's recursion limit, and far beyond it
_depths = st.integers(1, 1_200) | st.just(200_000)
# around the most digits the decoder converts to an int (4,300)
_digits = st.integers(4_250, 5_000)


def _mutate_json(draw, value, values=_json_values):
    """``value`` with one node deleted, replaced by one of ``values``, or
    changed further down."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        copy = dict(value) if isinstance(value, dict) else list(value)
        key = draw(st.sampled_from(list(copy) if isinstance(copy, dict) else range(len(copy))))
        action = draw(st.sampled_from(["delete", "replace", "descend"]))
        if action == "delete":
            del copy[key]
        elif action == "replace":
            copy[key] = draw(values)
        else:
            copy[key] = _mutate_json(draw, copy[key], values)
        return copy
    return draw(values)


def _dumps(draw, value, shape: str) -> str:
    """The text of ``value`` mutated as JSON ("json"), or with one node
    replaced by arrays nested to a drawn depth ("nest") or by an integer of
    a drawn number of digits ("long")."""
    if shape == "json":
        return json.dumps(_mutate_json(draw, value))
    if shape == "nest":
        depth = draw(_depths)
        literal = "[" * depth + "]" * depth
    else:
        literal = "9" * draw(_digits)
    text = json.dumps(_mutate_json(draw, value, st.just(_PLACEHOLDER)))
    return text.replace(json.dumps(_PLACEHOLDER), literal)


def _mutate_text(draw, data: bytes) -> bytes:
    """``data`` with one slice replaced by drawn bytes, some not UTF-8."""
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 40)))
    insert = draw(
        st.text(alphabet='{}[]",:0a\n #é', max_size=6).map(str.encode)
        | st.sampled_from([b"\xff", b"\xc3", b"\x00", b"\n\n"])
    )
    return data[:start] + insert + data[end:]


@st.composite
def _mutated(draw, data: bytes, kind: str) -> bytes:
    """``data`` mutated once or twice, as text, as JSON of ``kind``
    ("jsonl", "json" or "text"), by nesting one JSON value deeply, or by
    replacing one with a long integer."""
    for _ in range(draw(st.integers(1, 2))):
        shape = "text" if kind == "text" else draw(
            st.sampled_from(["text", "json", "nest", "long"])
        )
        if shape == "text":
            data = _mutate_text(draw, data)
            continue
        try:
            text = data.decode("utf-8")
            if kind == "json":
                data = _dumps(draw, json.loads(text), shape).encode()
            else:
                lines = text.splitlines()
                at = draw(st.integers(0, len(lines) - 1))
                lines[at] = _dumps(draw, json.loads(lines[at]), shape)
                data = "\n".join(lines).encode() + b"\n"
        except (ValueError, RecursionError):  # an earlier mutation broke the JSON
            data = _mutate_text(draw, data)
    return data


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Valid inputs for each command, in a scratch working directory."""
    root = tmp_path_factory.mktemp("fuzz")
    facts = root / "facts"
    facts.mkdir()
    for commit_dir in sorted((CORPUS / "src").iterdir()):
        out = facts / f"{commit_dir.name}.json"
        assert run(["facts", "--src", str(commit_dir), "--out", str(out)]) == 0
    renames = root / "renames.jsonl"
    shutil.copy(CORPUS / "renames.jsonl", renames)
    assert run(["group", "--renames", str(renames), "--out", str(root / "sets.jsonl")]) == 0
    assert run([
        "analyze", "--renames", str(renames), "--sets", str(root / "sets.jsonl"),
        "--facts-dir", str(facts), "--out", str(root / "report"),
    ]) == 0
    shutil.copy(root / "report" / "report.json", root / "report.json")
    default_profile().save(root / "profile.json")
    (root / "forms.txt").write_text("# comment\ngizmos gizmo\nmice mouse\n")
    (root / "analyze.json").write_text(
        json.dumps({"mode": "raw", "filter": ["Class", "Method"], "plots": True})
    )
    (root / "recommend.json").write_text(
        json.dumps({"min_score": 0.1, "format": "json", "mode": "lemma"})
    )
    cwd = os.getcwd()
    os.chdir(root)
    yield root
    os.chdir(cwd)


def _run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run([str(a) for a in argv])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code


# each input file: (name in the base directory, how to mutate it, the runs
# that read it with the mutated copy at the given path)
_TARGETS = {
    "renames": ("renames.jsonl", "jsonl", lambda r, m: [
        ["group", "--renames", m, "--out", r / "out-sets.jsonl"],
        ["analyze", "--renames", m, "--sets", r / "sets.jsonl", "--facts-dir", r / "facts",
         "--out", r / "out-report"],
    ]),
    "sets": ("sets.jsonl", "jsonl", lambda r, m: [
        ["analyze", "--renames", r / "renames.jsonl", "--sets", m, "--facts-dir", r / "facts",
         "--out", r / "out-report"],
    ]),
    "facts": ("facts/c01.json", "json", lambda r, m: [
        ["analyze", "--renames", r / "renames.jsonl", "--sets", r / "sets.jsonl",
         "--facts-dir", m.parent, "--out", r / "out-report"],
    ]),
    "analyze-config": ("analyze.json", "json", lambda r, m: [
        ["analyze", "--renames", r / "renames.jsonl", "--sets", r / "sets.jsonl",
         "--facts-dir", r / "facts", "--out", r / "out-report", "--config", m],
    ]),
    "recommend-config": ("recommend.json", "json", lambda r, m: [
        ["recommend", "--src", FIXTURES / "fig1", "--old", "MetricType",
         "--new", "MetricAttribute", "--kind", "Class", "--config", m],
    ]),
    "lemma-table": ("forms.txt", "text", lambda r, m: [
        ["group", "--renames", r / "renames.jsonl", "--lemma-table", m,
         "--out", r / "out-sets.jsonl"],
    ]),
    "report": ("report.json", "json", lambda r, m: [
        ["report", "--stats", m, "--out", r / "out-report", "--plots"],
    ]),
    "profile": ("profile.json", "json", lambda r, m: [
        ["recommend", "--src", FIXTURES / "fig1", "--old", "MetricType",
         "--new", "MetricAttribute", "--kind", "Class", "--profile", m],
    ]),
}


@pytest.mark.parametrize("target", sorted(_TARGETS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_input_file(base, target, data):
    name, kind, argvs = _TARGETS[target]
    mutated = base / "mutated" / name
    mutated.parent.mkdir(parents=True, exist_ok=True)
    if target == "facts":
        for path in (base / "facts").glob("*.json"):
            shutil.copy(path, mutated.parent)
    mutated.write_bytes(data.draw(_mutated((base / name).read_bytes(), kind)))
    for argv in argvs(base, mutated):
        _run(argv)
