"""Tests for rename-record ingestion, the naive detector, and history walking."""

import gc
import io
import json
import os
import random
import subprocess
import warnings

import pytest
from hypothesis import given, settings, strategies as st
from _oracles import (
    load_rename_records_per_key,
    serialize_rename_records_by_dumps,
    walk_history_per_commit,
)

from corename.cli import run
from corename.errors import ParseError, RepoError, UnknownKind
from corename.facts import extract_facts
from corename.mining import (
    IdentifierKind,
    RenameRecord,
    detect_renames,
    load_rename_records,
    serialize_rename_records,
    walk_history,
)


_NOT_STRINGS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def line(**kw):
    return json.dumps(kw)


class TestLoadRenameRecords:
    def test_basic(self):
        records = load_rename_records(
            [
                line(
                    commit="3ccd7a1",
                    kind="Class",
                    old="MetricType",
                    new="MetricAttribute",
                    file="src/Metrics.java",
                )
            ]
        )
        assert len(records) == 1
        r = records[0]
        assert r.commit == "3ccd7a1"
        assert r.kind is IdentifierKind.CLASS
        assert r.old_name == "MetricType"
        assert r.new_name == "MetricAttribute"
        assert r.chunks == ()
        assert r.index == 0

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind) as info:
            load_rename_records(
                [line(commit="c", kind="Enum", old="A", new="B", file="f")],
                source="renames.jsonl",
            )
        assert str(info.value).startswith("renames.jsonl: line 1: ")

    def test_empty_stream(self):
        assert load_rename_records([]) == []

    def test_malformed_line_number(self):
        with pytest.raises(ParseError) as info:
            load_rename_records(["{\"commit\": \"c\"}", "{oops"], source="r.jsonl")
        assert info.value.line == 1  # missing keys reported first
        assert str(info.value) == "r.jsonl: line 1: missing keys: kind, new, old"

    def test_bad_json_line_number(self):
        good = line(commit="c", kind="Class", old="A", new="B", file="f")
        with pytest.raises(ParseError) as info:
            load_rename_records([good, "{oops"], source="r.jsonl")
        assert info.value.line == 2
        assert info.value.source == "r.jsonl"
        assert str(info.value).startswith("r.jsonl: line 2: invalid JSON: ")

    def test_identical_names_rejected(self):
        with pytest.raises(ParseError):
            load_rename_records(
                [line(commit="c", kind="Class", old="A", new="A", file="f")]
            )

    def test_round_trip(self):
        lines = [
            line(commit="c1", kind="Class", old="A", new="B", file="f.java"),
            line(
                commit="c2",
                kind="Variable",
                old="x",
                new="y",
                file="g.java",
                container="Foo.bar",
            ),
        ]
        records = load_rename_records(lines)
        buffer = io.StringIO()
        serialize_rename_records(records, buffer)
        again = load_rename_records(buffer.getvalue().splitlines())
        assert again == records

    @pytest.mark.parametrize(
        "key, value",
        [
            ("old", None),
            ("commit", ["c1"]),
            ("old", 1),
            ("new", True),
            ("file", {"a": 1}),
            ("file", None),
            ("container", ["X"]),
        ],
    )
    def test_values_that_are_not_strings(self, key, value):
        obj = dict(commit="c1", kind="Class", old="Bar", new="Foo", file="f.java")
        obj[key] = value
        good = line(commit="c1", kind="Class", old="A", new="B")
        with pytest.raises(ParseError) as info:
            load_rename_records([good, "", json.dumps(obj)], source="r.jsonl")
        assert str(info.value) == f"r.jsonl: line 3: {key} is not a string"

    @settings(max_examples=200, deadline=None)
    @given(
        st.fixed_dictionaries(
            {
                "commit": st.text(max_size=3),
                "kind": st.sampled_from([k.value for k in IdentifierKind]),
                "old": st.text(max_size=3),
                "new": st.text(max_size=3),
            },
            optional={"file": st.text(max_size=3), "container": st.none() | st.text(max_size=3)},
        ),
        st.dictionaries(
            st.sampled_from(["commit", "kind", "old", "new", "file", "container"]),
            _NOT_STRINGS,
            max_size=2,
        ),
    )
    def test_loaded_record_serializes_to_its_input(self, obj, replaced):
        # a record loads exactly when its values are those it writes back
        obj.update(replaced)
        rejected = (
            bool(replaced.keys() - {"container"})
            or replaced.get("container") is not None
            or obj["old"] == obj["new"]
        )
        try:
            (record,) = load_rename_records([json.dumps(obj)])
        except ParseError:
            assert rejected
            return
        assert not rejected
        written = io.StringIO()
        serialize_rename_records([record], written)
        expected = {"file": "", **obj}
        if expected.get("container", None) is None:
            expected.pop("container", None)
        assert written.getvalue() == json.dumps(expected, sort_keys=True) + "\n"


# text that JSON escapes: quotes, backslashes, control characters, non-ASCII
# and astral characters, and lone surrogates
_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600\ufeff'),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
    ),
    max_size=6,
)

_RECORDS = st.lists(
    st.builds(
        RenameRecord,
        commit=_TEXT,
        kind=st.sampled_from(IdentifierKind),
        old_name=_TEXT,
        new_name=_TEXT,
        file=st.just("") | _TEXT,
        container=st.none() | _TEXT,
    ),
    max_size=8,
)


def _record_line(obj, ascii_only, before, after):
    return before + json.dumps(obj, ensure_ascii=ascii_only) + after


# lines as other writers may give them: a record object, possibly with values
# of other types, an unknown kind or extra keys, written with or without
# ASCII escapes and with text around it; or any short run of JSON characters
_LINES = st.lists(
    st.one_of(
        st.builds(
            _record_line,
            st.fixed_dictionaries(
                {
                    "commit": _TEXT,
                    "kind": st.sampled_from([k.value for k in IdentifierKind])
                    | st.sampled_from(["class", ""])
                    | _NOT_STRINGS,
                    "old": _TEXT,
                    "new": _TEXT,
                },
                optional={
                    "file": _TEXT | _NOT_STRINGS,
                    "container": _TEXT | _NOT_STRINGS,
                    "extra": _NOT_STRINGS,
                },
            ),
            st.booleans(),
            st.sampled_from(["", " ", "\t", "\ufeff", " \ufeff"]),
            st.sampled_from(["", " ", "\r", " x", "{}", "\ufeff", ","]),
        ),
        st.text(st.sampled_from('{}[]",: 01.eE-+aflnrstuINy\\\ufeff\t'), max_size=12),
    ),
    max_size=5,
)


def _load_outcome(load, lines):
    """The records ``load`` reads from ``lines``, with their indices, or the
    type, text and line of the ParseError it raises."""
    try:
        records = load(lines, source="r.jsonl")
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return records, [r.index for r in records]


class TestSameAsReplacedRecordIO:
    """The record reader and writer against the json.loads and json.dumps
    ones they replaced, kept in tests/_oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(_RECORDS)
    def test_writer_gives_the_bytes_of_dumps(self, records):
        written, expected = io.StringIO(), io.StringIO()
        serialize_rename_records(records, written)
        serialize_rename_records_by_dumps(records, expected)
        assert written.getvalue() == expected.getvalue()

    @settings(max_examples=500, deadline=None)
    @given(_LINES)
    def test_reader_gives_the_records_or_error_of_loads(self, lines):
        assert _load_outcome(load_rename_records, lines) == _load_outcome(
            load_rename_records_per_key, lines
        )

    @pytest.mark.parametrize(
        "text",
        [
            "\ufeff" + line(commit="c", kind="Class", old="A", new="B"),
            "{} x",
            "{}{}",
            line(commit="c", kind="Class", old="A", new="B") + " x",
            "NaN",
            "Infinity",
            "-Infinity",
            '{"commit": "c", "kind": "Class", "old": NaN, "new": "B"}',
            "[1]",
            '"c"',
            "3",
            "null",
            '{"commit": 1, "commit": "c", "kind": "Class", "old": "A", "new": "B"}',
            '{"commit": "c", "kind": "Class", "old": "A", "new": "B", "new": 2}',
            line(commit="c", kind=["Class"], old="A", new="B"),
            line(commit="c", kind=1, old="A", new="B"),
            line(commit="c", kind=None, old="A", new="B"),
            *(
                line(**{"commit": "c", "kind": "Class", "old": "A", "new": "B", key: value})
                for key in ("commit", "old", "new", "file", "container")
                for value in (None, 1, 1.5, True, ["x"], {"x": 1})
            ),
            line(commit=["c"], kind=7, old=1, new="B"),
            line(commit="c", kind="Class", old="A", new="A"),
            line(commit="c", kind=7, old="A", new="A"),
            "",
            " \t ",
            "\u2028",
        ],
    )
    def test_reader_on_named_lines(self, text):
        good = line(commit="c", kind="Class", old="X", new="Y", file="f", container="P")
        lines = [good, "", text, good]
        outcome = _load_outcome(load_rename_records, lines)
        assert outcome == _load_outcome(load_rename_records_per_key, lines)


class TestDetectRenames:
    def facts(self, source):
        return extract_facts({"F.java": source})

    def test_single_attribute_rename(self):
        before = self.facts("class Foo { int a; }")
        after = self.facts("class Foo { int b; }")
        records = detect_renames(before, after, commit="c")
        assert [(r.kind, r.old_name, r.new_name) for r in records] == [
            (IdentifierKind.ATTRIBUTE, "a", "b")
        ]

    def test_ambiguous_class_addition(self):
        before = self.facts("class Foo { }")
        after = self.facts("class Bar { } class Extra { }")
        assert detect_renames(before, after) == []

    def test_identical_files(self):
        before = self.facts("class Foo { int a; void m() { } }")
        assert detect_renames(before, before) == []

    def test_never_equal_names(self):
        before = self.facts("class Foo { int a; int b; }")
        after = self.facts("class Foo { int a; int c; }")
        records = detect_renames(before, after)
        assert all(r.old_name != r.new_name for r in records)
        assert [(r.old_name, r.new_name) for r in records] == [("b", "c")]

    def test_swap_symmetry(self):
        before = self.facts("class Foo { void m(int x) { } }")
        after = self.facts("class Foo { void m(int y) { } }")
        forward = detect_renames(before, after)
        backward = detect_renames(after, before)
        assert [(r.old_name, r.new_name) for r in forward] == [("x", "y")]
        assert [(r.old_name, r.new_name) for r in backward] == [("y", "x")]

    def test_renamed_container_blocks_member_match(self):
        before = self.facts("class Foo { int a; }")
        after = self.facts("class Bar { int b; }")
        records = detect_renames(before, after)
        # class rename is positional at the file root; the member is not
        # matched because its container path changed
        assert [(r.kind, r.old_name, r.new_name) for r in records] == [
            (IdentifierKind.CLASS, "Foo", "Bar")
        ]


def git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.com",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.com",
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "HOME": str(repo),
        },
    )


@pytest.fixture
def repo(tmp_path):
    git(tmp_path, "init", "-q")
    return tmp_path


class TestWalkHistory:
    def test_single_commit_add(self, repo):
        (repo / "A.java").write_text("class A { }")
        git(repo, "add", "A.java")
        git(repo, "commit", "-qm", "add")
        commits = list(walk_history(repo))
        assert len(commits) == 1
        (path, before, after), = commits[0].pairs
        assert path == "A.java"
        assert before is None
        assert after == "class A { }"

    def test_empty_range(self, repo):
        (repo / "A.java").write_text("class A { }")
        git(repo, "add", "A.java")
        git(repo, "commit", "-qm", "add")
        assert list(walk_history(repo, "HEAD..HEAD")) == []

    def test_modification_pair(self, repo):
        (repo / "A.java").write_text("class Foo { int a; }")
        git(repo, "add", "A.java")
        git(repo, "commit", "-qm", "one")
        (repo / "A.java").write_text("class Foo { int b; }")
        git(repo, "add", "A.java")
        git(repo, "commit", "-qm", "two")
        commits = list(walk_history(repo))
        assert len(commits) == 2
        (path, before, after), = commits[1].pairs
        assert before == "class Foo { int a; }"
        assert after == "class Foo { int b; }"

    def test_non_java_ignored(self, repo):
        (repo / "notes.txt").write_text("hi")
        git(repo, "add", "notes.txt")
        git(repo, "commit", "-qm", "one")
        assert list(walk_history(repo)) == []

    def test_not_a_repo(self, tmp_path):
        with pytest.raises(RepoError):
            list(walk_history(tmp_path / "nowhere"))

    def test_mine_pipeline_on_rename_commit(self, repo):
        before = (
            "class MetricType { int code; }\n"
            "class Reporter { void disable(MetricType metricType) { } }\n"
        )
        after = (
            "class MetricAttribute { int code; }\n"
            "class Reporter { void disable(MetricAttribute metricAttribute) { } }\n"
        )
        (repo / "M.java").write_text(before)
        git(repo, "add", "M.java")
        git(repo, "commit", "-qm", "one")
        (repo / "M.java").write_text(after)
        git(repo, "add", "M.java")
        git(repo, "commit", "-qm", "rename")
        commits = list(walk_history(repo))
        path, old_text, new_text = commits[1].pairs[0]
        records = detect_renames(
            extract_facts({path: old_text}),
            extract_facts({path: new_text}),
            commit=commits[1].commit,
            file=path,
        )
        got = {(r.kind, r.old_name, r.new_name) for r in records}
        assert (IdentifierKind.CLASS, "MetricType", "MetricAttribute") in got
        assert (
            IdentifierKind.PARAMETER,
            "metricType",
            "metricAttribute",
        ) in got


    def test_mine_latin1_source(self, repo, capsys):
        # `facts` reads files as UTF-8 with replacement; `mine` decodes git
        # output the same way instead of failing on the comment's byte.
        source = "// caf\u00e9 au lait\nclass A { void %s() { } }\n"
        (repo / "A.java").write_bytes((source % "foo").encode("latin-1"))
        git(repo, "add", "A.java")
        git(repo, "commit", "-qm", "one")
        (repo / "A.java").write_bytes((source % "bar").encode("latin-1"))
        git(repo, "add", "A.java")
        git(repo, "commit", "-qm", "two")
        out = repo / "mined.jsonl"  # untracked, so not mined
        assert run(["mine", "--repo", str(repo), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert [(r["kind"], r["old"], r["new"]) for r in records] == [
            ("Method", "foo", "bar")
        ]


class TestMergeCommits:
    def test_merge_compared_against_first_parent(self, repo):
        (repo / "A.java").write_text("class Foo { int a; }")
        git(repo, "add", "A.java")
        git(repo, "commit", "-qm", "base")
        git(repo, "checkout", "-q", "-b", "side")
        (repo / "A.java").write_text("class Foo { int b; }")
        git(repo, "add", "A.java")
        git(repo, "commit", "-qm", "side-change")
        git(repo, "checkout", "-q", "-")
        git(repo, "merge", "-q", "--no-ff", "-m", "merge", "side")
        commits = list(walk_history(repo))
        merge = commits[-1]
        # the merge brings the side branch's change in; against the first
        # parent the file pair is (old main content, merged content)
        (path, before, after), = merge.pairs
        assert before == "class Foo { int a; }"
        assert after == "class Foo { int b; }"


def commit_all(repo, message, *flags):
    git(repo, "add", "-A")
    git(repo, "commit", "-q", *flags, "-m", message)


def scripted_history(repo):
    """A history with every kind of change the walk must report: a root
    commit, modifications, an add and a delete together, a non-source
    change, an empty commit, a file turned into a symlink, seeded random
    edits, a merge whose parents both changed sources, and line endings
    that text decoding folds."""
    (repo / "A.java").write_text("class A { int a; }\n")
    (repo / "B.java").write_text("class B { void b() { } }\n")
    (repo / "Link.java").write_text("class Link { }\n")
    (repo / "notes.txt").write_text("notes\n")
    commit_all(repo, "root")
    (repo / "A.java").write_text("class A { int count; }\n")
    (repo / "B.java").write_text("class B { void run() { } }\n")
    commit_all(repo, "modify")
    (repo / "C.java").write_bytes(b"class C {\r\n int c;\r }\r\n")
    (repo / "B.java").unlink()
    commit_all(repo, "add and delete")
    (repo / "notes.txt").write_text("more notes\n")
    commit_all(repo, "non-source")
    commit_all(repo, "empty", "--allow-empty")
    (repo / "Link.java").unlink()
    os.symlink("A.java", repo / "Link.java")
    commit_all(repo, "typechange")
    rng = random.Random(4)
    words = ["size", "total", "name", "value", "item", "entry"]
    for i in range(20):
        target = rng.choice(["A", "C", "D"])
        (repo / f"{target}.java").write_text(
            f"class {target} {{ int {rng.choice(words)}{i}; "
            f"void {rng.choice(words)}() {{ }} }}\n"
        )
        commit_all(repo, f"edit {i}")
    git(repo, "checkout", "-q", "-b", "side")
    (repo / "A.java").write_text("class A { int side; }\n")
    commit_all(repo, "side edit")
    git(repo, "checkout", "-q", "-")
    (repo / "C.java").write_text("class C { int main; }\n")
    commit_all(repo, "main edit")
    git(repo, "merge", "-q", "--no-ff", "-m", "merge", "side")
    (repo / "D.java").write_text("class D { int last; }\n")
    commit_all(repo, "after merge")


class TestSameAsPerCommitWalk:
    @pytest.mark.parametrize("rev_range", ["HEAD", "HEAD~3..HEAD"])
    def test_scripted_history(self, repo, rev_range):
        scripted_history(repo)
        got = list(walk_history(repo, rev_range))
        assert got == list(walk_history_per_commit(repo, rev_range))
        missing_sides = {
            (before is None, after is None)
            for commit in got for _, before, after in commit.pairs
        }
        if rev_range == "HEAD":  # adds, deletes and modifications all occur
            assert missing_sides == {(True, False), (False, True), (False, False)}


class GitCounter:
    """Patches ``subprocess.run`` and ``subprocess.Popen`` and records every
    git process started through them from then on; a ``run`` starts its
    process through ``Popen``, so it is recorded in both lists."""

    def __init__(self, monkeypatch):
        self.runs = []
        self.popens = []
        run, popen = subprocess.run, subprocess.Popen

        def counted_run(args, *rest, **kwargs):
            if args[0] == "git":
                self.runs.append(args)
            return run(args, *rest, **kwargs)

        def counted_popen(args, *rest, **kwargs):
            proc = popen(args, *rest, **kwargs)
            if args[0] == "git":
                self.popens.append(proc)
            return proc

        monkeypatch.setattr(subprocess, "run", counted_run)
        monkeypatch.setattr(subprocess, "Popen", counted_popen)


@pytest.fixture
def git_counter(monkeypatch):
    """Starts a GitCounter when called, so that the git processes a test
    makes its history with are not counted."""
    return lambda: GitCounter(monkeypatch)


def edit_history(repo, commits):
    for i in range(commits):
        (repo / "A.java").write_text(f"class A {{ int a{i}; }}\n")
        (repo / f"F{i}.java").write_text(f"class F{i} {{ }}\n")
        commit_all(repo, f"edit {i}")


class TestGitProcesses:
    @pytest.mark.parametrize("commits", [5, 15])
    def test_two_processes_per_walk(self, repo, git_counter, commits):
        edit_history(repo, commits)
        counter = git_counter()
        assert len(list(walk_history(repo))) == commits
        assert counter.runs == []
        assert len(counter.popens) == 2
        assert all(proc.returncode == 0 for proc in counter.popens)

    def test_early_close_reaps_both(self, repo, git_counter):
        edit_history(repo, 5)
        counter = git_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            walk = walk_history(repo)
            next(walk)
            walk.close()
            del walk
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert len(counter.popens) == 2
        assert all(proc.returncode is not None for proc in counter.popens)


class TestUnusualPaths:
    def test_non_ascii_and_space_paths_mined(self, repo, capsys):
        names = ["Caf\u00e9.java", "My File.java"]
        for name in names:
            (repo / name).write_text("class A { void foo() { } }\n")
        commit_all(repo, "one")
        for name in names:
            (repo / name).write_text("class A { void bar() { } }\n")
        commit_all(repo, "two")
        assert [path for path, _, _ in list(walk_history(repo))[1].pairs] == names
        out = repo / "mined.jsonl"  # untracked, so not mined
        assert run(["mine", "--repo", str(repo), "--out", str(out)]) == 0
        records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert [(r["file"], r["old"], r["new"]) for r in records] == [
            (name, "foo", "bar") for name in names
        ]

    def test_missing_blob_exits_2(self, repo, capsys):
        (repo / "A.java").write_text("class A { int a; }\n")
        commit_all(repo, "one")
        (repo / "A.java").write_text("class A { int b; }\n")
        commit_all(repo, "two")
        sha = subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "HEAD~1:A.java"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()
        (repo / ".git" / "objects" / sha[:2] / sha[2:]).unlink()
        out = repo / "mined.jsonl"
        assert run(["mine", "--repo", str(repo), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "A.java" in err and sha in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_submodule_entry_skipped(self, repo):
        (repo / "A.java").write_text("class A { }\n")
        commit_all(repo, "one")
        sha = subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "HEAD"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()
        git(repo, "update-index", "--add", "--cacheinfo", f"160000,{sha},Sub.java")
        git(repo, "commit", "-qm", "gitlink")
        assert len(list(walk_history(repo))) == 1
