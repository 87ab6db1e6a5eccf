"""Tests for rename-record ingestion, the naive detector, and history walking."""

import io
import json
import subprocess

import pytest

from corename.cli import run
from corename.errors import ParseError, RepoError, UnknownKind
from corename.facts import extract_facts
from corename.mining import (
    IdentifierKind,
    detect_renames,
    load_rename_records,
    serialize_rename_records,
    walk_history,
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
