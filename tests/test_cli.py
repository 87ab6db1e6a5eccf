"""End-to-end tests for the command-line pipeline."""

import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corename
from corename import cli
from corename.cli import run
from corename.lexicon import Lemmatizer

CORPUS = Path(__file__).parent / "fixtures" / "corpus"
FIG1 = Path(__file__).parent / "fixtures" / "fig1"


@pytest.fixture
def facts_dir(tmp_path):
    out = tmp_path / "facts"
    out.mkdir()
    for commit_dir in sorted((CORPUS / "src").iterdir()):
        rc = run(
            [
                "facts",
                "--src",
                str(commit_dir),
                "--out",
                str(out / f"{commit_dir.name}.json"),
            ]
        )
        assert rc == 0
    return out


def analyze(tmp_path, facts_dir, out_name, *extra):
    sets_path = tmp_path / "sets.jsonl"
    rc = run(
        [
            "group",
            "--renames",
            str(CORPUS / "renames.jsonl"),
            "--mode",
            "lemma",
            "--out",
            str(sets_path),
        ]
    )
    assert rc == 0
    out = tmp_path / out_name
    rc = run(
        [
            "analyze",
            "--renames",
            str(CORPUS / "renames.jsonl"),
            "--sets",
            str(sets_path),
            "--facts-dir",
            str(facts_dir),
            "--out",
            str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert run(["group", "--renames", "x"]) == 1

    def test_malformed_records(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"commit": "c"}\n{oops\n')
        rc = run(["group", "--renames", str(bad), "--out", str(tmp_path / "s")])
        assert rc == 2
        assert f"corename: error: {bad}: line 1: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mine", "group"])
    def test_record_value_not_a_string(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"commit": "c1", "kind": "Class", "old": "Bar", "new": "Baz", "file": "f"}\n'
            '{"commit": "c1", "kind": "Class", "old": null, "new": "Foo", "file": "f"}\n'
        )
        out = tmp_path / ("renames.jsonl" if command == "mine" else "sets.jsonl")
        flag = "--records" if command == "mine" else "--renames"
        assert run([command, flag, str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"corename: error: {bad}: line 2: old is not a string" in err
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        rc = run(
            ["group", "--renames", str(tmp_path / "no.jsonl"), "--out", str(tmp_path / "s")]
        )
        assert rc == 2

    def test_mine_requires_one_source(self, tmp_path):
        assert run(["mine", "--out", str(tmp_path / "r.jsonl")]) == 2

    def test_success(self, tmp_path, facts_dir):
        out = analyze(tmp_path, facts_dir, "report")
        assert (out / "report.json").exists()

    @pytest.mark.parametrize("src", ["missing", "A.java"])
    def test_facts_src_not_a_directory(self, tmp_path, capsys, src):
        (tmp_path / "A.java").write_text("class A { }")
        out = tmp_path / "facts.json"
        assert run(["facts", "--src", str(tmp_path / src), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"corename: error: {tmp_path / src}: not a directory" in err
        assert not out.exists()

    def test_recommend_src_not_a_directory(self, tmp_path, capsys):
        argv = ["recommend", "--src", str(tmp_path / "missing"), "--old", "metricType",
                "--new", "metricAttribute", "--kind", "Attribute"]
        assert run(argv) == 2
        assert f"{tmp_path / 'missing'}: not a directory" in capsys.readouterr().err

    def test_analyze_facts_dir_missing(self, tmp_path, capsys):
        # no silent fallback to empty facts for every commit
        sets, missing, out = tmp_path / "sets.jsonl", tmp_path / "facts", tmp_path / "report"
        renames = str(CORPUS / "renames.jsonl")
        assert run(["group", "--renames", renames, "--out", str(sets)]) == 0
        argv = ["analyze", "--renames", renames, "--sets", str(sets),
                "--facts-dir", str(missing), "--out", str(out)]
        assert run(argv) == 2
        assert f"corename: error: {missing}: not a directory" in capsys.readouterr().err
        assert not out.exists()


def _env_with_src():
    """The environment with this corename's sources first on PYTHONPATH."""
    src = str(Path(corename.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}


# runs the CLI in a fresh interpreter and prints, last, the modules it loaded
_MODULES_PROBE = (
    "import sys; from corename.cli import run; code = run(sys.argv[1:]); "
    "print(code, *sorted(sys.modules))"
)


class TestModulesPerCommand:
    """Each command loads only the modules it runs: one stray top-level
    import would bring start-up cost back to every process."""

    def all_loaded(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_PROBE, *map(str, argv)],
            capture_output=True, text=True, env=_env_with_src(),
        )
        code, *modules = proc.stdout.splitlines()[-1].split()
        assert code == "0", proc.stderr
        return set(modules)

    def loaded(self, *argv):
        return {
            m.removeprefix("corename.") for m in self.all_loaded(*argv)
            if m.startswith("corename.")
        }

    def test_modules_per_command(self, tmp_path):
        renames, sets, facts = tmp_path / "renames.jsonl", tmp_path / "sets.jsonl", tmp_path / "facts"
        loaded = self.loaded("facts", "--src", CORPUS / "src" / "c01", "--out", facts / "c01.json")
        assert {"facts.parser", "facts.model", "fileio"} <= loaded
        assert not loaded & {"analytics", "grouping", "recommend", "mining", "chunks",
                             "lexicon", "facts.relations"}
        loaded = self.loaded("mine", "--records", CORPUS / "renames.jsonl", "--out", renames)
        assert "mining" in loaded
        assert not loaded & {"analytics", "grouping", "recommend", "chunks", "lexicon",
                             "facts.parser", "facts.relations"}
        loaded = self.loaded("group", "--renames", renames, "--out", sets)
        assert "grouping" in loaded
        assert not loaded & {"analytics", "recommend", "facts.parser", "facts.relations"}
        loaded = self.loaded("analyze", "--renames", renames, "--sets", sets,
                             "--facts-dir", facts, "--out", tmp_path / "report")
        assert {"analytics", "facts.relations"} <= loaded
        assert not loaded & {"recommend", "facts.parser"}

    def test_standard_modules_per_command(self, tmp_path):
        # dataclasses loads inspect (and ast, dis, tokenize) and compiles the
        # methods of each class it decorates: about 25 ms of every process;
        # logging and subprocess cost about 10 ms each, and only mine --repo
        # starts processes
        bare = subprocess.run(
            [sys.executable, "-c", "import sys; print(*sorted(sys.modules))"],
            capture_output=True, text=True, env=_env_with_src(), check=True,
        ).stdout.split()
        repo = tmp_path / "repo"
        repo.mkdir()
        git(repo, "init", "-q")
        (repo / "A.java").write_text("class Foo { int count; }")
        git(repo, "add", "A.java")
        git(repo, "commit", "-qm", "one")
        (repo / "A.java").write_text("class Foo { int total; }")
        git(repo, "commit", "-qam", "two")
        renames, sets, facts = tmp_path / "renames.jsonl", tmp_path / "sets.jsonl", tmp_path / "facts"
        commands = [
            ("mine", "--repo", repo, "--out", tmp_path / "mined.jsonl"),
            ("mine", "--records", CORPUS / "renames.jsonl", "--out", renames),
            ("facts", "--src", CORPUS / "src" / "c01", "--out", facts / "c01.json"),
            ("group", "--renames", renames, "--out", sets),
            ("analyze", "--renames", renames, "--sets", sets, "--facts-dir", facts,
             "--out", tmp_path / "report"),
            ("recommend", "--src", FIG1, "--old", "MetricType", "--new", "MetricAttribute",
             "--kind", "Class"),
        ]
        for argv in commands:
            added = self.all_loaded(*argv) - set(bare)
            assert "corename.cli" in added
            assert not added & {"dataclasses", "inspect", "logging"}, argv[:2]
            assert ("subprocess" in added) == (argv[:2] == ("mine", "--repo")), argv[:2]


def git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@e.c",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@e.c",
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "HOME": str(repo),
        },
    )


class TestMine:
    def test_records_passthrough(self, tmp_path):
        out = tmp_path / "renames.jsonl"
        rc = run(
            ["mine", "--records", str(CORPUS / "renames.jsonl"), "--out", str(out)]
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 33

    @pytest.mark.parametrize("module", ["corename", "corename.cli"])
    def test_python_dash_m(self, tmp_path, module):
        env = _env_with_src()
        out = tmp_path / "renames.jsonl"
        command = [sys.executable, "-m", module, "mine", "--out", str(out), "--records"]
        proc = subprocess.run(
            [*command, str(CORPUS / "renames.jsonl")], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 33
        missing = subprocess.run(
            [*command, str(tmp_path / "missing.jsonl")], capture_output=True, text=True, env=env
        )
        assert missing.returncode == 2
        assert "missing.jsonl" in missing.stderr

    def test_repo_mining(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        git(repo, "init", "-q")
        (repo / "A.java").write_text("class Foo { int count; }")
        git(repo, "add", "A.java")
        git(repo, "commit", "-qm", "one")
        (repo / "A.java").write_text("class Foo { int total; }")
        git(repo, "add", "A.java")
        git(repo, "commit", "-qm", "two")
        out = tmp_path / "mined.jsonl"
        rc = run(["mine", "--repo", str(repo), "--out", str(out)])
        assert rc == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert [(r["kind"], r["old"], r["new"]) for r in records] == [
            ("Attribute", "count", "total")
        ]

    def test_repo_work_counters(self, tmp_path, capsys):
        repo = tmp_path / "repo"
        repo.mkdir()
        git(repo, "init", "-q")
        (repo / "A.java").write_text("class Foo { int count; }")
        (repo / "B.java").write_text("class Bar { }")
        git(repo, "add", "-A")
        git(repo, "commit", "-qm", "add two")
        (repo / "A.java").write_text("class Foo { int total; }")
        git(repo, "add", "-A")
        git(repo, "commit", "-qm", "modify one")
        (repo / "A.java").write_text("class Foo { int sum; }")
        (repo / "B.java").unlink()
        git(repo, "add", "-A")
        git(repo, "commit", "-qm", "modify one, delete one")
        out = tmp_path / "mined.jsonl"
        assert run(["mine", "--repo", str(repo), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"wrote 2 rename records to {out}",
            "mined 3 commits: 2 file pairs compared, "
            "3 added or deleted files skipped",
        ]
        run(["mine", "--records", str(out), "--out", str(tmp_path / "r.jsonl")])
        assert "mined" not in capsys.readouterr().err


class TestAnalyze:
    def test_report_values(self, tmp_path, facts_dir):
        out = analyze(tmp_path, facts_dir, "report")
        data = json.loads((out / "report.json").read_text())
        assert data["co_rename_rate"] == 23 / 34
        assert data["set_count"] == 21
        assert data["relationship_rates"]["TypeV"] == 3 / 11
        assert data["inflection"]["new_set_count"] == 3

    def test_filter_flag(self, tmp_path, facts_dir):
        out = analyze(tmp_path, facts_dir, "filtered", "--filter", "Method")
        data = json.loads((out / "report.json").read_text())
        assert list(data["filtered_rates"]) == ["Method"]

    def test_workers_determinism(self, tmp_path, facts_dir):
        # two plain runs write byte-identical files
        one = analyze(tmp_path, facts_dir, "one", "--plots")
        two = analyze(tmp_path, facts_dir, "two", "--plots")
        files = sorted(p.name for p in one.iterdir())
        assert files == sorted(p.name for p in two.iterdir())
        for name in files:
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_work_counters_on_stderr(self, tmp_path, facts_dir, capsys):
        (facts_dir / "default.json").write_text((facts_dir / "c01.json").read_text())
        (facts_dir / "c01.json").unlink()
        analyze(tmp_path, facts_dir, "report")
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == (
            "analyzed 21 sets: 22 pairs evaluated, 15 distinct detections; "
            "commits: 7 own facts, 13 default.json, 0 empty facts"
        )

    def test_default_snapshot_fallback(self, tmp_path):
        facts_dir = tmp_path / "facts"
        facts_dir.mkdir()
        rc = run(
            [
                "facts",
                "--src",
                str(CORPUS / "src" / "c01"),
                "--out",
                str(facts_dir / "default.json"),
            ]
        )
        assert rc == 0
        out = analyze(tmp_path, facts_dir, "fallback")
        data = json.loads((out / "report.json").read_text())
        # the c01 sources now serve every commit: TypeV/TypeM detections remain
        assert data["relationship_rates"] is not None

    @pytest.mark.parametrize("kept", [[], ["c01", "c02"]])
    def test_warns_of_commits_on_empty_facts(self, tmp_path, facts_dir, capsys, kept):
        # without default.json, commits lacking <commit>.json get empty facts
        for path in facts_dir.glob("*.json"):
            if path.stem not in kept:
                path.unlink()
        analyze(tmp_path, facts_dir, "report")
        err = capsys.readouterr().err.splitlines()
        assert err[-3] == (
            f"corename: warning: {facts_dir}: no facts file for {20 - len(kept)} of 20 "
            "commits and no default.json; those commits are analyzed on empty facts"
        )
        assert err[-1].endswith(
            f"commits: {len(kept)} own facts, 0 default.json, {20 - len(kept)} empty facts"
        )

    def test_no_warning_when_every_commit_has_facts(self, tmp_path, facts_dir, capsys):
        (facts_dir / "default.json").write_text((facts_dir / "c01.json").read_text())
        analyze(tmp_path, facts_dir, "report")
        assert "corename: warning" not in capsys.readouterr().err

    def test_inputs_not_mutated(self, tmp_path, facts_dir):
        before = (CORPUS / "renames.jsonl").read_bytes()
        analyze(tmp_path, facts_dir, "report")
        assert (CORPUS / "renames.jsonl").read_bytes() == before


class TestSkipWarnings:
    WARNING = (
        "corename: warning: skipping rename get$x -> getX: "
        "not a valid identifier: 'get$x'"
    )

    def test_one_prefixed_warning_per_invalid_record(self, tmp_path, facts_dir, capsys):
        renames = tmp_path / "renames.jsonl"
        renames.write_text(
            (CORPUS / "renames.jsonl").read_text()
            + '{"commit": "c01", "kind": "Method", "old": "get$x", "new": "getX"}\n'
        )
        sets = tmp_path / "sets.jsonl"
        assert run(["group", "--renames", str(renames), "--out", str(sets)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "skipping rename" in line] == [self.WARNING]
        rc = run(
            [
                "analyze", "--renames", str(renames), "--sets", str(sets),
                "--facts-dir", str(facts_dir), "--out", str(tmp_path / "report"),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "skipping rename" in line] == [self.WARNING]

    @staticmethod
    def deep_source(field="width"):
        # nesting deeper than the recursion limit makes the parser skip the file
        depth = sys.getrecursionlimit()
        return (
            f"class Deep {{ int {field}; void m(int size) {{ m({field}); }} "
            + "class C { " * depth + "}" * depth + " }"
        )

    @staticmethod
    def skip_reason(err):
        # where the recursion limit is hit, and so the RecursionError's
        # wording, depends on the depth of the stack the parser starts on
        return err.replace(
            "maximum recursion depth exceeded while calling a Python object",
            "maximum recursion depth exceeded",
        )

    def test_one_prefixed_warning_per_skipped_source(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "Deep.java").write_text(self.deep_source())
        (src / "Plain.java").write_text("class Plain { int height; }")
        out = tmp_path / "facts.json"
        assert run(["facts", "--src", str(src), "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        named = [line for line in err if "Deep.java" in line]
        assert len(named) == 1
        assert named[0].startswith("corename: warning: skipping Deep.java: ")
        assert [row[0] for row in json.loads(out.read_text())["skipped"]] == ["Deep.java"]

    def test_mine_repo_warns_per_skipped_blob(self, tmp_path, capsys):
        repo = tmp_path / "repo"
        repo.mkdir()
        git(repo, "init", "-q")
        (repo / "A.java").write_text("class A { int count; }")
        (repo / "Deep.java").write_text(self.deep_source("width"))
        git(repo, "add", "A.java", "Deep.java")
        git(repo, "commit", "-qm", "one")
        (repo / "A.java").write_text("class A { int total; }")
        (repo / "Deep.java").write_text(self.deep_source("height"))
        git(repo, "commit", "-qam", "two")
        out = tmp_path / "mined.jsonl"
        assert run(["mine", "--repo", str(repo), "--out", str(out)]) == 0
        skipped = "corename: warning: skipping Deep.java: maximum recursion depth exceeded\n"
        assert self.skip_reason(capsys.readouterr().err) == (
            skipped
            + skipped
            + f"wrote 1 rename records to {out}\n"
            + "mined 2 commits: 2 file pairs compared, 2 added or deleted files skipped\n"
        )

    def test_recommend_warns_per_skipped_source(self, tmp_path, capsys):
        src = tmp_path / "src"
        shutil.copytree(FIG1, src)
        (src / "Deep.java").write_text(self.deep_source())
        rc = run(["recommend", "--src", str(src), "--old", "MetricType",
                  "--new", "MetricAttribute", "--kind", "Class"])
        assert rc == 0
        assert self.skip_reason(capsys.readouterr().err) == (
            "corename: warning: skipping Deep.java: maximum recursion depth exceeded\n"
        )

    def test_recommend_invalid_trigger_warns_then_exits_2(self, capsys):
        rc = run(["recommend", "--src", str(FIG1), "--old", "get$x", "--new", "getX",
                  "--kind", "Method"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"{self.WARNING}\n"
            "corename: error: no operational chunks between 'get$x' and 'getX'\n"
        )


class TestRecommendCommand:
    def test_json_format(self, capsys):
        rc = run(
            [
                "recommend",
                "--src",
                str(FIG1),
                "--old",
                "MetricType",
                "--new",
                "MetricAttribute",
                "--kind",
                "Class",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        by_target = {c["target"]: c for c in payload}
        assert by_target["metricType"]["proposed"] == "metricAttribute"
        assert by_target["GMetricType"]["score"] == 0.0

    def test_min_score_excludes(self, capsys):
        rc = run(
            [
                "recommend",
                "--src",
                str(FIG1),
                "--old",
                "MetricType",
                "--new",
                "MetricAttribute",
                "--kind",
                "Class",
                "--min-score",
                "0.01",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(c["target"] != "GMetricType" for c in payload)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_min_score_not_finite(self, capsys, value):
        argv = ["recommend", "--src", str(FIG1), "--old", "MetricType",
                "--new", "MetricAttribute", "--kind", "Class", f"--min-score={value}"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --min-score: not a finite number: {value!r}" in captured.err

    def test_profile_file(self, tmp_path, capsys):
        profile = {
            "default_weight": 0.0,
            "weights": {"Class": {"TypeM": 1.0}},
        }
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile))
        rc = run(
            [
                "recommend",
                "--src",
                str(FIG1),
                "--old",
                "MetricType",
                "--new",
                "MetricAttribute",
                "--kind",
                "Class",
                "--profile",
                str(path),
                "--format",
                "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["target"] == "getDisabledMetricTypes"

    def test_lemma_table_read_once(self, tmp_path, monkeypatch, capsys):
        # one Lemmatizer chunks the trigger and normalizes the candidates
        table = tmp_path / "forms.txt"
        table.write_text("types type\n")
        reads = []
        from_file = Lemmatizer.from_file

        def counting(path):
            reads.append(path)
            return from_file(path)

        monkeypatch.setattr(Lemmatizer, "from_file", staticmethod(counting))
        rc = run(
            [
                "recommend",
                "--src",
                str(FIG1),
                "--old",
                "MetricType",
                "--new",
                "MetricAttribute",
                "--kind",
                "Class",
                "--lemma-table",
                str(table),
                "--format",
                "json",
            ]
        )
        assert rc == 0
        assert reads == [str(table)]
        payload = json.loads(capsys.readouterr().out)
        assert {c["target"] for c in payload} >= {"metricType", "getDisabledMetricTypes"}


class TestConfigAndReport:
    def test_config_overrides_flags(self, tmp_path, facts_dir, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_score": 0.01, "format": "json"}))
        rc = run(
            [
                "recommend",
                "--src",
                str(FIG1),
                "--old",
                "MetricType",
                "--new",
                "MetricAttribute",
                "--kind",
                "Class",
                "--format",
                "text",
                "--config",
                str(config),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(c["target"] != "GMetricType" for c in payload)

    def test_config_list_and_flag_values(self, tmp_path, facts_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"filter": ["Method"], "plots": False}))
        from_config = analyze(tmp_path, facts_dir, "a", "--config", str(config))
        from_flags = analyze(tmp_path, facts_dir, "b", "--filter", "Method")
        assert (from_config / "report.json").read_bytes() == (
            from_flags / "report.json"
        ).read_bytes()

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus_key": 1}))
        rc = run(
            [
                "recommend",
                "--src",
                str(FIG1),
                "--old",
                "A",
                "--new",
                "B",
                "--kind",
                "Class",
                "--config",
                str(config),
            ]
        )
        assert rc == 2

    def test_report_round_trip(self, tmp_path, facts_dir):
        out = analyze(tmp_path, facts_dir, "report")
        again = tmp_path / "again"
        rc = run(
            ["report", "--stats", str(out / "report.json"), "--out", str(again)]
        )
        assert rc == 0
        assert (again / "report.json").read_bytes() == (
            out / "report.json"
        ).read_bytes()


class TestSharedOptions:
    def test_custom_lemma_table(self, tmp_path):
        # a table mapping both inflections to one lemma merges the keys
        table = tmp_path / "forms.txt"
        table.write_text("gizmos widget\ngadgets widget\n")
        renames = tmp_path / "renames.jsonl"
        renames.write_text(
            '{"commit": "c", "kind": "Variable", "old": "gizmos", "new": "chips"}\n'
            '{"commit": "c", "kind": "Variable", "old": "gadgets", "new": "chips"}\n'
        )
        plain = tmp_path / "plain.jsonl"
        custom = tmp_path / "custom.jsonl"
        assert run(["group", "--renames", str(renames), "--out", str(plain)]) == 0
        assert (
            run(
                [
                    "group",
                    "--renames",
                    str(renames),
                    "--lemma-table",
                    str(table),
                    "--out",
                    str(custom),
                ]
            )
            == 0
        )
        assert len(plain.read_text().splitlines()) == 2
        merged = [json.loads(l) for l in custom.read_text().splitlines()]
        assert len(merged) == 1
        assert len(merged[0]["members"]) == 2

    def test_workers_option_rejected(self, tmp_path):
        sets_path = tmp_path / "sets.jsonl"
        assert run(["group", "--renames", str(CORPUS / "renames.jsonl"), "--out", str(sets_path)]) == 0
        argv = [
            "analyze",
            "--renames",
            str(CORPUS / "renames.jsonl"),
            "--sets",
            str(sets_path),
            "--out",
            str(tmp_path / "report"),
        ]
        assert run([*argv, "--workers", "2"]) == 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workers": 8}))
        assert run([*argv, "--config", str(config)]) == 2


class TestMalformedInputs:
    """Each malformed input exits 2 with a diagnostic naming file and line."""

    # wording of Python's own exceptions, which a diagnostic must not leak
    PYTHON_INTERNALS = ("object has no attribute", "__init__()", "indices must be")

    def analyze_argv(self, tmp_path, sets_path, *extra):
        return [
            "analyze",
            "--renames",
            str(CORPUS / "renames.jsonl"),
            "--sets",
            str(sets_path),
            "--out",
            str(tmp_path / "report"),
            *extra,
        ]

    @pytest.mark.parametrize(
        "line",
        [
            '{"commit": "c01", "key": "k", "members": [0,',
            '"c01"',
            '{"commit": "c01", "members": [0]}',
            '{"commit": "c01", "key": "k", "members": [33]}',
            '{"commit": "c01", "key": "k", "members": [-1]}',
            '{"commit": "c01", "key": "k", "members": [true]}',
        ],
    )
    def test_sets_file(self, tmp_path, capsys, line):
        sets_path = tmp_path / "sets.jsonl"
        sets_path.write_text('{"commit": "c01", "key": "k", "members": [0, 1]}\n' + line + "\n")
        assert run(self.analyze_argv(tmp_path, sets_path)) == 2
        err = capsys.readouterr().err
        assert f"{sets_path}: line 2: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "case", ["raw-sets-lemma-mode", "lemma-sets-raw-mode", "older-renames", "lemma-table"]
    )
    def test_sets_not_derived_from_the_renames(self, tmp_path, capsys, case):
        # analyze derives the sets itself; --sets must hold exactly those
        renames, sets_path = CORPUS / "renames.jsonl", tmp_path / "sets.jsonl"
        group = ["group", "--renames", str(renames), "--out", str(sets_path)]
        argv = self.analyze_argv(tmp_path, sets_path)
        if case == "raw-sets-lemma-mode":
            group += ["--mode", "raw"]
        elif case == "lemma-sets-raw-mode":
            argv += ["--mode", "raw"]
        elif case == "older-renames":
            older = tmp_path / "older.jsonl"
            older.write_text("".join(renames.read_text().splitlines(keepends=True)[:-1]))
            group[2] = str(older)
        else:
            table = tmp_path / "forms.txt"
            table.write_text("attribute trait\n")
            group += ["--lemma-table", str(table)]
        assert run(group) == 0
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"corename: error: {sets_path}: line " in err
        assert "Traceback" not in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "text",
        [
            '{"entities": [{"id": 0, "kind": "Class"',
            '{"entities": [{"id": 0, "kind": "Class", "name": "A"}]}',
        ],
    )
    def test_facts_file(self, tmp_path, facts_dir, capsys, text):
        sets_path = tmp_path / "sets.jsonl"
        assert run(["group", "--renames", str(CORPUS / "renames.jsonl"), "--out", str(sets_path)]) == 0
        bad = facts_dir / "c02.json"
        bad.write_text(text)
        argv = self.analyze_argv(tmp_path, sets_path, "--facts-dir", str(facts_dir))
        assert run(argv) == 2
        assert f"corename: error: {bad}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["group", "analyze", "config", "lemma-table"])
    def test_bytes_not_utf8(self, tmp_path, facts_dir, capsys, command):
        bad = tmp_path / "bad"
        bad.write_bytes(b'{"commit": "c01"}\n{"k": "\xff"}\n')
        renames, sets = str(CORPUS / "renames.jsonl"), tmp_path / "sets.jsonl"
        assert run(["group", "--renames", renames, "--out", str(sets)]) == 0
        argv = {
            "group": ["group", "--renames", str(bad), "--out", str(sets)],
            "analyze": self.analyze_argv(tmp_path, bad),
            "config": ["group", "--renames", renames, "--out", str(sets), "--config", str(bad)],
            "lemma-table": ["group", "--renames", renames, "--out", str(sets),
                            "--lemma-table", str(bad)],
        }[command]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"corename: error: {bad}: line 2: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_facts_file_not_utf8(self, tmp_path, facts_dir, capsys):
        sets_path = tmp_path / "sets.jsonl"
        assert run(["group", "--renames", str(CORPUS / "renames.jsonl"), "--out", str(sets_path)]) == 0
        bad = facts_dir / "c02.json"
        bad.write_bytes(b"{\xc3}")
        assert run(self.analyze_argv(tmp_path, sets_path, "--facts-dir", str(facts_dir))) == 2
        assert f"corename: error: {bad}: line 1: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--stats", "--profile"])
    def test_report_and_profile_json(self, tmp_path, capsys, flag):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "lemma"\n"x"}')
        if flag == "--stats":
            argv = ["report", "--stats", str(bad), "--out", str(tmp_path / "report")]
        else:
            argv = ["recommend", "--src", str(FIG1), "--old", "MetricType",
                    "--new", "MetricAttribute", "--kind", "Class", "--profile", str(bad)]
        assert run(argv) == 2
        assert f"corename: error: {bad}: line 2: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, problem",
        [
            (lambda report: {}, "missing key 'size_distribution'"),
            (lambda report: [1], "the document is not a JSON object"),
            (
                lambda report: {**report, "relationship_rates": {"Extends": "x"}},
                "relationship_rates.Extends is not a number: 'x'",
            ),
            (
                lambda report: {
                    **report, "relationship_rates": {"Extends": 10**400, "Passes": 1.0}
                },
                f"relationship_rates.Extends is not a number a float can hold: {10**400}",
            ),
            (
                lambda report: {**report, "size_distribution": [[2, 1, 2, "x"]]},
                "size_distribution[0][3] is not a number: 'x'",
            ),
            (
                lambda report: {**report, "size_distribution": [[2, 1, 2]]},
                "size_distribution[0] does not have 4 cells",
            ),
            (
                lambda report: {**report, "filtered_rates": [1]},
                "filtered_rates is not a JSON object",
            ),
            (
                lambda report: {**report, "chunk_type_rates": {"raw": {"Shuffle": 0.5}}},
                "'Shuffle' is not a valid ChunkKind",
            ),
            (
                lambda report: {**report, "record_count": "x"},
                "record_count is not a count: 'x'",
            ),
            (
                lambda report: {**report, "chunk_type_rates": {"raw": {"Replace": [1]}}},
                "chunk_type_rates.raw.Replace is not a number: [1]",
            ),
            (lambda report: {**report, "mode": "stem"}, "unknown mode: 'stem'"),
            (
                lambda report: {**report, "size_distribution": [[2.5, 1, 2, 1.0]]},
                "size_distribution[0][0] is not a count: 2.5",
            ),
            (lambda report: [], "the document is not a JSON object"),
            (
                lambda report: {**report, "size_distribution": 5},
                "size_distribution is not a JSON array",
            ),
            (
                lambda report: {**report, "size_distribution": [[1]]},
                "size_distribution[0] does not have 4 cells",
            ),
            (
                lambda report: {**report, "relationship_rates": []},
                "relationship_rates is not a JSON object",
            ),
            (
                lambda report: {**report, "inflection": []},
                "inflection is not a JSON object",
            ),
            (
                lambda report: {
                    **report, "inflection": {**report["inflection"], "new_set_count": -1}
                },
                "inflection.new_set_count is not a count: -1",
            ),
            (
                lambda report: {
                    **report, "size_distribution": [[2, 1, 2, 0.5], [3, 1, 3, "y"]]
                },
                "size_distribution[1][3] is not a number: 'y'",
            ),
            (
                lambda report: {**report, "filtered_rates": {"Method": {"Extends": "x"}}},
                "filtered_rates.Method.Extends is not a number: 'x'",
            ),
            (
                lambda report: {**report, "co_rename_rate": "0.5"},
                "co_rename_rate is not a number: '0.5'",
            ),
            (
                lambda report: {
                    **report, "relationship_rates": {"Extends": float("inf"), "Passes": 1.0}
                },
                "relationship_rates.Extends is not a finite number: inf",
            ),
            (
                lambda report: {**report, "size_distribution": [[2, 1, 2, float("nan")]]},
                "size_distribution[0][3] is not a finite number: nan",
            ),
            (
                lambda report: {
                    **report,
                    "inflection": {**report["inflection"], "raw_co_rename_rate": -float("inf")},
                },
                "inflection.raw_co_rename_rate is not a finite number: -inf",
            ),
        ],
        ids=["empty", "list", "rate", "huge-rate", "size-row-rate", "short-size-row",
             "filtered-list", "chunk-kind", "count-string", "chunk-rate-list", "mode",
             "size-row-size", "empty-list", "sizes-number", "one-cell-size-row",
             "rates-list", "inflection-list", "inflection-count", "second-size-row-rate",
             "filtered-rate", "rate-digits", "infinite-rate", "nan-size-row-rate",
             "infinite-inflection-rate"],
    )
    def test_report_shape(self, tmp_path, facts_dir, capsys, change, problem):
        report = json.loads((analyze(tmp_path, facts_dir, "report") / "report.json").read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(change(report)))
        argv = ["report", "--stats", str(bad), "--out", str(tmp_path / "again"), "--plots"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"corename: error: {bad}: not a report: {problem}\n" in err
        assert "Traceback" not in err
        assert not any(internal in err for internal in self.PYTHON_INTERNALS), err

    @pytest.mark.parametrize("flag", ["--stats", "--profile"])
    def test_float_literal_out_of_range(self, tmp_path, facts_dir, capsys, flag):
        # JSON reads 1e400 as an infinity, which no report or profile may hold
        bad = tmp_path / "bad.json"
        if flag == "--stats":
            out = analyze(tmp_path, facts_dir, "report")
            report = json.loads((out / "report.json").read_text())
            report["relationship_rates"] = {"Extends": "1e400"}
            bad.write_text(json.dumps(report).replace('"1e400"', "1e400"))
            argv = ["report", "--stats", str(bad), "--out", str(tmp_path / "again")]
            problem = "not a report: relationship_rates.Extends is not a finite number: inf"
        else:
            bad.write_text('{"weights": {"Class": {"TypeV": 1e400}}}')
            argv = ["recommend", "--src", str(FIG1), "--old", "MetricType",
                    "--new", "MetricAttribute", "--kind", "Class", "--profile", str(bad)]
            problem = "not a prior profile: weights.Class.TypeV is not a finite number: inf"
        assert run(argv) == 2
        assert f"corename: error: {bad}: {problem}\n" in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize(
        "profile, problem",
        [
            ({"weights": {"Class": {"TypeV": "x"}}}, "weights.Class.TypeV is not a number: 'x'"),
            ([1], "the document is not a JSON object"),
            ({"weights": {"Class": [1]}}, "weights.Class is not a JSON object"),
            ({"weights": {"Unknown": {}}}, "'Unknown' is not a valid IdentifierKind"),
            (
                {"weights": {"Class": {"Unknown": 1.0}}},
                "'Unknown' is not a valid RelationshipKind",
            ),
            ({"default_weight": None}, "default_weight is not a number: None"),
            (
                {"weights": {"Class": {"TypeV": 10**400}}},
                f"weights.Class.TypeV is not a number a float can hold: {10**400}",
            ),
            ({"weights": {"Class": {"TypeV": True}}}, "weights.Class.TypeV is not a number: True"),
            (
                {"weights": {"Class": {"TypeV": "0.5"}}},
                "weights.Class.TypeV is not a number: '0.5'",
            ),
            ({"default_weight": "0.5"}, "default_weight is not a number: '0.5'"),
            ({"weights": []}, "weights is not a JSON object"),
            ({"weights": {"Method": []}}, "weights.Method is not a JSON object"),
            (
                {"weights": {"Method": {"TypeV": "x"}}},
                "weights.Method.TypeV is not a number: 'x'",
            ),
            (
                {"weights": {"Class": {"TypeV": float("nan")}}},
                "weights.Class.TypeV is not a finite number: nan",
            ),
            ({"default_weight": float("inf")}, "default_weight is not a finite number: inf"),
        ],
        ids=["weight-string", "list", "table-list", "trigger", "kind", "default-null",
             "huge-weight", "weight-true", "weight-digits", "default-digits",
             "weights-list", "empty-table-list", "method-weight-string", "nan-weight",
             "infinite-default"],
    )
    def test_profile_shape(self, tmp_path, capsys, profile, problem):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(profile))
        argv = ["recommend", "--src", str(FIG1), "--old", "MetricType",
                "--new", "MetricAttribute", "--kind", "Class", "--profile", str(bad)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"corename: error: {bad}: not a prior profile: {problem}\n" in err
        assert "Traceback" not in err
        assert not any(internal in err for internal in self.PYTHON_INTERNALS), err

    def test_lemma_table_line(self, tmp_path, capsys):
        table = tmp_path / "forms.txt"
        table.write_text("gizmos widget\ngadgets\n")
        argv = [
            "group",
            "--renames",
            str(CORPUS / "renames.jsonl"),
            "--lemma-table",
            str(table),
            "--out",
            str(tmp_path / "sets.jsonl"),
        ]
        assert run(argv) == 2
        assert f"{table}: line 2: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,settings,problem",
        [
            ("analyze", {"filter": ["Bogus"]}, "must be one of Class, Method"),
            ("analyze", {"filter": "Method"}, "must be a list"),
            ("analyze", {"plots": "no"}, "must be true or false"),
            ("recommend", {"min_score": "x"}, 'must be a number, not "x"'),
            ("recommend", {"min_score": float("nan")}, "must be a finite number, not NaN"),
            ("recommend", {"min_score": float("-inf")}, "must be a finite number, not -Infinity"),
        ],
    )
    def test_config_value_types(self, tmp_path, capsys, command, settings, problem):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        if command == "analyze":
            argv = self.analyze_argv(tmp_path, tmp_path / "sets.jsonl")
        else:
            argv = ["recommend", "--src", str(FIG1), "--old", "A", "--new", "B", "--kind", "Class"]
        assert run([*argv, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        (key,) = settings
        assert f"corename: error: {config}: config key {key!r} {problem}" in err
        assert "Traceback" not in err

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{oops")
        argv = ["mine", "--records", str(CORPUS / "renames.jsonl"), "--out", str(tmp_path / "r.jsonl")]
        assert run([*argv, "--config", str(config)]) == 2
        assert f"{config}: line 1: " in capsys.readouterr().err

    def assert_reader_rejects(self, tmp_path, facts_dir, capsys, reader, literal, problem):
        """``reader``'s input holding the JSON text ``literal`` as its second
        line (JSON Lines inputs, whose diagnostic names the line) or as the
        whole document (named by file only) exits 2 with ``problem``."""
        renames, sets = CORPUS / "renames.jsonl", tmp_path / "sets.jsonl"
        assert run(["group", "--renames", str(renames), "--out", str(sets)]) == 0
        bad = facts_dir / "c02.json" if reader == "facts" else tmp_path / "bad"
        lines = {"renames": renames, "sets": sets}
        if reader in lines:
            first = lines[reader].read_text().splitlines()[0]
            bad.write_text(f"{first}\n{literal}\n")
            problem = f"{bad}: line 2: {problem}"
        else:
            bad.write_text(literal)
            problem = f"{bad}: {problem}"
        recommend = ["recommend", "--src", str(FIG1), "--old", "MetricType",
                     "--new", "MetricAttribute", "--kind", "Class"]
        argv = {
            "renames": ["group", "--renames", str(bad), "--out", str(tmp_path / "out.jsonl")],
            "sets": self.analyze_argv(tmp_path, bad),
            "facts": self.analyze_argv(tmp_path, sets, "--facts-dir", str(facts_dir)),
            "report": ["report", "--stats", str(bad), "--out", str(tmp_path / "report")],
            "profile": [*recommend, "--profile", str(bad)],
            "config": [*recommend, "--config", str(bad)],
        }[reader]
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == f"corename: error: {problem}\n"
        assert not (tmp_path / "report").exists()

    READERS = ["renames", "sets", "facts", "report", "profile", "config"]

    @pytest.mark.parametrize("reader", READERS)
    def test_nested_too_deeply(self, tmp_path, facts_dir, capsys, reader):
        # deeper than the JSON decoder can recurse
        deep = "[" * 200_000 + "]" * 200_000
        self.assert_reader_rejects(
            tmp_path, facts_dir, capsys, reader, deep, "invalid JSON: nested too deeply"
        )

    @pytest.mark.parametrize("reader", READERS)
    def test_integer_too_long(self, tmp_path, facts_dir, capsys, reader):
        # more digits than the JSON decoder converts to an int (4,300)
        self.assert_reader_rejects(
            tmp_path, facts_dir, capsys, reader, "9" * 5_000, "invalid JSON: integer too long"
        )

    @pytest.mark.parametrize("flag", ["--stats", "--profile", "--config"])
    def test_long_value_shortened(self, tmp_path, facts_dir, capsys, flag):
        # a wrong value is echoed up to 500 characters, then cut
        bad = tmp_path / "bad.json"
        recommend = ["recommend", "--src", str(FIG1), "--old", "MetricType",
                     "--new", "MetricAttribute", "--kind", "Class"]
        if flag == "--stats":
            report = json.loads((analyze(tmp_path, facts_dir, "report") / "report.json").read_text())
            bad.write_text(json.dumps({**report, "record_count": "x" * 5_000}))
            argv = ["report", "--stats", str(bad), "--out", str(tmp_path / "again")]
            problem = f"not a report: record_count is not a count: '{'x' * 499}..."
        elif flag == "--profile":
            bad.write_text(json.dumps({"weights": {"Class": {"TypeV": "x" * 5_000}}}))
            argv = [*recommend, "--profile", str(bad)]
            problem = f"not a prior profile: weights.Class.TypeV is not a number: '{'x' * 499}..."
        else:
            bad.write_text(json.dumps({"min_score": "1" * 3_000}))
            argv = [*recommend, "--config", str(bad)]
            problem = f"config key 'min_score' must be a number, not \"{'1' * 499}..."
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == f"corename: error: {bad}: {problem}\n"


def _garbage_of(argv) -> list:
    """The objects that only the cycle collector could free after
    ``run(argv)``, with the collector off during the run as ``main`` has it."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(list(map(str, argv))) == 0
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _scripted_repo(path, commits):
    """A repository whose every commit renames the one attribute of Foo."""
    path.mkdir()
    git(path, "init", "-q")
    (path / "B.java").write_text("class Bar { int size; void run(int n) { } }")
    for number in range(commits):
        (path / "A.java").write_text(f"class Foo {{ int count{number}; }}")
        git(path, "add", "-A")
        git(path, "commit", "-qm", f"commit {number}")
    return path


class TestNoGrowingCyclicGarbage:
    """``main`` runs a command with the cycle collector off.  That is sound
    only while no run leaves reference cycles whose number grows with its
    input: each command runs on the fixture inputs and on inputs twice as
    large, and must leave the same number of cyclic objects behind, none of
    them a corename object."""

    COMMANDS = ["mine-records", "mine-repo", "facts", "group", "analyze",
                "recommend", "report"]

    def inputs(self, root, facts_dir, copies):
        """The fixture inputs, each held ``copies`` times under new names."""
        root.mkdir()
        lines = (CORPUS / "renames.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        (root / "renames.jsonl").write_text("".join(
            json.dumps({**r, "commit": r["commit"] + "x" * n}) + "\n"
            for n in range(copies) for r in records
        ))
        (root / "facts").mkdir()
        for path in facts_dir.glob("*.json"):
            for n in range(copies):
                shutil.copy(path, root / "facts" / f"{path.stem}{'x' * n}.json")
        for n in range(copies):
            shutil.copytree(FIG1, root / "src" / f"fig1-{n}")
            shutil.copytree(CORPUS / "src" / "c02", root / "src" / f"c02-{n}")
        return root

    def argv(self, command, d):
        renames, sets, report = d / "renames.jsonl", d / "sets.jsonl", d / "report"
        return {
            "mine-records": ["mine", "--records", renames, "--out", d / "mined.jsonl"],
            "mine-repo": ["mine", "--repo", d / "repo", "--out", d / "mined.jsonl"],
            "facts": ["facts", "--src", d / "src", "--out", d / "facts.json"],
            "group": ["group", "--renames", renames, "--out", sets],
            "analyze": ["analyze", "--renames", renames, "--sets", sets,
                        "--facts-dir", d / "facts", "--out", report, "--plots"],
            "recommend": ["recommend", "--src", d / "src", "--old", "MetricType",
                          "--new", "MetricAttribute", "--kind", "Class",
                          "--format", "json"],
            "report": ["report", "--stats", report / "report.json",
                       "--out", d / "again", "--plots"],
        }[command]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_cyclic_garbage_grows_with_the_input(self, tmp_path, facts_dir, command, capsys):
        dirs = [self.inputs(tmp_path / f"x{copies}", facts_dir, copies) for copies in (1, 2)]
        if command == "mine-repo":
            for copies, d in enumerate(dirs, start=1):
                _scripted_repo(d / "repo", 3 * copies)
        garbage = []
        for d in dirs:
            if command in ("analyze", "report"):
                assert run(list(map(str, self.argv("group", d)))) == 0
            if command == "report":
                assert run(list(map(str, self.argv("analyze", d)))) == 0
            run(list(map(str, self.argv(command, d))))  # first-use imports and caches
            garbage.append(_garbage_of(self.argv(command, d)))
        ours = [o for found in garbage for o in found
                if type(o).__module__.startswith("corename")]
        assert ours == []
        assert len(garbage[0]) == len(garbage[1])

    def test_main_runs_the_command_without_the_collector(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run", lambda argv: seen.append(gc.isenabled()) or 0)
        monkeypatch.setattr(sys, "argv", ["corename", "report"])
        enabled = gc.isenabled()
        try:
            with pytest.raises(SystemExit) as exit_:
                cli.main()
        finally:
            if enabled:
                gc.enable()
        assert exit_.value.code == 0
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_keeps_the_callers_collector_state(self, tmp_path, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            argv = ["mine", "--records", CORPUS / "renames.jsonl", "--out", tmp_path / "r.jsonl"]
            assert run(list(map(str, argv))) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
