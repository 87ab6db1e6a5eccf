"""Tests for the statistics layer, pinned to the hand-counted corpus."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import repo_stats_per_filter, size_distribution_by_rescan
from corename.analytics import (
    InflectionImpact,
    RepoStats,
    SizeRow,
    build_repo_stats,
    co_rename_rate,
    emit_report,
    load_report,
    size_distribution,
)
from corename.chunks import ChunkKind
from corename.errors import NoDataError
from corename.facts import RelationshipKind, extract_facts, extract_facts_from_dir
from corename.grouping import build_rename_sets, chunk_by_mode
from corename.mining import IdentifierKind, RenameRecord, load_rename_records_file

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def record(commit, old, new, kind=IdentifierKind.VARIABLE, index=None):
    return RenameRecord(
        commit=commit, kind=kind, old_name=old, new_name=new, index=index
    )


def records_of(specs):
    return [record(c, o, n, index=i) for i, (c, o, n) in enumerate(specs)]


def sets_of(records, mode):
    chunks = chunk_by_mode(records, (mode,)).chunks[mode]
    return build_rename_sets(records, chunks, mode)


def collection(specs, mode="lemma"):
    return sets_of(records_of(specs), mode)


@pytest.fixture(scope="module")
def corpus_records():
    return load_rename_records_file(CORPUS / "renames.jsonl")


@pytest.fixture(scope="module")
def corpus_facts():
    return {
        path.name: extract_facts_from_dir(path)
        for path in sorted((CORPUS / "src").iterdir())
    }


@pytest.fixture(scope="module")
def corpus_lemma(corpus_records):
    return sets_of(corpus_records, "lemma")


@pytest.fixture(scope="module")
def corpus_stats(corpus_records, corpus_facts):
    return build_repo_stats(corpus_records, corpus_facts).stats


class TestCoRenameRate:
    def test_three_and_one(self):
        coll = collection(
            [
                ("c1", "aValue", "aResult"),
                ("c1", "bValue", "bResult"),
                ("c1", "cValue", "cResult"),
                ("c2", "getName", "getTitle"),
            ]
        )
        assert co_rename_rate(coll) == 0.75

    def test_all_singletons(self):
        coll = collection([("c1", "aValue", "aResult"), ("c2", "bDelta", "bGamma")])
        assert co_rename_rate(coll) == 0.0

    def test_empty_is_none(self):
        assert co_rename_rate(collection([])) is None

    def test_corpus(self, corpus_lemma):
        assert co_rename_rate(corpus_lemma) == 23 / 34


class TestSizeDistribution:
    def test_single_pair(self):
        coll = collection([("c1", "aValue", "aResult"), ("c1", "bValue", "bResult")])
        assert size_distribution(coll) == (SizeRow(2, 2, 2, 1.0),)

    def test_shared_old_name(self):
        coll = collection(
            [
                ("c1", "value", "result"),
                ("c1", "value", "result"),
                ("c1", "bValue", "bResult"),
            ]
        )
        assert size_distribution(coll) == (SizeRow(3, 2, 3, 1.0),)

    def test_corpus(self, corpus_lemma):
        assert size_distribution(corpus_lemma) == (
            SizeRow(2, 1, 2, 14 / 23),
            SizeRow(2, 2, 12, 14 / 23),
            SizeRow(3, 2, 3, 1.0),
            SizeRow(3, 3, 6, 1.0),
        )

    @pytest.mark.parametrize(
        "specs", [[], [("c1", "aValue", "aResult"), ("c2", "bValue", "bResult")]],
        ids=["no-sets", "singletons"],
    )
    def test_no_co_renaming_sets(self, specs):
        assert size_distribution(collection(specs)) == ()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["c1", "c2", "c3"]),
                st.sampled_from(["", "a", "b", "get", "set"]),
                st.sampled_from([("Value", "Result"), ("Node", "Item"), ("Nodes", "Items")]),
            ),
            max_size=30,
        ),
        st.sampled_from(["raw", "lemma"]),
    )
    def test_same_rows_as_replaced(self, specs, mode):
        # the per-size rescan of the cells that the running total replaced
        coll = collection(
            [(c, p + old if p else old.lower(), p + new if p else new.lower())
             for c, p, (old, new) in specs],
            mode,
        )
        try:
            expected = tuple(size_distribution_by_rescan(coll))
        except NoDataError:  # it raised where there are no sets
            expected = ()
        assert size_distribution(coll) == expected


class TestRelationshipRates:
    def test_fig_fixture_rates(self):
        facts = extract_facts(
            {"M.java": (CORPUS / "src" / "c01" / "Metrics.java").read_text()}
        )
        records = records_of(
            [
                ("c1", "MetricType", "MetricAttribute"),
                ("c1", "metricType", "metricAttribute"),
                ("c1", "getDisabledMetricTypes", "getDisabledMetricAttributes"),
            ]
        )
        rates = build_repo_stats(records, default=facts).stats.relationship_rates
        assert rates == {
            RelationshipKind.TYPE_M: 0.5,
            RelationshipKind.TYPE_V: 0.5,
        }
        assert sum(rates.values()) == pytest.approx(1.0, abs=1e-9)

    def test_filter_without_renames_raises(self):
        # no data for a filter is reported as None, never as a silent zero
        records = records_of([("c1", "aValue", "aResult"), ("c1", "bValue", "bResult")])
        stats = build_repo_stats(records, {}, filters=(IdentifierKind.METHOD,)).stats
        assert stats.filtered_rates == {IdentifierKind.METHOD: None}

    def test_corpus_overall(self, corpus_stats):
        assert corpus_stats.relationship_rates == {
            RelationshipKind.ACCESSES: 1 / 11,
            RelationshipKind.ASSIGNS: 2 / 11,
            RelationshipKind.CO_OCCURS_M: 2 / 11,
            RelationshipKind.EXTENDS: 1 / 11,
            RelationshipKind.PASSES: 1 / 11,
            RelationshipKind.TYPE_M: 1 / 11,
            RelationshipKind.TYPE_V: 3 / 11,
        }

    @pytest.mark.parametrize(
        "kind,expected",
        [
            (
                IdentifierKind.CLASS,
                {
                    RelationshipKind.TYPE_V: 3 / 5,
                    RelationshipKind.TYPE_M: 1 / 5,
                    RelationshipKind.EXTENDS: 1 / 5,
                },
            ),
            (
                IdentifierKind.METHOD,
                {
                    RelationshipKind.CO_OCCURS_M: 2 / 5,
                    RelationshipKind.TYPE_V: 1 / 5,
                    RelationshipKind.TYPE_M: 1 / 5,
                    RelationshipKind.ACCESSES: 1 / 5,
                },
            ),
            (
                IdentifierKind.ATTRIBUTE,
                {
                    RelationshipKind.ASSIGNS: 2 / 3,
                    RelationshipKind.ACCESSES: 1 / 3,
                },
            ),
            (
                IdentifierKind.PARAMETER,
                {
                    RelationshipKind.TYPE_V: 1 / 3,
                    RelationshipKind.TYPE_M: 1 / 3,
                    RelationshipKind.PASSES: 1 / 3,
                },
            ),
            (
                IdentifierKind.VARIABLE,
                {
                    RelationshipKind.TYPE_V: 2 / 5,
                    RelationshipKind.ASSIGNS: 2 / 5,
                    RelationshipKind.PASSES: 1 / 5,
                },
            ),
        ],
        ids=lambda value: value.value if isinstance(value, IdentifierKind) else "",
    )
    def test_corpus_filtered(self, corpus_stats, kind, expected):
        assert corpus_stats.filtered_rates[kind] == expected

    def test_workers_do_not_change_result(self, corpus_records, corpus_facts):
        # two plain runs agree exactly, dict order included
        first = build_repo_stats(corpus_records, corpus_facts).stats.relationship_rates
        second = build_repo_stats(corpus_records, corpus_facts).stats.relationship_rates
        assert list(first.items()) == list(second.items())

    def test_rate_maps_sum_to_one(self, corpus_stats):
        for rates in (corpus_stats.relationship_rates, *corpus_stats.filtered_rates.values()):
            assert sum(rates.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 <= v <= 1.0 for v in rates.values())


class TestChunkTypeRates:
    def test_single_inflection(self):
        rates = build_repo_stats([record("c1", "node", "nodes", index=0)]).stats.chunk_type_rates
        assert rates["raw"] == {ChunkKind.REPLACE: 1.0}
        assert rates["lemma"] == {ChunkKind.INFLECT: 1.0}

    def test_case_change(self):
        rates = build_repo_stats([record("c1", "TIMES", "times", index=0)]).stats.chunk_type_rates
        assert rates["lemma"] == {ChunkKind.OTHER: 1.0}
        assert rates["raw"] is None

    def test_corpus(self, corpus_stats):
        assert corpus_stats.chunk_type_rates["lemma"] == {
            ChunkKind.INSERT: 2 / 34,
            ChunkKind.DELETE: 4 / 34,
            ChunkKind.REPLACE: 26 / 34,
            ChunkKind.OTHER: 1 / 34,
            ChunkKind.INFLECT: 1 / 34,
        }
        assert corpus_stats.chunk_type_rates["raw"] == {
            ChunkKind.INSERT: 2 / 33,
            ChunkKind.DELETE: 4 / 33,
            ChunkKind.REPLACE: 27 / 33,
        }


class TestInflectionImpact:
    def test_no_inflection_corpus(self):
        specs = [("c1", "aValue", "aResult"), ("c1", "bValue", "bResult")]
        impact = build_repo_stats(records_of(specs)).stats.inflection
        assert impact.raw_co_rename_rate == impact.lemma_co_rename_rate
        assert impact.new_set_count == 0

    @pytest.mark.parametrize("indexed", [False, True])
    def test_records_without_index(self, indexed):
        # a set is new by the positions of its members, not by record objects
        records = [
            record("c1", "getNode", "getItem", index=0 if indexed else None),
            record("c1", "node", "item", index=1 if indexed else None),
        ]
        impact = build_repo_stats(records).stats.inflection
        assert impact.lemma_set_count == impact.raw_set_count == 1
        assert impact.new_set_count == 0

    def test_query_merge(self):
        records = [
            record("c1", "query", "entry", index=0),
            record("c1", "queries", "entries", index=1),
            record("c1", "Query", "Entry", kind=IdentifierKind.CLASS, index=2),
        ]
        facts = extract_facts(
            {
                "Q.java": """
                class Query { }
                class Repo { Query query; Query queries; }
                """
            }
        )
        impact = build_repo_stats(records, default=facts).stats.inflection
        assert impact.new_set_count == 1
        assert RelationshipKind.TYPE_V in impact.new_set_relationship_rates

    def test_corpus(self, corpus_stats):
        impact = corpus_stats.inflection
        assert impact.raw_co_rename_rate == 21 / 33
        assert impact.lemma_co_rename_rate == 23 / 34
        assert impact.raw_set_count == 22
        assert impact.lemma_set_count == 21
        assert impact.raw_member_total == 33
        assert impact.lemma_member_total == 34
        assert impact.new_set_count == 3
        assert impact.new_set_relationship_rates == {
            RelationshipKind.TYPE_V: 0.75,
            RelationshipKind.TYPE_M: 0.25,
        }

    def test_two_pass_symmetry(self, corpus_records, corpus_facts):
        first = build_repo_stats(corpus_records, corpus_facts).stats.inflection
        second = build_repo_stats(list(reversed(corpus_records)), corpus_facts).stats.inflection
        assert first.raw_co_rename_rate == second.raw_co_rename_rate
        assert first.lemma_co_rename_rate == second.lemma_co_rename_rate
        assert first.new_set_count == second.new_set_count


class TestReports:
    def build(self, corpus_records, corpus_facts):
        return build_repo_stats(corpus_records, corpus_facts).stats

    def test_round_trip(self, corpus_records, corpus_facts, tmp_path):
        stats = self.build(corpus_records, corpus_facts)
        emit_report(stats, tmp_path)
        again = load_report(tmp_path / "report.json")
        assert again == stats

    def test_deterministic_across_workers(self, corpus_records, corpus_facts, tmp_path):
        # two plain runs write byte-identical files
        one = tmp_path / "one"
        two = tmp_path / "two"
        emit_report(self.build(corpus_records, corpus_facts), one, plots=True)
        emit_report(self.build(corpus_records, corpus_facts), two, plots=True)
        assert sorted(p.name for p in one.iterdir()) == sorted(
            p.name for p in two.iterdir()
        )
        for path in sorted(one.iterdir()):
            assert (two / path.name).read_bytes() == path.read_bytes()

    def test_csv_headers(self, corpus_records, corpus_facts, tmp_path):
        emit_report(self.build(corpus_records, corpus_facts), tmp_path)
        assert (tmp_path / "summary.csv").read_text().splitlines()[0] == "metric,value"
        assert (
            tmp_path / "size_distribution.csv"
        ).read_text().splitlines()[0] == "set_size,unique_names,members,cumulative_rate"
        assert (
            tmp_path / "relationship_rates.csv"
        ).read_text().splitlines()[0] == "filter,relationship,rate"

    def test_svg_only_with_plots(self, corpus_records, corpus_facts, tmp_path):
        emit_report(self.build(corpus_records, corpus_facts), tmp_path / "bare")
        emit_report(
            self.build(corpus_records, corpus_facts), tmp_path / "plots", plots=True
        )
        assert not list((tmp_path / "bare").glob("*.svg"))
        assert sorted(p.name for p in (tmp_path / "plots").glob("*.svg")) == [
            "relationship_rates.svg",
            "size_cumulative.svg",
        ]

    def test_work_counts_not_reported(self, corpus_records, corpus_facts, tmp_path):
        analysis = build_repo_stats(corpus_records, corpus_facts)
        assert analysis.work.detections <= analysis.work.pairs
        emit_report(analysis.stats, tmp_path)
        assert "work" not in (tmp_path / "report.json").read_text()

    def test_fields_are_the_report_keys(self, corpus_stats, tmp_path):
        emit_report(corpus_stats, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert sorted(RepoStats._fields) == list(data)
        assert sorted(InflectionImpact._fields) == list(data["inflection"])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_not_written(self, corpus_stats, tmp_path, value):
        stats = corpus_stats._replace(co_rename_rate=value)
        with pytest.raises(ValueError):
            emit_report(stats, tmp_path)
        assert not (tmp_path / "report.json").exists()

    def test_commits_counted_by_their_facts(self, corpus_records, corpus_facts):
        commits = {s.commit for s in build_repo_stats(corpus_records).collection.sets}
        own = {c: corpus_facts[c] for c in ("c01", "c02")}
        own["unused"] = corpus_facts["c04"]
        assert {"c01", "c02"} <= commits and "unused" not in commits
        n = len(commits)

        def counts(*args, **kwargs):
            work = build_repo_stats(corpus_records, *args, **kwargs).work
            return work.own_commits, work.default_commits, work.empty_commits

        assert counts(own, default=corpus_facts["c04"]) == (2, n - 2, 0)
        assert counts(own) == (2, 0, n - 2)
        assert counts(default=corpus_facts["c04"]) == (0, n, 0)
        assert counts({}) == counts() == (0, 0, n)

    def test_no_data_serialized_as_null(self, tmp_path):
        records = [record("c1", "aValue", "aResult", index=0)]
        stats = build_repo_stats(records, facts=None).stats
        assert stats.relationship_rates is None
        emit_report(stats, tmp_path)
        text = (tmp_path / "report.json").read_text()
        assert '"relationship_rates": null' in text
        assert load_report(tmp_path / "report.json") == stats


class TestOnePassMatchesPerFilterPath:
    """build_repo_stats against a copy of the path it replaced, which ran
    relationship detection once per filter, chunked each mode twice, and
    took the headline sets as built by ``group``."""

    @pytest.mark.parametrize("mode", ["lemma", "raw"])
    @pytest.mark.parametrize("facts_kind", ["per_commit", "single", "none"])
    def test_corpus(self, corpus_records, corpus_facts, mode, facts_kind):
        facts = {
            "per_commit": corpus_facts,
            "single": corpus_facts["c01"],
            "none": None,
        }[facts_kind]
        coll = sets_of(corpus_records, mode)
        if facts_kind == "single":
            analysis = build_repo_stats(corpus_records, default=facts, mode=mode)
        else:
            analysis = build_repo_stats(corpus_records, facts, mode=mode)
        expected = repo_stats_per_filter(corpus_records, coll, facts)
        assert analysis.stats == expected
        assert analysis.stats.to_json() == expected.to_json()
        assert analysis.collection == coll

    def test_filter_subset(self, corpus_records, corpus_facts, corpus_lemma):
        filters = (IdentifierKind.METHOD, IdentifierKind.CLASS)
        stats = build_repo_stats(corpus_records, corpus_facts, filters=filters).stats
        expected = repo_stats_per_filter(
            corpus_records, corpus_lemma, corpus_facts, filters
        )
        assert stats == expected
        assert list(stats.filtered_rates) == list(filters)

    def test_same_pair_in_two_snapshots(self):
        # the pair holds TypeV in c1's snapshot only; c2's must not reuse it
        records = [
            record("c1", "itemCount", "entryCount", index=0),
            record("c1", "itemSize", "entrySize", index=1),
            record("c2", "itemCount", "entryCount", index=2),
            record("c2", "itemSize", "entrySize", index=3),
        ]
        facts = {
            "c1": extract_facts({"A.java": "class itemSize { itemSize itemCount; }"}),
            "c2": extract_facts({"A.java": "class A { int itemCount; int itemSize; }"}),
        }
        coll = sets_of(records, "lemma")
        analysis = build_repo_stats(records, facts)
        assert analysis.stats == repo_stats_per_filter(records, coll, facts)
        assert analysis.work.detections == 2

    def test_no_record_built_after_loading(
        self, corpus_records, corpus_facts, monkeypatch
    ):
        # chunks sit beside the records, and sets hold the records themselves
        built = []
        init = RenameRecord.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RenameRecord, "__init__", counting)
        analysis = build_repo_stats(corpus_records, corpus_facts)
        assert built == []
        members = {id(m) for s in analysis.collection.sets for m in s.members}
        assert members <= {id(r) for r in corpus_records}

    def test_each_pair_detected_once(self, corpus_records, corpus_facts, monkeypatch):
        import corename.analytics as analytics

        calls = []
        detect = analytics.detect_relationships

        def counting(facts, a, b):
            calls.append((id(facts), frozenset((a, b))))
            return detect(facts, a, b)

        monkeypatch.setattr(analytics, "detect_relationships", counting)
        work = build_repo_stats(corpus_records, corpus_facts).work
        assert len(calls) == len(set(calls)) == work.detections
        assert work.pairs >= work.detections
