"""The package's value types: immutable named tuples, plus ``CodeFacts``,
which keeps an equality of its own."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corename.analytics import (
    Analysis,
    InflectionImpact,
    RepoStats,
    SizeRow,
    WorkCounts,
    build_repo_stats,
    emit_report,
    load_report,
)
from corename.chunks import ChunkKind, OperationalChunk
from corename.errors import InvalidIdentifier
from corename.facts import extract_facts_from_dir
from corename.facts.model import CodeFacts, Entity, EntityKind
from corename.facts.relations import relationship_table
from corename.grouping import attach_chunks, build_rename_sets, chunk_by_mode
from corename.lexicon import split_identifier
from corename.mining import CommitFiles, IdentifierKind, RenameRecord, load_rename_records_file
from corename.recommend import PriorProfile, RecommendationCandidate

FIXTURES = Path(__file__).parent / "fixtures"


def _record(old="metricType", new="metricAttribute", index=None):
    return RenameRecord("c1", IdentifierKind.ATTRIBUTE, old, new, "F.java", index=index)


def _values():
    """One instance of each value type, with the name of a field."""
    records = load_rename_records_file(FIXTURES / "corpus" / "renames.jsonl")
    coll = build_rename_sets(records, chunk_by_mode(records, ("lemma",)).chunks["lemma"], "lemma")
    analysis = build_repo_stats(records)
    stats = analysis.stats
    seq = split_identifier("getDisabledMetricTypes")
    values = [
        (records[0], "old_name"),
        (CommitFiles("c1", (("A.java", None, "class A { }"),)), "commit"),
        (seq, "origin"),
        (seq.words[0], "lemma"),
        (OperationalChunk(ChunkKind.INSERT, (), ("instance",), 2), "anchor"),
        (coll.sets[0], "key"),
        (coll, "mode"),
        (stats.size_distribution[0], "members"),
        (stats.inflection, "new_set_count"),
        (analysis.work, "pairs"),
        (stats, "set_count"),
        (analysis, "collection"),
        (Entity(0, EntityKind.CLASS, "A", None, "A.java"), "name"),
        (relationship_table()[0], "description"),
        (PriorProfile(weights={}), "default_weight"),
        (RecommendationCandidate("a", EntityKind.METHOD, "A.java", None, "b"), "score"),
    ]
    return [pytest.param(value, field, id=type(value).__name__) for value, field in values]


@pytest.mark.parametrize("value, field", _values())
def test_values_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.unknown_field = 1


def test_keyword_construction_with_defaults():
    # as the recommend command and the benchmark's queries build a trigger
    trigger = RenameRecord(
        commit="(pending)",
        kind=IdentifierKind.CLASS,
        old_name="MetricType",
        new_name="MetricAttribute",
        index=0,
    )
    assert (trigger.file, trigger.container, trigger.chunks, trigger.index) == ("", None, (), 0)
    assert RenameRecord("c1", IdentifierKind.CLASS, "A", "B").index is None
    chunk = OperationalChunk(kind=ChunkKind.DELETE, deleted=("a",), added=(), anchor=0)
    assert chunk.left_context is None and chunk.right_context is None
    candidate = RecommendationCandidate(
        target_name="a",
        target_kind=EntityKind.METHOD,
        file="A.java",
        container=None,
        proposed_name="b",
    )
    assert (candidate.relationships, candidate.score) == (frozenset(), 0.0)
    assert PriorProfile(weights={}).default_weight == 0.0


def test_equality_by_value_includes_index():
    assert _record(index=3) == _record(index=3)
    assert _record(index=3) != _record(index=4)
    assert _record() != _record(index=0)
    assert hash(_record(index=3)) == hash(_record(index=3))


def test_iterating_yields_the_fields():
    record = _record(index=5)
    assert tuple(record) == (
        "c1", IdentifierKind.ATTRIBUTE, "metricType", "metricAttribute", "F.java", None, (), 5,
    )
    assert record._asdict()["old_name"] == "metricType"
    row = SizeRow(set_size=2, unique_names=1, members=4, cumulative_rate=0.5)
    assert list(row) == [2, 1, 4, 0.5]
    assert WorkCounts(1, 2, 3, 4, 5)._fields == (
        "pairs", "detections", "own_commits", "default_commits", "empty_commits",
    )
    assert InflectionImpact._fields[-1] == "new_set_relationship_rates"
    analysis = build_repo_stats([_record(index=0)])
    assert Analysis._fields == ("stats", "work", "collection", "skipped")
    assert analysis._asdict() == {
        "stats": analysis.stats, "work": analysis.work, "collection": analysis.collection,
        "skipped": [],
    }
    assert analysis.stats._asdict()["record_count"] == 1 and RepoStats._fields[0] == "mode"


_NAMES = st.lists(
    st.sampled_from(["get", "Metric", "type", "Types", "node", "ID", "2", "_"]),
    min_size=1,
    max_size=8,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(_NAMES)
def test_sequence_len_counts_words(name):
    try:
        seq = split_identifier(name)
    except InvalidIdentifier:  # no words at all, such as "_"
        return
    assert len(seq) == len(seq.words) == len(seq.surfaces)
    assert bool(seq)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["c1", "c2"]), _NAMES, _NAMES), max_size=12))
def test_set_len_counts_members_and_collection_len_counts_sets(specs):
    records = [
        RenameRecord(commit, IdentifierKind.VARIABLE, old, new, index=i)
        for i, (commit, old, new) in enumerate(specs)
        if old != new
    ]
    for mode in ("raw", "lemma"):
        coll = build_rename_sets(records, chunk_by_mode(records, (mode,)).chunks[mode], mode)
        assert len(coll) == len(coll.sets)
        for s in coll.sets:
            assert len(s) == len(s.members) == len(s.positions) >= 1
        assert coll.member_total() == sum(len(s.members) for s in coll.sets)


def test_attach_chunks_copies_keep_index():
    records = [
        _record(index=7),
        _record("nodes", "node", index=2),
        _record("a-b", "c", index=0),  # not an identifier: no chunks
    ]
    chunked = attach_chunks(records, "lemma")
    expected = chunk_by_mode(records, ("lemma",)).chunks["lemma"]
    assert [r.chunks for r in chunked] == expected
    assert chunked[0].chunks and chunked[1].chunks and chunked[2].chunks == ()
    for original, copy in zip(records, chunked):
        assert copy.index == original.index
        assert copy._replace(chunks=()) == original
    assert all(r.chunks == () for r in records)  # the originals are unchanged


def test_loaded_facts_equal_extracted_with_or_without_index(tmp_path):
    facts = extract_facts_from_dir(FIXTURES / "fig1")
    path = tmp_path / "facts.json"
    facts.save(path)
    loaded = CodeFacts.load(path)
    assert loaded == facts and not loaded != facts
    assert facts.index.by_name  # one side with a built index
    assert loaded == facts and facts == loaded
    assert loaded.index.by_name  # both sides
    assert loaded == facts
    assert CodeFacts.load(path) == facts  # an index on one side only, the other way
    assert CodeFacts(entities=facts.entities) != facts
    assert CodeFacts() == CodeFacts(entities=(), skipped=())
    assert facts != facts.to_json()


def test_loaded_report_equals_the_analysis_stats(tmp_path):
    records = load_rename_records_file(FIXTURES / "corpus" / "renames.jsonl")
    analysis = build_repo_stats(records)
    emit_report(analysis.stats, tmp_path)
    loaded = load_report(tmp_path / "report.json")
    assert not {"work", "collection"} & set(loaded._fields)
    assert loaded == analysis.stats and not loaded != analysis.stats
    assert build_repo_stats(records, mode="raw").stats != analysis.stats
