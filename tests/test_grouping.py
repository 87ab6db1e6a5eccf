"""Tests for meaningful rename sets and collection differences."""

import io
import json
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    attach_chunks_per_record,
    build_rename_sets_copying,
    chunk_by_mode_copying,
    serialize_rename_sets_by_dumps,
)
from corename.errors import InvalidIdentifier, ParseError
from corename.grouping import (
    MeaningfulRenameSet,
    RenameSetCollection,
    attach_chunks,
    build_rename_sets,
    check_rename_sets,
    chunk_by_mode,
    chunk_keys,
    collection_difference,
    enumerate_pairs,
    serialize_rename_sets,
)
from corename.lexicon import MODES, Lemmatizer
from corename.mining import IdentifierKind, RenameRecord


def record(commit, old, new, kind=IdentifierKind.VARIABLE, index=None):
    return RenameRecord(
        commit=commit,
        kind=kind,
        old_name=old,
        new_name=new,
        file="F.java",
        index=index,
    )


def sets_of(records, mode, lemmatizer=None):
    chunks = chunk_by_mode(records, (mode,), lemmatizer).chunks[mode]
    return build_rename_sets(records, chunks, mode)


def build(specs, mode="lemma"):
    records = [
        record(commit, old, new, index=i)
        for i, (commit, old, new) in enumerate(specs)
    ]
    return sets_of(records, mode)


class TestBuildRenameSets:
    def test_multi_chunk_rename_joins_both_sets(self):
        coll = build([("c1", "minimumVersion", "versionSpec")], mode="raw")
        keys = sorted(s.key for s in coll.sets)
        assert keys == ["D|minimum|", "I||spec"]
        assert all(len(s) == 1 for s in coll.sets)
        assert coll.sets[0].members == coll.sets[1].members

    def test_empty(self):
        coll = build([])
        assert coll.sets == ()

    def test_shared_chunk_one_set(self):
        coll = build(
            [
                ("c1", "MetricType", "MetricAttribute"),
                ("c1", "metricType", "metricAttribute"),
            ]
        )
        assert len(coll) == 1
        assert coll.sets[0].key == "R|type|attribute"
        assert len(coll.sets[0]) == 2

    def test_same_key_different_commit_separate(self):
        coll = build(
            [
                ("c1", "getValue", "getResult"),
                ("c2", "setValue", "setResult"),
            ]
        )
        assert len(coll) == 2
        assert {s.commit for s in coll.sets} == {"c1", "c2"}

    def test_defining_predicate(self):
        specs = [
            ("c1", "minimumVersion", "versionSpec"),
            ("c1", "minimumSize", "sizeSpec"),
            ("c2", "minimumSize", "leastSize"),
        ]
        records = [record(c, o, n, index=i) for i, (c, o, n) in enumerate(specs)]
        chunks = chunk_by_mode(records, ("raw",)).chunks["raw"]
        coll = build_rename_sets(records, chunks, "raw")
        for s in coll.sets:
            for r, c in zip(records, chunks):
                member = r in s.members
                satisfies = r.commit == s.commit and s.key in chunk_keys(c)
                assert member == satisfies

    def test_one_chunk_tuple_per_record(self):
        records = [record("c1", "aValue", "aResult")]
        with pytest.raises(ValueError, match="0 chunk tuples for 1 records"):
            build_rename_sets(records, [], "lemma")

    def test_member_total_vs_record_count(self):
        single = build([("c1", "getValue", "getResult")])
        assert single.member_total() == 1
        dual = build([("c1", "minimumVersion", "versionSpec")], mode="raw")
        assert dual.member_total() == 2


class TestEnumeratePairs:
    @pytest.mark.parametrize("size,expected", [(1, 0), (2, 1), (3, 3)])
    def test_counts(self, size, expected):
        specs = [("c1", f"oldValue{i}", f"newResult{i}") for i in range(size)]
        coll = build(specs)
        assert len(coll) == 1
        assert len(enumerate_pairs(coll.sets[0])) == expected

    def test_five_members_match_brute_force(self):
        specs = [("c1", f"oldValue{i}", f"newResult{i}") for i in range(5)]
        coll = build(specs)
        pairs = enumerate_pairs(coll.sets[0])
        brute = [
            (a, b)
            for a, b in combinations(coll.sets[0].members, 2)
        ]
        assert len(pairs) == len(brute) == 10
        assert all(a is not b for a, b in pairs)


class TestCollectionDifference:
    def test_identical_collections(self):
        specs = [("c1", "getValue", "getResult")]
        records = [record(c, o, n, index=i) for i, (c, o, n) in enumerate(specs)]
        lemma = sets_of(records, "lemma")
        raw = sets_of(records, "raw")
        assert collection_difference(lemma, raw) == []

    def test_key_change_alone_is_not_new(self):
        # One record: its lemma set and raw set hold the same single member,
        # even though the keys differ (Inflect vs Replace).
        records = [record("c1", "instance", "instances", index=0)]
        lemma = sets_of(records, "lemma")
        raw = sets_of(records, "raw")
        assert lemma.sets[0].key != raw.sets[0].key
        assert collection_difference(lemma, raw) == []

    def test_inflection_merge_is_new(self):
        records = [
            record("c1", "itemNode", "itemLeaf", index=0),
            record("c1", "nodes", "leaves", index=1),
        ]
        lemma = sets_of(records, "lemma")
        raw = sets_of(records, "raw")
        new_sets = collection_difference(lemma, raw)
        assert len(new_sets) == 1
        assert len(new_sets[0]) == 2

    def test_raw_only_sets_never_returned(self):
        records = [
            record("c1", "itemNode", "itemLeaf", index=0),
            record("c1", "nodes", "leaves", index=1),
        ]
        lemma = sets_of(records, "lemma")
        raw = sets_of(records, "raw")
        raw_singletons = {s.member_identity() for s in raw.sets}
        for s in collection_difference(lemma, raw):
            assert s.member_identity() not in raw_singletons


class TestSerialization:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(max_size=4),
                st.text(
                    st.characters() | st.sampled_from('"\\\x00\u00e9\ud800|+'), max_size=12
                ),
                st.lists(st.integers(0, 10**7), min_size=1, max_size=20),
            ),
            max_size=6,
        )
    )
    def test_writer_gives_the_bytes_of_dumps(self, specs):
        # the row-template writer against the json.dumps one it replaced
        member = record("c", "aValue", "aResult")
        coll = RenameSetCollection(
            sets=tuple(
                MeaningfulRenameSet(commit, key, (member,) * len(positions), tuple(positions))
                for commit, key, positions in specs
            ),
            mode="lemma",
        )
        written, expected = io.StringIO(), io.StringIO()
        serialize_rename_sets(coll, written)
        serialize_rename_sets_by_dumps(coll, expected)
        assert written.getvalue() == expected.getvalue()

    def test_round_trip(self):
        specs = [
            ("c1", "MetricType", "MetricAttribute"),
            ("c1", "metricType", "metricAttribute"),
            ("c2", "minimumVersion", "versionSpec"),
        ]
        records = [record(c, o, n, index=i) for i, (c, o, n) in enumerate(specs)]
        coll = sets_of(records, "lemma")
        buffer = io.StringIO()
        serialize_rename_sets(coll, buffer)
        lines = buffer.getvalue().splitlines()
        assert all(set(json.loads(l)) == {"commit", "key", "members"} for l in lines)
        check_rename_sets(lines, coll, len(records))

    def test_round_trip_without_indices(self):
        # members are written as positions, also for records built without
        # an index
        records = [record("c1", "aValue", "aResult"), record("c1", "bValue", "bResult")]
        coll = sets_of(records, "lemma")
        buffer = io.StringIO()
        serialize_rename_sets(coll, buffer)
        lines = buffer.getvalue().splitlines()
        assert [json.loads(line)["members"] for line in lines] == [[0, 1]]
        check_rename_sets(lines, coll, len(records))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: [lines[1], lines[0], lines[2]], "line 1: set 1 differs from"),
            (lambda lines: [*lines, lines[2]], "line 4: set 4 differs from"),
            (lambda lines: [lines[0], "", lines[1]], "line 4: 1 of"),
        ],
        ids=["order", "extra", "missing"],
    )
    def test_sets_other_than_the_derived_ones(self, edit, message):
        specs = [
            ("c1", "MetricType", "MetricAttribute"),
            ("c1", "metricType", "metricAttribute"),
            ("c2", "minimumVersion", "versionSpec"),
        ]
        records = [record(c, o, n, index=i) for i, (c, o, n) in enumerate(specs)]
        coll = sets_of(records, "lemma")
        buffer = io.StringIO()
        serialize_rename_sets(coll, buffer)
        lines = edit(buffer.getvalue().splitlines())
        with pytest.raises(ParseError) as caught:
            check_rename_sets(lines, coll, len(records), source="sets.jsonl")
        assert str(caught.value).startswith(
            f"sets.jsonl: {message} the 3 sets derived from the renames in lemma mode"
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"commit": "c1", "key": "k", "members": [0', "invalid JSON"),
            ('[0, 1]', "not an object"),
            ('{"commit": "c1", "members": [0]}', "missing keys: key"),
            ('{"commit": "c1", "key": "k", "members": [0, 3]}', "member 3 "),
            ('{"commit": "c1", "key": "k", "members": [-1]}', "member -1 "),
            ('{"commit": "c1", "key": "k", "members": ["0"]}', "member '0' "),
            ('{"commit": "c1", "key": "k", "members": 0}', "not a list"),
            ('{"commit": ["c1"], "key": "k", "members": [0]}', "must be strings"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, line, message):
        # the shape of every line is checked before any set is compared
        records = [record("c1", "aValue", "aResult", index=i) for i in range(3)]
        coll = sets_of(records, "lemma")
        good = '{"commit": "c1", "key": "k", "members": [0, 1]}'
        with pytest.raises(ParseError) as caught:
            check_rename_sets([good, "", line], coll, len(records), source="sets.jsonl")
        assert str(caught.value).startswith("sets.jsonl: line 3: ")
        assert message in str(caught.value)
        assert caught.value.line == 3

    def test_invalid_identifier_records_have_no_sets(self):
        records = [record("c1", "foo$bar", "baz$bar", index=0)]
        coll = sets_of(records, "lemma")
        assert coll.sets == ()


def test_member_total_equals_distinct_chunk_key_count():
    from pathlib import Path

    from corename.mining import load_rename_records_file

    corpus = Path(__file__).parent / "fixtures" / "corpus" / "renames.jsonl"
    records = load_rename_records_file(corpus)
    for mode in ("raw", "lemma"):
        chunks = chunk_by_mode(records, (mode,)).chunks[mode]
        coll = build_rename_sets(records, chunks, mode)
        assert coll.member_total() == sum(len(chunk_keys(c)) for c in chunks)
        assert coll.member_total() >= sum(1 for c in chunks if c)


def _assert_same_as_per_record(records, lemmatizer=None):
    chunks = chunk_by_mode(records, MODES, lemmatizer).chunks
    assert list(chunks) == list(MODES)
    for mode in MODES:
        want = attach_chunks_per_record(records, mode, lemmatizer)
        assert chunks[mode] == [r.chunks for r in want], mode
        got = attach_chunks(records, mode, lemmatizer)
        assert [r.index for r in got] == [r.index for r in records]
        assert got == want


def _assert_same_as_copying(records, lemmatizer=None):
    """chunk_by_mode and build_rename_sets against the path that copied each
    record per mode: the same chunks per record and the same sets, whose
    members are the given records themselves."""
    chunks = chunk_by_mode(records, MODES, lemmatizer).chunks
    copies = chunk_by_mode_copying(records, MODES, lemmatizer)
    for mode in MODES:
        assert len(chunks[mode]) == len(records)
        assert all(type(c) is tuple for c in chunks[mode]), mode
        assert chunks[mode] == [r.chunks for r in copies[mode]], mode
        got = build_rename_sets(records, chunks[mode], mode)
        want = build_rename_sets_copying(copies[mode], mode)
        assert [(s.commit, s.key, s.positions) for s in got.sets] == [
            (s.commit, s.key, s.positions) for s in want.sets
        ], mode
        for s in got.sets:
            assert all(
                s.members[j] is records[p] for j, p in enumerate(s.positions)
            )


def test_attach_chunks_matches_per_record_normalize():
    from pathlib import Path

    from corename.mining import load_rename_records_file

    corpus = Path(__file__).parent / "fixtures" / "corpus" / "renames.jsonl"
    records = load_rename_records_file(corpus)
    records += [
        record("c9", "foo$bar", "fooBar", index=len(records)),
        record("c9", "fooBar", "foo$bar", index=len(records) + 1),
        record("c9", "nodes", "fooBar", index=len(records) + 2),
    ]
    _assert_same_as_per_record(records)
    _assert_same_as_per_record(records, Lemmatizer({"nodes": "vertex"}))


@pytest.mark.parametrize("custom", [False, True])
def test_sets_match_the_copying_path_on_the_corpus(custom):
    from pathlib import Path

    from corename.mining import load_rename_records_file

    corpus = Path(__file__).parent / "fixtures" / "corpus" / "renames.jsonl"
    records = load_rename_records_file(corpus)
    records.append(record("c9", "foo$bar", "fooBar"))
    lemmatizer = Lemmatizer({"nodes": "vertex", "types": "kind"}) if custom else None
    _assert_same_as_copying(records, lemmatizer)


# Names over a few words with inflected, cased and acronym forms, so that
# records share words and lemma pairs, and some differ only in inflection
# or casing.
_WORDS = st.sampled_from(
    ["node", "nodes", "Node", "NODES", "query", "queries", "Query", "type",
     "Types", "get", "set", "HTTP", "server", "2", "ran", "run"]
)
_NAMES = st.one_of(
    st.lists(_WORDS, min_size=1, max_size=4).map("".join),
    st.lists(_WORDS, min_size=1, max_size=3).map("_".join),
    st.sampled_from(["foo$bar", "___"]),
)


@given(
    st.lists(
        st.tuples(st.sampled_from(["c1", "c2"]), _NAMES, _NAMES), max_size=12
    ),
    st.booleans(),
)
def test_chunk_by_mode_matches_per_record_drawn(specs, custom):
    records = [
        record(commit, old, new, index=i) for i, (commit, old, new) in enumerate(specs)
    ]
    lemmatizer = Lemmatizer({"ran": "run", "nodes": "vertex"}) if custom else None
    _assert_same_as_per_record(records, lemmatizer)
    _assert_same_as_copying(records, lemmatizer)


def test_invalid_record_skipped_once_for_both_modes():
    records = [
        record("c1", "foo$bar", "fooBar", index=0),
        record("c1", "nodes", "items", index=1),
        record("c2", "getX", "get$x", index=2),
    ]
    chunks, skipped = chunk_by_mode(records, MODES)
    assert [(r, type(e), str(e)) for r, e in skipped] == [
        (records[0], InvalidIdentifier, "not a valid identifier: 'foo$bar'"),
        (records[2], InvalidIdentifier, "not a valid identifier: 'get$x'"),
    ]
    assert all(chunks[mode][0] == chunks[mode][2] == () for mode in MODES)
    assert all(chunks[mode][1] for mode in MODES)


def test_unknown_mode():
    with pytest.raises(ValueError):
        chunk_by_mode([], ("stem",))
