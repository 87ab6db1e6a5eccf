"""Tests for operational-chunk extraction and application."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    canonical_pairs,
    changed_words,
    diff_lemmas_recursive,
    diff_lemmas_two_tables,
    enumerate_script_minimum,
    min_changed_words,
    random_pair,
    replay_chunks,
)
from corename.chunks import (
    ChunkKind,
    OperationalChunk,
    apply_chunk,
    chunk_key,
    diff_chunks,
    diff_lemmas,
)
from corename.errors import DegenerateResult
from corename.lexicon import normalize
from corename.mining import load_rename_records_file

CORPUS_RENAMES = Path(__file__).parent / "fixtures" / "corpus" / "renames.jsonl"


def chunks_of(old, new, mode="lemma"):
    return diff_chunks(normalize(old, mode), normalize(new, mode), mode)


def shapes(chunks):
    return [(c.kind, c.deleted, c.added, c.anchor) for c in chunks]


class TestDiffExamples:
    def test_insert(self):
        assert shapes(chunks_of("dataProviderId", "dataProviderInstanceId")) == [
            (ChunkKind.INSERT, (), ("instance",), 2)
        ]

    def test_delete(self):
        assert shapes(chunks_of("SkipConstantResult", "SkipResult")) == [
            (ChunkKind.DELETE, ("constant",), (), 1)
        ]

    def test_replace(self):
        assert shapes(chunks_of("getRandom", "createRandom")) == [
            (ChunkKind.REPLACE, ("get",), ("create",), 0)
        ]

    def test_delete_plus_insert(self):
        assert shapes(chunks_of("minimumVersion", "versionSpec", "raw")) == [
            (ChunkKind.DELETE, ("minimum",), (), 0),
            (ChunkKind.INSERT, (), ("spec",), 2),
        ]

    def test_inflect_vs_replace(self):
        assert shapes(chunks_of("node", "nodes")) == [
            (ChunkKind.INFLECT, ("node",), (), 0)
        ]
        assert shapes(chunks_of("node", "nodes", "raw")) == [
            (ChunkKind.REPLACE, ("node",), ("nodes",), 0)
        ]

    def test_case_only_change_is_other(self):
        assert shapes(chunks_of("TIMES", "times")) == [
            (ChunkKind.OTHER, ("time",), (), 0)
        ]

    def test_inflect_single_word(self):
        assert shapes(chunks_of("instance", "instances")) == [
            (ChunkKind.INFLECT, ("instance",), (), 0)
        ]

    def test_case_only_change_raw_has_no_chunks(self):
        # Raw-mode diffing runs over case-folded words, so a pure case
        # change leaves nothing to report.
        assert chunks_of("TIMES", "times", "raw") == []

    def test_mixed_inflect_and_other(self):
        got = shapes(chunks_of("OldNodes", "oldNode"))
        assert (ChunkKind.OTHER, ("old",), (), 0) in got
        assert (ChunkKind.INFLECT, ("node",), (), 1) in got


class TestChunkKey:
    @pytest.mark.parametrize(
        "chunk,key",
        [
            (OperationalChunk(ChunkKind.INSERT, (), ("instance",), 2), "I||instance"),
            (OperationalChunk(ChunkKind.REPLACE, ("get",), ("create",), 0), "R|get|create"),
            (OperationalChunk(ChunkKind.INFLECT, ("node",), (), 0), "F|node|"),
            (OperationalChunk(ChunkKind.DELETE, ("minimum",), (), 0), "D|minimum|"),
            (OperationalChunk(ChunkKind.OTHER, ("time",), (), 0), "O|time|"),
        ],
    )
    def test_serialization(self, chunk, key):
        assert chunk_key(chunk) == key

    def test_anchor_excluded(self):
        a = OperationalChunk(ChunkKind.INSERT, (), ("x",), 0)
        b = OperationalChunk(ChunkKind.INSERT, (), ("x",), 5)
        assert chunk_key(a) == chunk_key(b)

    @given(
        st.sampled_from(list(ChunkKind)),
        st.lists(st.sampled_from(["a", "b", "cd"]), max_size=3).map(tuple),
        st.lists(st.sampled_from(["a", "b", "cd"]), max_size=3).map(tuple),
        st.lists(st.sampled_from(["a", "b", "cd"]), max_size=3).map(tuple),
        st.lists(st.sampled_from(["a", "b", "cd"]), max_size=3).map(tuple),
    )
    def test_injective(self, kind, d1, a1, d2, a2):
        c1 = OperationalChunk(kind, d1, a1, 0)
        c2 = OperationalChunk(kind, d2, a2, 0)
        assert (chunk_key(c1) == chunk_key(c2)) == ((d1, a1) == (d2, a2))


class TestDiffProperties:
    def test_matches_script_enumeration_small(self):
        rng = random.Random(11)
        for _ in range(400):
            a, b = random_pair(rng, 0, 4, "abcd")
            got = sum(map(changed_words, diff_lemmas(a, b)))
            assert got == enumerate_script_minimum(a, b) == min_changed_words(a, b)

    def test_round_trip_random(self):
        rng = random.Random(23)
        vocab = ["node", "item", "get", "set", "x", "count", "tree"]
        for _ in range(500):
            a = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 7)))
            b = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 7)))
            assert replay_chunks(a, diff_lemmas(a, b)) == b

    def test_other_only_when_diff_empty(self):
        rng = random.Random(5)
        vocab = ["node", "nodes", "item", "items", "time", "get"]
        for _ in range(500):
            old = "".join(
                w.capitalize() for w in (rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            )
            new = "".join(
                w.capitalize() for w in (rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            )
            chunks = chunks_of(old, new)
            formal = {c.kind for c in chunks} & {ChunkKind.OTHER, ChunkKind.INFLECT}
            if formal:
                assert all(
                    c.kind in (ChunkKind.OTHER, ChunkKind.INFLECT) for c in chunks
                )
                seq_old = normalize(old, "lemma")
                seq_new = normalize(new, "lemma")
                assert seq_old.lemmas == seq_new.lemmas

    def test_emitted_left_to_right(self):
        rng = random.Random(3)
        for _ in range(300):
            a, b = random_pair(rng, 0, 8, "abcde")
            anchors = [c.anchor for c in diff_lemmas(a, b)]
            assert anchors == sorted(anchors)


REFERENCES = pytest.mark.parametrize(
    "reference", [diff_lemmas_recursive, diff_lemmas_two_tables], ids=lambda f: f.__name__
)


class TestSameChunksAsRecursiveDiffer:
    """The table differ returns exactly the chunks of each differ it
    replaced: the recursive run search, and the two-table differ with its
    longest-run fast path.  Kinds, words, anchors and contexts all match."""

    @REFERENCES
    def test_canonical_pairs(self, reference):
        checked = 0
        for a, b in canonical_pairs(5, 4):
            assert diff_lemmas(a, b) == reference(a, b), (a, b)
            checked += 1
        assert checked == 78_639

    @REFERENCES
    def test_random_long_pairs(self, reference):
        rng = random.Random(97)
        for _ in range(10_000):
            a, b = random_pair(rng, 7, 12, "abcdef")
            assert diff_lemmas(a, b) == reference(a, b), (a, b)

    @REFERENCES
    @pytest.mark.parametrize("mode", ["raw", "lemma"])
    def test_corpus_renames(self, mode, reference):
        records = load_rename_records_file(CORPUS_RENAMES)
        assert records
        for r in records:
            a = normalize(r.old_name, mode).lemmas
            b = normalize(r.new_name, mode).lemmas
            assert diff_lemmas(a, b) == reference(a, b), (a, b)


class TestApplyChunk:
    def test_replace_recases(self):
        chunk = chunks_of("MetricType", "MetricAttribute")[0]
        got = apply_chunk(chunk, normalize("metricType"))
        assert got == ["metricAttribute"]

    def test_replace_preserves_plural(self):
        chunk = chunks_of("MetricType", "MetricAttribute")[0]
        got = apply_chunk(chunk, normalize("getDisabledMetricTypes"))
        assert got == ["getDisabledMetricAttributes"]

    def test_no_occurrence(self):
        chunk = chunks_of("skipConstantResult", "skipResult")[0]
        assert apply_chunk(chunk, normalize("metricType")) == []

    def test_insert_requires_context(self):
        chunk = chunks_of("dataProviderId", "dataProviderInstanceId")[0]
        assert apply_chunk(chunk, normalize("providerName")) == ["providerInstanceName"]
        assert apply_chunk(chunk, normalize("dataId")) == []

    def test_insert_at_start_uses_right_context(self):
        chunk = chunks_of("version", "specVersion")[0]
        assert chunk.kind is ChunkKind.INSERT and chunk.anchor == 0
        assert apply_chunk(chunk, normalize("versionNumber")) == ["specVersionNumber"]

    def test_delete_at_identifier_start(self):
        chunk = chunks_of("getRandom", "random")[0]
        assert apply_chunk(chunk, normalize("getValue")) == ["value"]

    def test_underscore_style(self):
        chunk = chunks_of("MetricType", "MetricAttribute")[0]
        got = apply_chunk(chunk, normalize("DATA_TYPE"))
        assert got == ["DATA_ATTRIBUTE"]

    def test_multiple_occurrences(self):
        chunk = chunks_of("fooBar", "bazBar")[0]
        got = apply_chunk(chunk, normalize("fooToFoo"))
        assert sorted(got) == ["bazToFoo", "fooToBaz"]

    def test_degenerate(self):
        chunk = chunks_of("getValue", "value")[0]
        with pytest.raises(DegenerateResult):
            apply_chunk(chunk, normalize("get"))

    def test_other_and_inflect_apply_to_nothing(self):
        other = chunks_of("TIMES", "times")[0]
        inflect = chunks_of("node", "nodes")[0]
        assert apply_chunk(other, normalize("times")) == []
        assert apply_chunk(inflect, normalize("nodeCount")) == []


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from("abcd"), max_size=6).map(tuple),
    st.lists(st.sampled_from("abcd"), max_size=6).map(tuple),
)
def test_diff_minimal_and_replayable(a, b):
    chunks = diff_lemmas(a, b)
    assert sum(map(changed_words, chunks)) == min_changed_words(a, b)
    assert replay_chunks(a, chunks) == b
