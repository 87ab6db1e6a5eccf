"""Tests for candidate generation and prior-weighted ranking."""

from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corename.recommend
from _oracles import generate_candidates_per_entity, generate_candidates_scan
from corename.chunks import ChunkKind, apply_chunk, chunk_key, diff_chunks
from corename.errors import DegenerateResult, InvalidIdentifier, NoDataError
from corename.facts import RelationshipKind, extract_facts, extract_facts_from_dir
from corename.facts.model import CodeFacts, Entity, EntityKind
from corename.grouping import attach_chunks
from corename.lexicon import MODES, Lemmatizer, Vocabulary, normalize
from corename.mining import IdentifierKind, RenameRecord, load_rename_records_file
from corename.recommend import (
    PriorProfile,
    build_prior_profile,
    default_profile,
    generate_candidates,
    rank_candidates,
    recommend,
)

FIG1 = Path(__file__).parent / "fixtures" / "fig1" / "Metrics.java"
CORPUS = Path(__file__).parent / "fixtures" / "corpus"
SAMPLE = CORPUS / "src" / "c02" / "Sample.java"


def trigger(old, new, kind=IdentifierKind.CLASS):
    record = RenameRecord(commit="t", kind=kind, old_name=old, new_name=new, index=0)
    return attach_chunks([record], "lemma")[0]


@pytest.fixture(scope="module")
def fig_facts():
    return extract_facts({"Metrics.java": FIG1.read_text()})


@pytest.fixture(scope="module")
def sample_facts():
    return extract_facts({"Sample.java": SAMPLE.read_text()})


class TestDefaultProfile:
    def test_method_weights(self):
        profile = default_profile()
        assert profile.weight(
            IdentifierKind.METHOD, RelationshipKind.CO_OCCURS_M
        ) == pytest.approx(0.408)
        assert profile.weight(
            IdentifierKind.METHOD, RelationshipKind.ASSIGNS
        ) == pytest.approx(0.259)

    def test_every_kind_has_positive_weight(self):
        profile = default_profile()
        for kind in IdentifierKind:
            assert any(w > 0 for w in profile.weights[kind].values())

    def test_default_weight_zero(self):
        assert default_profile().default_weight == 0.0

    def test_json_round_trip(self, tmp_path):
        profile = default_profile()
        path = tmp_path / "profile.json"
        profile.save(path)
        assert PriorProfile.load(path) == profile


class TestBuildPriorProfile:
    def test_from_rates(self):
        rates = {
            IdentifierKind.METHOD: {RelationshipKind.CO_OCCURS_M: 1.0},
            IdentifierKind.CLASS: None,
        }
        profile = build_prior_profile(rates)
        assert profile.weight(
            IdentifierKind.METHOD, RelationshipKind.CO_OCCURS_M
        ) == 1.0
        assert IdentifierKind.CLASS not in profile.weights

    def test_empty_raises(self):
        with pytest.raises(NoDataError):
            build_prior_profile({IdentifierKind.CLASS: None})


class TestGenerateCandidates:
    def test_fig_candidates(self, fig_facts):
        cands = generate_candidates(trigger("MetricType", "MetricAttribute"), fig_facts)
        by_name = {c.target_name: c for c in cands}
        assert by_name["metricType"].proposed_name == "metricAttribute"
        assert (
            by_name["getDisabledMetricTypes"].proposed_name
            == "getDisabledMetricAttributes"
        )
        assert by_name["GMetricType"].proposed_name == "GMetricAttribute"
        assert by_name["GMetricType"].relationships == frozenset()

    def test_same_named_entities_each_get_candidates(self):
        # two overloads in one class, an attribute of the same name in two
        # classes, and a parameter of the same name in three methods
        source = """
        class ItemList {
            int itemCount;
            void addItem(int item) { }
            void addItem(String item) { }
            void removeItem(int item) { }
        }
        class ItemView { int itemCount; }
        """
        facts = extract_facts({"I.java": source})
        rename = trigger("removeItem", "removeElement", IdentifierKind.METHOD)
        per_name = {}
        for c in generate_candidates(rename, facts):
            per_name.setdefault(c.target_name, []).append(c)
        assert [c.container for c in per_name["itemCount"]] == ["ItemList", "ItemView"]
        assert [c.container for c in per_name["addItem"]] == ["ItemList", "ItemList"]
        assert [c.container for c in per_name["item"]] == [
            "ItemList.addItem", "ItemList.addItem", "ItemList.removeItem"
        ]
        for name in ("itemCount", "addItem", "item"):
            assert len(per_name[name]) == len(facts.index.by_name[name])
            assert len({(c.proposed_name, c.relationships) for c in per_name[name]}) == 1
        assert per_name["addItem"][0].proposed_name == "addElement"
        assert RelationshipKind.CO_OCCURS_M in per_name["addItem"][0].relationships

    def test_self_excluded(self, fig_facts):
        cands = generate_candidates(trigger("MetricType", "MetricAttribute"), fig_facts)
        assert all(c.target_name != "MetricType" for c in cands)

    def test_unmatched_chunk_produces_nothing(self, fig_facts):
        cands = generate_candidates(trigger("fooWidget", "barWidget"), fig_facts)
        assert cands == []

    @pytest.mark.parametrize(
        "old,new",
        [
            ("MetricType", "MetricAttribute"),
            ("getCode", "code"),
            ("metricType", "metricTypeValue"),
        ],
    )
    def test_round_trip_consistency(self, fig_facts, old, new):
        # diffing a candidate against its target reproduces the triggering
        # chunk
        trig = trigger(old, new)
        trigger_keys = {chunk_key(c) for c in trig.chunks}
        cands = generate_candidates(trig, fig_facts)
        assert cands
        for cand in cands:
            old_seq = normalize(cand.target_name, "lemma")
            new_seq = normalize(cand.proposed_name, "lemma")
            keys = {chunk_key(c) for c in diff_chunks(old_seq, new_seq, "lemma")}
            assert trigger_keys & keys, (cand.target_name, cand.proposed_name)


class TestRankCandidates:
    def test_fig_ranking(self, fig_facts):
        ranked = recommend(trigger("MetricType", "MetricAttribute"), fig_facts)
        scores = {c.target_name: c.score for c in ranked}
        assert scores["metricType"] > scores["GMetricType"]
        assert scores["getDisabledMetricTypes"] > scores["GMetricType"]
        assert scores["GMetricType"] == 0.0

    def test_min_score_drops_relationship_free(self, fig_facts):
        ranked = recommend(
            trigger("MetricType", "MetricAttribute"), fig_facts, min_score=0.01
        )
        assert all(c.target_name != "GMetricType" for c in ranked)
        assert any(c.target_name == "metricType" for c in ranked)

    def test_co_occurring_method_ranked_first(self, sample_facts):
        ranked = recommend(
            trigger("addItem", "addElement", IdentifierKind.METHOD), sample_facts
        )
        assert ranked[0].target_name == "removeItem"
        assert ranked[0].proposed_name == "removeElement"
        assert RelationshipKind.CO_OCCURS_M in ranked[0].relationships

    def test_score_monotone_in_relationships(self, fig_facts):
        profile = default_profile()
        cands = generate_candidates(trigger("MetricType", "MetricAttribute"), fig_facts)
        target = next(c for c in cands if c.target_name == "GMetricType")
        richer = type(target)(
            target_name=target.target_name,
            target_kind=target.target_kind,
            file=target.file,
            container=target.container,
            proposed_name=target.proposed_name,
            relationships=frozenset({RelationshipKind.TYPE_V}),
        )
        ranked = rank_candidates(cands + [richer], profile, IdentifierKind.CLASS)
        plain_pos = next(
            i for i, c in enumerate(ranked)
            if c.target_name == "GMetricType" and not c.relationships
        )
        rich_pos = next(
            i for i, c in enumerate(ranked)
            if c.target_name == "GMetricType" and c.relationships
        )
        assert rich_pos < plain_pos

    def test_scaling_weights_keeps_order(self, fig_facts):
        cands = generate_candidates(trigger("MetricType", "MetricAttribute"), fig_facts)
        base = default_profile()
        doubled = PriorProfile(
            weights={
                trig: {k: 2 * w for k, w in table.items()}
                for trig, table in base.weights.items()
            },
            default_weight=base.default_weight * 2,
        )
        first = rank_candidates(cands, base, IdentifierKind.CLASS)
        second = rank_candidates(cands, doubled, IdentifierKind.CLASS)
        assert [(c.target_name, c.proposed_name) for c in first] == [
            (c.target_name, c.proposed_name) for c in second
        ]

    def test_all_dropped_when_no_relationships_and_positive_cutoff(self):
        facts = extract_facts({"A.java": "class FooWidget { } class BarOther { }"})
        ranked = recommend(
            trigger("bazWidget", "quxWidget", IdentifierKind.VARIABLE),
            facts,
            min_score=0.001,
        )
        assert ranked == []

    def test_kind_gating_with_cutoff(self):
        # A trigger that removes a leading word from method names: the
        # sibling method follows through its class relationship, while an
        # unrelated attribute elsewhere scores the floor.
        source = """
        class PageCache {
            long pageCount;
            long countPins() { return 0; }
            long countBytesRead() { return 0; }
        }
        """
        facts = extract_facts({"P.java": source})
        ranked = recommend(
            trigger("countPins", "pins", IdentifierKind.METHOD), facts
        )
        assert ranked[0].target_name == "countBytesRead"
        assert ranked[0].proposed_name == "bytesRead"
        top_score = ranked[0].score
        rest = [c for c in ranked if c.target_name == "pageCount"]
        assert rest and all(c.score < top_score for c in rest)
        gated = recommend(
            trigger("countPins", "pins", IdentifierKind.METHOD),
            facts,
            min_score=0.1,
        )
        assert [c.target_name for c in gated] == ["countBytesRead"]


class TestMultiChunkTrigger:
    def test_candidates_per_chunk_merged_by_target(self):
        facts = extract_facts(
            {
                "V.java": """
                class Config {
                    int minimumVersionCheck;
                    int versionLabel;
                }
                """
            }
        )
        trig = trigger(
            "minimumVersion", "versionSpec", IdentifierKind.VARIABLE
        )
        assert len(trig.chunks) == 2
        cands = generate_candidates(trig, facts)
        by_target = {}
        for c in cands:
            by_target.setdefault(c.target_name, set()).add(c.proposed_name)
        # the deletion applies to the first attribute, the anchored
        # insertion to both
        assert by_target["minimumVersionCheck"] == {
            "versionCheck",
            "minimumVersionSpecCheck",
        }
        assert by_target["versionLabel"] == {"versionSpecLabel"}


# --- the indexed candidate search against the scan it replaced -------------

CUSTOM = Lemmatizer({"types": "kind", "attributes": "type", "nodes": "vertex"})
FIXTURE_SNAPSHOTS = [FIG1.parent, *sorted((CORPUS / "src").iterdir())]


def _triggers(mode, lemmatizer):
    records = load_rename_records_file(CORPUS / "renames.jsonl")
    return attach_chunks(records, mode, lemmatizer)


def _assert_same_as_scan(rename, facts, mode, lemmatizer):
    """The indexed candidates equal the scan's and those of the per-entity
    search it replaced, order included.  A query on a built index splits no
    name, applies each chunk once to each name holding an anchor lemma, and
    detects relationships once per name it rewrites."""
    want = generate_candidates_scan(rename, facts, mode, lemmatizer)
    assert generate_candidates_per_entity(rename, facts, mode, lemmatizer) == want
    assert generate_candidates(rename, facts, mode, lemmatizer) == want
    split, detect = Vocabulary.split, corename.recommend.detect_relationships
    with mock.patch.object(Vocabulary, "split", autospec=True, side_effect=split) as splits, \
            mock.patch.object(corename.recommend, "apply_chunk", wraps=apply_chunk) as applied, \
            mock.patch.object(corename.recommend, "detect_relationships", wraps=detect) as detected:
        assert generate_candidates(rename, facts, mode, lemmatizer) == want
    assert [call.args[1] for call in splits.call_args_list] == []
    names = _names_holding_anchor_lemmas(rename, facts, mode, lemmatizer)
    assert Counter(
        (call.args[0], call.args[1].origin) for call in applied.call_args_list
    ) == Counter((chunk, name) for chunk in rename.chunks for name in names)
    assert sorted(call.args[2] for call in detected.call_args_list) == sorted(
        {c.target_name for c in want}
    )
    return want


def _names_holding_anchor_lemmas(rename, facts, mode, lemmatizer):
    """The other names that hold the first deleted lemma of a Replace or
    Delete chunk, or the word an Insert chunk goes next to.  Every name a
    chunk can rewrite holds one."""
    anchors = set()
    for chunk in rename.chunks:
        if chunk.kind in (ChunkKind.REPLACE, ChunkKind.DELETE):
            anchors.add(chunk.deleted[0])
        elif chunk.kind is ChunkKind.INSERT:
            anchors.add(chunk.left_context if chunk.anchor > 0 else chunk.right_context)
    names = set()
    for name in {e.name for e in facts.entities} - {rename.old_name}:
        try:
            if anchors & set(normalize(name, mode, lemmatizer).lemmas):
                names.add(name)
        except InvalidIdentifier:
            pass
    return sorted(names)


class TestSameCandidatesAsScan:
    @pytest.mark.parametrize("lemmatizer", [None, CUSTOM], ids=["bundled", "custom"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("snapshot", FIXTURE_SNAPSHOTS, ids=lambda p: p.name)
    def test_fixture_snapshots(self, snapshot, mode, lemmatizer):
        facts = extract_facts_from_dir(snapshot)
        found = 0
        for rename in _triggers(mode, lemmatizer):
            found += len(_assert_same_as_scan(rename, facts, mode, lemmatizer))
        if snapshot in (FIG1.parent, CORPUS / "src" / "c01"):
            assert found

    def test_index_built_once_per_mode_and_lemmatizer(self):
        # analyze builds FactsIndex for every snapshot: it must not pay
        facts = extract_facts({"Metrics.java": FIG1.read_text()})
        assert facts.index.names_by_lemma == {}
        rename = trigger("MetricType", "MetricAttribute")
        generate_candidates(rename, facts)
        generate_candidates(rename, facts, "raw")
        tables = dict(facts.index.names_by_lemma)
        assert list(tables) == [("lemma", None), ("raw", None)]
        generate_candidates(rename, facts)
        generate_candidates(rename, facts, "raw", CUSTOM)
        assert facts.index.names_by_lemma[("lemma", None)] is tables[("lemma", None)]
        assert ("raw", CUSTOM) in facts.index.names_by_lemma
        table = tables[("lemma", None)]
        assert list(table["type"]) == [
            name for name in facts.index.by_name if "type" in normalize(name).lemmas
        ]
        # each name's sequence is stored under each of its lemmas, and is
        # the one normalize gives
        for (mode, lemmatizer), table in facts.index.names_by_lemma.items():
            stored = set()
            for lemma, sequences in table.items():
                for name, seq in sequences.items():
                    assert type(name) is str
                    assert seq == normalize(name, mode, lemmatizer)
                    assert lemma in seq.lemmas
                    stored.add(name)
            assert stored == set(facts.index.by_name)

    @pytest.mark.parametrize(
        "old, new, shape",
        [
            ("version", "specVersion", "insert at anchor 0"),
            ("dataProviderId", "dataProviderInstanceId", "insert after a word"),
            ("getValue", "value", "delete emptying a target"),
            ("metricType", "metricAttribute", "same name in two classes"),
            ("gizmoType", "widgetType", "lemma no entity holds"),
            ("metricCount", "countOfMetric", "trigger named like an entity"),
            ("minimumVersion", "versionSpec", "two chunks"),
            ("dataTypeName", "name", "delete of two words"),
            ("valueSpec", "spec", "one rewrite of two occurrences"),
        ],
    )
    def test_edge_shapes(self, old, new, shape):
        facts = _facts_of(
            ("Metrics", ["MetricType", "get", "getValue", "getCount", "metricCount"]),
            ("Reporter", ["MetricType", "versionNumber", "providerName", "get"]),
            ("Spec", ["version", "minimumVersionCheck", "$tmp", "typeCount", "dataTypeId",
                      "valueValueCount"]),
        )
        for mode in MODES:
            rename = attach_chunks(
                [RenameRecord("t", IdentifierKind.VARIABLE, old, new, index=0)], mode
            )[0]
            got = _assert_same_as_scan(rename, facts, mode, None)
            if shape != "lemma no entity holds":
                assert got, shape
            else:
                assert not got
        if shape == "delete emptying a target":
            with pytest.raises(DegenerateResult):
                apply_chunk(rename.chunks[0], normalize("get"))
        if shape == "one rewrite of two occurrences":
            assert [c.proposed_name for c in got if c.target_name == "valueValueCount"] == [
                "valueCount"
            ]
        if shape == "same name in two classes":
            assert {c.container for c in got if c.target_name == "MetricType"} == {
                "Metrics", "Reporter"
            }

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_generated(self, data):
        facts = data.draw(_generated_facts())
        names = [e.name for e in facts.entities]
        old = data.draw(st.one_of(_identifiers, st.sampled_from(names)))
        new = data.draw(_identifiers)
        mode = data.draw(st.sampled_from(MODES))
        lemmatizer = data.draw(st.sampled_from([None, CUSTOM]))
        rename = attach_chunks(
            [RenameRecord("t", IdentifierKind.METHOD, old, new, index=0)],
            mode,
            lemmatizer,
        )[0]
        _assert_same_as_scan(rename, facts, mode, lemmatizer)


def _facts_of(*classes):
    """Facts of classes given as (name, member names); members alternate
    between attributes and methods."""
    entities, contains = [], []
    for class_name, members in classes:
        class_id = len(entities)
        entities.append(Entity(class_id, EntityKind.CLASS, class_name, None, "A.java"))
        for position, name in enumerate(members):
            kind = (EntityKind.ATTRIBUTE, EntityKind.METHOD)[position % 2]
            entities.append(Entity(len(entities), kind, name, class_id, "A.java"))
            contains.append((class_id, len(entities) - 1))
    return CodeFacts(entities=tuple(entities), contains=tuple(contains))


_WORDS = ["get", "metric", "metrics", "type", "types", "value", "node", "nodes",
          "spec", "version", "id", "count", "gizmo", "widget"]
_identifiers = st.builds(
    lambda words, style: (
        "_".join(w.upper() for w in words)
        if style == "snake"
        else (words[0] if style == "camel" else words[0].title())
        + "".join(w.title() for w in words[1:])
    ),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3),
    st.sampled_from(["camel", "pascal", "snake"]),
)
_MEMBER_KINDS = [EntityKind.METHOD, EntityKind.ATTRIBUTE, EntityKind.PARAMETER,
                 EntityKind.VARIABLE]


@st.composite
def _generated_facts(draw):
    """Classes holding members, with names from a small vocabulary so that
    many are shared, some invalid names, and assigns rows between names."""
    entities = []
    contains = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(_identifiers)
        entities.append(Entity(len(entities), EntityKind.CLASS, name, None, "A.java"))
    classes = len(entities)
    members = st.tuples(
        st.sampled_from(_MEMBER_KINDS),
        st.one_of(_identifiers, st.sampled_from(["$tmp", "_"])),
        st.integers(0, classes - 1),
    )
    for kind, name, parent in draw(st.lists(members, max_size=12)):
        entities.append(Entity(len(entities), kind, name, parent, "A.java"))
        contains.append((parent, len(entities) - 1))
    names = [e.name for e in entities]
    assigns = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names), st.just("variable")),
            max_size=4,
        )
    )
    return CodeFacts(
        entities=tuple(entities), contains=tuple(contains), assigns=tuple(assigns)
    )
