"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import random
import time
from pathlib import Path

from _oracles import (
    batched_min_changed_words,
    canonical_pairs,
    enumerate_script_minimum,
    min_changed_words,
    random_pair,
    replay_chunks,
)
from test_relationships import GOLDEN

from corename.analytics import build_repo_stats, co_rename_rate, size_distribution
from corename.chunks import ChunkKind, diff_chunks, diff_lemmas
from corename.cli import run
from corename.facts import (
    RelationshipKind,
    detect_relationships,
    extract_facts,
    extract_facts_from_dir,
)
from corename.grouping import (
    attach_chunks,
    build_rename_sets,
    chunk_by_mode,
    collection_difference,
)
from corename.lexicon import normalize
from corename.mining import IdentifierKind, RenameRecord, load_rename_records_file
from corename.recommend import recommend

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"


def sets_of(records, mode):
    chunks = chunk_by_mode(records, (mode,)).chunks[mode]
    return build_rename_sets(records, chunks, mode)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({label}): PASS")

        return wrapper

    return decorate


def chunks_of(old, new, mode="lemma"):
    return diff_chunks(normalize(old, mode), normalize(new, mode), mode)


def shapes(chunks):
    return [(c.kind, c.deleted, c.added) for c in chunks]


@criterion(1, "chunk differ matches brute-force minimum")
def test_oracle_equivalence():
    started = time.monotonic()
    # The script-enumeration oracle, the LCS-based bound, and its batched
    # form agree on every sequence shape up to 4x4 (exhaustive up to
    # relabeling)...
    for a, b in canonical_pairs(4, 4):
        expected = enumerate_script_minimum(a, b)
        assert expected == min_changed_words(a, b)
        assert [expected] == batched_min_changed_words([a], [b])
    # ...so the batched LCS bound is the volume oracle for the full run.
    # Word equality is all the differ sees, so checking one representative
    # per relabeling class covers every pair over the 4-letter alphabet.
    checked = 0
    batch_a, batch_b, batch_totals = [], [], []

    def flush():
        nonlocal checked
        if not batch_a:
            return
        assert batch_totals == batched_min_changed_words(batch_a, batch_b)
        checked += len(batch_a)
        batch_a.clear()
        batch_b.clear()
        batch_totals.clear()

    shape = None
    for a, b in canonical_pairs(6, 4):
        if (len(a), len(b)) != shape or len(batch_a) >= 131072:
            flush()
            shape = (len(a), len(b))
        total = 0
        for chunk in diff_lemmas(a, b):
            total += len(chunk.deleted) + len(chunk.added)
        batch_a.append(a)
        batch_b.append(b)
        batch_totals.append(total)
    flush()
    assert checked == 1_246_654  # all length<=6 pairs up to relabeling
    rng = random.Random(20240131)
    for _ in range(10_000):
        a, b = random_pair(rng, 7, 12, "abcdef")
        total = sum(len(c.deleted) + len(c.added) for c in diff_lemmas(a, b))
        assert total == min_changed_words(a, b), (a, b)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"


@criterion(2, "chunk examples regression")
def test_chunk_examples():
    assert shapes(chunks_of("dataProviderId", "dataProviderInstanceId")) == [
        (ChunkKind.INSERT, (), ("instance",))
    ]
    assert shapes(chunks_of("SkipConstantResult", "SkipResult")) == [
        (ChunkKind.DELETE, ("constant",), ())
    ]
    assert shapes(chunks_of("getRandom", "createRandom")) == [
        (ChunkKind.REPLACE, ("get",), ("create",))
    ]
    assert shapes(chunks_of("TIMES", "times")) == [(ChunkKind.OTHER, ("time",), ())]
    assert shapes(chunks_of("instance", "instances")) == [
        (ChunkKind.INFLECT, ("instance",), ())
    ]
    assert shapes(chunks_of("node", "nodes")) == [(ChunkKind.INFLECT, ("node",), ())]
    assert shapes(chunks_of("node", "nodes", "raw")) == [
        (ChunkKind.REPLACE, ("node",), ("nodes",))
    ]
    # one rename with two chunks lands in both of its sets
    records = [
        RenameRecord(
            commit="c",
            kind=IdentifierKind.VARIABLE,
            old_name="minimumVersion",
            new_name="versionSpec",
            index=0,
        )
    ]
    coll = sets_of(records, "raw")
    assert sorted(s.key for s in coll.sets) == ["D|minimum|", "I||spec"]
    assert all(s.members == (records[0],) for s in coll.sets)


@criterion(3, "chunk replay round trip")
def test_round_trip():
    rng = random.Random(97)
    vocab = [
        "node", "nodes", "query", "queries", "item", "items", "get", "set",
        "count", "value", "index", "data", "list", "tree", "map", "entry",
    ]

    def random_words():
        return [rng.choice(vocab) for _ in range(rng.randint(1, 6))]

    def mutate(words):
        out = list(words)
        for _ in range(rng.randint(1, 3)):
            action = rng.randrange(3)
            at = rng.randrange(len(out) + 1) if out else 0
            if action == 0:
                out.insert(at, rng.choice(vocab))
            elif action == 1 and out:
                del out[min(at, len(out) - 1)]
            elif out:
                out[min(at, len(out) - 1)] = rng.choice(vocab)
        return out if out else [rng.choice(vocab)]

    def identifier(words):
        return words[0] + "".join(w.capitalize() for w in words[1:])

    failures = 0
    produced = 0
    while produced < 10_000:
        old_words = random_words()
        new_words = mutate(old_words) if rng.random() < 0.5 else random_words()
        old_name, new_name = identifier(old_words), identifier(new_words)
        if old_name == new_name:
            continue
        produced += 1
        old_seq = normalize(old_name, "lemma")
        new_seq = normalize(new_name, "lemma")
        chunks = diff_chunks(old_seq, new_seq, "lemma")
        if replay_chunks(old_seq.lemmas, chunks) != new_seq.lemmas:
            failures += 1
    assert produced == 10_000
    assert failures == 0


@criterion(4, "bundled fixture: facts and ranked recommendation")
def test_fig_fixture_scenario():
    facts = extract_facts_from_dir(FIXTURES / "fig1")
    assert RelationshipKind.TYPE_V in detect_relationships(
        facts, "MetricType", "metricType"
    )
    assert RelationshipKind.TYPE_M in detect_relationships(
        facts, "MetricType", "getDisabledMetricTypes"
    )
    trigger = attach_chunks(
        [
            RenameRecord(
                commit="t",
                kind=IdentifierKind.CLASS,
                old_name="MetricType",
                new_name="MetricAttribute",
                index=0,
            )
        ],
        "lemma",
    )[0]
    ranked = recommend(trigger, facts)
    position = {c.proposed_name: i for i, c in enumerate(ranked)}
    assert position["metricAttribute"] < position["GMetricAttribute"]
    assert position["getDisabledMetricAttributes"] < position["GMetricAttribute"]
    gated = recommend(trigger, facts, min_score=0.01)
    assert all(c.target_name != "GMetricType" for c in gated)
    assert any(c.proposed_name == "metricAttribute" for c in gated)


@criterion(5, "relationship catalog golden fixtures")
def test_relationship_catalog():
    assert {kind for kind, *_ in GOLDEN} == set(RelationshipKind)
    assert len(GOLDEN) == 14
    for kind, positive, negative, names in GOLDEN:
        assert kind in detect_relationships(
            extract_facts({"F.java": positive}), *names
        ), kind
        assert kind not in detect_relationships(
            extract_facts({"F.java": negative}), *names
        ), kind


@criterion(6, "synthetic corpus matches hand-counted tallies")
def test_synthetic_corpus():
    records = load_rename_records_file(CORPUS / "renames.jsonl")
    facts = {
        p.name: extract_facts_from_dir(p) for p in sorted((CORPUS / "src").iterdir())
    }
    coll = sets_of(records, "lemma")

    assert co_rename_rate(coll) == 23 / 34

    rows = [(r.set_size, r.unique_names, r.members, r.cumulative_rate)
            for r in size_distribution(coll)]
    assert rows == [
        (2, 1, 2, 14 / 23),
        (2, 2, 12, 14 / 23),
        (3, 2, 3, 1.0),
        (3, 3, 6, 1.0),
    ]

    stats = build_repo_stats(records, facts).stats
    assert stats.relationship_rates == {
        RelationshipKind.ACCESSES: 1 / 11,
        RelationshipKind.ASSIGNS: 2 / 11,
        RelationshipKind.CO_OCCURS_M: 2 / 11,
        RelationshipKind.EXTENDS: 1 / 11,
        RelationshipKind.PASSES: 1 / 11,
        RelationshipKind.TYPE_M: 1 / 11,
        RelationshipKind.TYPE_V: 3 / 11,
    }

    assert stats.chunk_type_rates["lemma"] == {
        ChunkKind.INSERT: 2 / 34,
        ChunkKind.DELETE: 4 / 34,
        ChunkKind.REPLACE: 26 / 34,
        ChunkKind.OTHER: 1 / 34,
        ChunkKind.INFLECT: 1 / 34,
    }
    assert stats.chunk_type_rates["raw"] == {
        ChunkKind.INSERT: 2 / 33,
        ChunkKind.DELETE: 4 / 33,
        ChunkKind.REPLACE: 27 / 33,
    }

    impact = stats.inflection
    assert impact.raw_co_rename_rate == 21 / 33
    assert impact.lemma_co_rename_rate == 23 / 34
    assert impact.raw_set_count == 22
    assert impact.lemma_set_count == 21
    assert impact.new_set_count == 3
    assert impact.new_set_relationship_rates == {
        RelationshipKind.TYPE_V: 0.75,
        RelationshipKind.TYPE_M: 0.25,
    }


@criterion(7, "inflection folding creates a detectable merged set")
def test_inflection_merge():
    records = [
        RenameRecord(
            commit="c",
            kind=IdentifierKind.VARIABLE,
            old_name="query",
            new_name="entry",
            index=0,
        ),
        RenameRecord(
            commit="c",
            kind=IdentifierKind.VARIABLE,
            old_name="queries",
            new_name="entries",
            index=1,
        ),
        RenameRecord(
            commit="c",
            kind=IdentifierKind.CLASS,
            old_name="Query",
            new_name="Entry",
            index=2,
        ),
    ]
    lemma = sets_of(records, "lemma")
    raw = sets_of(records, "raw")
    merged = [s for s in lemma.sets if len(s) == 3]
    assert merged and not any(len(s) == 3 for s in raw.sets)
    difference = collection_difference(lemma, raw)
    assert [s.member_identity() for s in difference] == [
        merged[0].member_identity()
    ]
    facts = extract_facts(
        {
            "Q.java": """
            public class Query { }
            public class Repository {
                private Query query;
                private Query queries;
            }
            """
        }
    )
    impact = build_repo_stats(records, default=facts).stats.inflection
    assert impact.new_set_count == len(difference)
    assert RelationshipKind.TYPE_V in impact.new_set_relationship_rates


@criterion(8, "pipeline determinism: two runs write identical bytes")
def test_determinism(tmp_path):
    facts_dir = tmp_path / "facts"
    facts_dir.mkdir()
    for commit_dir in sorted((CORPUS / "src").iterdir()):
        assert (
            run(
                [
                    "facts",
                    "--src",
                    str(commit_dir),
                    "--out",
                    str(facts_dir / f"{commit_dir.name}.json"),
                ]
            )
            == 0
        )

    def pipeline(name):
        sets_path = tmp_path / f"sets_{name}.jsonl"
        assert (
            run(
                [
                    "group",
                    "--renames",
                    str(CORPUS / "renames.jsonl"),
                    "--out",
                    str(sets_path),
                ]
            )
            == 0
        )
        out = tmp_path / name
        assert (
            run(
                [
                    "analyze",
                    "--renames",
                    str(CORPUS / "renames.jsonl"),
                    "--sets",
                    str(sets_path),
                    "--facts-dir",
                    str(facts_dir),
                    "--plots",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        return out

    first = pipeline("one")
    second = pipeline("two")
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert (tmp_path / "sets_one.jsonl").read_bytes() == (
        tmp_path / "sets_two.jsonl"
    ).read_bytes()


@criterion(9, "co-occurring method recommended first")
def test_sibling_method_scenario():
    facts = extract_facts_from_dir(CORPUS / "src" / "c02")
    trigger = attach_chunks(
        [
            RenameRecord(
                commit="t",
                kind=IdentifierKind.METHOD,
                old_name="addItem",
                new_name="addElement",
                index=0,
            )
        ],
        "lemma",
    )[0]
    ranked = recommend(trigger, facts)
    assert ranked[0].target_name == "removeItem"
    assert ranked[0].proposed_name == "removeElement"
    assert RelationshipKind.CO_OCCURS_M in ranked[0].relationships
