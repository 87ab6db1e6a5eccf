"""Tests for identifier splitting and lemmatization."""

import gc
import json
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from _oracles import join_words, normalize_reference, split_identifier_reference
from corename.errors import InvalidIdentifier, ParseError
from corename.facts.parser import tokenize
from corename.lexicon import (
    MODES,
    Lemmatizer,
    Vocabulary,
    casing_of,
    default_lemmatizer,
    lemmatize_word,
    normalize,
    pluralize,
    split_identifier,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestSplitIdentifier:
    def test_camel_case(self):
        assert split_identifier("dataProviderId").folded == ("data", "provider", "id")

    def test_all_caps_single_word(self):
        seq = split_identifier("TIMES")
        assert seq.folded == ("times",)
        assert seq.words[0].casing == "ALLCAPS"

    def test_method_name(self):
        assert split_identifier("getDisabledMetricTypes").folded == (
            "get",
            "disabled",
            "metric",
            "types",
        )

    def test_underscores(self):
        assert split_identifier("max_value_count").folded == ("max", "value", "count")
        assert split_identifier("__init__").folded == ("init",)

    def test_acronym_run(self):
        assert split_identifier("XMLHttpRequest").surfaces == ("XML", "Http", "Request")
        assert split_identifier("GMetricType").surfaces == ("G", "Metric", "Type")

    def test_digit_boundaries(self):
        assert split_identifier("value2").folded == ("value", "2")
        assert split_identifier("foo2bar").folded == ("foo", "2", "bar")

    @pytest.mark.parametrize("bad", ["", "_", "___", "foo-bar", "a.b", "x y"])
    def test_invalid(self, bad):
        with pytest.raises(InvalidIdentifier):
            split_identifier(bad)

    def test_surfaces_partition_origin(self):
        for name in ["dataProviderId", "max_value", "XMLHttpRequest", "a2bC"]:
            seq = split_identifier(name)
            assert "".join(seq.surfaces) == name.replace("_", "")


class TestCasing:
    @pytest.mark.parametrize(
        "surface,expected",
        [
            ("data", "lower"),
            ("Provider", "Capitalized"),
            ("HTTP", "ALLCAPS"),
            ("X", "Capitalized"),
            ("iPhone", "mixed"),
            ("7", "lower"),
        ],
    )
    def test_casing_of(self, surface, expected):
        assert casing_of(surface) == expected


class TestLemmatizer:
    @pytest.mark.parametrize(
        "word,lemma",
        [
            ("queries", "query"),
            ("creator", "creator"),
            ("nodes", "node"),
            ("times", "time"),
            ("types", "type"),
            ("classes", "class"),
            ("boxes", "box"),
            ("watches", "watch"),
            ("wishes", "wish"),
            ("status", "status"),
            ("copied", "copy"),
            ("planned", "plan"),
            ("running", "run"),
            ("creating", "create"),
            ("children", "child"),
            ("indices", "index"),
            ("ran", "run"),
            ("7", "7"),
        ],
    )
    def test_examples(self, word, lemma):
        assert lemmatize_word(word) == lemma

    def test_idempotent_on_exception_table(self):
        lem = default_lemmatizer()
        for inflected, lemma in lem.exceptions.items():
            assert lem(inflected) == lemma
            assert lem(lemma) == lem(lem(lemma))

    def test_custom_table(self, tmp_path):
        table = tmp_path / "forms.txt"
        table.write_text("# comment\nfoos bar\n")
        lem = Lemmatizer.from_file(table)
        assert lem("foos") == "bar"
        assert lem("cars") == "car"

    @pytest.mark.parametrize("line", ["foos", "foos bar baz"])
    def test_table_line_without_two_columns(self, tmp_path, line):
        table = tmp_path / "forms.txt"
        table.write_text(f"# comment\nfoos bar\n{line}\n")
        with pytest.raises(ParseError) as caught:
            Lemmatizer.from_file(table)
        assert str(caught.value).startswith(f"{table}: line 3: ")

    def test_idempotent_on_generated_inflections(self):
        # Stems drawn from common identifier vocabulary, inflected by the
        # regular rules; lemmatizing twice must equal lemmatizing once.
        stems = [
            "node", "query", "type", "value", "item", "element", "handler",
            "index", "class", "box", "entry", "key", "result", "token",
            "parser", "buffer", "cache", "metric", "record", "field",
            "option", "branch", "batch", "match", "patch", "watch", "hash",
            "flag", "status", "address", "process", "test", "file", "line",
            "word", "name", "count", "total", "page", "user", "group",
            "task", "job", "event", "state", "store", "queue", "stack",
            "graph", "edge", "label", "score", "weight", "source", "target",
            "parse", "create", "update", "delete", "make", "use", "close",
            "plan", "stop", "map", "run", "get", "set", "walk", "load",
            "save", "move", "merge", "change", "encode", "decode", "render",
            "insert", "replace", "remove", "append", "compute", "resolve",
            "validate", "iterate", "generate", "schedule", "serialize",
        ]
        lem = default_lemmatizer()
        checked = 0
        for stem in stems:
            forms = {stem, pluralize(stem)}
            if stem.endswith("e"):
                forms.add(stem + "d")
                forms.add(stem[:-1] + "ing")
            elif stem.endswith("y") and stem[-2] not in "aeiou":
                forms.add(stem[:-1] + "ied")
                forms.add(stem + "ing")
            else:
                doubled = stem + stem[-1] if stem[-1] in "bdgmnpt" and len(stem) <= 4 else stem
                forms.add(doubled + "ed")
                forms.add(doubled + "ing")
            for form in forms:
                once = lem(form)
                assert lem(once) == once, (form, once, lem(once))
                checked += 1
        assert checked >= 300

    def test_pluralize_inverts_stripping(self):
        for lemma in ["attribute", "query", "class", "box", "bus", "entry", "node"]:
            assert lemmatize_word(pluralize(lemma)) == lemma


class TestNormalize:
    def test_lemma_mode(self):
        assert normalize("MetricTypes", "lemma").lemmas == ("metric", "type")

    def test_raw_mode_copies_folded(self):
        seq = normalize("MetricTypes", "raw")
        assert seq.lemmas == ("metric", "types")
        assert seq.lemmas == seq.folded

    def test_allcaps_raw(self):
        seq = normalize("TIMES", "raw")
        assert seq.lemmas == ("times",)
        assert seq.words[0].casing == "ALLCAPS"

    def test_invalid_propagates(self):
        with pytest.raises(InvalidIdentifier):
            normalize("", "lemma")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            normalize("x", "stem")


IDENT = st.from_regex(r"[a-zA-Z][a-zA-Z0-9]{0,14}(_[a-zA-Z0-9]{1,8}){0,3}", fullmatch=True)


@given(IDENT)
def test_normalize_idempotent_on_lemmas(name):
    first = normalize(name, "lemma")
    again = normalize(join_words(first), "lemma")
    assert again.lemmas == first.lemmas


@given(IDENT)
def test_fold_preserves_word_count(name):
    seq = split_identifier(name)
    assert len(seq.folded) == len(seq.surfaces)
    assert [w.folded for w in seq.words] == [w.surface.lower() for w in seq.words]


@given(IDENT)
def test_split_total_and_deterministic(name):
    assert split_identifier(name).surfaces == split_identifier(name).surfaces
    assert all(seq for seq in split_identifier(name).surfaces)


# --- the regex split against the per-character splitter it replaced ---------

# Letters of both cases, digits, underscores and acronym runs; "$" and "-"
# make some draws invalid, so rejections are compared too.
_PIECES = st.one_of(
    st.sampled_from(list("aAbBzZ09_")),
    st.sampled_from(
        ["HTTP", "Server", "GMetric", "Type", "XML", "Http", "ID", "URLs",
         "nodes", "Queries", "v2", "IO", "x", "__", "$", "-"]
    ),
)
_DRAWN = st.lists(_PIECES, min_size=0, max_size=12).map("".join)
_CUSTOM = Lemmatizer({"nodes": "vertex", "http": "web", "a": "b"})


def _fixture_names():
    names = set()
    for path in sorted(FIXTURES.rglob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                obj = json.loads(line)
                names.update((obj["old"], obj["new"]))
    for path in sorted(FIXTURES.rglob("*.java")):
        names.update(
            t for t in tokenize(path.read_text(encoding="utf-8"))
            if t[0].isalpha() or t[0] in "_$"
        )
    return sorted(names)


def _view(seq):
    return (
        seq.origin,
        seq.surfaces,
        seq.folded,
        seq.lemmas,
        tuple(w.casing for w in seq.words),
    )


def _assert_same_as_reference(name, normalize_fn, lemmatizer):
    for mode in MODES:
        try:
            want = normalize_reference(name, mode, lemmatizer)
        except InvalidIdentifier as exc:
            with pytest.raises(InvalidIdentifier) as caught:
                normalize_fn(name, mode)
            assert str(caught.value) == str(exc)
            continue
        got = normalize_fn(name, mode)
        assert _view(got) == _view(want), (name, mode)
        assert got == want


def _assert_names_same_as_reference(names, lemmatizer=None):
    shared = Vocabulary(lemmatizer)  # one interning table for every name
    for name in names:
        try:
            want = split_identifier_reference(name)
        except InvalidIdentifier as exc:
            with pytest.raises(InvalidIdentifier) as caught:
                split_identifier(name)
            assert str(caught.value) == str(exc)
        else:
            assert _view(split_identifier(name)) == _view(want)
        _assert_same_as_reference(
            name, lambda n, mode: normalize(n, mode, lemmatizer), lemmatizer
        )
        _assert_same_as_reference(name, shared.normalize, lemmatizer)


class TestSameAsReferenceSplitter:
    def test_fixture_names(self):
        names = _fixture_names()
        assert len(names) > 100
        _assert_names_same_as_reference(names)
        _assert_names_same_as_reference(names, _CUSTOM)

    def test_acronym_runs(self):
        names = ["HTTPServer", "GMetricType", "XMLHttpRequest", "getHTTPS",
                 "HTTP2Server", "IOError_HTTP", "aBCd", "ABc", "URLs"]
        _assert_names_same_as_reference(names)
        assert split_identifier("HTTPServer").surfaces == ("HTTP", "Server")

    @given(st.lists(_DRAWN, max_size=8))
    def test_drawn_names(self, names):
        _assert_names_same_as_reference(names)

    @given(st.lists(_DRAWN, max_size=8))
    def test_drawn_names_custom_lemmatizer(self, names):
        _assert_names_same_as_reference(names, _CUSTOM)


class TestVocabulary:
    def test_words_are_interned(self):
        vocabulary = Vocabulary()
        first = vocabulary.normalize("nodeCount", "raw")
        second = vocabulary.normalize("maxNodes_node", "raw")
        assert first.words[0] is second.words[2]

    def test_lemmatizer_runs_once_per_word(self):
        calls = []

        def lemmatizer(word):
            calls.append(word)
            return default_lemmatizer()(word)

        vocabulary = Vocabulary(lemmatizer)
        for name in ["nodeCount", "NodeCount", "nodes", "nodeNodes"]:
            vocabulary.normalize(name, "lemma")
        # once per distinct surface: node, Count, Node, nodes, Nodes
        assert sorted(calls) == ["count", "node", "node", "nodes", "nodes"]

    def test_freed_without_the_cycle_collector(self):
        # a vocabulary per normalize call must not pile up until a full
        # garbage collection
        vocabulary = Vocabulary()
        vocabulary.normalize("maxNodes", "lemma")
        freed = weakref.ref(vocabulary)
        gc.disable()
        try:
            del vocabulary
            assert freed() is None
        finally:
            gc.enable()

    def test_unchanged_lemma_sequence_is_the_raw_one(self):
        vocabulary = Vocabulary()
        raw = vocabulary.split("nodeCount")
        assert vocabulary.lemmatized(raw) is raw
        assert vocabulary.lemmatized(vocabulary.split("nodes")).lemmas == ("node",)
