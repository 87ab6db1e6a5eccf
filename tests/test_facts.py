"""Tests for the fact extractor and its JSON round trip."""

import json

import pytest

from corename.errors import ParseError
from corename.facts import (
    CodeFacts,
    EntityKind,
    extract_facts,
    extract_facts_from_dir,
)

FIG_SOURCE = """
import java.util.Set;

public class MetricType {
    private String code;

    public String getCode() {
        return code;
    }
}

public class GMetricType {
    private String gangliaName;
}

public class GangliaReporter {
    private Set<MetricType> disabledMetricTypes;

    public Set<MetricType> getDisabledMetricTypes() {
        return disabledMetricTypes;
    }

    public void disable(MetricType metricType) {
        disabledMetricTypes.add(metricType);
    }
}
"""


def names(facts, kind):
    return [e.name for e in facts.entities if e.kind is kind]


def typed_names(facts):
    return {(facts.entities[i].name, t) for i, t in facts.typed}


def returns_names(facts):
    return {(facts.entities[i].name, t) for i, t in facts.returns}


class TestExtractFacts:
    def test_fixture_entities(self):
        facts = extract_facts({"Metrics.java": FIG_SOURCE})
        assert names(facts, EntityKind.CLASS) == [
            "MetricType",
            "GMetricType",
            "GangliaReporter",
        ]
        assert "metricType" in names(facts, EntityKind.PARAMETER)

    def test_parameter_type(self):
        facts = extract_facts({"Metrics.java": FIG_SOURCE})
        assert ("metricType", "MetricType") in typed_names(facts)

    def test_generic_return_indexes_argument(self):
        facts = extract_facts({"Metrics.java": FIG_SOURCE})
        assert ("getDisabledMetricTypes", "Set") in returns_names(facts)
        assert ("getDisabledMetricTypes", "MetricType") in returns_names(facts)

    def test_empty_input(self):
        facts = extract_facts({})
        assert facts.entities == ()
        assert facts.typed == ()

    def test_local_variables_and_assignment(self):
        facts = extract_facts(
            {
                "T.java": """
                class Timer {
                    void run() {
                        int timeoutMillis = 100;
                        long other = timeoutMillis;
                    }
                }
                """
            }
        )
        assert "timeoutMillis" in names(facts, EntityKind.VARIABLE)
        assert ("other", "timeoutMillis", "variable") in facts.assigns

    def test_field_initializer_assignment(self):
        facts = extract_facts(
            {"T.java": "class A { int base; int total = base; }"}
        )
        assert ("total", "base", "attribute") in facts.assigns

    def test_assignment_to_attribute_from_parameter(self):
        facts = extract_facts(
            {
                "T.java": """
                class Message {
                    byte[] data;
                    void setData(byte[] data) {
                        this.data = data;
                    }
                }
                """
            }
        )
        assert ("data", "data", "parameter") in facts.assigns

    def test_assignment_rhs_invocation_uses_final_segment(self):
        facts = extract_facts(
            {
                "T.java": """
                class A {
                    void run() {
                        int size = registry.lookup().count();
                    }
                }
                """
            }
        )
        assert ("size", "count", "invocation") in facts.assigns

    def test_invokes_excludes_self_call(self):
        facts = extract_facts(
            {
                "T.java": """
                class A {
                    void walk() { walk(); helper(); }
                    void helper() { }
                }
                """
            }
        )
        callee_names = {(facts.entities[m].name, c) for m, c in facts.invokes}
        assert ("walk", "helper") in callee_names
        assert ("walk", "walk") not in callee_names

    def test_accesses_only_own_class_attributes(self):
        facts = extract_facts(
            {
                "T.java": """
                class A { int total; int sum() { return total + extra; } }
                class B { int extra; }
                """
            }
        )
        rows = {(facts.entities[m].name, a) for m, a in facts.accesses}
        assert ("sum", "total") in rows
        assert ("sum", "extra") not in rows

    def test_passes_positional_matching(self):
        facts = extract_facts(
            {
                "T.java": """
                class Timer {
                    void schedule(int timeout) { }
                    void run() {
                        int timeoutMillis = 100;
                        schedule(timeoutMillis);
                    }
                }
                """
            }
        )
        assert ("timeout", "timeoutMillis", "variable") in facts.passes

    def test_passes_requires_matching_arity(self):
        facts = extract_facts(
            {
                "T.java": """
                class Timer {
                    void schedule(int timeout) { }
                    void run() {
                        schedule(first, second);
                    }
                }
                """
            }
        )
        assert facts.passes == ()

    def test_extends_and_implements(self):
        facts = extract_facts(
            {
                "T.java": """
                interface Task { }
                class Base { }
                class Job extends Base implements Task { }
                """
            }
        )
        extends = {(facts.entities[i].name, s) for i, s in facts.extends}
        implements = {(facts.entities[i].name, s) for i, s in facts.implements}
        assert ("Job", "Base") in extends
        assert ("Job", "Task") in implements

    def test_inner_class_contained(self):
        facts = extract_facts({"T.java": "class Outer { class Inner { } }"})
        pairs = {
            (facts.entities[p].name, facts.entities[c].name)
            for p, c in facts.contains
        }
        assert ("Outer", "Inner") in pairs

    def test_anonymous_class_body_skipped(self):
        facts = extract_facts(
            {
                "T.java": """
                class A {
                    void start() {
                        exec(new Runnable() { public void run() { int hidden = 0; } });
                    }
                }
                """
            }
        )
        assert "hidden" not in names(facts, EntityKind.VARIABLE)
        assert "run" not in names(facts, EntityKind.METHOD)

    def test_annotations_skipped(self):
        facts = extract_facts(
            {
                "T.java": """
                @Deprecated
                class A {
                    @Override
                    void m(@SuppressWarnings("x") int v) { }
                }
                """
            }
        )
        assert names(facts, EntityKind.CLASS) == ["A"]
        assert "m" in names(facts, EntityKind.METHOD)
        assert "v" in names(facts, EntityKind.PARAMETER)

    def test_comments_and_strings_ignored(self):
        facts = extract_facts(
            {
                "T.java": """
                class A {
                    // class Fake { }
                    /* int ghost; */
                    String s() { return "class NotReal { }"; }
                }
                """
            }
        )
        assert names(facts, EntityKind.CLASS) == ["A"]

    def test_monotonic_under_added_file(self):
        base = {"A.java": "class A { void m() { } }"}
        more = dict(base)
        more["B.java"] = "class B extends A { }"
        small = extract_facts(base)
        big = extract_facts(more)
        small_rows = {(small.entities[p].name, small.entities[c].name)
                      for p, c in small.contains}
        big_rows = {(big.entities[p].name, big.entities[c].name)
                    for p, c in big.contains}
        assert small_rows <= big_rows

    def test_qualified_path(self):
        facts = extract_facts(
            {"T.java": "class Outer { class Inner { void m() { } } }"}
        )
        method = next(e for e in facts.entities if e.kind is EntityKind.METHOD)
        assert facts.qualified_path(method) == "Outer.Inner.m"


class TestFactsJson:
    def test_round_trip(self, tmp_path):
        facts = extract_facts({"Metrics.java": FIG_SOURCE})
        path = tmp_path / "facts.json"
        facts.save(path)
        again = CodeFacts.load(path)
        assert again == facts

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"entities": [', "line 1: invalid JSON"),
            ('[]', "not a JSON object"),
            ('{"entities": [{"id": 0, "kind": "Class", "name": "A"}]}', "entity 0: missing key"),
            ('{"entities": [{"id": 0, "kind": "Klass", "name": "A", "container": null, "file": "A.java"}]}', "entity 0:"),
            ('{"entities": [{"id": 0, "kind": "Class", "name": "A", "container": 4, "file": "A.java"}]}', "entity 0: malformed"),
            ('{"entities": [], "contains": [[0, 1]]}', "contains row 0"),
            ('{"entities": [], "assigns": [["a", "b"]]}', "assigns row 0"),
            ('{"typed": {}}', "typed: not a list"),
        ],
    )
    def test_malformed_file_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "c01.json"
        path.write_text(text)
        with pytest.raises(ParseError) as caught:
            CodeFacts.load(path)
        assert str(caught.value).startswith(f"{path}: ")
        assert message in str(caught.value)

    def test_json_is_plain_data(self, tmp_path):
        facts = extract_facts({"Metrics.java": FIG_SOURCE})
        path = tmp_path / "facts.json"
        facts.save(path)
        data = json.loads(path.read_text())
        assert {"entities", "typed", "returns", "passes"} <= set(data)


def test_extract_from_dir(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "A.java").write_text("class A { }")
    (tmp_path / "sub" / "B.java").write_text("class B { }")
    (tmp_path / "notes.txt").write_text("class C { }")
    facts = extract_facts_from_dir(tmp_path)
    assert names(facts, EntityKind.CLASS) == ["A", "B"]


def test_detection_over_facts_built_from_json():
    # relationship checks work on imported tables without any parsing
    from corename.facts import RelationshipKind, detect_relationships

    facts = CodeFacts.from_json(
        {
            "entities": [
                {"id": 0, "kind": "Class", "name": "Engine", "container": None, "file": "E.java"},
                {"id": 1, "kind": "Method", "name": "start", "container": 0, "file": "E.java"},
            ],
            "contains": [[0, 1]],
            "assigns": [["dst", "src", "variable"]],
        }
    )
    assert RelationshipKind.BELONGS_M in detect_relationships(facts, "Engine", "start")
    assert RelationshipKind.ASSIGNS in detect_relationships(facts, "src", "dst")
