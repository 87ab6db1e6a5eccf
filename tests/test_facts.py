"""Tests for the fact extractor and its JSON round trip."""

import gc
import json
import weakref
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    extract_facts_reference,
    facts_from_json_per_entity,
    facts_json_reference,
)
from corename.errors import CorenameError, ParseError
from corename.facts import (
    CodeFacts,
    Entity,
    EntityKind,
    extract_facts,
    extract_facts_from_dir,
)

FIXTURES = Path(__file__).parent / "fixtures"

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


    def test_field_missing_semicolon_ends_at_class_brace(self):
        facts = extract_facts(
            {"A.java": "class A { int x = 1 } class B { int y; void m() { } }"}
        )
        by_name = {e.name: e for e in facts.entities}
        assert by_name["B"].kind is EntityKind.CLASS
        assert by_name["y"].container == by_name["B"].id
        assert by_name["m"].container == by_name["B"].id
        assert by_name["x"].container == by_name["A"].id
        assert facts.assigns == ()

    def test_bodiless_method_missing_semicolon_ends_at_class_brace(self):
        facts = extract_facts(
            {"A.java": "interface I { void m() } class B { int y; }"}
        )
        by_name = {e.name: e for e in facts.entities}
        assert by_name["m"].container == by_name["I"].id
        assert by_name["y"].container == by_name["B"].id

    def test_this_chain_classified_like_other_dotted_chains(self):
        facts = extract_facts(
            {
                "T.java": """
                class A {
                    int x;
                    void m() {
                        int y = this.x.a().b;
                        int z = x.a().b;
                    }
                }
                """
            }
        )
        assert ("y", "b", "attribute") in facts.assigns
        assert ("z", "b", "attribute") in facts.assigns

    def test_this_followed_by_keyword_records_no_name(self):
        facts = extract_facts(
            {
                "T.java": """
                class A {
                    Object q;
                    Object r;
                    void m() {
                        q = this.new();
                        r = this.class;
                    }
                }
                """
            }
        )
        assert [row for row in facts.assigns if row[0] in ("q", "r")] == []

    def test_typed_lambda_parameters_are_locals(self):
        facts = extract_facts(
            {
                "T.java": """
                class A {
                    void m() {
                        run((String a, final String b) -> a);
                        run((Item c, List<Item> d) -> c);
                    }
                }
                """
            }
        )
        assert names(facts, EntityKind.VARIABLE) == ["a", "b", "c", "d"]
        assert typed_names(facts) == {
            ("a", "String"), ("b", "String"), ("c", "Item"), ("d", "List"), ("d", "Item")
        }

    def test_catch_and_single_typed_lambda_parameters_are_locals(self):
        facts = extract_facts(
            {
                "T.java": """
                class A {
                    int y;
                    void m() {
                        try { load(); } catch (IOException e) { y = e; }
                        try { load(); } catch (final Failure f) { }
                        run((String a) -> a);
                        run((final List<Item> b) -> b);
                    }
                }
                """
            }
        )
        assert names(facts, EntityKind.VARIABLE) == ["e", "f", "a", "b"]
        assert typed_names(facts) == {
            ("y", "int"), ("e", "IOException"), ("f", "Failure"),
            ("a", "String"), ("b", "List"), ("b", "Item"),
        }
        assert ("y", "e", "variable") in facts.assigns

    def test_parenthesized_name_without_catch_or_arrow_is_no_local(self):
        facts = extract_facts(
            {
                "T.java": """
                class A {
                    void m() {
                        run((x) -> x);
                        get((a < b, c > d));
                        if ((T) u != null) { }
                        run((Item) -> x);
                    }
                }
                """
            }
        )
        assert names(facts, EntityKind.VARIABLE) == []

    def test_declarator_list_keeps_its_type(self):
        facts = extract_facts(
            {"T.java": "class A { void m() { int a, b = 1, c; } }"}
        )
        assert names(facts, EntityKind.VARIABLE) == ["a", "b", "c"]
        assert typed_names(facts) == {("a", "int"), ("b", "int"), ("c", "int")}

    def test_declarator_list_stops_at_a_keyword(self):
        facts = extract_facts(
            {"T.java": "class A { void m() { get(a < b, c > d, this.e); get(a < b, c > d, null); } }"}
        )
        assert names(facts, EntityKind.VARIABLE) == ["d", "d"]

    def test_statements_after_case_and_default_labels(self):
        facts = extract_facts(
            {
                "T.java": """
                class A {
                    int y;
                    void m(int e) {
                        switch (e) {
                            case X: int k = y; break;
                            case Y: case Z: q = e; break;
                            default: int w = k;
                        }
                    }
                }
                """
            }
        )
        assert names(facts, EntityKind.VARIABLE) == ["k", "w"]
        assert ("k", "y", "attribute") in facts.assigns
        assert ("q", "e", "parameter") in facts.assigns
        assert ("w", "k", "variable") in facts.assigns

    def test_ternary_and_for_each_colons_start_no_statement(self):
        facts = extract_facts(
            {
                "T.java": """
                class A {
                    void m(boolean c, int[] xs) {
                        int v = c ? a : b = 2;
                        for (int x : xs) { }
                        for (String s : names = list) { }
                    }
                }
                """
            }
        )
        assert names(facts, EntityKind.VARIABLE) == ["v", "x", "s"]
        assert {row[0] for row in facts.assigns} == {"v"}

    def test_skipped_file_adds_only_its_skipped_row(self):
        # the deep file declares a field, a method and a call before its
        # nesting exhausts the stack; none of them may reach the facts, nor
        # resolve a pass against the plain file's method of the same arity
        depth = sys.getrecursionlimit()
        deep = (
            "class Deep { int width; void m(int size) { m(width); } "
            + "class C { " * depth + "}" * depth + " }"
        )
        plain = "class Plain { int height; void m(int count) { m(height); } }"
        alone = extract_facts({"B.java": plain}).to_json()
        both = extract_facts({"A.java": deep, "B.java": plain}).to_json()
        assert [row[0] for row in both.pop("skipped")] == ["A.java"]
        assert alone.pop("skipped") == []
        assert both == alone


def _fixture_sources(directory):
    return {
        str(path.relative_to(directory)): path.read_text(encoding="utf-8")
        for path in sorted(directory.rglob("*.java"))
    }


def _assert_same_as_reference(sources):
    got = extract_facts(sources).to_json()
    want = extract_facts_reference(sources).to_json()
    # name the differing tables, not a diff of every row
    assert got.keys() == want.keys()
    assert [table for table in want if got[table] != want[table]] == []


# A Java subset grammar for the reference comparison.  It leaves out the
# inputs the rewrite reads differently on purpose: a member missing its
# ';'; a 'this.' chain with a call before a later '.name' or with a keyword
# after 'this.'; a keyword after the ',' that ends a declarator, as in the
# generic-looking call 'm(a < b, c > d, this.e)'; typed lambda parameters;
# and statements after a 'case' or 'default' label.
_KEYWORD_LED = re.compile(r"(this|null|true|new)\b")
_names = st.sampled_from(["a", "b", "count", "item", "node", "value"])
_methods = st.sampled_from(["get", "put", "run", "size", "m"])
_classes = st.sampled_from(["A", "B", "Item", "Node"])
_prims = st.sampled_from(["int", "long", "boolean", "double"])


def _generic(args):
    return st.builds(
        "{}<{}>".format,
        st.sampled_from(["List", "Map", "Set"]),
        st.lists(args, min_size=1, max_size=2).map(", ".join),
    )


_type_args = st.one_of(
    _classes,
    _classes.map("java.util.{}".format),
    _classes.map("? extends {}".format),
    _generic(_classes),
)
_ref_types = st.one_of(
    _classes,
    _classes.map("java.util.{}".format),
    _generic(_type_args),  # generics nested two deep
)
_types = st.one_of(
    _prims, _ref_types, st.one_of(_prims, _classes).map("{}[]".format)
)


def _args(exprs):
    return st.lists(exprs, max_size=3).map(", ".join)


def _extend(exprs):
    return st.one_of(
        st.builds("{}({})".format, _methods, _args(exprs)),
        st.builds("{}.{}({})".format, _names, _methods, _args(exprs)),
        st.builds("{}.{}().{}".format, _names, _methods, _names),
        st.builds("this.{}({})".format, _methods, _args(exprs)),
        st.builds("new {}({})".format, _ref_types, _args(exprs)),
        st.builds(
            "new {}({}) {{ public void run() {{ int {} = {}; }} }}".format,
            _classes, _args(exprs), _names, exprs,
        ),
        st.builds("{} -> {}".format, _names, exprs),
        st.builds("({}, {}) -> {{ return {}; }}".format, _names, _names, exprs),
        st.builds(
            "{} {} {}".format, exprs, st.sampled_from(["+", "<", ">", "==", "&&"]), exprs
        ),
        st.builds("{}[{}]".format, _names, exprs),
        st.builds("{} ? {} : {}".format, exprs, exprs, exprs),
        # comparisons that read like a generic type up to the last name
        st.builds(
            "{}({} < {}, {} > {}, {})".format,
            _methods, _names, exprs, _names, _names,
            exprs.filter(lambda e: not _KEYWORD_LED.match(e)),
        ),
        st.builds("({})".format, exprs),
    )


_exprs = st.recursive(
    st.one_of(
        _names,
        _names.map("this.{}".format),
        st.builds("{}.{}".format, _names, _names),
        st.sampled_from(["1", "0L", '"text"', "null", "true"]),
    ),
    _extend,
    max_leaves=5,
)
_statements = st.one_of(
    st.builds("{} {} = {};".format, _types, _names, _exprs),
    st.builds("{} {} = {} ? {} : {};".format, _types, _names, _names, _exprs, _exprs),
    st.builds("final {} {};".format, _types, _names),
    st.builds("{} {}, {} = {};".format, _types, _names, _names, _exprs),
    st.builds("this.{} = {};".format, _names, _exprs),
    st.builds("{}[{}] = {};".format, _names, _names, _exprs),
    st.builds("{} {} {};".format, _names, st.sampled_from(["=", "+="]), _exprs),
    st.builds("{}.{}({});".format, _names, _methods, _args(_exprs)),
    st.builds("{}({});".format, _methods, _args(_exprs)),
    st.builds("return {};".format, _exprs),
    st.builds(
        "for ({} {} : {}) {{ {} = {}; }}".format,
        _types, _names, _names, _names, _exprs,
    ),
)
_block = st.lists(_statements, max_size=4).map(" ".join)
_param = st.builds(
    "{}{}{} {}".format,
    st.sampled_from(["", "@Nullable ", '@SuppressWarnings("x") ']),
    st.sampled_from(["", "final "]),
    _types,
    _names,
)
_params = st.builds(
    lambda params, varargs: ", ".join(params + ["final Item... rest"] * varargs),
    st.lists(_param, max_size=3),
    st.booleans(),
)
_methods_decl = st.one_of(
    st.builds(
        "{}{} {}({}) {{ {} }}".format,
        st.sampled_from(["", "public ", "@Override ", "<T> "]),
        st.one_of(_types, st.just("void")),
        _methods,
        _params,
        _block,
    ),
    st.builds("{}({}) {{ {} }}".format, _classes, _params, _block),  # constructor
)
_signatures = st.builds(
    "{} {}({});".format, st.one_of(_types, st.just("void")), _methods, _params
)
_fields = st.one_of(
    st.builds("{}{} {};".format, st.sampled_from(["", "private ", "static final "]), _types, _names),
    st.builds("{} {} = {};".format, _types, _names, _exprs),
    st.builds("{} {} = {} ? {} : {};".format, _types, _names, _names, _exprs, _exprs),
    st.builds("{} {} = {}, {};".format, _types, _names, _exprs, _names),
)


def _class(members):
    return st.builds(
        "{}class {}{}{}{} {{ {} }}".format,
        st.sampled_from(["", "public ", "abstract "]),
        _classes,
        st.sampled_from(["", "<T>", "<K, V extends A>"]),
        st.one_of(st.just(""), _ref_types.map(" extends {}".format)),
        st.one_of(
            st.just(""),
            st.lists(_ref_types, min_size=1, max_size=2).map(
                lambda ts: " implements " + ", ".join(ts)
            ),
        ),
        st.lists(members, max_size=5).map(" ".join),
    )


_interface = st.builds(
    "interface {}{} {{ {} }}".format,
    _classes,
    st.one_of(
        st.just(""),
        st.lists(_ref_types, min_size=1, max_size=3).map(
            lambda ts: " extends " + ", ".join(ts)
        ),
    ),
    st.lists(_signatures, max_size=3).map(" ".join),
)
_members = st.one_of(_fields, _methods_decl, _signatures.map("abstract {}".format))
_types_decl = st.one_of(
    _class(st.one_of(_members, _class(_members), _interface)),  # nested classes
    _interface,
)
_sources = st.dictionaries(
    st.sampled_from(["A.java", "p/B.java", "C.java"]),
    st.builds(
        "{}{}".format,
        st.sampled_from(["", "package p; import java.util.List;\n"]),
        st.lists(_types_decl, min_size=1, max_size=3).map("\n".join),
    ),
    min_size=1,
)


class TestSameFactsAsReference:
    """``extract_facts`` against the extractor it replaced, table for table."""

    @pytest.mark.parametrize("tree", ["corpus/src", "fig1"])
    def test_fixture_trees(self, tree):
        _assert_same_as_reference(_fixture_sources(FIXTURES / tree))

    @settings(max_examples=150, deadline=None)
    @given(_sources)
    def test_generated_sources(self, sources):
        _assert_same_as_reference(sources)


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

    @pytest.mark.parametrize("id_value", ["true", "1.0"])
    def test_entity_id_must_be_an_int(self, tmp_path, id_value):
        path = tmp_path / "c01.json"
        entity = '{"id": %s, "kind": "Class", "name": "B", "container": null, "file": "B.java"}'
        path.write_text(
            '{"entities": [%s, %s]}' % (entity % "0", entity % id_value)
        )
        with pytest.raises(ParseError, match="entity 1: malformed"):
            CodeFacts.load(path)

    def test_json_is_plain_data(self, tmp_path):
        facts = extract_facts({"Metrics.java": FIG_SOURCE})
        path = tmp_path / "facts.json"
        facts.save(path)
        data = json.loads(path.read_text())
        assert {"entities", "typed", "returns", "passes"} <= set(data)


# names, files and skip reasons: non-ASCII, quotes, backslashes, newlines
_facts_text = st.text(
    st.one_of(st.sampled_from('"\\\n\té中\U0001f600'), st.characters()), max_size=6
)


@st.composite
def _drawn_facts(draw):
    count = draw(st.integers(0, 5))
    entities = tuple(
        Entity(
            id=i,
            kind=draw(st.sampled_from(EntityKind)),
            name=draw(_facts_text),
            container=draw(st.none() | st.integers(0, count - 1)),
            file=draw(_facts_text),
        )
        for i in range(count)
    )
    cell = {"i": st.integers(0, count - 1), "s": _facts_text}
    tables = {}
    for key, columns in {
        "contains": "ii", "extends": "is", "implements": "is", "typed": "is",
        "returns": "is", "invokes": "is", "accesses": "is", "assigns": "sss",
        "passes": "sss", "skipped": "ss",
    }.items():
        if count or "i" not in columns:
            rows = st.tuples(*(cell[column] for column in columns))
            tables[key] = tuple(draw(st.lists(rows, max_size=3)))
    return CodeFacts(entities=entities, **tables)


class TestDumpsMatchesReference:
    """``CodeFacts.dumps`` against ``json.dumps`` of ``to_json``, byte for byte."""

    @pytest.mark.parametrize("tree", ["corpus/src", "fig1"])
    def test_fixture_trees(self, tree):
        facts = extract_facts_from_dir(FIXTURES / tree)
        assert facts.entities and facts.typed
        assert facts.dumps() == facts_json_reference(facts)

    def test_empty_facts(self):
        assert CodeFacts().dumps() == facts_json_reference(CodeFacts())

    @settings(max_examples=200, deadline=None)
    @given(_drawn_facts())
    def test_drawn_facts(self, facts):
        text = facts.dumps()
        assert text == facts_json_reference(facts)
        assert CodeFacts.from_json(json.loads(text)) == facts

    def test_save_writes_dumps(self, tmp_path):
        facts = extract_facts({"Metrics.java": FIG_SOURCE})
        path = tmp_path / "new" / "facts.json"
        facts.save(path)
        assert path.read_bytes() == facts.dumps().encode("ascii")


_MISSING = "<missing>"


def _entity_mutation(position, count):
    """A change to entity ``position`` of ``count`` that may make it
    malformed, as (key, value), (key, _MISSING) to delete the key, or
    (None, value) to replace the whole entity."""
    same_id = [bool(position)] if position < 2 else []
    return st.one_of(
        st.tuples(st.none(), st.sampled_from([[position, "Class"], "entity", 0, None])),
        st.tuples(st.sampled_from(["id", "kind", "name", "container", "file"]), st.just(_MISSING)),
        st.tuples(st.just("id"), st.sampled_from(
            [*same_id, float(position), position + 1, position - 1, str(position)]
        )),
        st.tuples(st.just("kind"), st.sampled_from(["Klass", "class", "", 1, None, ["Class"]])),
        st.tuples(st.sampled_from(["name", "file"]), st.sampled_from([1, None, ["a"], {}])),
        st.tuples(st.just("container"), st.sampled_from(
            [True, False, -1, count, count + 2, 0.0, "0", [0]]
        )),
        st.tuples(st.just("container"), st.integers(0, count - 1) | st.none()),
    )


@st.composite
def _entity_tables(draw):
    """Facts as JSON data whose entities carry zero to three mutations."""
    count = draw(st.integers(0, 6))
    listed = [
        {
            "id": i,
            "kind": draw(st.sampled_from(EntityKind)).value,
            "name": draw(st.sampled_from(["a", "Ab", "é", ""])),
            "container": draw(st.none() | st.integers(0, count - 1)),
            "file": draw(st.sampled_from(["A.java", "p/B.java"])),
        }
        for i in range(count)
    ]
    ids = st.integers(0, count + 1)
    contains = draw(st.lists(st.lists(ids, min_size=2, max_size=2), max_size=2))
    for _ in range(draw(st.integers(0, 3)) if listed else 0):
        position = draw(st.integers(0, count - 1))
        key, value = draw(_entity_mutation(position, count))
        if key is None:
            listed[position] = value
        elif isinstance(listed[position], dict):
            if value == _MISSING:
                listed[position].pop(key, None)
            else:
                listed[position][key] = value
    return {"entities": listed, "contains": contains}


def _loaded(load, data):
    try:
        return load(data)
    except ParseError as exc:
        return f"ParseError: {exc}"


class TestEntityLoaderMatchesReference:
    """``CodeFacts.from_json`` reads the entities table column by column; the
    per-entity loop it replaced must give equal facts or the same error."""

    @pytest.mark.parametrize("tree", ["corpus/src", "fig1"])
    def test_fixture_trees(self, tree):
        data = extract_facts_from_dir(FIXTURES / tree).to_json()
        facts = CodeFacts.from_json(data)
        assert facts.entities and facts == facts_from_json_per_entity(data)

    @settings(max_examples=300, deadline=None)
    @given(_entity_tables())
    def test_mutated_entities(self, data):
        assert _loaded(CodeFacts.from_json, data) == _loaded(
            facts_from_json_per_entity, data
        )

    @pytest.mark.parametrize("key, value", [
        ("id", True), ("id", 1.0), ("id", 2), ("kind", "Klass"), ("kind", ["Class"]),
        ("name", 1), ("file", None), ("container", True), ("container", -1),
        ("container", 3), ("container", 1.0),
    ])
    def test_malformed_second_entity(self, key, value):
        # each is named by the reference's message
        listed = [
            {"id": i, "kind": "Class", "name": "A", "container": None, "file": "A.java"}
            for i in range(3)
        ]
        listed[1] = {**listed[1], key: value}
        data = {"entities": listed}
        expected = _loaded(facts_from_json_per_entity, data)
        assert expected.startswith("ParseError: entity 1: ")
        assert _loaded(CodeFacts.from_json, data) == expected


def test_facts_with_index_freed_without_the_cycle_collector():
    # a process that replaces its snapshot must not keep the old one, index
    # and recommender tables included, until a full garbage collection
    facts = extract_facts({"Metrics.java": FIG_SOURCE})
    assert facts.index.by_name
    freed = weakref.ref(facts)
    gc.disable()
    try:
        del facts
        assert freed() is None
    finally:
        gc.enable()


def test_extract_from_dir(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "A.java").write_text("class A { }")
    (tmp_path / "sub" / "B.java").write_text("class B { }")
    (tmp_path / "notes.txt").write_text("class C { }")
    facts = extract_facts_from_dir(tmp_path)
    assert names(facts, EntityKind.CLASS) == ["A", "B"]


def test_extract_from_dir_needs_a_directory(tmp_path):
    (tmp_path / "A.java").write_text("class A { }")
    for path in (tmp_path / "missing", tmp_path / "A.java"):
        with pytest.raises(CorenameError, match=f"{re.escape(str(path))}: not a directory"):
            extract_facts_from_dir(path)


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
