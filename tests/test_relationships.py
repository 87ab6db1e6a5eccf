"""Golden fixtures for all 14 relationship kinds: one positive and one
mutated negative per kind, plus structural properties of the detector and
its agreement with the per-kind predicates it replaced."""

from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import RuleIndex, co_occurs_m_scan, detect_relationships_by_rules
from corename.facts import (
    CodeFacts,
    Entity,
    EntityKind,
    RelationshipKind,
    detect_relationships,
    extract_facts,
    extract_facts_from_dir,
    relationship_table,
)
from corename.facts.relations import _co_occurs_m

FIXTURES = Path(__file__).parent / "fixtures"

# kind, source where the relationship holds for (a, b), source with one
# name changed where it does not, (a, b)
GOLDEN = [
    (
        RelationshipKind.BELONGS_C,
        "class Outer { class Inner { } }",
        "class Outer { class Core { } }",
        ("Outer", "Inner"),
    ),
    (
        RelationshipKind.BELONGS_M,
        "class Engine { void start() { } }",
        "class Engine { void boot() { } }",
        ("Engine", "start"),
    ),
    (
        RelationshipKind.BELONGS_F,
        "class Engine { int rpm; }",
        "class Engine { int speed; }",
        ("Engine", "rpm"),
    ),
    (
        RelationshipKind.BELONGS_A,
        "class Engine { void rev(int amount) { } }",
        "class Engine { void rev(int delta) { } }",
        ("rev", "amount"),
    ),
    (
        RelationshipKind.BELONGS_L,
        "class Engine { void rev() { int amount = 0; } }",
        "class Engine { void rev() { int delta = 0; } }",
        ("rev", "amount"),
    ),
    (
        RelationshipKind.CO_OCCURS_M,
        "class Engine { void start() { } void stop() { } }",
        "class Engine { void start() { } void halt() { } }",
        ("start", "stop"),
    ),
    (
        RelationshipKind.EXTENDS,
        "class Base { } class Derived extends Base { }",
        "class Base { } class Root { } class Derived extends Root { }",
        ("Base", "Derived"),
    ),
    (
        RelationshipKind.IMPLEMENTS,
        "interface Task { } class Job implements Task { }",
        "interface Task { } interface Act { } class Job implements Act { }",
        ("Task", "Job"),
    ),
    (
        RelationshipKind.TYPE_M,
        "class Item { } class Repo { Item find() { return null; } }",
        "class Item { } class Repo { String find() { return null; } }",
        ("Item", "find"),
    ),
    (
        RelationshipKind.TYPE_V,
        "class Item { } class Repo { Item cached; }",
        "class Item { } class Repo { String cached; }",
        ("Item", "cached"),
    ),
    (
        RelationshipKind.INVOKES,
        "class A { void run() { helper(); } void helper() { } }",
        "class A { void run() { other(); } void helper() { } }",
        ("run", "helper"),
    ),
    (
        RelationshipKind.ACCESSES,
        "class A { int total; int sum() { return total; } }",
        "class A { int total; int sum() { return 0; } }",
        ("sum", "total"),
    ),
    (
        RelationshipKind.ASSIGNS,
        "class A { void f() { int dst = src; } }",
        "class A { void f() { int dst = other; } }",
        ("dst", "src"),
    ),
    (
        RelationshipKind.PASSES,
        """class A {
               void callee(int formal) { }
               void caller() { int actual = 0; callee(actual); }
           }""",
        """class A {
               void callee(int formal) { }
               void caller() { int actual = 0; int other = 0; callee(other); }
           }""",
        ("formal", "actual"),
    ),
]


@pytest.mark.parametrize(
    "kind,positive,negative,names", GOLDEN, ids=[k.value for k, *_ in GOLDEN]
)
def test_positive_fixture(kind, positive, negative, names):
    facts = extract_facts({"F.java": positive})
    assert kind in detect_relationships(facts, *names)


@pytest.mark.parametrize(
    "kind,positive,negative,names", GOLDEN, ids=[k.value for k, *_ in GOLDEN]
)
def test_negative_fixture(kind, positive, negative, names):
    facts = extract_facts({"F.java": negative})
    assert kind not in detect_relationships(facts, *names)


def test_catalog_has_all_14_kinds():
    table = relationship_table()
    assert len(table) == 14
    assert {rule.kind for rule in table} == set(RelationshipKind)
    assert all(rule.description for rule in table)


def test_docs_table_matches_catalog():
    """docs/formats.md lists each kind with the catalog's description."""
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    section = text.split("\n## Relationships\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| ")]
    documented = [(kind.strip(), description.strip()) for kind, description in rows[1:]]
    assert documented == [(rule.kind.value, rule.description) for rule in relationship_table()]


def test_golden_covers_every_kind():
    assert {kind for kind, *_ in GOLDEN} == set(RelationshipKind)


def test_orientation_symmetry():
    for kind, positive, _negative, (a, b) in GOLDEN:
        facts = extract_facts({"F.java": positive})
        assert detect_relationships(facts, a, b) == detect_relationships(facts, b, a)


def test_invokes_never_holds_for_equal_names():
    source = "class A { void m() { m(); helper(); } void helper() { } }"
    facts = extract_facts({"F.java": source})
    assert RelationshipKind.INVOKES not in detect_relationships(facts, "m", "m")


def test_co_occurs_for_equal_names_needs_two_methods():
    overloaded = "class A { void m(int x) { } void m(long y) { } }"
    single = "class A { void m(int x) { } }"
    assert RelationshipKind.CO_OCCURS_M in detect_relationships(
        extract_facts({"F.java": overloaded}), "m", "m"
    )
    assert RelationshipKind.CO_OCCURS_M not in detect_relationships(
        extract_facts({"F.java": single}), "m", "m"
    )


def test_absent_names_have_no_relationships():
    facts = extract_facts({"F.java": "class A { int x; }"})
    assert detect_relationships(facts, "nothing", "nowhere") == set()


def test_monotonic_growth():
    base = {"A.java": "class Item { } class Repo { Item cached; }"}
    grown = dict(base)
    grown["B.java"] = "class Extra extends Item { }"
    before = detect_relationships(extract_facts(base), "Item", "cached")
    after = detect_relationships(extract_facts(grown), "Item", "cached")
    assert before <= after
    assert RelationshipKind.EXTENDS in detect_relationships(
        extract_facts(grown), "Item", "Extra"
    )


def assert_co_occurs_matches_scan(facts, names):
    for a, b in combinations_with_replacement(sorted(names), 2):
        expected = co_occurs_m_scan(facts, a, b)
        assert _co_occurs_m(facts.index, a, b) == expected, (a, b)
        assert _co_occurs_m(facts.index, b, a) == expected, (b, a)


@pytest.mark.parametrize(
    "snapshot",
    [*sorted((FIXTURES / "corpus" / "src").iterdir()), FIXTURES / "fig1"],
    ids=lambda path: path.name,
)
def test_co_occurs_index_matches_scan_on_fixtures(snapshot):
    facts = extract_facts_from_dir(snapshot)
    assert_co_occurs_matches_scan(facts, {e.name for e in facts.entities} | {"absent"})


METHOD_NAMES = ("get", "put", "size", "clear")


@st.composite
def contains_tables(draw):
    """Classes and methods drawn from tiny name pools, so that method names
    repeat within and across classes and distinct classes share names."""
    kinds = draw(
        st.lists(
            st.sampled_from((EntityKind.CLASS, EntityKind.METHOD, EntityKind.ATTRIBUTE)),
            min_size=1,
            max_size=12,
        )
    )
    entities = tuple(
        Entity(
            id=i,
            kind=kind,
            name=draw(
                st.sampled_from(("A", "B", "get") if kind is EntityKind.CLASS else METHOD_NAMES)
            ),
            container=None,
            file="F.java",
        )
        for i, kind in enumerate(kinds)
    )
    ids = st.integers(0, len(entities) - 1)
    contains = draw(st.lists(st.tuples(ids, ids), max_size=20))
    return CodeFacts(entities=entities, contains=tuple(contains))


@settings(max_examples=300, deadline=None)
@given(contains_tables())
def test_co_occurs_index_matches_scan_on_generated_tables(facts):
    assert_co_occurs_matches_scan(facts, {*METHOD_NAMES, "A", "B", "absent"})


def table_names(facts):
    """Every name string in the facts: entity names and the names the
    extends, implements, typed, returns, invokes, accesses, assigns and
    passes tables hold as text."""
    names = {e.name for e in facts.entities}
    for key in ("extends", "implements", "typed", "returns", "invokes", "accesses"):
        names.update(name for _id, name in getattr(facts, key))
    for key in ("assigns", "passes"):
        names.update(name for row in getattr(facts, key) for name in row[:2])
    return names


def assert_detect_matches_rules(facts):
    rules = RuleIndex(facts)
    for a, b in product(sorted(table_names(facts) | {"absent"}), repeat=2):
        assert detect_relationships(facts, a, b) == detect_relationships_by_rules(
            rules, a, b
        ), (a, b)


@pytest.mark.parametrize(
    "snapshot",
    [*sorted((FIXTURES / "corpus" / "src").iterdir()), FIXTURES / "fig1"],
    ids=lambda path: path.name,
)
def test_detect_matches_rules_on_fixtures(snapshot):
    assert_detect_matches_rules(extract_facts_from_dir(snapshot))


NAMES = ("A", "B", "get", "size")


@st.composite
def full_tables(draw):
    """Facts with every entity kind and every table filled, one `contains`
    row under an interface, over a name pool small enough that one name is
    often an entity of several kinds and a text reference too."""
    kinds = [*EntityKind, *draw(st.lists(st.sampled_from(EntityKind), max_size=6))]
    entities = tuple(
        Entity(id=i, kind=kind, name=draw(st.sampled_from(NAMES)), container=None, file="F.java")
        for i, kind in enumerate(draw(st.permutations(kinds)))
    )
    ids = st.integers(0, len(entities) - 1)
    names = st.sampled_from(NAMES)

    def table(*columns):
        return tuple(draw(st.lists(st.tuples(*columns), min_size=1, max_size=8)))

    forms = st.sampled_from(("attribute", "variable", "invocation"))
    interface = next(e.id for e in entities if e.kind is EntityKind.INTERFACE)
    return CodeFacts(
        entities=entities,
        contains=table(ids, ids) + ((interface, draw(ids)),),
        extends=table(ids, names),
        implements=table(ids, names),
        typed=table(ids, names),
        returns=table(ids, names),
        invokes=table(ids, names),
        accesses=table(ids, names),
        assigns=table(names, names, forms),
        passes=table(names, names, forms),
    )


@settings(max_examples=300, deadline=None)
@given(full_tables())
def test_detect_matches_rules_on_generated_tables(facts):
    assert_detect_matches_rules(facts)
