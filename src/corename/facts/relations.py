"""The 14 structural relationships between two identifier names.

Relationships match by name text only, with no symbol resolution:
identically named entities in different scopes are deliberately conflated.
Thirteen kinds are name-pair sets in ``FactsIndex.pairs``, each in the
orientation of the facts table it is read from; CoOccursM is read from the
index's method-to-classes map.  Detection checks both orientations, so the
result for (a, b) equals the result for (b, a).
"""

from __future__ import annotations

from typing import NamedTuple

from .model import CodeFacts, FactsIndex, RelationshipKind


class RelationshipRule(NamedTuple):
    kind: RelationshipKind
    description: str


_R = RelationshipKind
_RULES = tuple(
    RelationshipRule(kind, description)
    for kind, description in (
        (_R.BELONGS_C, "a class and an inner class it declares"),
        (_R.BELONGS_M, "a class and a method it declares"),
        (_R.BELONGS_F, "a class and an attribute it declares"),
        (_R.BELONGS_A, "a method and one of its parameters"),
        (_R.BELONGS_L, "a method and one of its local variables"),
        (_R.CO_OCCURS_M, "two distinct methods declared in the same class"),
        (_R.EXTENDS, "a class and a class that directly extends it"),
        (_R.IMPLEMENTS, "an interface and a class that implements it"),
        (_R.TYPE_M, "a method and its return type"),
        (_R.TYPE_V, "an attribute, parameter, or variable and its declared type"),
        (_R.INVOKES, "a method and a differently named method it calls"),
        (_R.ACCESSES, "a method and an attribute of its own class that it references"),
        (_R.ASSIGNS, "an assignment's left side and a value on its right side"),
        (_R.PASSES, "a formal parameter and an argument passed for it"),
    )
)


def relationship_table() -> tuple[RelationshipRule, ...]:
    """The catalog of all 14 relationship kinds, in canonical order."""
    return _RULES


def _co_occurs_m(index: FactsIndex, m1: str, m2: str) -> bool:
    if m1 == m2:
        return m1 in index.repeated_methods
    classes = index.method_classes.get(m1)
    return classes is not None and not classes.isdisjoint(
        index.method_classes.get(m2, ())
    )


def detect_relationships(
    facts: CodeFacts, name_i: str, name_j: str
) -> set[RelationshipKind]:
    """Every relationship kind holding between the two names.

    Each kind is checked in both orientations, so the result is symmetric
    in its inputs; a kind is reported at most once.

    >>> from corename.facts import extract_facts
    >>> facts = extract_facts({"A.java": "class A { void m() { } }"})
    >>> sorted(k.value for k in detect_relationships(facts, "A", "m"))
    ['BelongsM']
    """
    index = facts.index
    pair, reverse = (name_i, name_j), (name_j, name_i)
    found = {
        kind for kind, pairs in index.pairs.items() if pair in pairs or reverse in pairs
    }
    if _co_occurs_m(index, name_i, name_j):
        found.add(RelationshipKind.CO_OCCURS_M)
    return found
