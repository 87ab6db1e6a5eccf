"""The 14 structural relationships between two identifier names.

Predicates match by name text only, with no symbol resolution: identically
named entities in different scopes are deliberately conflated.  Each
predicate has a fixed argument orientation; detection checks both
orientations, so the result for (a, b) equals the result for (b, a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .model import CodeFacts, EntityKind, FactsIndex, RelationshipKind


def _belongs(parent_kind: EntityKind, child_kind: EntityKind):
    def predicate(index: FactsIndex, parent: str, child: str) -> bool:
        return (parent, child) in index.contain_names.get(
            (parent_kind, child_kind), ()
        )

    return predicate


def _co_occurs_m(index: FactsIndex, m1: str, m2: str) -> bool:
    if m1 == m2:
        return m1 in index.repeated_methods
    classes = index.method_classes.get(m1)
    return classes is not None and not classes.isdisjoint(
        index.method_classes.get(m2, ())
    )


def _extends(index: FactsIndex, superclass: str, subclass: str) -> bool:
    return (superclass, subclass) in index.extends_names


def _implements(index: FactsIndex, interface: str, cls: str) -> bool:
    return (interface, cls) in index.implements_names


def _type_m(index: FactsIndex, method: str, type_name: str) -> bool:
    return (method, type_name) in index.returns_names


def _type_v(index: FactsIndex, value: str, type_name: str) -> bool:
    return (value, type_name) in index.typed_names


def _invokes(index: FactsIndex, caller: str, callee: str) -> bool:
    return (caller, callee) in index.invokes_names


def _accesses(index: FactsIndex, method: str, attribute: str) -> bool:
    return (method, attribute) in index.accesses_names


def _assigns(index: FactsIndex, lhs: str, rhs: str) -> bool:
    return (lhs, rhs) in index.assigns_names


def _passes(index: FactsIndex, formal: str, actual: str) -> bool:
    return (formal, actual) in index.passes_names


@dataclass(frozen=True)
class RelationshipRule:
    kind: RelationshipKind
    description: str
    predicate: Callable[[FactsIndex, str, str], bool]


_RULES = (
    RelationshipRule(
        RelationshipKind.BELONGS_C,
        "a class and an inner class it declares",
        _belongs(EntityKind.CLASS, EntityKind.CLASS),
    ),
    RelationshipRule(
        RelationshipKind.BELONGS_M,
        "a class and a method it declares",
        _belongs(EntityKind.CLASS, EntityKind.METHOD),
    ),
    RelationshipRule(
        RelationshipKind.BELONGS_F,
        "a class and an attribute it declares",
        _belongs(EntityKind.CLASS, EntityKind.ATTRIBUTE),
    ),
    RelationshipRule(
        RelationshipKind.BELONGS_A,
        "a method and one of its parameters",
        _belongs(EntityKind.METHOD, EntityKind.PARAMETER),
    ),
    RelationshipRule(
        RelationshipKind.BELONGS_L,
        "a method and one of its local variables",
        _belongs(EntityKind.METHOD, EntityKind.VARIABLE),
    ),
    RelationshipRule(
        RelationshipKind.CO_OCCURS_M,
        "two distinct methods declared in the same class",
        _co_occurs_m,
    ),
    RelationshipRule(
        RelationshipKind.EXTENDS,
        "a class and a class that directly extends it",
        _extends,
    ),
    RelationshipRule(
        RelationshipKind.IMPLEMENTS,
        "an interface and a class that implements it",
        _implements,
    ),
    RelationshipRule(
        RelationshipKind.TYPE_M,
        "a method and its return type",
        _type_m,
    ),
    RelationshipRule(
        RelationshipKind.TYPE_V,
        "an attribute, parameter, or variable and its declared type",
        _type_v,
    ),
    RelationshipRule(
        RelationshipKind.INVOKES,
        "a method and a differently named method it calls",
        _invokes,
    ),
    RelationshipRule(
        RelationshipKind.ACCESSES,
        "a method and an attribute of its own class that it references",
        _accesses,
    ),
    RelationshipRule(
        RelationshipKind.ASSIGNS,
        "an assignment's left side and a value on its right side",
        _assigns,
    ),
    RelationshipRule(
        RelationshipKind.PASSES,
        "a formal parameter and an argument passed for it",
        _passes,
    ),
)


def relationship_table() -> tuple[RelationshipRule, ...]:
    """The catalog of all 14 relationship predicates, in canonical order."""
    return _RULES


def detect_relationships(
    facts: CodeFacts, name_i: str, name_j: str
) -> set[RelationshipKind]:
    """Every relationship kind holding between the two names.

    Each predicate is evaluated in both argument orders, so the result is
    symmetric in its inputs; a kind is reported at most once.
    """
    index = facts.index
    found = set()
    for rule in _RULES:
        if rule.predicate(index, name_i, name_j) or rule.predicate(
            index, name_j, name_i
        ):
            found.add(rule.kind)
    return found
