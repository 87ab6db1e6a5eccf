"""Structural fact tables extracted from object-oriented source files."""

from __future__ import annotations

import enum
from collections import defaultdict
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import NoneType
from typing import TYPE_CHECKING, NamedTuple

from ..errors import ParseError
from ..fileio import atomic_write, load_document

if TYPE_CHECKING:  # the word layer, which the fact model never runs
    from ..lexicon import WordSequence


class EntityKind(str, enum.Enum):
    CLASS = "Class"
    INTERFACE = "Interface"
    METHOD = "Method"
    ATTRIBUTE = "Attribute"
    PARAMETER = "Parameter"
    VARIABLE = "Variable"


class IdentifierKind(str, enum.Enum):
    CLASS = "Class"
    METHOD = "Method"
    ATTRIBUTE = "Attribute"
    PARAMETER = "Parameter"
    VARIABLE = "Variable"


class RelationshipKind(str, enum.Enum):
    BELONGS_C = "BelongsC"
    BELONGS_M = "BelongsM"
    BELONGS_F = "BelongsF"
    BELONGS_A = "BelongsA"
    BELONGS_L = "BelongsL"
    CO_OCCURS_M = "CoOccursM"
    EXTENDS = "Extends"
    IMPLEMENTS = "Implements"
    TYPE_M = "TypeM"
    TYPE_V = "TypeV"
    INVOKES = "Invokes"
    ACCESSES = "Accesses"
    ASSIGNS = "Assigns"
    PASSES = "Passes"


class Entity(NamedTuple):
    id: int
    kind: EntityKind
    name: str
    container: int | None
    file: str


# column types of each table row: "i" an entity id, "s" a name
_COLUMNS = {
    "contains": "ii",
    "extends": "is",
    "implements": "is",
    "typed": "is",
    "returns": "is",
    "invokes": "is",
    "accesses": "is",
    "assigns": "sss",
    "passes": "sss",
    "skipped": "ss",
}
_TABLES = ("entities", *_COLUMNS)


class CodeFacts:
    """Entity and relation tables for one source snapshot.

    Tables hold entity ids where the row refers to a declaration and plain
    name strings where the source only gives a textual reference:

    - contains: (parent entity id, child entity id)
    - extends: (subclass entity id, superclass name)
    - implements: (class entity id, interface name)
    - typed: (attribute/parameter/variable id, type name) — generic types
      contribute the outer name and each first-level type argument
    - returns: (method id, return type name), same generic handling
    - invokes: (method id, callee name), self-calls by name excluded
    - accesses: (method id, attribute name of the method's own class)
    - assigns: (lhs name, rhs name, rhs form)
    - passes: (formal parameter name, actual argument name, argument form)
    """

    __slots__ = (*_TABLES, "_index", "__weakref__")

    def __init__(
        self,
        *,
        entities: tuple[Entity, ...] = (),
        contains: tuple[tuple[int, int], ...] = (),
        extends: tuple[tuple[int, str], ...] = (),
        implements: tuple[tuple[int, str], ...] = (),
        typed: tuple[tuple[int, str], ...] = (),
        returns: tuple[tuple[int, str], ...] = (),
        invokes: tuple[tuple[int, str], ...] = (),
        accesses: tuple[tuple[int, str], ...] = (),
        assigns: tuple[tuple[str, str, str], ...] = (),
        passes: tuple[tuple[str, str, str], ...] = (),
        skipped: tuple[tuple[str, str], ...] = (),
    ):
        self.entities = entities
        self.contains = contains
        self.extends = extends
        self.implements = implements
        self.typed = typed
        self.returns = returns
        self.invokes = invokes
        self.accesses = accesses
        self.assigns = assigns
        self.passes = passes
        self.skipped = skipped
        self._index = None  # built on first use

    def __eq__(self, other):
        """Equal tables; whether either index is built does not matter."""
        if type(other) is not CodeFacts:
            return NotImplemented
        return all(getattr(self, t) == getattr(other, t) for t in _TABLES)

    def __repr__(self) -> str:
        return f"CodeFacts({', '.join(f'{t}={getattr(self, t)!r}' for t in _TABLES)})"

    @property
    def index(self) -> FactsIndex:
        if self._index is None:
            self._index = FactsIndex(self)
        return self._index

    def qualified_path(self, entity: Entity) -> str:
        parts = [entity.name]
        current = entity
        while current.container is not None:
            current = self.entities[current.container]
            parts.append(current.name)
        return ".".join(reversed(parts))

    def to_json(self) -> dict:
        return {
            "entities": [
                {
                    "id": e.id,
                    "kind": e.kind.value,
                    "name": e.name,
                    "container": e.container,
                    "file": e.file,
                }
                for e in self.entities
            ],
            "contains": [list(r) for r in self.contains],
            "extends": [list(r) for r in self.extends],
            "implements": [list(r) for r in self.implements],
            "typed": [list(r) for r in self.typed],
            "returns": [list(r) for r in self.returns],
            "invokes": [list(r) for r in self.invokes],
            "accesses": [list(r) for r in self.accesses],
            "assigns": [list(r) for r in self.assigns],
            "passes": [list(r) for r in self.passes],
            "skipped": [list(r) for r in self.skipped],
        }

    @classmethod
    def from_json(cls, data) -> "CodeFacts":
        """Rebuild facts from ``to_json`` output.

        Raises ParseError for an entity without its keys, a row of the wrong
        shape, or an entity id that names no entity.
        """
        listed = _table(data, "entities")
        entities = _entities_by_column(listed)
        if entities is None:
            entities = _entities_by_row(listed)
        return cls(
            entities=entities,
            **{key: _rows(data, key, len(entities)) for key in _COLUMNS},
        )

    def dumps(self) -> str:
        """The facts file text: exactly ``json.dumps(self.to_json(),
        indent=2, sort_keys=True) + "\\n"``, written row by row.

        ``json.dumps`` with an indent runs its pure-Python encoder over a
        dict built for the purpose; this fills one template per row
        instead, quoting with the same C function.  Table columns hold ints
        and strings, as the parser and ``from_json`` make them.
        """
        quote = encode_basestring_ascii
        tables = {
            "entities": [
                _ENTITY_JSON
                % (
                    "null" if e.container is None else e.container,
                    quote(e.file),
                    e.id,
                    quote(e.kind.value),
                    quote(e.name),
                )
                for e in self.entities
            ]
        }
        for key, columns in _COLUMNS.items():
            # quote each string column in one pass, then fill a row template
            cells = [
                map(quote, column) if kind == "s" else column
                for kind, column in zip(columns, zip(*getattr(self, key)))
            ]
            row = "[\n      " + ",\n      ".join(["%s"] * len(columns)) + "\n    ]"
            tables[key] = [row % values for values in zip(*cells)]
        return (
            "{\n"
            + ",\n".join(
                f'  "{key}": '
                + ("[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]")
                for key, items in sorted(tables.items())
            )
            + "\n}\n"
        )

    def save(self, path) -> None:
        atomic_write(path, self.dumps())

    @classmethod
    def load(cls, path) -> "CodeFacts":
        """Read a facts file; a malformed one raises ParseError naming it."""
        return load_document(path, cls.from_json, "facts file")


# one entity as json.dumps renders it at depth 2, keys sorted
_ENTITY_JSON = (
    '{\n      "container": %s,\n      "file": %s,\n      "id": %s,'
    '\n      "kind": %s,\n      "name": %s\n    }'
)


def _table(data: dict, key: str) -> list:
    table = data.get(key, [])
    if not isinstance(table, list):
        raise ParseError(f"{key}: not a list")
    return table


_ENTITY_FIELDS = itemgetter("id", "kind", "name", "container", "file")
_ENTITY_KINDS = {kind.value: kind for kind in EntityKind}


def _entities_by_column(listed: list) -> tuple[Entity, ...] | None:
    """The entities, each column checked at once at C speed, or None if
    any entity is malformed; ``_entities_by_row`` then names the first."""
    if not listed:
        return ()
    if set(map(type, listed)) != {dict}:
        return None
    try:
        ids, kinds, names, containers, files = zip(*map(_ENTITY_FIELDS, listed))
        kinds = tuple(map(_ENTITY_KINDS.get, kinds))
    except (KeyError, TypeError):  # a missing key, or an unhashable kind
        return None
    count = len(listed)
    if not (
        set(map(type, ids)) == {int}
        and ids == tuple(range(count))
        and None not in kinds
        and set(map(type, names)) == {str} == set(map(type, files))
        and set(map(type, containers)) <= {int, NoneType}
    ):
        return None
    held = set(containers) - {None}
    if held and (min(held) < 0 or max(held) >= count):
        return None
    return tuple(map(Entity, ids, kinds, names, containers, files))


def _entities_by_row(listed: list) -> tuple[Entity, ...]:
    """The entities, checked one by one; raises ParseError at the first
    malformed one."""
    entities = []
    for position, e in enumerate(listed):
        try:
            entity = Entity(
                id=e["id"],
                kind=EntityKind(e["kind"]),
                name=e["name"],
                container=e["container"],
                file=e["file"],
            )
        except KeyError as exc:
            raise ParseError(f"entity {position}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"entity {position}: {exc}") from None
        if not (
            type(entity.id) is int
            and entity.id == position
            and isinstance(entity.name, str)
            and isinstance(entity.file, str)
            and (entity.container is None or _is_id(entity.container, len(listed)))
        ):
            raise ParseError(f"entity {position}: malformed {e!r}")
        entities.append(entity)
    return tuple(entities)


def _is_id(value, count: int) -> bool:
    return type(value) is int and 0 <= value < count


def _rows(data: dict, key: str, count: int) -> tuple:
    """The table's rows as tuples; raises ParseError at the first row that
    does not match the table's column types."""
    table = _table(data, key)
    if not _well_formed(table, _COLUMNS[key], count):
        for position, row in enumerate(table):
            if not _well_formed([row], _COLUMNS[key], count):
                raise ParseError(f"{key} row {position}: malformed {row!r}")
    return tuple(map(tuple, table))


def _well_formed(table: list, columns: str, count: int) -> bool:
    # column-wise, so that large tables are checked at C speed
    if not table:
        return True
    if set(map(type, table)) != {list} or set(map(len, table)) != {len(columns)}:
        return False
    for column, values in zip(columns, zip(*table)):
        if column == "s":
            if set(map(type, values)) != {str}:
                return False
        elif set(map(type, values)) != {int} or min(values) < 0 or max(values) >= count:
            return False
    return True


# the Belongs kind of a `contains` row, by (parent kind, child kind); rows
# of any other kind pair, such as an interface's methods, show no relationship
_BELONGS = {
    (EntityKind.CLASS, EntityKind.CLASS): RelationshipKind.BELONGS_C,
    (EntityKind.CLASS, EntityKind.METHOD): RelationshipKind.BELONGS_M,
    (EntityKind.CLASS, EntityKind.ATTRIBUTE): RelationshipKind.BELONGS_F,
    (EntityKind.METHOD, EntityKind.PARAMETER): RelationshipKind.BELONGS_A,
    (EntityKind.METHOD, EntityKind.VARIABLE): RelationshipKind.BELONGS_L,
}


class FactsIndex:
    """Name-keyed lookups over a CodeFacts instance (built lazily once).

    ``pairs`` holds, for each relationship kind but CoOccursM, the name
    pairs it holds for, oriented as the facts table it is read from (see
    "Relationships" in docs/formats.md): the one place that maps fact tables
    to kinds.  CoOccursM reads ``method_classes`` and ``repeated_methods``,
    since listing the method pairs of each class would grow quadratically.

    It keeps no reference to its facts, which hold it: without a cycle, a
    snapshot and its index are freed as soon as the last user drops them.
    """

    def __init__(self, facts: CodeFacts):
        ent = facts.entities
        self.by_name: dict[str, list[Entity]] = defaultdict(list)
        for e in ent:
            self.by_name[e.name].append(e)
        R = RelationshipKind
        self.pairs: dict[RelationshipKind, set[tuple[str, str]]] = {
            **{kind: set() for kind in _BELONGS.values()},
            R.EXTENDS: {(sup, ent[sub].name) for sub, sup in facts.extends},
            R.IMPLEMENTS: {(iface, ent[cls].name) for cls, iface in facts.implements},
            R.TYPE_M: {(ent[mid].name, t) for mid, t in facts.returns},
            R.TYPE_V: {(ent[vid].name, t) for vid, t in facts.typed},
            R.INVOKES: {(ent[mid].name, callee) for mid, callee in facts.invokes},
            R.ACCESSES: {(ent[mid].name, attr) for mid, attr in facts.accesses},
            R.ASSIGNS: {(lhs, rhs) for lhs, rhs, _form in facts.assigns},
            R.PASSES: {(formal, actual) for formal, actual, _form in facts.passes},
        }
        # method name -> names of the classes declaring it, and the method
        # names declared at least twice under one class name (overloads)
        self.method_classes: dict[str, set[str]] = defaultdict(set)
        self.repeated_methods: set[str] = set()
        for parent_id, child_id in facts.contains:
            p, c = ent[parent_id], ent[child_id]
            kind = _BELONGS.get((p.kind, c.kind))
            if kind is None:
                continue
            self.pairs[kind].add((p.name, c.name))
            if kind is R.BELONGS_M:
                classes = self.method_classes[c.name]
                if p.name in classes:
                    self.repeated_methods.add(c.name)
                classes.add(p.name)
        # (mode, lemmatizer) -> lemma -> each entity name holding it -> the
        # name's word sequence in that mode; filled by the recommender on its
        # first query, never here, and read by every query after it
        self.names_by_lemma: dict[tuple, dict[str, dict[str, WordSequence]]] = {}
