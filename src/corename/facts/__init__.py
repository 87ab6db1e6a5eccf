"""Structural code facts: extraction, model, and relationship detection.

The parser and the relationship detector are imported on first use of one
of their names here, so a process that needs only the model loads neither.
"""

import importlib

from .model import CodeFacts, Entity, EntityKind, RelationshipKind

_LAZY = {
    "extract_facts": "parser",
    "extract_facts_from_dir": "parser",
    "extract_facts_from_paths": "parser",
    "detect_relationships": "relations",
    "relationship_table": "relations",
}

__all__ = [
    "CodeFacts",
    "Entity",
    "EntityKind",
    "RelationshipKind",
    *sorted(_LAZY),
]


def __getattr__(name):
    # looked up on each use, so a name rebound in its own module is seen here
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return getattr(module, name)
