"""Co-rename candidate generation and prior-weighted ranking.

Given one performed rename, every entity whose name the rename's chunks
can rewrite becomes a candidate.  Candidates are scored by summing, for
each detected relationship to the renamed identifier, a weight keyed on
the kind of identifier the developer renamed: methods co-renamed with
methods of the same class score high when the trigger is a method, and so
on.  Candidates without any relationship fall back to a default weight,
which is zero in the shipped profile.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .chunks import anchor_lemma, apply_chunk
from .errors import DegenerateResult, InvalidIdentifier, NoDataError
from .facts.model import CodeFacts, EntityKind, RelationshipKind
from .facts.relations import detect_relationships
from .fileio import atomic_write, json_container, json_number, load_document
from .lexicon import Lemmatizer, Vocabulary, WordSequence
from .mining import IdentifierKind, RenameRecord

# Tie-break order across entity kinds for equal scores.
_KIND_ORDER = {
    EntityKind.CLASS: 0,
    EntityKind.INTERFACE: 0,
    EntityKind.METHOD: 1,
    EntityKind.ATTRIBUTE: 2,
    EntityKind.PARAMETER: 3,
    EntityKind.VARIABLE: 4,
}


class PriorProfile(NamedTuple):
    """Per-trigger-kind weights over relationship kinds."""

    weights: dict[IdentifierKind, dict[RelationshipKind, float]]
    default_weight: float = 0.0

    def weight(self, trigger: IdentifierKind, kind: RelationshipKind) -> float:
        return self.weights.get(trigger, {}).get(kind, 0.0)

    def to_json(self) -> dict:
        return {
            "default_weight": self.default_weight,
            "weights": {
                trigger.value: {
                    kind.value: value for kind, value in sorted(
                        table.items(), key=lambda kv: kv[0].value
                    )
                }
                for trigger, table in sorted(
                    self.weights.items(), key=lambda kv: kv[0].value
                )
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "PriorProfile":
        tables = json_container(data.get("weights", {}), dict, "weights")
        return cls(
            weights={
                IdentifierKind(trigger): {
                    RelationshipKind(kind): float(
                        json_number(value, f"weights.{trigger}.{kind}")
                    )
                    for kind, value in json_container(
                        table, dict, f"weights.{trigger}"
                    ).items()
                }
                for trigger, table in tables.items()
            },
            default_weight=float(
                json_number(data.get("default_weight", 0.0), "default_weight")
            ),
        )

    @classmethod
    def load(cls, path) -> "PriorProfile":
        """Read a profile file; one of the wrong shape raises ParseError
        naming it."""
        return load_document(path, cls.from_json, "prior profile")

    def save(self, path) -> None:
        atomic_write(path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")


def default_profile() -> PriorProfile:
    """Built-in priors: a small floor for every relationship, the two
    best-supported overall leaders for method triggers, and the
    relationship most associated with each other trigger kind boosted.

    Weights mined from the user's own history (build_prior_profile over
    filtered relationship rates) are preferred over these defaults.
    """
    floor = {kind: 0.02 for kind in RelationshipKind}
    weights = {trigger: dict(floor) for trigger in IdentifierKind}
    weights[IdentifierKind.METHOD][RelationshipKind.CO_OCCURS_M] = 0.408
    weights[IdentifierKind.METHOD][RelationshipKind.ASSIGNS] = 0.259
    for trigger, leader in (
        (IdentifierKind.CLASS, RelationshipKind.TYPE_V),
        (IdentifierKind.ATTRIBUTE, RelationshipKind.ACCESSES),
        (IdentifierKind.PARAMETER, RelationshipKind.PASSES),
        (IdentifierKind.VARIABLE, RelationshipKind.PASSES),
    ):
        weights[trigger][RelationshipKind.ASSIGNS] = 0.30
        weights[trigger][leader] = 0.25
    return PriorProfile(weights=weights, default_weight=0.0)


def build_prior_profile(
    filtered_rates: dict[IdentifierKind, dict[RelationshipKind, float] | None],
    default_weight: float = 0.0,
) -> PriorProfile:
    """Turn kind-filtered relationship rates into a prior profile."""
    weights = {
        trigger: dict(rates)
        for trigger, rates in filtered_rates.items()
        if rates is not None
    }
    if not weights:
        raise NoDataError("no relationship rates to build a profile from")
    return PriorProfile(weights=weights, default_weight=default_weight)


class RecommendationCandidate(NamedTuple):
    target_name: str
    target_kind: EntityKind
    file: str
    container: str | None
    proposed_name: str
    relationships: frozenset[RelationshipKind] = frozenset()
    score: float = 0.0

    def describe(self) -> str:
        kinds = "+".join(sorted(k.value for k in self.relationships)) or "-"
        return (
            f"{self.target_name} -> {self.proposed_name} "
            f"[{self.target_kind.value}] {kinds} score={self.score:.3f}"
        )


def _names_by_lemma(
    facts: CodeFacts, mode: str, lemmatizer: Lemmatizer | None
) -> dict[str, dict[str, WordSequence]]:
    """Lemma -> the snapshot's distinct entity names holding it, each with
    its word sequence, built on the first query per (mode, lemmatizer) and
    kept on the facts' index.  The names are split through one
    ``Vocabulary``, so each distinct word is lemmatized once per build."""
    index = facts.index
    key = (mode, lemmatizer)
    table = index.names_by_lemma.get(key)
    if table is None:
        table = {}
        vocabulary = Vocabulary(lemmatizer)
        for name in index.by_name:
            try:
                seq = vocabulary.normalize(name, mode)
            except InvalidIdentifier:
                continue
            for lemma in dict.fromkeys(seq.lemmas):
                table.setdefault(lemma, {})[name] = seq
        index.names_by_lemma[key] = table
    return table


def generate_candidates(
    rename: RenameRecord,
    facts: CodeFacts,
    mode: str = "lemma",
    lemmatizer: Lemmatizer | None = None,
) -> list[RecommendationCandidate]:
    """Apply the rename's chunks to every other named entity.

    A candidate is produced per entity and distinct rewritten name, in
    entity-id order.  Only names holding a chunk's anchor lemma are
    rewritten, each once with its word sequence from the index; its
    relationships to the renamed identifier are detected once per name.
    Names none of the chunks can rewrite are omitted, as is the renamed
    identifier itself.

    Same-named entities, here an attribute in each of two classes, each get
    their own candidates:

    >>> from corename.facts import extract_facts
    >>> from corename.grouping import attach_chunks
    >>> from corename.mining import IdentifierKind
    >>> facts = extract_facts({"A.java": "class A { int metricType; }"
    ...                                  " class B { int metricType; }"})
    >>> record = RenameRecord("c", IdentifierKind.CLASS, "MetricType", "MetricKind")
    >>> [rename] = attach_chunks([record], "lemma")
    >>> for c in generate_candidates(rename, facts):
    ...     print(c.container, c.target_name, "->", c.proposed_name)
    A metricType -> metricKind
    B metricType -> metricKind
    """
    table = _names_by_lemma(facts, mode, lemmatizer)
    targets: dict[str, WordSequence] = {}
    for lemma in {anchor_lemma(chunk) for chunk in rename.chunks}:
        targets.update(table.get(lemma, {}))
    targets.pop(rename.old_name, None)
    rewrites: dict[str, tuple[list[str], frozenset[RelationshipKind]]] = {}
    for name, target in targets.items():
        proposals: list[str] = []
        for chunk in rename.chunks:
            try:
                proposals.extend(apply_chunk(chunk, target))
            except DegenerateResult:
                continue
        if proposals:
            rewrites[name] = (
                list(dict.fromkeys(proposals)),
                frozenset(detect_relationships(facts, rename.old_name, name)),
            )
    by_name = facts.index.by_name
    entities = sorted(
        (entity for name in rewrites for entity in by_name[name]),
        key=lambda entity: entity.id,
    )
    candidates = []
    for entity in entities:
        proposals, relationships = rewrites[entity.name]
        container = (
            facts.qualified_path(facts.entities[entity.container])
            if entity.container is not None
            else None
        )
        candidates.extend(
            RecommendationCandidate(
                target_name=entity.name,
                target_kind=entity.kind,
                file=entity.file,
                container=container,
                proposed_name=proposed,
                relationships=relationships,
            )
            for proposed in proposals
        )
    return candidates


def score_candidate(
    candidate: RecommendationCandidate,
    profile: PriorProfile,
    trigger_kind: IdentifierKind,
) -> float:
    if not candidate.relationships:
        return profile.default_weight
    return sum(
        profile.weight(trigger_kind, kind) for kind in sorted(
            candidate.relationships, key=lambda k: k.value
        )
    )


def rank_candidates(
    candidates: list[RecommendationCandidate],
    profile: PriorProfile,
    trigger_kind: IdentifierKind,
    min_score: float | None = None,
) -> list[RecommendationCandidate]:
    """Score and order candidates: score descending, then entity kind,
    then name; candidates under ``min_score`` are dropped when it is set."""
    scored = [
        c._replace(score=score_candidate(c, profile, trigger_kind))
        for c in candidates
    ]
    if min_score is not None:
        scored = [c for c in scored if c.score >= min_score]
    scored.sort(
        key=lambda c: (
            -c.score,
            _KIND_ORDER[c.target_kind],
            c.target_name,
            c.proposed_name,
        )
    )
    return scored


def recommend(
    rename: RenameRecord,
    facts: CodeFacts,
    profile: PriorProfile | None = None,
    mode: str = "lemma",
    min_score: float | None = None,
    lemmatizer: Lemmatizer | None = None,
) -> list[RecommendationCandidate]:
    """Generate, score, and rank co-rename candidates for one rename."""
    profile = profile or default_profile()
    candidates = generate_candidates(rename, facts, mode, lemmatizer)
    return rank_candidates(candidates, profile, rename.kind, min_score)
