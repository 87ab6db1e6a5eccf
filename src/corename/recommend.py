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
from .lexicon import Lemmatizer, Vocabulary, normalize
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
) -> dict[str, list[str]]:
    """Lemma -> the snapshot's distinct entity names holding it, built on
    the first query per (mode, lemmatizer) and kept on the facts' index.
    The names are split through one ``Vocabulary``, so each distinct word
    is lemmatized once per build."""
    index = facts.index
    key = (mode, lemmatizer)
    table = index.names_by_lemma.get(key)
    if table is None:
        table = {}
        vocabulary = Vocabulary(lemmatizer)
        for name in index.by_name:
            try:
                lemmas = vocabulary.normalize(name, mode).lemmas
            except InvalidIdentifier:
                continue
            for lemma in dict.fromkeys(lemmas):
                table.setdefault(lemma, []).append(name)
        index.names_by_lemma[key] = table
    return table


def generate_candidates(
    rename: RenameRecord,
    facts: CodeFacts,
    mode: str = "lemma",
    lemmatizer: Lemmatizer | None = None,
) -> list[RecommendationCandidate]:
    """Apply the rename's chunks to every other named entity.

    A candidate is produced per entity and distinct rewritten name; its
    relationships to the renamed identifier are detected once per entity.
    Entities whose names none of the chunks can rewrite are omitted, as is
    the renamed identifier itself.  Only entities whose names hold a
    chunk's anchor lemma are visited, in entity-id order.
    """
    table = _names_by_lemma(facts, mode, lemmatizer)
    names = {
        name
        for lemma in {anchor_lemma(chunk) for chunk in rename.chunks}
        for name in table.get(lemma, ())
    }
    names.discard(rename.old_name)
    by_name = facts.index.by_name
    entities = sorted(
        (entity for name in names for entity in by_name[name]),
        key=lambda entity: entity.id,
    )
    targets = {name: normalize(name, mode, lemmatizer) for name in names}
    candidates: dict[tuple[int, str], RecommendationCandidate] = {}
    relationships_cache: dict[str, frozenset[RelationshipKind]] = {}
    for entity in entities:
        target = targets[entity.name]
        proposals: list[str] = []
        for chunk in rename.chunks:
            try:
                proposals.extend(apply_chunk(chunk, target))
            except DegenerateResult:
                continue
        for proposed in proposals:
            key = (entity.id, proposed)
            if key in candidates:
                continue
            if entity.name not in relationships_cache:
                relationships_cache[entity.name] = frozenset(
                    detect_relationships(facts, rename.old_name, entity.name)
                )
            candidates[key] = RecommendationCandidate(
                target_name=entity.name,
                target_kind=entity.kind,
                file=entity.file,
                container=(
                    facts.qualified_path(facts.entities[entity.container])
                    if entity.container is not None
                    else None
                ),
                proposed_name=proposed,
                relationships=relationships_cache[entity.name],
            )
    return list(candidates.values())


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
