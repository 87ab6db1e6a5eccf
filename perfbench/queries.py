"""Recommendation queries through corename's documented library API.

Calls go through module attributes so a traced run sees them.
"""

from __future__ import annotations

import corename.facts
import corename.grouping
import corename.recommend
from corename.mining import IdentifierKind, RenameRecord

from checks import ranking_digest, ranking_problems

MIN_SCORE = 0.01


def load_snapshot(directory):
    return corename.facts.extract_facts_from_dir(directory)


def run_query(query: dict, facts):
    """Rank co-rename candidates for one performed rename."""
    trigger = RenameRecord(
        commit="(pending)",
        kind=IdentifierKind(query["kind"]),
        old_name=query["old"],
        new_name=query["new"],
        index=0,
    )
    (trigger,) = corename.grouping.attach_chunks([trigger], "lemma")
    return corename.recommend.recommend(
        trigger,
        facts,
        profile=corename.recommend.default_profile(),
        mode="lemma",
        min_score=MIN_SCORE,
    )


def checked_query(query: dict, facts) -> tuple[str | None, list[str]]:
    """Run one query; return its ranking digest and any problems found."""
    try:
        ranked = run_query(query, facts)
    except Exception as exc:  # a failed query is counted, not fatal
        return None, [f"query {query['old']} -> {query['new']} raised {exc!r}"]
    return ranking_digest(ranked), ranking_problems(ranked)
