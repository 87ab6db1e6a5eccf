"""Output checks and semantic digests.

Checks compare the program's files with the generator's ground truth and
with statistics recomputed here.  Digests hash what the files mean, not
their bytes, so fields that later versions add to ``sets.jsonl`` or
``report.json`` do not change them.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

REPORT_KEYS = (
    "record_count", "set_count", "member_total", "co_rename_rate",
    "size_distribution", "relationship_rates", "filtered_rates",
    "chunk_type_rates",
)
INFLECTION_KEYS = (
    "raw_co_rename_rate", "lemma_co_rename_rate", "raw_set_count",
    "lemma_set_count", "raw_member_total", "lemma_member_total",
    "new_set_count", "new_set_relationship_rates",
)
RECORD_KEYS = ("commit", "kind", "old", "new", "file", "container")


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


class Ledger:
    """Counts attempted and failed operations; keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _record_key(obj: dict) -> tuple:
    return tuple(obj.get(k) for k in RECORD_KEYS)


def check_mined(ledger: Ledger, inputs, out: Path) -> list[dict]:
    """Ingested records equal the generated ones; mined records are planted
    ones without duplicates."""
    mined = _jsonl(out / "renames.jsonl")
    keys = [_record_key(r) for r in mined]
    if inputs.mine_args[0] == "--records":
        expected = [_record_key(r) for r in inputs.planted]
        ledger.check(keys == expected, "mine --records changed the records")
    else:
        planted = {_record_key(r) for r in inputs.planted}
        ledger.check(bool(keys), "mine --repo found no renames")
        ledger.check(len(set(keys)) == len(keys), "mine --repo duplicated a record")
        unplanted = [k for k in keys if k not in planted]
        ledger.check(not unplanted, f"mine --repo reported unplanted renames {unplanted[:3]}")
    return mined


def check_facts(ledger: Ledger, inputs, facts_dir: Path) -> None:
    """Every generated declaration is an entity and no file is skipped."""
    for name, expected in inputs.snapshot_entities.items():
        with open(facts_dir / f"{name}.json", encoding="utf-8") as fh:
            facts = json.load(fh)
        ledger.check(
            len(facts["entities"]) == expected and not facts["skipped"],
            f"facts {name}: {len(facts['entities'])} entities, expected {expected}, "
            f"{len(facts['skipped'])} skipped",
        )


def _sum_is_one(table) -> bool:
    return abs(sum(table.values()) - 1.0) <= 1e-9


def check_sets_and_report(ledger: Ledger, out: Path, record_count: int) -> dict:
    """Recompute the summary statistics from sets.jsonl and compare them
    with report.json; every non-null rate table sums to 1."""
    sets = _jsonl(out / "sets.jsonl")
    with open(out / "report" / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    sizes = [len(s["members"]) for s in sets]
    total = sum(sizes)
    shared = sum(n for n in sizes if n >= 2)
    ledger.check(report["set_count"] == len(sets), "report set_count differs from sets.jsonl")
    ledger.check(report["member_total"] == total, "report member_total differs from sets.jsonl")
    ledger.check(
        report["co_rename_rate"] == (shared / total if total else None),
        "report co_rename_rate differs from sets.jsonl",
    )
    ledger.check(report["record_count"] == record_count, "report record_count differs")
    ledger.check(
        all(0 <= i < record_count for s in sets for i in s["members"]),
        "sets.jsonl member index out of range",
    )
    tables = [report["relationship_rates"]]
    tables += list(report["filtered_rates"].values())
    tables += list(report["chunk_type_rates"].values())
    if report.get("inflection"):
        tables.append(report["inflection"]["new_set_relationship_rates"])
    for table in tables:
        if table is not None:
            ledger.check(_sum_is_one(table), "a rate table does not sum to 1")
    histogram = Counter(sizes)
    return {
        "sets": digest(sorted([s["commit"], s["key"], sorted(s["members"])] for s in sets)),
        "report": digest(semantic_report(report)),
        "set_size_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "pairs": sum(n * (n - 1) // 2 for n in sizes),
    }


def semantic_report(report: dict) -> dict:
    data = {k: report.get(k) for k in REPORT_KEYS}
    inflection = report.get("inflection")
    data["inflection"] = (
        None if inflection is None else {k: inflection.get(k) for k in INFLECTION_KEYS}
    )
    return data


def ranking_problems(ranked) -> list[str]:
    """A ranking must be sorted by score and never propose the same name."""
    problems = []
    scores = [c.score for c in ranked]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("ranking not sorted by score")
    if any(c.proposed_name == c.target_name for c in ranked):
        problems.append("ranking proposes an unchanged name")
    return problems


def ranking_digest(ranked) -> str:
    return digest([[c.target_name, c.proposed_name, c.score] for c in ranked])
