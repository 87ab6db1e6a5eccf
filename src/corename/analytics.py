"""Statistics over rename sets: co-rename rates, size distribution,
relationship rates (overall, kind-filtered, and inflection-affected),
chunk-kind rates, and report emission."""

from __future__ import annotations

import json
from collections import Counter
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .chunks import ChunkKind
from .errors import InvalidIdentifier
from .facts.model import CodeFacts, RelationshipKind
from .facts.relations import detect_relationships
from .fileio import atomic_write, echo, json_container, json_number, load_document
from .grouping import (
    Chunks,
    MeaningfulRenameSet,
    RenameSetCollection,
    build_rename_sets,
    chunk_by_mode,
    collection_difference,
    enumerate_pairs,
)
from .lexicon import MODES, Lemmatizer
from .mining import IdentifierKind, RenameRecord

_EMPTY_FACTS = CodeFacts()


def co_rename_rate(coll: RenameSetCollection) -> float | None:
    """Members of multi-member sets over members of all sets; None if there
    are no sets."""
    if not coll.sets:
        return None
    shared = sum(len(s) for s in coll.sets if len(s) >= 2)
    return shared / coll.member_total()


class SizeRow(NamedTuple):
    set_size: int
    unique_names: int
    members: int
    cumulative_rate: float


def size_distribution(coll: RenameSetCollection) -> tuple[SizeRow, ...]:
    """Histogram rows (n, m, members, cumulative) for co-renaming sets, in
    (n, m) order; ``()`` if there are none.

    ``m`` counts distinct pre-rename names in the set; the cumulative rate
    covers members of sets no larger than n, over all co-renaming members.
    """
    cells: Counter[tuple[int, int]] = Counter()
    for s in coll.sets:
        if len(s) >= 2:
            cells[(len(s), s.unique_old_names())] += len(s)
    by_size: Counter[int] = Counter()
    for (n, _m), members in cells.items():
        by_size[n] += members
    sizes = sorted(by_size)
    upto = dict(zip(sizes, accumulate(by_size[n] for n in sizes)))  # running total
    total = sum(cells.values())
    return tuple(
        SizeRow(n, m, cells[n, m], upto[n] / total) for n, m in sorted(cells)
    )


class _Detections:
    """Relationship counts per rename set within one analysis.

    A set's snapshot is its commit's own facts, else ``default``, else
    empty facts.  Each distinct (snapshot, unordered name pair) is detected
    once, however many sets or rates ask for it.  ``pairs`` counts the
    pairs evaluated.
    """

    def __init__(self, facts, default):
        self.facts = facts or {}
        self.default = _EMPTY_FACTS if default is None else default
        self.found: dict[tuple[int, str, str], set[RelationshipKind]] = {}
        self.pairs = 0

    def count(self, rename_set: MeaningfulRenameSet) -> Counter[RelationshipKind]:
        snapshot = self.facts.get(rename_set.commit, self.default)
        counts: Counter[RelationshipKind] = Counter()
        for left, right in enumerate_pairs(rename_set):
            a, b = sorted((left.old_name, right.old_name))
            key = (id(snapshot), a, b)
            kinds = self.found.get(key)
            if kinds is None:
                kinds = self.found[key] = detect_relationships(snapshot, a, b)
            counts.update(kinds)
            self.pairs += 1
        return counts

    def count_sets(
        self, sets: Iterable[MeaningfulRenameSet]
    ) -> list[tuple[MeaningfulRenameSet, Counter[RelationshipKind]]]:
        """(set, counts) for every set with at least two members."""
        return [(s, self.count(s)) for s in sets if len(s) >= 2]


def _pooled_rates(
    counted: list, kind_filter: IdentifierKind | None = None
) -> dict[RelationshipKind, float] | None:
    """Rates over the summed counts of the counted sets; with ``kind_filter``,
    only of sets containing at least one rename of that identifier kind."""
    counts: Counter[RelationshipKind] = Counter()
    for rename_set, set_counts in counted:
        if kind_filter is None or any(
            m.kind == kind_filter for m in rename_set.members
        ):
            counts.update(set_counts)
    return _shares(counts)


def _chunk_rates(chunks: list[Chunks]) -> dict[ChunkKind, float] | None:
    return _shares(Counter(chunk.kind for record_chunks in chunks for chunk in record_chunks))


def _shares(counts: Counter) -> dict | None:
    """Each kind's share of the counts; None if there are none."""
    total = sum(counts.values())
    if total == 0:
        return None
    return {kind: counts[kind] / total for kind in sorted(counts, key=lambda k: k.value)}


class InflectionImpact(NamedTuple):
    """Paired raw/lemma statistics and the sets created by folding inflection."""

    raw_co_rename_rate: float | None
    lemma_co_rename_rate: float | None
    raw_set_count: int
    lemma_set_count: int
    raw_member_total: int
    lemma_member_total: int
    new_set_count: int
    new_set_relationship_rates: dict[RelationshipKind, float] | None


def _inflection(
    collections: dict[str, RenameSetCollection], detections, with_facts: bool
) -> InflectionImpact:
    """Compare the two modes' sets; relationship rates are computed only
    inside the newly created sets, lemma-mode sets whose membership matches
    no raw-mode set."""
    raw_coll, lemma_coll = collections["raw"], collections["lemma"]
    new_sets = collection_difference(lemma_coll, raw_coll)
    new_rates = None
    if with_facts and new_sets:
        new_rates = _pooled_rates(detections.count_sets(new_sets))
    return InflectionImpact(
        raw_co_rename_rate=co_rename_rate(raw_coll),
        lemma_co_rename_rate=co_rename_rate(lemma_coll),
        raw_set_count=len(raw_coll),
        lemma_set_count=len(lemma_coll),
        raw_member_total=raw_coll.member_total(),
        lemma_member_total=lemma_coll.member_total(),
        new_set_count=len(new_sets),
        new_set_relationship_rates=new_rates,
    )


class WorkCounts(NamedTuple):
    """How much relationship work one analysis did, and on which facts the
    headline sets' commits were analyzed (not in the report)."""

    pairs: int
    detections: int
    own_commits: int
    default_commits: int
    empty_commits: int


class RepoStats(NamedTuple):
    """Everything one analysis reports; the fields are the keys of
    ``report.json``, in order.

    Optional fields hold None where the underlying population was empty;
    a missing value is reported as such, never as a silent zero.
    """

    mode: str
    record_count: int
    set_count: int
    member_total: int
    co_rename_rate: float | None
    size_distribution: tuple[SizeRow, ...]
    relationship_rates: dict[RelationshipKind, float] | None
    filtered_rates: dict[IdentifierKind, dict[RelationshipKind, float] | None]
    chunk_type_rates: dict[str, dict[ChunkKind, float] | None]
    inflection: InflectionImpact | None

    def to_json(self) -> dict:
        """The JSON value of the report; ``emit_report`` sorts its keys."""

        def rates(mapping):
            return None if mapping is None else {k.value: v for k, v in mapping.items()}

        data = self._asdict()  # the JSON keys are the field names
        data["size_distribution"] = [list(row) for row in self.size_distribution]
        data["relationship_rates"] = rates(self.relationship_rates)
        data["filtered_rates"] = {k.value: rates(v) for k, v in self.filtered_rates.items()}
        data["chunk_type_rates"] = {m: rates(v) for m, v in self.chunk_type_rates.items()}
        if self.inflection is not None:
            data["inflection"] = {
                **self.inflection._asdict(),
                "new_set_relationship_rates": rates(self.inflection.new_set_relationship_rates),
            }
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RepoStats":
        def rates(mapping, kind, name):
            if mapping is None:
                return None
            mapping = json_container(mapping, dict, name)
            return {kind(k): json_number(v, f"{name}.{k}") for k, v in mapping.items()}

        def rates_by(key, parse_key, kind):
            table = json_container(data[key], dict, key)
            return {parse_key(k): rates(v, kind, f"{key}.{k}") for k, v in table.items()}

        def size_row(row, name):
            if len(json_container(row, list, name)) != 4:
                raise ValueError(f"{name} does not have 4 cells")
            cells = [f"{name}[{at}]" for at in range(4)]
            return SizeRow(*map(_count, row[:3], cells), json_number(row[3], cells[3]))

        inflection = None
        if data.get("inflection") is not None:
            inf = json_container(data["inflection"], dict, "inflection")
            inflection = InflectionImpact(
                **{
                    key: _optional_number(inf[key], f"inflection.{key}")
                    for key in ("raw_co_rename_rate", "lemma_co_rename_rate")
                },
                **{
                    key: _count(inf[key], f"inflection.{key}")
                    for key in (
                        "raw_set_count",
                        "lemma_set_count",
                        "raw_member_total",
                        "lemma_member_total",
                        "new_set_count",
                    )
                },
                new_set_relationship_rates=rates(
                    inf["new_set_relationship_rates"],
                    RelationshipKind,
                    "inflection.new_set_relationship_rates",
                ),
            )
        rows = json_container(data["size_distribution"], list, "size_distribution")
        return cls(
            mode=_mode(data["mode"]),
            record_count=_count(data["record_count"], "record_count"),
            set_count=_count(data["set_count"], "set_count"),
            member_total=_count(data["member_total"], "member_total"),
            co_rename_rate=_optional_number(data["co_rename_rate"], "co_rename_rate"),
            size_distribution=tuple(
                size_row(row, f"size_distribution[{at}]") for at, row in enumerate(rows)
            ),
            relationship_rates=rates(
                data["relationship_rates"], RelationshipKind, "relationship_rates"
            ),
            filtered_rates=rates_by("filtered_rates", IdentifierKind, RelationshipKind),
            chunk_type_rates=rates_by("chunk_type_rates", _mode, ChunkKind),
            inflection=inflection,
        )


# a loaded report is written back to CSV and plotted: each value needs its type


def _count(value, name: str) -> int:
    if type(value) is not int or value < 0:
        raise TypeError(f"{name} is not a count: {echo(value)}")
    return value


def _optional_number(value, name: str):
    return None if value is None else json_number(value, name)


def _mode(value) -> str:
    if value not in MODES:
        raise ValueError(f"unknown mode: {echo(value)}")
    return value


class Analysis(NamedTuple):
    """One analysis: the report, how much relationship work it did, the sets
    behind its headline statistics, and the records ``chunk_by_mode``
    skipped with their reasons (the last three not in the report)."""

    stats: RepoStats
    work: WorkCounts
    collection: RenameSetCollection
    skipped: list[tuple[RenameRecord, InvalidIdentifier]]


def build_repo_stats(
    records: list[RenameRecord],
    facts: Mapping[str, CodeFacts] | None = None,
    default: CodeFacts | None = None,
    mode: str = "lemma",
    filters: Iterable[IdentifierKind] = tuple(IdentifierKind),
    lemmatizer: Lemmatizer | None = None,
) -> Analysis:
    """Assemble the full report for one record stream.

    The records are chunked for both modes in one pass of
    ``chunk_by_mode``, and each mode's rename sets are built once: the
    ``mode`` sets give the headline statistics, both the inflection
    comparison.  Every rate is summed from per-set counts, and each
    (snapshot, pair) is detected once.  A commit's snapshot is
    ``facts[commit]``, else ``default`` (a single-snapshot approximation
    for records without repository access), else empty facts; with
    neither, the inflection section has no relationship rates.
    """
    chunks, skipped = chunk_by_mode(records, MODES, lemmatizer)
    collections = {m: build_rename_sets(records, chunks[m], m) for m in MODES}
    coll = collections[mode]
    detections = _Detections(facts, default)
    counted = detections.count_sets(coll.sets)
    commits = {s.commit for s in coll.sets}
    own = len(commits & detections.facts.keys())
    on_default = len(commits) - own if default is not None else 0
    stats = RepoStats(
        mode=mode,
        record_count=len(records),
        set_count=len(coll),
        member_total=coll.member_total(),
        co_rename_rate=co_rename_rate(coll),
        size_distribution=size_distribution(coll),
        relationship_rates=_pooled_rates(counted),
        filtered_rates={kind: _pooled_rates(counted, kind) for kind in filters},
        chunk_type_rates={m: _chunk_rates(chunks[m]) for m in MODES},
        inflection=_inflection(
            collections, detections, facts is not None or default is not None
        ),
    )
    work = WorkCounts(
        pairs=detections.pairs,
        detections=len(detections.found),
        own_commits=own,
        default_commits=on_default,
        empty_commits=len(commits) - own - on_default,
    )
    return Analysis(stats, work, coll, skipped)


# --- report emission -------------------------------------------------------


def _csv(rows: list[list]) -> str:
    return "\n".join(",".join(str(cell) for cell in row) for row in rows) + "\n"


def _fmt(value) -> str:
    return "NA" if value is None else repr(value) if isinstance(value, float) else str(value)


def _rate_rows(label: str, mapping) -> list[list]:
    """The CSV rows of one rate table, by kind; ``(none),NA`` for None."""
    if mapping is None:
        return [[label, "(none)", "NA"]]
    return [[label, k.value, _fmt(mapping[k])] for k in sorted(mapping, key=lambda k: k.value)]


def emit_report(stats: RepoStats, out_dir, plots: bool = False) -> list[Path]:
    """Write report.json plus CSV tables (and SVG charts with plots=True).

    Output is deterministic: two runs over equal stats produce
    byte-identical files.  Column layouts are documented in
    docs/formats.md.
    """
    out = Path(out_dir)
    written = []

    payload = json.dumps(stats.to_json(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    written.append(atomic_write(out / "report.json", payload))

    summary = [["metric", "value"]]
    summary.append(["mode", stats.mode])
    summary.append(["record_count", stats.record_count])
    summary.append(["set_count", stats.set_count])
    summary.append(["member_total", stats.member_total])
    summary.append(["co_rename_rate", _fmt(stats.co_rename_rate)])
    written.append(atomic_write(out / "summary.csv", _csv(summary)))

    size_rows = [["set_size", "unique_names", "members", "cumulative_rate"]]
    for row in stats.size_distribution:
        size_rows.append(
            [row.set_size, row.unique_names, row.members, _fmt(row.cumulative_rate)]
        )
    written.append(atomic_write(out / "size_distribution.csv", _csv(size_rows)))

    rel_rows = [["filter", "relationship", "rate"], *_rate_rows("(all)", stats.relationship_rates)]
    for kind in sorted(stats.filtered_rates, key=lambda k: k.value):
        rel_rows += _rate_rows(kind.value, stats.filtered_rates[kind])
    if stats.inflection is not None:
        rel_rows += _rate_rows("inflection_new_sets", stats.inflection.new_set_relationship_rates)
    written.append(atomic_write(out / "relationship_rates.csv", _csv(rel_rows)))

    chunk_rows = [["mode", "chunk", "rate"]]
    for mode in sorted(stats.chunk_type_rates):
        chunk_rows += _rate_rows(mode, stats.chunk_type_rates[mode])
    written.append(atomic_write(out / "chunk_type_rates.csv", _csv(chunk_rows)))

    inflection_rows = [["metric", "raw", "lemma"]]
    if stats.inflection is not None:
        inf = stats.inflection
        inflection_rows.append(
            ["co_rename_rate", _fmt(inf.raw_co_rename_rate), _fmt(inf.lemma_co_rename_rate)]
        )
        inflection_rows.append(["set_count", inf.raw_set_count, inf.lemma_set_count])
        inflection_rows.append(
            ["member_total", inf.raw_member_total, inf.lemma_member_total]
        )
        inflection_rows.append(["new_set_count", "", inf.new_set_count])
    written.append(atomic_write(out / "inflection.csv", _csv(inflection_rows)))

    if plots:
        written.append(
            atomic_write(
                out / "relationship_rates.svg",
                _bar_chart_svg(
                    "Relationship rates", stats.relationship_rates or {}
                ),
            )
        )
        written.append(
            atomic_write(
                out / "size_cumulative.svg",
                _cumulative_svg("Co-renaming size distribution", stats.size_distribution),
            )
        )
    return written


def load_report(path) -> RepoStats:
    """Read a report.json; one of the wrong shape raises ParseError naming
    the file."""
    return load_document(path, RepoStats.from_json, "report")


_SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}" font-family="monospace" font-size="11">\n'
)


def _bar_chart_svg(title: str, rates: Mapping) -> str:
    entries = sorted(rates.items(), key=lambda kv: kv[0].value)
    width, height, base, left = 640, 240, 200, 20
    parts = [_SVG_HEAD.format(w=width, h=height)]
    parts.append(f'<text x="{left}" y="16">{title}</text>\n')
    if entries:
        slot = (width - 2 * left) / len(entries)
        peak = max(v for _k, v in entries) or 1.0
        for pos, (kind, value) in enumerate(entries):
            bar = (base - 40) * (value / peak)
            x = left + pos * slot
            parts.append(
                f'<rect x="{x:.1f}" y="{base - bar:.1f}" width="{slot * 0.7:.1f}" '
                f'height="{bar:.1f}" fill="#4878a8"/>\n'
            )
            parts.append(
                f'<text x="{x:.1f}" y="{base + 14}" transform="rotate(40 {x:.1f} '
                f'{base + 14})">{kind.value} {value:.3f}</text>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)


def _cumulative_svg(title: str, rows: tuple[SizeRow, ...]) -> str:
    width, height, base, left = 640, 240, 200, 40
    parts = [_SVG_HEAD.format(w=width, h=height)]
    parts.append(f'<text x="{left}" y="16">{title}</text>\n')
    by_size: dict[int, float] = {}
    for row in rows:
        by_size[row.set_size] = row.cumulative_rate
    if by_size:
        biggest = max(by_size)
        step = (width - 2 * left) / max(biggest, 1)
        previous = 0.0
        for size in sorted(by_size):
            x = left + size * step
            y = base - (base - 40) * by_size[size]
            y0 = base - (base - 40) * previous
            parts.append(
                f'<line x1="{x - step:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y0:.1f}" '
                f'stroke="#a84848"/>\n'
            )
            parts.append(
                f'<line x1="{x:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y:.1f}" '
                f'stroke="#a84848"/>\n'
            )
            parts.append(f'<text x="{x:.1f}" y="{base + 14}">{size}</text>\n')
            previous = by_size[size]
    parts.append("</svg>\n")
    return "".join(parts)
