"""Where the traced run puts its wrappers, and the per-layer metrics it
derives from them.

Every target is a public name of one of corename's modules; a target that
no longer exists is listed as absent and its metrics read 0.
"""

from __future__ import annotations

import importlib
import subprocess

from tracer import Tracer

MODULES = (
    "corename.lexicon",
    "corename.chunks",
    "corename.grouping",
    "corename.mining",
    "corename.facts",
    "corename.facts.parser",
    "corename.facts.model",
    "corename.facts.relations",
    "corename.analytics",
    "corename.recommend",
    "corename.fileio",
    "corename.cli",
)

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "lexicon.normalize.calls": ("count", "lower"),
    "lexicon.normalize.self_us_per_call": ("us", "lower"),
    "lexicon.normalize.distinct_ratio": ("ratio", "higher"),
    "chunks.diff_lemmas.self_us_per_call": ("us", "lower"),
    "chunks.diff_chunks.calls": ("count", "lower"),
    "chunks.diff_chunks.distinct_ratio": ("ratio", "higher"),
    "chunks.apply_chunk.calls": ("count", "lower"),
    "chunks.apply_chunk.self_us_per_call": ("us", "lower"),
    "grouping.attach_chunks.calls": ("count", "lower"),
    "grouping.attach_chunks.self_s": ("s", "lower"),
    "grouping.build_rename_sets.s": ("s", "lower"),
    "facts.parser.files": ("count", "lower"),
    "facts.parser.tokens_per_s": ("1/s", "higher"),
    "facts.parser.ms_per_file": ("ms", "lower"),
    "facts.parser.skipped_ratio": ("ratio", "lower"),
    "facts.model.index_builds": ("count", "lower"),
    "facts.model.index_s": ("s", "lower"),
    "facts.model.load_s": ("s", "lower"),
    "facts.relations.detect.calls": ("count", "lower"),
    "facts.relations.detect.self_us_per_call": ("us", "lower"),
    "facts.relations.detect.distinct_ratio": ("ratio", "higher"),
    "analytics.relationship_rates.calls": ("count", "lower"),
    "analytics.build_repo_stats.self_s": ("s", "lower"),
    "analytics.emit_report.s": ("s", "lower"),
    "recommend.generate_candidates.ms_per_query": ("ms", "lower"),
    "recommend.entities_scanned_per_query": ("count", "lower"),
    "recommend.candidates_per_query": ("count", "lower"),
    "recommend.useful_ratio": ("ratio", "higher"),
    "recommend.rank_candidates.ms_per_query": ("ms", "lower"),
    "mining.git_procs_per_commit": ("count", "lower"),
    "mining.git_wait_ms_per_commit": ("ms", "lower"),
    "mining.walk_history.self_ms_per_commit": ("ms", "lower"),
    "mining.detect_renames.self_us_per_call": ("us", "lower"),
    "mining.records_per_commit": ("count", "higher"),
    "fileio.atomic_write.calls": ("count", "lower"),
    "fileio.atomic_write.s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class _GitCounter:
    """Stands in for the ``subprocess`` module as corename.mining sees it,
    counting git processes and the time spent waiting for them."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._span = tracer.name_id("mining.git")

    def __getattr__(self, attr):
        return getattr(subprocess, attr)

    def run(self, args, *rest, **kwargs):
        if not (args and args[0] == "git"):
            return subprocess.run(args, *rest, **kwargs)
        state = self._tracer.enter(self._span)
        try:
            return subprocess.run(args, *rest, **kwargs)
        finally:
            self._tracer.exit(state)


def install(tracer: Tracer) -> None:
    """Import every layer and wrap its public entry points."""
    for name in MODULES:
        try:
            importlib.import_module(name)
        except ImportError:
            tracer.absent.append(name)
    snapshots: dict[int, object] = {}

    def snapshot_key(facts):
        # keep each snapshot alive so its id() names it for the whole run
        snapshots.setdefault(id(facts), facts)
        return id(facts)

    def count(counter, measure):
        return lambda result, *a, **k: tracer.count(counter, measure(result, *a, **k))

    w = tracer.wrap_function
    w("corename.lexicon", "normalize", "lexicon.normalize",
      key=lambda name, mode="lemma", lemmatizer=None: (name, mode, id(lemmatizer)))
    w("corename.chunks", "diff_lemmas", "chunks.diff_lemmas")
    w("corename.chunks", "diff_chunks", "chunks.diff_chunks",
      key=lambda old, new, mode="lemma": (old.origin, new.origin, mode))
    w("corename.chunks", "apply_chunk", "chunks.apply_chunk")
    w("corename.grouping", "attach_chunks", "grouping.attach_chunks")
    w("corename.grouping", "build_rename_sets", "grouping.build_rename_sets")
    w("corename.facts.parser", "tokenize", "facts.parser.tokenize",
      on_result=count("facts.parser.tokens", lambda r, *a, **k: len(r)))
    w("corename.facts.parser", "extract_facts", "facts.parser.extract_facts",
      on_result=lambda r, sources, *a, **k: (
          tracer.count("facts.parser.files", len(sources)),
          tracer.count("facts.parser.skipped", len(r.skipped)),
      ))
    tracer.wrap_method("corename.facts.model", "FactsIndex", "__init__",
                       "facts.model.index")
    tracer.wrap_method("corename.facts.model", "CodeFacts", "load", "facts.model.load")
    w("corename.facts.relations", "detect_relationships", "facts.relations.detect",
      key=lambda facts, a, b: (snapshot_key(facts), frozenset((a, b))))
    w("corename.analytics", "relationship_rates", "analytics.relationship_rates")
    w("corename.analytics", "build_repo_stats", "analytics.build_repo_stats")
    w("corename.analytics", "emit_report", "analytics.emit_report")
    # an entity is scanned when the query normalizes its name
    w("corename.recommend", "generate_candidates", "recommend.generate_candidates",
      on_result=count("recommend.candidates", lambda r, *a, **k: len(r)),
      nested={"recommend.entities_scanned": "lexicon.normalize"})
    w("corename.recommend", "rank_candidates", "recommend.rank_candidates")
    w("corename.recommend", "recommend", "recommend.recommend")
    tracer.wrap_generator("corename.mining", "walk_history", "mining.walk_history",
                          on_item=lambda item: tracer.count("mining.commits"))
    w("corename.mining", "detect_renames", "mining.detect_renames",
      on_result=count("mining.records", lambda r, *a, **k: len(r)))
    tracer.patch_attribute("corename.mining", "subprocess", _GitCounter(tracer))
    w("corename.fileio", "atomic_write", "fileio.atomic_write")


def per_layer_metrics(summary: dict, overhead_ratio: float) -> dict:
    """The PER_LAYER values from a tracer summary."""
    spans, counters = summary["spans"], summary["counters"]

    def span(name, field="calls"):
        row = spans.get(name)
        return row[field] if row else 0

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    def self_us(name):
        return per(span(name, "self_ns"), span(name), 1e-3)

    def distinct(name):
        return per(span(name, "distinct"), span(name))

    queries = span("recommend.recommend")
    commits = counters.get("mining.commits", 0)
    files = counters.get("facts.parser.files", 0)
    scanned = counters.get("recommend.entities_scanned", 0)
    parse_ns = span("facts.parser.extract_facts", "total_ns")
    values = {
        "lexicon.normalize.calls": span("lexicon.normalize"),
        "lexicon.normalize.self_us_per_call": self_us("lexicon.normalize"),
        "lexicon.normalize.distinct_ratio": distinct("lexicon.normalize"),
        "chunks.diff_lemmas.self_us_per_call": self_us("chunks.diff_lemmas"),
        "chunks.diff_chunks.calls": span("chunks.diff_chunks"),
        "chunks.diff_chunks.distinct_ratio": distinct("chunks.diff_chunks"),
        "chunks.apply_chunk.calls": span("chunks.apply_chunk"),
        "chunks.apply_chunk.self_us_per_call": self_us("chunks.apply_chunk"),
        "grouping.attach_chunks.calls": span("grouping.attach_chunks"),
        "grouping.attach_chunks.self_s": span("grouping.attach_chunks", "self_ns") / 1e9,
        "grouping.build_rename_sets.s": span("grouping.build_rename_sets", "total_ns") / 1e9,
        "facts.parser.files": files,
        "facts.parser.tokens_per_s": per(counters.get("facts.parser.tokens", 0), parse_ns, 1e9),
        "facts.parser.ms_per_file": per(parse_ns, files, 1e-6),
        "facts.parser.skipped_ratio": per(counters.get("facts.parser.skipped", 0), files),
        "facts.model.index_builds": span("facts.model.index"),
        "facts.model.index_s": span("facts.model.index", "total_ns") / 1e9,
        "facts.model.load_s": span("facts.model.load", "total_ns") / 1e9,
        "facts.relations.detect.calls": span("facts.relations.detect"),
        "facts.relations.detect.self_us_per_call": self_us("facts.relations.detect"),
        "facts.relations.detect.distinct_ratio": distinct("facts.relations.detect"),
        "analytics.relationship_rates.calls": span("analytics.relationship_rates"),
        "analytics.build_repo_stats.self_s": span("analytics.build_repo_stats", "self_ns") / 1e9,
        "analytics.emit_report.s": span("analytics.emit_report", "total_ns") / 1e9,
        "recommend.generate_candidates.ms_per_query": per(
            span("recommend.generate_candidates", "total_ns"), queries, 1e-6),
        "recommend.entities_scanned_per_query": per(scanned, queries),
        "recommend.candidates_per_query": per(counters.get("recommend.candidates", 0), queries),
        "recommend.useful_ratio": per(counters.get("recommend.candidates", 0), scanned),
        "recommend.rank_candidates.ms_per_query": per(
            span("recommend.rank_candidates", "total_ns"), queries, 1e-6),
        "mining.git_procs_per_commit": per(span("mining.git"), commits),
        "mining.git_wait_ms_per_commit": per(span("mining.git", "total_ns"), commits, 1e-6),
        "mining.walk_history.self_ms_per_commit": per(
            span("mining.walk_history", "self_ns"), commits, 1e-6),
        "mining.detect_renames.self_us_per_call": self_us("mining.detect_renames"),
        "mining.records_per_commit": per(counters.get("mining.records", 0), commits),
        "fileio.atomic_write.calls": span("fileio.atomic_write"),
        "fileio.atomic_write.s": span("fileio.atomic_write", "total_ns") / 1e9,
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
