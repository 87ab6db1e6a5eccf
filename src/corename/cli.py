"""Command-line pipeline: mine, group, facts, analyze, recommend, report.

Stages hand off through files (JSONL for renames and sets, JSON for facts
and reports) so each stage can be tested against golden outputs.  All
writes are atomic; exit status is 0 for success, 1 for usage errors, and 2
for data errors, with diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path
from typing import Iterable

from .errors import CorenameError
from .facts.model import CodeFacts, IdentifierKind
from .fileio import atomic_write, echo, load_json, read_lines

# Each command imports the corename modules it runs in its first lines, so a
# process loads only what its command needs.


def _warn(template: str, rows: Iterable[tuple]) -> None:
    """Print one ``corename: warning:`` line to stderr per row, ``template``
    filled from it."""
    for row in rows:
        print("corename: warning: " + template.format(*row), file=sys.stderr)


# the rows of CodeFacts.skipped and of chunk_by_mode's skipped
_SKIPPED_SOURCE = "skipping {0}: {1}"
_SKIPPED_RENAME = "skipping rename {0.old_name} -> {0.new_name}: {1}"


def _lemmatizer(args):
    from .lexicon import Lemmatizer

    table = getattr(args, "lemma_table", None)
    return Lemmatizer.from_file(table) if table else None


def _finite_float(text: str) -> float:
    """A numeric flag's value: a float other than NaN or an infinity."""
    try:
        value = float(text)
    except ValueError:  # argparse's own wording for a float flag
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _config_problem(action: argparse.Action, value) -> str | None:
    """Why ``value`` cannot stand for ``action``'s flag, or None if it can.

    A flag without an argument takes true or false, a repeatable option a
    list of what one occurrence takes, and any other option a number or a
    string as its ``type`` says, drawn from its ``choices`` if it has them.
    """
    if action.nargs == 0:
        return None if isinstance(value, bool) else "must be true or false"
    items = [value]
    if isinstance(action, argparse._AppendAction):
        if not isinstance(value, list):
            return "must be a list"
        items = value
    for item in items:
        if action.type is _finite_float:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                return f"must be a number, not {echo(item, json.dumps)}"
            if isinstance(item, float) and not math.isfinite(item):
                return f"must be a finite number, not {echo(item, json.dumps)}"
        elif not isinstance(item, str):
            return f"must be a string, not {echo(item, json.dumps)}"
        if action.choices is not None and item not in action.choices:
            return f"must be one of {', '.join(action.choices)}, not {echo(item)}"
    return None


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay values from --config onto parsed flags (config wins).

    Each value is checked against the option it names as the command line
    would check it, so a mistyped value exits 2 naming the file and key.
    """
    if not getattr(args, "config", None):
        return
    overrides = load_json(args.config)
    if not isinstance(overrides, dict):
        raise CorenameError(f"{args.config}: config file must hold a JSON object")
    options = {
        action.dest: action
        for action in args.actions
        if action.dest not in ("help", "config")
    }
    for key, value in overrides.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise CorenameError(f"{args.config}: config key {key!r} matches no option")
        problem = _config_problem(action, value)
        if problem:
            raise CorenameError(f"{args.config}: config key {key!r} {problem}")
        setattr(args, action.dest, value)


def _cmd_mine(args) -> int:
    from .mining import load_rename_records_file, serialize_rename_records

    if bool(args.repo) == bool(args.records):
        raise CorenameError("exactly one of --repo or --records is required")
    work = None
    if args.records:
        records = load_rename_records_file(args.records)
    else:
        from .facts import extract_facts
        from .mining import RenameRecord, detect_renames, walk_history

        records: list[RenameRecord] = []
        commits = compared = skipped = 0
        for commit in walk_history(args.repo):
            commits += 1
            for path, before, after in commit.pairs:
                if before is None or after is None:
                    skipped += 1
                    continue
                compared += 1
                old, new = extract_facts({path: before}), extract_facts({path: after})
                _warn(_SKIPPED_SOURCE, old.skipped + new.skipped)
                records += detect_renames(old, new, commit=commit.commit, file=path)
        work = (
            f"mined {commits} commits: {compared} file pairs compared, "
            f"{skipped} added or deleted files skipped"
        )
    atomic_write(args.out, lambda fp: serialize_rename_records(records, fp))
    print(f"wrote {len(records)} rename records to {args.out}", file=sys.stderr)
    if work:
        print(work, file=sys.stderr)
    return 0


def _cmd_group(args) -> int:
    from .grouping import build_rename_sets, chunk_by_mode, serialize_rename_sets
    from .mining import load_rename_records_file

    mode = args.mode
    records = load_rename_records_file(args.renames)
    chunks, skipped = chunk_by_mode(records, (mode,), _lemmatizer(args))
    _warn(_SKIPPED_RENAME, skipped)
    collection = build_rename_sets(records, chunks[mode], mode)
    atomic_write(args.out, lambda fp: serialize_rename_sets(collection, fp))
    print(
        f"wrote {len(collection)} rename sets "
        f"({collection.member_total()} members) to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_facts(args) -> int:
    from .facts import extract_facts_from_dir

    suffixes = tuple(args.suffix) if args.suffix else (".java",)
    facts = extract_facts_from_dir(args.src, suffixes=suffixes)
    _warn(_SKIPPED_SOURCE, facts.skipped)
    facts.save(args.out)
    print(
        f"wrote {len(facts.entities)} entities to {args.out}", file=sys.stderr
    )
    return 0


def _load_facts_dir(directory) -> dict[str, CodeFacts]:
    if not Path(directory).is_dir():
        raise CorenameError(f"{directory}: not a directory")
    facts: dict[str, CodeFacts] = {}
    for path in sorted(Path(directory).glob("*.json")):
        facts[path.stem] = CodeFacts.load(path)
    return facts


def _cmd_analyze(args) -> int:
    from .analytics import build_repo_stats, emit_report
    from .grouping import check_rename_sets
    from .mining import load_rename_records_file

    records = load_rename_records_file(args.renames)
    facts = default = None
    if args.facts_dir:
        facts = _load_facts_dir(args.facts_dir)
        # default.json: a single-snapshot approximation for commits without facts
        default = facts.pop("default", None)
    stats, work, collection, skipped = build_repo_stats(
        records,
        facts,
        default,
        mode=args.mode,
        filters=tuple(IdentifierKind(k) for k in args.filter)
        if args.filter
        else tuple(IdentifierKind),
        lemmatizer=_lemmatizer(args),
    )
    _warn(_SKIPPED_RENAME, skipped)
    # the sets are derived from the renames; --sets must hold the same ones
    check_rename_sets(
        read_lines(args.sets), collection, len(records), source=args.sets
    )
    if args.facts_dir and work.empty_commits:
        _warn(
            "{}: no facts file for {} of {} commits and no default.json; "
            "those commits are analyzed on empty facts",
            [(args.facts_dir, work.empty_commits, work.own_commits + work.empty_commits)],
        )
    written = emit_report(stats, args.out, plots=args.plots)
    print(
        "wrote " + ", ".join(str(p) for p in written),
        file=sys.stderr,
    )
    print(
        f"analyzed {stats.set_count} sets: {work.pairs} pairs evaluated, "
        f"{work.detections} distinct detections; commits: {work.own_commits} "
        f"own facts, {work.default_commits} default.json, "
        f"{work.empty_commits} empty facts",
        file=sys.stderr,
    )
    return 0


def _cmd_recommend(args) -> int:
    from .facts import extract_facts_from_dir
    from .grouping import chunk_by_mode
    from .mining import RenameRecord
    from .recommend import PriorProfile, default_profile, recommend

    facts = extract_facts_from_dir(args.src)
    _warn(_SKIPPED_SOURCE, facts.skipped)
    trigger = RenameRecord(
        commit="(pending)",
        kind=IdentifierKind(args.kind),
        old_name=args.old,
        new_name=args.new,
        index=0,
    )
    lemmatizer = _lemmatizer(args)
    chunks, skipped = chunk_by_mode([trigger], (args.mode,), lemmatizer)
    _warn(_SKIPPED_RENAME, skipped)
    trigger = trigger._replace(chunks=chunks[args.mode][0])
    if not trigger.chunks:
        raise CorenameError(
            f"no operational chunks between {args.old!r} and {args.new!r}"
        )
    profile = PriorProfile.load(args.profile) if args.profile else default_profile()
    ranked = recommend(
        trigger,
        facts,
        profile=profile,
        mode=args.mode,
        min_score=args.min_score,
        lemmatizer=lemmatizer,
    )
    if args.format == "json":
        payload = [
            {
                "target": c.target_name,
                "kind": c.target_kind.value,
                "file": c.file,
                "container": c.container,
                "proposed": c.proposed_name,
                "relationships": sorted(k.value for k in c.relationships),
                "score": c.score,
            }
            for c in ranked
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if not ranked:
            print("no candidates")
        for c in ranked:
            print(c.describe())
    return 0


def _cmd_report(args) -> int:
    from .analytics import emit_report, load_report

    stats = load_report(args.stats)
    written = emit_report(stats, args.out, plots=args.plots)
    print("wrote " + ", ".join(str(p) for p in written), file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corename",
        description="Mine, group, analyze, and recommend co-renamed identifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; its values override flags")
        p.set_defaults(actions=p._actions)

    mine = sub.add_parser("mine", help="collect rename records")
    mine.add_argument("--repo", help="version-control repository to walk")
    mine.add_argument("--records", help="pre-extracted rename records (JSONL)")
    mine.add_argument("--out", required=True)
    common(mine)
    mine.set_defaults(func=_cmd_mine)

    group = sub.add_parser("group", help="build meaningful rename sets")
    group.add_argument("--renames", required=True)
    group.add_argument("--mode", choices=["raw", "lemma"], default="lemma")
    group.add_argument("--lemma-table", help="override the bundled irregular-forms table")
    group.add_argument("--out", required=True)
    common(group)
    group.set_defaults(func=_cmd_group)

    facts = sub.add_parser("facts", help="extract structural facts from sources")
    facts.add_argument("--src", required=True)
    facts.add_argument(
        "--suffix",
        action="append",
        help="source suffix to include (repeatable; default .java)",
    )
    facts.add_argument("--out", required=True)
    common(facts)
    facts.set_defaults(func=_cmd_facts)

    analyze = sub.add_parser("analyze", help="compute statistics and reports")
    analyze.add_argument("--renames", required=True)
    analyze.add_argument("--sets", required=True)
    analyze.add_argument("--mode", choices=["raw", "lemma"], default="lemma")
    analyze.add_argument(
        "--facts-dir",
        help="directory of <commit>.json facts; default.json applies to the rest",
    )
    analyze.add_argument(
        "--filter",
        action="append",
        choices=[k.value for k in IdentifierKind],
        help="identifier kind(s) for filtered rates (repeatable; default all)",
    )
    analyze.add_argument("--plots", action="store_true")
    analyze.add_argument("--lemma-table")
    analyze.add_argument("--out", required=True)
    common(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    rec = sub.add_parser("recommend", help="rank co-rename candidates")
    rec.add_argument("--src", required=True)
    rec.add_argument("--old", required=True)
    rec.add_argument("--new", required=True)
    rec.add_argument(
        "--kind", required=True, choices=[k.value for k in IdentifierKind]
    )
    rec.add_argument("--mode", choices=["raw", "lemma"], default="lemma")
    rec.add_argument("--profile", help="prior profile JSON; default built-in")
    rec.add_argument("--min-score", type=_finite_float)
    rec.add_argument("--format", choices=["text", "json"], default="text")
    rec.add_argument("--lemma-table")
    common(rec)
    rec.set_defaults(func=_cmd_recommend)

    report = sub.add_parser("report", help="re-emit report files from report.json")
    report.add_argument("--stats", required=True)
    report.add_argument("--out", required=True)
    report.add_argument("--plots", action="store_true")
    common(report)
    report.set_defaults(func=_cmd_report)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _apply_config(args)
        return args.func(args)
    except CorenameError as exc:
        print(f"corename: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"corename: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # A run makes no cyclic garbage that grows with its input (a test checks
    # this), so the cycle collector would only rescan live objects, up to a
    # few full passes per run over every record and entity.  The process
    # ends with the command; ``run`` itself leaves the collector alone.
    gc.disable()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
