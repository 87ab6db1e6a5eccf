"""Rename-record ingestion, a naive declaration-matching detector, and
repository history walking.

The primary source of rename records is the JSONL output of an external
refactoring detector; the built-in detector is a conservative convenience
with deliberately lower recall (it only matches declarations positionally
within an unchanged container).
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .errors import ParseError, RepoError, UnknownKind
from .facts.model import CodeFacts, EntityKind, IdentifierKind
from .fileio import jsonl_objects, read_lines

if TYPE_CHECKING:  # chunks loads the word layer, which mining never runs
    from .chunks import OperationalChunk


class RenameRecord(NamedTuple):
    """One identifier rename in one commit.

    ``index`` is the record's place in the file it was loaded from; like
    every field, it takes part in equality.
    """

    commit: str
    kind: IdentifierKind
    old_name: str
    new_name: str
    file: str = ""
    container: str | None = None
    chunks: tuple[OperationalChunk, ...] = ()
    index: int | None = None


def load_rename_records(
    stream: Iterable[str], source: str | None = None
) -> list[RenameRecord]:
    """Parse line-delimited JSON rename records.

    Each line holds an object with keys commit, kind, old, new, and
    optionally file and container; commit, old, new and file are strings,
    and container is a string or null.  Raises ParseError (naming
    ``source`` and the offending line) for malformed lines and UnknownKind
    for kinds outside the supported five.
    """
    records: list[RenameRecord] = []
    rows = jsonl_objects(stream, {"commit", "kind", "old", "new"}, "record", source)
    for number, obj in rows:
        commit, old, new = obj["commit"], obj["old"], obj["new"]
        file, container = obj.get("file", ""), obj.get("container")
        if not (
            str is type(commit) is type(old) is type(new) is type(file)
            and (container is None or type(container) is str)
        ):
            # name the first value of the wrong type
            for key in ("commit", "old", "new", "file", "container"):
                value = obj.get(key, "")
                if not (isinstance(value, str) or (value is None and key == "container")):
                    raise ParseError(f"{key} is not a string", line=number, source=source)
        kind = obj["kind"]
        kind = _KIND_BY_VALUE.get(kind) if type(kind) is str else None
        if kind is None:
            raise UnknownKind(
                f"unknown identifier kind: {obj['kind']!r}",
                line=number,
                source=source,
            )
        if old == new:
            raise ParseError(
                "old and new names are identical", line=number, source=source
            )
        records.append(
            RenameRecord(
                commit=commit,
                kind=kind,
                old_name=old,
                new_name=new,
                file=file,
                container=container,
                index=len(records),
            )
        )
    return records


def serialize_rename_records(records: Iterable[RenameRecord], fp) -> None:
    """Write one line per record: exactly ``json.dumps(obj, sort_keys=True)
    + "\\n"`` of the object {commit, container, file, kind, new, old}, with
    no container key when the container is None.

    Fills one row template per record, quoting with the C function that
    ``json.dumps`` quotes with, and writes each row as it is filled, so the
    whole text is never held at once.  Commit, names, file and container
    are strings, as the loader and ``detect_renames`` make them.
    """
    quote = encode_basestring_ascii
    fp.writelines(
        _RECORD_JSON
        % (
            quote(r.commit),
            "" if r.container is None else f'"container": {quote(r.container)}, ',
            quote(r.file),
            _KIND_JSON[r.kind],
            quote(r.new_name),
            quote(r.old_name),
        )
        for r in records
    )


# one record as json.dumps renders it, keys sorted; the second slot holds
# the container's key and value, or nothing
_RECORD_JSON = '{"commit": %s, %s"file": %s, "kind": %s, "new": %s, "old": %s}\n'
_KIND_BY_VALUE = {kind.value: kind for kind in IdentifierKind}
_KIND_JSON = {kind: encode_basestring_ascii(kind.value) for kind in IdentifierKind}


def load_rename_records_file(path) -> list[RenameRecord]:
    return load_rename_records(read_lines(path), source=path)


_KIND_FROM_ENTITY = {
    EntityKind.CLASS: IdentifierKind.CLASS,
    EntityKind.INTERFACE: IdentifierKind.CLASS,
    EntityKind.METHOD: IdentifierKind.METHOD,
    EntityKind.ATTRIBUTE: IdentifierKind.ATTRIBUTE,
    EntityKind.PARAMETER: IdentifierKind.PARAMETER,
    EntityKind.VARIABLE: IdentifierKind.VARIABLE,
}


def detect_renames(
    before: CodeFacts,
    after: CodeFacts,
    commit: str = "",
    file: str = "",
) -> list[RenameRecord]:
    """Match declarations positionally between two versions of one file.

    A rename is reported only when the declaration sits at the same
    ordinal position among same-kind siblings of a container whose own
    qualified path is unchanged, and the sibling counts agree; anything
    ambiguous is dropped.
    """

    def groups(facts: CodeFacts) -> dict[tuple[str, EntityKind], list]:
        by_container: dict[tuple[str, EntityKind], list] = {}
        for entity in facts.entities:
            if entity.container is None:
                path = ""
            else:
                path = facts.qualified_path(facts.entities[entity.container])
            by_container.setdefault((path, entity.kind), []).append(entity)
        return by_container

    before_groups = groups(before)
    after_groups = groups(after)
    records: list[RenameRecord] = []
    for key, old_entities in sorted(before_groups.items()):
        new_entities = after_groups.get(key)
        if new_entities is None or len(new_entities) != len(old_entities):
            continue  # container gone or sibling count changed: ambiguous
        for old_entity, new_entity in zip(old_entities, new_entities):
            if old_entity.name == new_entity.name:
                continue
            records.append(
                RenameRecord(
                    commit=commit,
                    kind=_KIND_FROM_ENTITY[old_entity.kind],
                    old_name=old_entity.name,
                    new_name=new_entity.name,
                    file=file or old_entity.file,
                    container=key[0] or None,
                )
            )
    return records


class CommitFiles(NamedTuple):
    """One commit plus the before/after text of its changed source files."""

    commit: str
    pairs: tuple[tuple[str, str | None, str | None], ...]


# One streamed log for the whole walk: each commit is a NUL-led id, each
# changed file a ``:<modes> <shas> <status>`` token and then its path token.
_LOG = (
    "log", "--reverse", "--format=%x00%H", "--raw", "-z", "--no-renames",
    "--no-abbrev", "--root", "--diff-merges=first-parent", "--end-of-options",
)
_GITLINK = b"160000"


def _log_commits(stream) -> Iterator[tuple[str, list[tuple[bytes, bytes]]]]:
    """Yield each commit id of a ``_LOG`` stream with its ``(raw entry,
    path)`` tokens, reading the stream in chunks as git writes it."""

    def tokens() -> Iterator[bytes]:
        tail = b""
        for chunk in iter(lambda: stream.read1(1 << 16), b""):
            *done, tail = (tail + chunk).split(b"\0")
            yield from done
        yield tail

    commit, entries = None, []
    stream_tokens = tokens()
    for token in stream_tokens:
        token = token.lstrip(b"\n")
        if token.startswith(b":"):
            entries.append((token, next(stream_tokens, b"")))
        elif token:
            if commit is not None:
                yield commit, entries
            commit, entries = token.decode("ascii"), []
    if commit is not None:
        yield commit, entries


def _stderr(file) -> str:
    file.seek(0)
    return file.read().decode("utf-8", "replace").strip()


def walk_history(
    repo, rev_range: str = "HEAD", suffixes: tuple[str, ...] = (".java",)
) -> Iterator[CommitFiles]:
    """Yield each commit in the range with its changed source files.

    Merge commits are compared against their first parent; root commits
    against the empty tree.  Added and deleted files appear with None on
    the missing side; submodule entries are skipped.  Paths are the
    repository's own, unquoted, and file text is decoded as UTF-8 with
    replacement and universal newlines.  The whole walk runs two git
    processes: one ``git log`` and one ``git cat-file --batch``; both are
    reaped when the walk ends or is closed early.
    """
    # imported here: only ``mine --repo`` walks git, and the other commands
    # import this module for its records alone, so they do not load
    # ``subprocess`` and the modules it brings at start-up
    import contextlib
    import subprocess
    import tempfile

    git = ["git", "-C", str(repo)]
    with tempfile.TemporaryFile() as log_errors, \
            tempfile.TemporaryFile() as cat_errors:
        log = subprocess.Popen(
            [*git, *_LOG, rev_range, "--"],
            stdout=subprocess.PIPE,
            stderr=log_errors,
        )
        cat = subprocess.Popen(
            [*git, "cat-file", "--batch"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=cat_errors,
        )

        def blob(sha: bytes, commit: str, path: str) -> str:
            try:
                cat.stdin.write(sha + b"\n")
                cat.stdin.flush()
            except BrokenPipeError:
                pass  # cat-file is gone; the empty reply below reports it
            header = cat.stdout.readline().split()
            if header[1:] == [b"missing"]:
                raise RepoError(
                    f"commit {commit}: cannot read {path}: "
                    f"object {sha.decode()} is missing"
                )
            if len(header) != 3:
                raise RepoError(
                    _stderr(cat_errors) or "git cat-file --batch failed"
                )
            data = cat.stdout.read(int(header[2]) + 1)[:-1]
            text = data.decode("utf-8", "replace")
            return text.replace("\r\n", "\n").replace("\r", "\n")

        try:
            for commit, entries in _log_commits(log.stdout):
                pairs = []
                for entry, raw_path in entries:
                    old_mode, new_mode, old_sha, new_sha, status = (
                        entry[1:].split(b" ")
                    )
                    path = raw_path.decode("utf-8", "replace")
                    if not path.endswith(suffixes) or _GITLINK in (
                        old_mode, new_mode
                    ):
                        continue
                    old_text = (
                        None if status.startswith(b"A")
                        else blob(old_sha, commit, path)
                    )
                    new_text = (
                        None if status.startswith(b"D")
                        else blob(new_sha, commit, path)
                    )
                    pairs.append((path, old_text, new_text))
                if pairs:
                    yield CommitFiles(commit=commit, pairs=tuple(pairs))
            if log.wait() != 0:
                raise RepoError(_stderr(log_errors) or "git log failed")
        finally:
            log.kill()  # a no-op once reaped; stops a walk closed early
            with contextlib.suppress(BrokenPipeError):
                cat.stdin.close()
            for proc in (log, cat):
                proc.stdout.close()
                proc.wait()

