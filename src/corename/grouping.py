"""Meaningful rename sets: renames sharing an operational chunk in a commit."""

from __future__ import annotations

from itertools import combinations, count, zip_longest
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Sequence

from .chunks import OperationalChunk, chunk_key, diff_lemmas, form_chunks
from .errors import InvalidIdentifier, ParseError
from .fileio import jsonl_objects
from .lexicon import MODES, Lemmatizer, Vocabulary
from .mining import RenameRecord

Chunks = tuple[OperationalChunk, ...]


class MeaningfulRenameSet(NamedTuple):
    """All renames of one commit whose chunks include one shared chunk key.

    ``len`` counts the members.  ``_replace`` checks a copy's length against
    the field count, so a changed set is built with the constructor.
    """

    commit: str
    key: str
    # the caller's own records, and their places in the list the set was
    # built from
    members: tuple[RenameRecord, ...]
    positions: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    def member_identity(self) -> frozenset:
        return frozenset(self.positions)

    def unique_old_names(self) -> int:
        return len({m.old_name for m in self.members})


class RenameSetCollection(NamedTuple):
    """One mode's rename sets.  ``len`` counts the sets; as with a set, a
    changed collection is built with the constructor."""

    sets: tuple[MeaningfulRenameSet, ...]
    mode: str

    def __len__(self) -> int:
        return len(self.sets)

    def member_total(self) -> int:
        return sum(len(s) for s in self.sets)


class ModeChunks(NamedTuple):
    """``chunk_by_mode``'s result: for each mode, one chunk tuple per
    record, in record order; and each record whose names are not
    identifiers, in record order, with the reason."""

    chunks: dict[str, list[Chunks]]
    skipped: list[tuple[RenameRecord, InvalidIdentifier]]


def chunk_by_mode(
    records: Iterable[RenameRecord],
    modes: Iterable[str] = MODES,
    lemmatizer: Lemmatizer | None = None,
) -> ModeChunks:
    """Compute each record's operational chunks once per mode, in one pass.

    Each distinct name is split once and its lemma sequence is derived
    from the split.  Each distinct pair of lemma sequences is diffed once
    over all modes (in raw mode the lemmas are the folded words); when
    that diff is empty, the record's Inflect/Other chunks come from its
    words.  Records whose names are not splittable identifiers get ``()``
    in every mode (they then belong to no rename set) and are listed once
    in ``skipped``.
    """
    modes = tuple(modes)
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode: {mode!r}")
    vocabulary = Vocabulary(lemmatizer)
    # name -> one (sequence, lemmas) per mode, or the reason it has none
    sequences: dict[str, list | InvalidIdentifier] = {}
    # (old lemmas, new lemmas) -> their diff_lemmas chunks
    lemma_chunks: dict[tuple, Chunks] = {}

    def words(name):
        found = sequences.get(name)
        if found is None:
            try:
                raw = vocabulary.split(name)
            except InvalidIdentifier as exc:
                found = exc
            else:
                found = []
                for mode in modes:
                    seq = raw if mode == "raw" else vocabulary.lemmatized(raw)
                    found.append((seq, seq.lemmas))
            sequences[name] = found
        return found

    out: dict[str, list[Chunks]] = {mode: [] for mode in modes}
    skipped = []
    for record in records:
        old, new = words(record.old_name), words(record.new_name)
        invalid = [s for s in (old, new) if isinstance(s, InvalidIdentifier)]
        if invalid:
            skipped.append((record, invalid[0]))
            for mode in modes:
                out[mode].append(())
            continue
        for mode, (old_seq, old_lemmas), (new_seq, new_lemmas) in zip(
            modes, old, new
        ):
            key = (old_lemmas, new_lemmas)
            chunks = lemma_chunks.get(key)
            if chunks is None:
                chunks = lemma_chunks[key] = tuple(diff_lemmas(*key))
            if not chunks:
                chunks = tuple(form_chunks(old_seq, new_seq, mode))
            out[mode].append(chunks)
    return ModeChunks(out, skipped)


def attach_chunks(
    records: Iterable[RenameRecord],
    mode: str,
    lemmatizer: Lemmatizer | None = None,
) -> list[RenameRecord]:
    """Copies of the records carrying their operational chunks for the
    given mode, as ``recommend`` takes its trigger; see ``chunk_by_mode``."""
    records = list(records)
    chunks = chunk_by_mode(records, (mode,), lemmatizer).chunks[mode]
    return [r._replace(chunks=c) for r, c in zip(records, chunks)]


def chunk_keys(chunks: Chunks) -> tuple[str, ...]:
    """The distinct keys of a record's chunks, in chunk order."""
    return tuple(dict.fromkeys(map(chunk_key, chunks)))


def build_rename_sets(
    records: Sequence[RenameRecord], chunks: Sequence[Chunks], mode: str
) -> RenameSetCollection:
    """Group records into one set per (commit, chunk key) they share.

    ``chunks`` holds each record's chunks, by position, as ``chunk_by_mode``
    gives them for ``mode``.  A rename with several distinct chunk keys
    joins several sets; a rename with no chunks joins none.  Sets are
    ordered by (commit, key) and each lists its members in input order
    without duplicates; the members are the given record objects.
    """
    if len(records) != len(chunks):
        raise ValueError(f"{len(chunks)} chunk tuples for {len(records)} records")
    grouped: dict[tuple[str, str], list[int]] = {}
    for position, (record, record_chunks) in enumerate(zip(records, chunks)):
        for key in chunk_keys(record_chunks):
            grouped.setdefault((record.commit, key), []).append(position)
    sets = tuple(
        MeaningfulRenameSet(
            commit, key, tuple(records[p] for p in positions), tuple(positions)
        )
        for (commit, key), positions in sorted(grouped.items())
    )
    return RenameSetCollection(sets=sets, mode=mode)


def enumerate_pairs(rename_set: MeaningfulRenameSet):
    """All unordered pairs of distinct members: n*(n-1)/2 of them."""
    return list(combinations(rename_set.members, 2))


def collection_difference(
    lemma_coll: RenameSetCollection, raw_coll: RenameSetCollection
) -> list[MeaningfulRenameSet]:
    """Sets of the first collection with no membership-identical set in the
    second.

    Identity is by member positions, not by chunk key: folding inflection
    rewrites keys, so a set only counts as new when no set over the same
    records existed before.
    """
    raw_identities = {s.member_identity() for s in raw_coll.sets}
    return [
        s for s in lemma_coll.sets if s.member_identity() not in raw_identities
    ]


def serialize_rename_sets(collection: RenameSetCollection, fp) -> None:
    """Write one line per set: exactly ``json.dumps({"commit": ..., "key":
    ..., "members": [positions]}, sort_keys=True) + "\\n"``.

    Fills one row template per set, quoting with the C function that
    ``json.dumps`` quotes with, and writes each row as it is filled;
    positions are ints, as ``build_rename_sets`` makes them.
    """
    quote = encode_basestring_ascii
    fp.writelines(
        _SET_JSON % (quote(s.commit), quote(s.key), ", ".join(map(str, s.positions)))
        for s in collection.sets
    )


# one set as json.dumps renders it, keys sorted
_SET_JSON = '{"commit": %s, "key": %s, "members": [%s]}\n'


def check_rename_sets(
    stream: Iterable[str],
    collection: RenameSetCollection,
    record_count: int,
    source: str | None = None,
) -> None:
    """Check that the lines of a sets file are those ``serialize_rename_sets``
    writes for ``collection``.

    Every line is first checked for shape: invalid JSON, a line that is not
    an object, missing keys, or a member that is not the position of one of
    ``record_count`` records raise ParseError naming ``source`` and the
    line.  Only then are the sets compared, in order, by commit, key and
    members; the first that differs, or sets missing at the end, raise
    ParseError too.
    """
    found = []
    # numbers the lines read, blank ones too: zip finds the stream's end
    # before it draws from ``read``, so ``next(read)`` is then one past it
    read = count(1)
    lines = (line for line, _ in zip(stream, read))
    for number, obj in jsonl_objects(lines, {"commit", "key", "members"}, "set", source):
        commit, key, members = obj["commit"], obj["key"], obj["members"]
        if not (isinstance(commit, str) and isinstance(key, str)):
            raise ParseError(
                "commit and key must be strings", line=number, source=source
            )
        if not isinstance(members, list):
            raise ParseError("members is not a list", line=number, source=source)
        for i in members:
            if type(i) is not int or not 0 <= i < record_count:
                raise ParseError(
                    f"member {i!r} is not a record position in [0, {record_count})",
                    line=number,
                    source=source,
                )
        found.append((number, (commit, key, members)))
    expected = [(s.commit, s.key, list(s.positions)) for s in collection.sets]
    derived = f"the {len(expected)} sets derived from the renames in {collection.mode} mode"
    regroup = "; group the renames with the same mode and lemma table"
    for i, (got, want) in enumerate(zip_longest(found, expected)):
        if got is None:
            raise ParseError(
                f"{len(expected) - i} of {derived} missing at the end{regroup}",
                line=next(read),
                source=source,
            )
        if got[1] != want:
            raise ParseError(
                f"set {i + 1} differs from {derived}{regroup}", line=got[0], source=source
            )
