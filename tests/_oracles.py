"""Independent reference implementations used to check the differ, and
copies of replaced code paths that their replacements are checked against.

Nothing here may import from corename.chunks internals: these are the
yardsticks the production diff is measured against.
"""

import itertools
import json
import re
import subprocess
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from corename.chunks import ChunkKind, OperationalChunk
from corename.errors import RepoError
from corename.facts.model import CodeFacts, Entity, EntityKind, RelationshipKind
from corename.facts.parser import ASSIGN_OPS, KEYWORDS, MODIFIERS, PRIMITIVES, tokenize
from corename.mining import CommitFiles


def changed_words(chunk):
    """The words a chunk deletes and adds."""
    return len(chunk.deleted) + len(chunk.added)


def replay_chunks(old_lemmas, chunks) -> tuple[str, ...]:
    """Apply chunks at their anchors to an old lemma sequence.

    Other and Inflect leave lemmas untouched by definition.
    """
    out = list(old_lemmas)
    shift = 0
    for ch in sorted(chunks, key=lambda c: c.anchor):
        at = ch.anchor + shift
        if ch.kind is ChunkKind.INSERT:
            out[at:at] = ch.added
            shift += len(ch.added)
        elif ch.kind is ChunkKind.DELETE:
            del out[at : at + len(ch.deleted)]
            shift -= len(ch.deleted)
        elif ch.kind is ChunkKind.REPLACE:
            out[at : at + len(ch.deleted)] = ch.added
            shift += len(ch.added) - len(ch.deleted)
    return tuple(out)


def join_words(seq) -> str:
    """Boundary-preserving join of a word sequence (underscore style)."""
    return "_".join(w.folded for w in seq.words)


def lcs_length(a, b):
    """Textbook longest-common-subsequence DP over a full matrix."""
    m, n = len(a), len(b)
    if m == 0 or n == 0:
        return 0
    grid = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        ai = a[i - 1]
        row, above = grid[i], grid[i - 1]
        for j in range(1, n + 1):
            if ai == b[j - 1]:
                row[j] = above[j - 1] + 1
            else:
                x, y = above[j], row[j - 1]
                row[j] = x if x >= y else y
    return grid[m][n]


def min_changed_words(a, b):
    """Minimum changed-word total over contiguous-run edit scripts.

    Every script keeps some words of ``a`` unchanged (a monotone matching
    of equal words) and edits the contiguous gaps between them, so the
    minimum equals len(a) + len(b) - 2 * LCS.  ``enumerate_script_minimum``
    verifies this identity exhaustively on small inputs.
    """
    return len(a) + len(b) - 2 * lcs_length(a, b)


def batched_min_changed_words(a_batch, b_batch):
    """``min_changed_words`` for many same-length pairs at once.

    Runs the same textbook LCS recurrence with the pair axis vectorized;
    sequences must be byte strings (or equal-length int tuples).  Returns
    a list of totals.
    """
    m = len(a_batch[0])
    n = len(b_batch[0])
    count = len(a_batch)
    if m == 0 or n == 0:
        return [m + n] * count
    if isinstance(a_batch[0], bytes):
        a = np.frombuffer(b"".join(a_batch), dtype=np.uint8).reshape(count, m)
        b = np.frombuffer(b"".join(b_batch), dtype=np.uint8).reshape(count, n)
    else:
        a = np.array(a_batch, dtype=np.uint8)
        b = np.array(b_batch, dtype=np.uint8)
    prev = np.zeros((count, n + 1), dtype=np.int8)
    for i in range(m):
        cur = np.zeros((count, n + 1), dtype=np.int8)
        matches = a[:, i : i + 1] == b
        for j in range(n):
            cur[:, j + 1] = np.where(
                matches[:, j],
                prev[:, j] + 1,
                np.maximum(prev[:, j + 1], cur[:, j]),
            )
        prev = cur
    return (m + n - 2 * prev[:, n].astype(np.int64)).tolist()


def enumerate_script_minimum(a, b):
    """Brute-force enumeration of every contiguous-run edit script.

    At each position a script either keeps a matching word or spends a
    chunk deleting ``da`` words and inserting ``db`` words (da + db >= 1).
    Returns the smallest changed-word total over all scripts.  Exponential;
    only usable for short sequences.
    """
    m, n = len(a), len(b)
    best = [m + n]

    def walk(i, j, changed):
        if changed > best[0]:
            return
        if i == m and j == n:
            best[0] = min(best[0], changed)
            return
        if i < m and j < n and a[i] == b[j]:
            walk(i + 1, j + 1, changed)
        for da in range(m - i + 1):
            for db in range(n - j + 1):
                if da + db == 0:
                    continue
                walk(i + da, j + db, changed + da + db)

    walk(0, 0, 0)
    return best[0]


def canonical_pairs(max_len, alphabet_size):
    """All sequence pairs with lengths <= max_len over the alphabet, up to
    symbol relabeling.

    Pairs are enumerated as restricted-growth byte strings over the
    concatenation, so every concrete pair over an alphabet of the given
    size is a relabeling of exactly one yielded pair.  Word-level diffing
    only compares words for equality, so checking one representative per
    class checks the whole class.
    """
    def growth_strings(length, cap):
        if length == 0:
            yield b""
            return
        stack = [(b"", 0)]
        push = stack.append
        while stack:
            prefix, used = stack.pop()
            nxt = min(used + 1, cap)
            for v in range(nxt - 1, -1, -1):
                new = prefix + bytes((v,))
                if len(new) == length:
                    yield new
                else:
                    push((new, used if v < used else v + 1))

    for m in range(max_len + 1):
        for n in range(max_len + 1):
            for joint in growth_strings(m + n, alphabet_size):
                yield joint[:m], joint[m:]


def random_pair(rng, min_len, max_len, alphabet):
    a = tuple(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len)))
    b = tuple(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len)))
    return a, b


def all_sequences(max_len, alphabet):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


# --- replaced code paths ----------------------------------------------------


def co_occurs_m_scan(facts, m1, m2):
    """CoOccursM by scanning every class's method list on each call."""
    from corename.facts.model import EntityKind

    methods_per_class = defaultdict(list)
    for parent_id, child_id in facts.contains:
        p, c = facts.entities[parent_id], facts.entities[child_id]
        if p.kind is EntityKind.CLASS and c.kind is EntityKind.METHOD:
            methods_per_class[p.name].append(c.name)
    for methods in methods_per_class.values():
        if m1 == m2:
            if methods.count(m1) >= 2:
                return True
        elif m1 in methods and m2 in methods:
            return True
    return False


def facts_json_reference(facts):
    """A facts file's text as the CLI wrote it before ``CodeFacts.dumps``."""
    return json.dumps(facts.to_json(), indent=2, sort_keys=True) + "\n"


def facts_from_json_per_entity(data):
    """``CodeFacts.from_json`` as it was before it checked the entities
    table column by column: one entity at a time."""
    from corename.errors import ParseError
    from corename.facts.model import _COLUMNS, _is_id, _rows, _table

    if not isinstance(data, dict):
        raise ParseError("facts are not a JSON object")
    listed = _table(data, "entities")
    entities = []
    for position, e in enumerate(listed):
        try:
            entity = Entity(
                id=e["id"],
                kind=EntityKind(e["kind"]),
                name=e["name"],
                container=e["container"],
                file=e["file"],
            )
        except KeyError as exc:
            raise ParseError(f"entity {position}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"entity {position}: {exc}") from None
        if not (
            type(entity.id) is int
            and entity.id == position
            and isinstance(entity.name, str)
            and isinstance(entity.file, str)
            and (entity.container is None or _is_id(entity.container, len(listed)))
        ):
            raise ParseError(f"entity {position}: malformed {e!r}")
        entities.append(entity)
    return CodeFacts(
        entities=tuple(entities),
        **{key: _rows(data, key, len(entities)) for key in _COLUMNS},
    )


# --- the relationship detector before its one name-pair table -------------
# ``FactsIndex`` once kept one differently shaped set per facts table, and
# ``corename.facts.relations`` read each through its own predicate; these are
# those sets and predicates, unchanged apart from their names.


class RuleIndex:
    """The per-table name sets the 14 predicates read, built from facts."""

    def __init__(self, facts):
        ent = facts.entities
        # (parent kind, child kind) -> set of (parent name, child name)
        self.contain_names = defaultdict(set)
        self.method_classes = defaultdict(set)
        self.repeated_methods = set()
        for parent_id, child_id in facts.contains:
            p, c = ent[parent_id], ent[child_id]
            self.contain_names[(p.kind, c.kind)].add((p.name, c.name))
            if p.kind is EntityKind.CLASS and c.kind is EntityKind.METHOD:
                classes = self.method_classes[c.name]
                if p.name in classes:
                    self.repeated_methods.add(c.name)
                classes.add(p.name)
        self.extends_names = {
            (super_name, ent[sub_id].name) for sub_id, super_name in facts.extends
        }
        self.implements_names = {
            (iface, ent[class_id].name) for class_id, iface in facts.implements
        }
        self.returns_names = {(ent[mid].name, t) for mid, t in facts.returns}
        self.typed_names = {(ent[vid].name, t) for vid, t in facts.typed}
        self.invokes_names = {(ent[mid].name, callee) for mid, callee in facts.invokes}
        self.accesses_names = {(ent[mid].name, attr) for mid, attr in facts.accesses}
        self.assigns_names = {(lhs, rhs) for lhs, rhs, _form in facts.assigns}
        self.passes_names = {(formal, actual) for formal, actual, _form in facts.passes}


def _belongs(parent_kind, child_kind):
    def predicate(index, parent, child):
        return (parent, child) in index.contain_names.get((parent_kind, child_kind), ())

    return predicate


def _co_occurs_m(index, m1, m2):
    if m1 == m2:
        return m1 in index.repeated_methods
    classes = index.method_classes.get(m1)
    return classes is not None and not classes.isdisjoint(
        index.method_classes.get(m2, ())
    )


def _extends(index, superclass, subclass):
    return (superclass, subclass) in index.extends_names


def _implements(index, interface, cls):
    return (interface, cls) in index.implements_names


def _type_m(index, method, type_name):
    return (method, type_name) in index.returns_names


def _type_v(index, value, type_name):
    return (value, type_name) in index.typed_names


def _invokes(index, caller, callee):
    return (caller, callee) in index.invokes_names


def _accesses(index, method, attribute):
    return (method, attribute) in index.accesses_names


def _assigns(index, lhs, rhs):
    return (lhs, rhs) in index.assigns_names


def _passes(index, formal, actual):
    return (formal, actual) in index.passes_names


_R = RelationshipKind
_RULES = (
    (_R.BELONGS_C, _belongs(EntityKind.CLASS, EntityKind.CLASS)),
    (_R.BELONGS_M, _belongs(EntityKind.CLASS, EntityKind.METHOD)),
    (_R.BELONGS_F, _belongs(EntityKind.CLASS, EntityKind.ATTRIBUTE)),
    (_R.BELONGS_A, _belongs(EntityKind.METHOD, EntityKind.PARAMETER)),
    (_R.BELONGS_L, _belongs(EntityKind.METHOD, EntityKind.VARIABLE)),
    (_R.CO_OCCURS_M, _co_occurs_m),
    (_R.EXTENDS, _extends),
    (_R.IMPLEMENTS, _implements),
    (_R.TYPE_M, _type_m),
    (_R.TYPE_V, _type_v),
    (_R.INVOKES, _invokes),
    (_R.ACCESSES, _accesses),
    (_R.ASSIGNS, _assigns),
    (_R.PASSES, _passes),
)


def detect_relationships_by_rules(index, name_i, name_j):
    """``detect_relationships`` as the 14 predicates computed it, each in
    both argument orders, over a ``RuleIndex`` of the facts."""
    return {
        kind
        for kind, predicate in _RULES
        if predicate(index, name_i, name_j) or predicate(index, name_j, name_i)
    }


# --- the word splitter before its regex split and interned words ----------
# ``split_identifier_reference`` and ``normalize_reference`` are the old
# ``corename.lexicon`` functions, unchanged apart from their names; the
# ``Word``/``WordSequence`` types and ``casing_of`` are the production ones.


def _word_boundaries(run: str) -> list[str]:
    """Split one separator-free run at case and digit boundaries."""
    parts: list[str] = []
    start = 0
    for i in range(1, len(run)):
        prev, cur = run[i - 1], run[i]
        boundary = False
        if prev.islower() and cur.isupper():
            boundary = True
        elif prev.isdigit() != cur.isdigit():
            boundary = True
        elif (
            prev.isupper()
            and cur.isupper()
            and i + 1 < len(run)
            and run[i + 1].islower()
        ):
            # Acronym run followed by a capitalized word: HTTPServer -> HTTP, Server
            boundary = True
        if boundary:
            parts.append(run[start:i])
            start = i
    parts.append(run[start:])
    return parts


def split_identifier_reference(name: str):
    """Split a raw identifier into its word sequence."""
    from corename.errors import InvalidIdentifier
    from corename.lexicon import _IDENTIFIER_RE, Word, WordSequence, casing_of

    if not name or not _IDENTIFIER_RE.match(name):
        raise InvalidIdentifier(f"not a valid identifier: {name!r}")
    words = []
    for run in name.split("_"):
        if not run:
            continue
        for part in _word_boundaries(run):
            folded = part.lower()
            words.append(Word(part, folded, folded, casing_of(part)))
    if not words:
        raise InvalidIdentifier(f"identifier has no words: {name!r}")
    return WordSequence(origin=name, words=tuple(words))


def normalize_reference(name: str, mode: str = "lemma", lemmatizer=None):
    """Split and case-fold an identifier; lemmatize in ``lemma`` mode."""
    from corename.lexicon import MODES, WordSequence, default_lemmatizer

    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    seq = split_identifier_reference(name)
    if mode == "raw":
        return seq
    lem = lemmatizer or default_lemmatizer()
    words = tuple(w._replace(lemma=lem(w.folded)) for w in seq.words)
    return WordSequence(origin=seq.origin, words=words)


def attach_chunks_per_record(records, mode, lemmatizer=None):
    """``attach_chunks`` splitting both names of every record afresh with
    the old splitter, and diffing every record on its own."""
    from corename.chunks import diff_chunks
    from corename.errors import InvalidIdentifier

    out = []
    for record in records:
        try:
            old_seq = normalize_reference(record.old_name, mode, lemmatizer)
            new_seq = normalize_reference(record.new_name, mode, lemmatizer)
        except InvalidIdentifier:
            out.append(record._replace(chunks=()))
            continue
        out.append(
            record._replace(chunks=tuple(diff_chunks(old_seq, new_seq, mode)))
        )
    return out


def _with_chunks(record, chunks):
    from corename.mining import RenameRecord

    return RenameRecord(
        record.commit,
        record.kind,
        record.old_name,
        record.new_name,
        record.file,
        record.container,
        tuple(chunks),
        record.index,
    )


def chunk_by_mode_copying(records, modes=("raw", "lemma"), lemmatizer=None):
    """``chunk_by_mode`` as it was when it copied every record once per mode
    to attach that mode's chunks; it logged, and this copy drops, each
    record it skipped."""
    from corename.chunks import diff_lemmas, form_chunks
    from corename.errors import InvalidIdentifier
    from corename.lexicon import MODES, Vocabulary

    modes = tuple(modes)
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode: {mode!r}")
    vocabulary = Vocabulary(lemmatizer)
    sequences = {}
    lemma_chunks = {}

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

    out = {mode: [] for mode in modes}
    for record in records:
        old, new = words(record.old_name), words(record.new_name)
        invalid = [s for s in (old, new) if isinstance(s, InvalidIdentifier)]
        if invalid:
            for mode in modes:
                out[mode].append(_with_chunks(record, ()))
            continue
        for mode, (old_seq, old_lemmas), (new_seq, new_lemmas) in zip(
            modes, old, new
        ):
            key = (old_lemmas, new_lemmas)
            chunks = lemma_chunks.get(key)
            if chunks is None:
                chunks = lemma_chunks[key] = tuple(diff_lemmas(*key))
            if not chunks:
                chunks = form_chunks(old_seq, new_seq, mode)
            out[mode].append(_with_chunks(record, chunks))
    return out


def build_rename_sets_copying(chunked, mode):
    """``build_rename_sets`` as it was, over copies of the records that
    carry their own chunks; its members are those copies."""
    from corename.chunks import chunk_key
    from corename.grouping import MeaningfulRenameSet, RenameSetCollection

    grouped = {}
    for position, record in enumerate(chunked):
        for key in dict.fromkeys(map(chunk_key, record.chunks)):
            grouped.setdefault((record.commit, key), []).append(position)
    sets = tuple(
        MeaningfulRenameSet(
            commit, key, tuple(chunked[p] for p in positions), tuple(positions)
        )
        for (commit, key), positions in sorted(grouped.items())
    )
    return RenameSetCollection(sets=sets, mode=mode)


def size_distribution_by_rescan(coll):
    """``analytics.size_distribution`` as it rescanned every cell for each
    set size, returned a list, and raised NoDataError for no sets at all."""
    from corename.analytics import SizeRow
    from corename.errors import NoDataError

    if not coll.sets:
        raise NoDataError("no rename sets")
    cells = Counter()
    for s in coll.sets:
        if len(s) >= 2:
            cells[(len(s), s.unique_old_names())] += len(s)
    denominator = sum(cells.values())
    members_by_size = Counter()
    for (n, _m), members in cells.items():
        members_by_size[n] += members
    rows = []
    running = 0
    for n in sorted(members_by_size):
        running += members_by_size[n]
        for m in sorted(m for (size, m) in cells if size == n):
            rows.append(
                SizeRow(
                    set_size=n,
                    unique_names=m,
                    members=cells[(n, m)],
                    cumulative_rate=running / denominator,
                )
            )
    return rows


def repo_stats_per_filter(records, coll, facts=None, filters=None, lemmatizer=None):
    """``build_repo_stats`` as one relationship-rate pass per filter, one
    for the inflection-new sets, and two chunking passes per mode."""
    from corename.analytics import InflectionImpact, RepoStats, co_rename_rate
    from corename.errors import NoDataError
    from corename.facts import CodeFacts
    from corename.facts.relations import detect_relationships
    from corename.grouping import (
        RenameSetCollection,
        collection_difference,
        enumerate_pairs,
    )
    from corename.mining import IdentifierKind

    def chunked(mode):
        return chunk_by_mode_copying(records, (mode,), lemmatizer)[mode]

    empty = CodeFacts()

    def facts_for(commit):
        if facts is None:
            return empty
        if isinstance(facts, CodeFacts):
            return facts
        return facts.get(commit, empty)

    def relationship_rates(collection, kind_filter=None):
        counts = Counter()
        for s in collection.sets:
            if len(s) < 2 or (
                kind_filter is not None
                and not any(m.kind == kind_filter for m in s.members)
            ):
                continue
            snapshot = facts_for(s.commit)
            for left, right in enumerate_pairs(s):
                counts.update(
                    detect_relationships(snapshot, left.old_name, right.old_name)
                )
        total = sum(counts.values())
        if total == 0:
            raise NoDataError("no relationships detected")
        return {k: counts[k] / total for k in sorted(counts, key=lambda k: k.value)}

    def chunk_type_rates(mode):
        counts = Counter(
            chunk.kind
            for record in chunked(mode)
            for chunk in record.chunks
        )
        total = sum(counts.values())
        if total == 0:
            raise NoDataError("no operational chunks")
        return {k: counts[k] / total for k in sorted(counts, key=lambda k: k.value)}

    def or_none(fn, *args):
        try:
            return fn(*args)
        except NoDataError:
            return None

    raw_coll = build_rename_sets_copying(chunked("raw"), "raw")
    lemma_coll = build_rename_sets_copying(chunked("lemma"), "lemma")
    new_sets = collection_difference(lemma_coll, raw_coll)
    new_rates = None
    if facts is not None and new_sets:
        new_rates = or_none(
            relationship_rates, RenameSetCollection(tuple(new_sets), "lemma")
        )
    return RepoStats(
        mode=coll.mode,
        record_count=len(records),
        set_count=len(coll),
        member_total=coll.member_total(),
        co_rename_rate=co_rename_rate(coll),
        size_distribution=tuple(or_none(size_distribution_by_rescan, coll) or ()),
        relationship_rates=or_none(relationship_rates, coll),
        filtered_rates={
            kind: or_none(relationship_rates, coll, kind)
            for kind in (filters or tuple(IdentifierKind))
        },
        chunk_type_rates={mode: or_none(chunk_type_rates, mode) for mode in ("raw", "lemma")},
        inflection=InflectionImpact(
            raw_co_rename_rate=co_rename_rate(raw_coll),
            lemma_co_rename_rate=co_rename_rate(lemma_coll),
            raw_set_count=len(raw_coll),
            lemma_set_count=len(lemma_coll),
            raw_member_total=raw_coll.member_total(),
            lemma_member_total=lemma_coll.member_total(),
            new_set_count=len(new_sets),
            new_set_relationship_rates=new_rates,
        ),
    )


def diff_lemmas_recursive(old, new):
    """``diff_lemmas`` as the recursive run search it replaced: find the
    leftmost longest common run, and when it overcommits, sort every run as
    a candidate and re-run an LCS on the slices around each one."""
    out = []
    _diff_rec(tuple(old), tuple(new), 0, tuple(old), out)
    return out


def _lcs_len(a, b) -> int:
    n = len(b)
    if not a or not n:
        return 0
    if len(a) == 1:
        return 1 if a[0] in b else 0
    if n == 1:
        return 1 if b[0] in a else 0
    prev = [0] * (n + 1)
    for ai in a:
        cur = [0]
        append = cur.append
        best = 0
        for j in range(n):
            if ai == b[j]:
                value = prev[j] + 1
                if value > best:
                    best = value
            else:
                value = prev[j + 1]
                if best > value:
                    value = best
                else:
                    best = value
            append(value)
        prev = cur
    return prev[n]


def _gap_chunk(deleted, added, anchor, old) -> OperationalChunk:
    if deleted and added:
        kind = ChunkKind.REPLACE
    elif deleted:
        kind = ChunkKind.DELETE
    else:
        kind = ChunkKind.INSERT
    left = old[anchor - 1] if anchor > 0 else None
    right_at = anchor + len(deleted)
    right = old[right_at] if right_at < len(old) else None
    return OperationalChunk(kind, tuple(deleted), tuple(added), anchor, left, right)


def _split(a, b, offset, old, out, i, j, length, left_total, right_total):
    """Match the run at (i, j) and resolve what surrounds it."""
    if left_total == 0:
        if i or j:
            out.append(_gap_chunk(a[:i], b[:j], offset, old))
    else:
        _diff_rec(a[:i], b[:j], offset, old, out, left_total)
    end_a, end_b = i + length, j + length
    if right_total == 0:
        if end_a < len(a) or end_b < len(b):
            out.append(_gap_chunk(a[end_a:], b[end_b:], offset + end_a, old))
    else:
        _diff_rec(a[end_a:], b[end_b:], offset + end_a, old, out, right_total)


def _diff_rec(a, b, offset, old, out, total=None) -> None:
    if a == b:
        return
    if not a or not b:
        out.append(_gap_chunk(a, b, offset, old))
        return
    m, n = len(a), len(b)
    # run[i][j]: length of the common contiguous run starting at (i, j);
    # the scan right-to-left, bottom-to-top resolves length ties to the
    # smallest (i, j).
    run = [None] * m
    best_len = 0
    best_i = best_j = 0
    below = [0] * (n + 1)
    for i in range(m - 1, -1, -1):
        ai = a[i]
        row = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            if ai == b[j]:
                length = below[j + 1] + 1
                row[j] = length
                if length >= best_len:
                    best_len = length
                    best_i, best_j = i, j
        run[i] = below = row
    if best_len == 0:
        out.append(_gap_chunk(a, b, offset, old))
        return
    if total is None:
        if best_len == m or best_len == n:
            total = best_len  # a full-side run is always a maximum alignment
        else:
            total = _lcs_len(a, b)
    if best_len == total:
        # The leftmost longest run accounts for every unchanged word, so
        # whatever surrounds it is a plain gap on each side.
        _split(a, b, offset, old, out, best_i, best_j, best_len, 0, 0)
        return
    # The longest run overcommits.  Try runs longest-first (leftmost on
    # ties) and split at the first whose matching keeps the overall number
    # of unchanged words maximal.
    candidates = []
    for i in range(m):
        row = run[i]
        for j in range(n):
            if row[j]:
                candidates.append((-row[j], i, j))
    candidates.sort()
    for neg_len, i, j in candidates:
        length = -neg_len
        need = total - length
        cap_left = i if i < j else j
        rem_a, rem_b = m - i - length, n - j - length
        cap_right = rem_a if rem_a < rem_b else rem_b
        if cap_left + cap_right < need:
            continue
        left = _lcs_len(a[:i], b[:j])
        if left + cap_right < need:
            continue
        right = _lcs_len(a[i + length :], b[j + length :])
        if left + right == need:
            _split(a, b, offset, old, out, i, j, length, left, right)
            return
    # Defensive completeness: an optimal alignment's own runs are prefixes
    # of text runs, so trying truncated runs as well always finds a split.
    for length in range(best_len - 1, 0, -1):
        for i in range(m):
            row = run[i]
            for j in range(n):
                if row[j] > length:
                    left = _lcs_len(a[:i], b[:j])
                    right = _lcs_len(a[i + length :], b[j + length :])
                    if left + length + right == total:
                        _split(a, b, offset, old, out, i, j, length, left, right)
                        return
    raise AssertionError("no optimal common run found")  # pragma: no cover


def diff_lemmas_two_tables(old, new):
    """``diff_lemmas`` as the two-table differ it replaced: a ``run`` table
    of common-run lengths beside the suffix-LCS table, the leftmost longest
    run as a fast path, and, when that run overcommits, a second scan over
    prefix-LCS rows for the longest run on a maximal alignment."""
    out = []
    _diff_two_tables(tuple(old), tuple(new), 0, tuple(old), out)
    return out


def _diff_two_tables(a, b, offset, old, out, total=None) -> None:
    if a == b:
        return
    if total == 0 or not a or not b:
        out.append(_gap_chunk(a, b, offset, old))
        return
    m, n = len(a), len(b)
    # run[i][j]: length of the common run starting at (i, j); suf[i][j]:
    # LCS length of a[i:] and b[j:].  Filling bottom-up, right-to-left and
    # keeping ties leaves the leftmost longest run in (bi, bj, best).
    run = [[0] * (n + 1) for _ in range(m + 1)]
    suf = [[0] * (n + 1) for _ in range(m + 1)]
    best = bi = bj = 0
    for i in range(m - 1, -1, -1):
        ai, run_i, run_below = a[i], run[i], run[i + 1]
        suf_i, suf_below = suf[i], suf[i + 1]
        for j in range(n - 1, -1, -1):
            if ai == b[j]:
                length = run_i[j] = run_below[j + 1] + 1
                suf_i[j] = suf_below[j + 1] + 1
                if length >= best:
                    best, bi, bj = length, i, j
            else:
                down, right = suf_below[j], suf_i[j + 1]
                suf_i[j] = down if down >= right else right
    total = suf[0][0]
    if total == 0:
        out.append(_gap_chunk(a, b, offset, old))
        return
    if best < total:
        # The longest run overcommits.  Split instead at the longest run,
        # leftmost on ties, that lies on some maximal alignment: one whose
        # prefix LCS, length and suffix LCS add up to the total.  Such a
        # run always exists: matching the equal first words of a[i:] and
        # b[j:] never shortens their LCS, so the whole run at any matched
        # pair of a maximal alignment lies on one too.  pre_i holds the LCS
        # lengths of a[:i] against each prefix of b.
        best = 0
        pre_i = [0] * (n + 1)
        for i in range(m):
            ai, run_i = a[i], run[i]
            for j in range(n):
                length = run_i[j]
                if (
                    length > best
                    and pre_i[j] + length + suf[i + length][j + length] == total
                ):
                    best, bi, bj = length, i, j
            pre_next = [0]
            for j in range(n):
                if ai == b[j]:
                    pre_next.append(pre_i[j] + 1)
                else:
                    up, left = pre_i[j + 1], pre_next[j]
                    pre_next.append(up if up >= left else left)
            pre_i = pre_next
    end_a, end_b = bi + best, bj + best
    right_total = suf[end_a][end_b]
    _diff_two_tables(a[:bi], b[:bj], offset, old, out, total - best - right_total)
    _diff_two_tables(a[end_a:], b[end_b:], offset + end_a, old, out, right_total)


def walk_history_per_commit(
    repo, rev_range: str = "HEAD", suffixes: tuple[str, ...] = (".java",)
):
    """``mining.walk_history`` as it was before the single log stream: one
    ``log`` and one ``diff-tree`` per commit, and one ``git show`` per side
    of each changed file."""
    repo = Path(repo)
    _git(repo, "rev-parse", "--git-dir")
    revs = _git(repo, "rev-list", "--reverse", rev_range).split()
    for commit in revs:
        parents = _git(repo, "log", "--format=%P", "-n", "1", commit).split()
        if parents:
            raw = _git(
                repo, "diff-tree", "--no-renames", "--name-status", "-r",
                parents[0], commit,
            )
        else:
            raw = _git(
                repo, "diff-tree", "--no-renames", "--name-status", "-r",
                "--root", commit,
            )
            raw = "\n".join(raw.splitlines()[1:])  # drop echoed commit id
        pairs = []
        for line in raw.splitlines():
            if not line.strip():
                continue
            status, _, path = line.partition("\t")
            if not path or not path.endswith(suffixes):
                continue
            old_text = _show(repo, parents[0], path) if parents else None
            new_text = _show(repo, commit, path)
            if status.startswith("A"):
                old_text = None
            elif status.startswith("D"):
                new_text = None
            pairs.append((path, old_text, new_text))
        if pairs:
            yield CommitFiles(commit=commit, pairs=tuple(pairs))


def _git(repo: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        encoding="utf-8",
        errors="replace",
    )
    if proc.returncode != 0:
        raise RepoError(proc.stderr.strip() or f"git {' '.join(args)} failed")
    return proc.stdout


def _show(repo: Path, commit: str, path: str) -> str | None:
    proc = subprocess.run(
        ["git", "-C", str(repo), "show", f"{commit}:{path}"],
        capture_output=True,
        encoding="utf-8",
        errors="replace",
    )
    return proc.stdout if proc.returncode == 0 else None


def generate_candidates_scan(rename, facts, mode="lemma", lemmatizer=None):
    """``recommend.generate_candidates`` normalizing every entity of the
    snapshot on every query.  Unchanged apart from its name, its imports,
    its type annotations, and reading ``apply_chunk``'s results as the
    names it now returns."""
    from corename.chunks import apply_chunk
    from corename.errors import DegenerateResult, InvalidIdentifier
    from corename.facts.relations import detect_relationships
    from corename.lexicon import normalize
    from corename.recommend import RecommendationCandidate

    candidates = {}
    relationships_cache = {}
    for entity in facts.entities:
        if entity.name == rename.old_name:
            continue
        try:
            target = normalize(entity.name, mode, lemmatizer)
        except InvalidIdentifier:
            continue
        proposals = []
        for chunk in rename.chunks:
            try:
                results = apply_chunk(chunk, target)
            except DegenerateResult:
                continue
            proposals.extend(results)
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


def generate_candidates_per_entity(rename, facts, mode="lemma", lemmatizer=None):
    """``recommend.generate_candidates`` normalizing each target name again
    on every query and applying the chunks once per entity.  Unchanged apart
    from its name, its imports and its type annotations, and from building
    its lemma table on every call: the index now keeps the one
    ``recommend._names_by_lemma`` builds under the same key."""
    from corename.chunks import anchor_lemma, apply_chunk
    from corename.errors import DegenerateResult
    from corename.facts.relations import detect_relationships
    from corename.lexicon import normalize
    from corename.recommend import RecommendationCandidate

    table = _names_by_lemma_per_entity(facts, mode, lemmatizer)
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
    candidates = {}
    relationships_cache = {}
    for entity in entities:
        target = targets[entity.name]
        proposals = []
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


def _names_by_lemma_per_entity(facts, mode, lemmatizer):
    """Lemma -> the snapshot's distinct entity names holding it, as the
    index kept it for ``generate_candidates_per_entity``."""
    from corename.errors import InvalidIdentifier
    from corename.lexicon import Vocabulary

    table = {}
    vocabulary = Vocabulary(lemmatizer)
    for name in facts.index.by_name:
        try:
            lemmas = vocabulary.normalize(name, mode).lemmas
        except InvalidIdentifier:
            continue
        for lemma in dict.fromkeys(lemmas):
            table.setdefault(lemma, []).append(name)
    return table


# --- the fact extractor before its token scans were shared -----------------
# ``extract_facts_reference`` and the two classes below it are the old
# ``corename.facts.parser`` internals, unchanged apart from their names and
# the dropped skip warning.  ``tokenize`` and the keyword sets are the
# production ones: they were not rewritten.


class _ReferenceBuilder:
    def __init__(self):
        self.entities: list[Entity] = []
        self.contains: list[tuple[int, int]] = []
        self.extends: list[tuple[int, str]] = []
        self.implements: list[tuple[int, str]] = []
        self.typed: list[tuple[int, str]] = []
        self.returns: list[tuple[int, str]] = []
        self.invokes: list[tuple[int, str]] = []
        self.accesses: list[tuple[int, str]] = []
        self.assigns: list[tuple[str, str, str]] = []
        self.skipped: list[tuple[str, str]] = []
        # method id -> ordered formal parameter names (for passes resolution)
        self.method_params: dict[int, list[str]] = {}
        # (callee name, [(position, actual name, form)], arity)
        self.calls: list[tuple[str, list[tuple[int, str, str]], int]] = []

    def add_entity(self, kind, name, container, file) -> int:
        eid = len(self.entities)
        self.entities.append(Entity(eid, kind, name, container, file))
        if container is not None:
            self.contains.append((container, eid))
        return eid

    def finish(self) -> CodeFacts:
        passes: list[tuple[str, str, str]] = []
        by_name_arity: dict[tuple[str, int], list[int]] = {}
        for mid, params in self.method_params.items():
            by_name_arity.setdefault(
                (self.entities[mid].name, len(params)), []
            ).append(mid)
        seen = set()
        for callee, args, arity in self.calls:
            for mid in by_name_arity.get((callee, arity), ()):
                formals = self.method_params[mid]
                for position, actual, form in args:
                    row = (formals[position], actual, form)
                    if row not in seen:
                        seen.add(row)
                        passes.append(row)
        return CodeFacts(
            entities=tuple(self.entities),
            contains=tuple(self.contains),
            extends=tuple(self.extends),
            implements=tuple(self.implements),
            typed=tuple(dict.fromkeys(self.typed)),
            returns=tuple(dict.fromkeys(self.returns)),
            invokes=tuple(dict.fromkeys(self.invokes)),
            accesses=tuple(dict.fromkeys(self.accesses)),
            assigns=tuple(dict.fromkeys(self.assigns)),
            passes=tuple(passes),
            skipped=tuple(self.skipped),
        )


class _ReferenceFileParser:
    def __init__(self, file: str, tokens: list[str], builder: _ReferenceBuilder):
        self.file = file
        self.toks = tokens
        self.n = len(tokens)
        self.b = builder

    # --- token helpers -------------------------------------------------

    def _skip_balanced(self, i: int, open_tok: str, close_tok: str) -> int:
        """i points at open_tok; returns index just past its match."""
        depth = 0
        while i < self.n:
            t = self.toks[i]
            if t == open_tok:
                depth += 1
            elif t == close_tok:
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return self.n

    def _skip_annotation(self, i: int) -> int:
        i += 1  # '@'
        while i < self.n and (
            self.toks[i] not in KEYWORDS and re.match(r"[A-Za-z_$]", self.toks[i])
        ):
            i += 1
            if i < self.n and self.toks[i] == ".":
                i += 1
                continue
            break
        if i < self.n and self.toks[i] == "(":
            i = self._skip_balanced(i, "(", ")")
        return i

    def _parse_type_ref(self, i: int):
        """Parse a type occurrence; returns (next index, outer, args) or None.

        ``outer`` is the final segment of the dotted head; ``args`` are the
        outer names of first-level type arguments.  Aborts (None) on
        anything that cannot be type syntax, so callers can fall back to
        expression handling.
        """
        toks = self.toks
        if i >= self.n:
            return None
        head = toks[i]
        if head in PRIMITIVES:
            outer = head
            i += 1
        elif head not in KEYWORDS and re.match(r"[A-Za-z_$]", head):
            outer = head
            i += 1
            while i + 1 < self.n and toks[i] == "." and re.match(
                r"[A-Za-z_$]", toks[i + 1]
            ) and toks[i + 1] not in KEYWORDS:
                outer = toks[i + 1]
                i += 2
        else:
            return None
        args: list[str] = []
        if i < self.n and toks[i] == "<":
            depth = 0
            j = i
            expect_arg = True
            while j < self.n:
                t = toks[j]
                if t == "<":
                    depth += 1
                elif t == ">":
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                elif depth == 1:
                    if t == ",":
                        expect_arg = True
                    elif expect_arg and t not in KEYWORDS and re.match(
                        r"[A-Za-z_$]", t
                    ):
                        name = t
                        k = j
                        while k + 2 < self.n and toks[k + 1] == "." and re.match(
                            r"[A-Za-z_$]", toks[k + 2]
                        ):
                            name = toks[k + 2]
                            k += 2
                        args.append(name)
                        expect_arg = False
                    elif t in ("?", "extends", "super"):
                        pass
                    elif not re.match(r"[A-Za-z_$.\[\]]", t):
                        return None  # expression, not a generic type
                elif depth >= 2:
                    # nested generic depth > 1: names there are ignored
                    if not re.match(r"[A-Za-z_$.,?\[\]<>]", t) and t not in (
                        "extends",
                        "super",
                    ):
                        return None
                j += 1
            else:
                return None
            i = j
        while i + 1 < self.n and toks[i] == "[" and toks[i + 1] == "]":
            i += 2
        return i, outer, args

    # --- declarations ---------------------------------------------------

    def parse_unit(self) -> None:
        i = 0
        while i < self.n:
            t = self.toks[i]
            if t in ("package", "import"):
                while i < self.n and self.toks[i] != ";":
                    i += 1
                i += 1
            elif t == "@":
                i = self._skip_annotation(i)
            elif t in MODIFIERS:
                i += 1
            elif t in ("class", "interface"):
                i = self._parse_type_decl(i, None)
            elif t == "enum":
                i = self._skip_enum(i)
            else:
                i += 1

    def _skip_enum(self, i: int) -> int:
        while i < self.n and self.toks[i] != "{":
            i += 1
        if i < self.n:
            i = self._skip_balanced(i, "{", "}")
        return i

    def _parse_type_decl(self, i: int, container: int | None) -> int:
        kw = self.toks[i]
        i += 1
        if i >= self.n or self.toks[i] in KEYWORDS:
            return i
        name = self.toks[i]
        i += 1
        kind = EntityKind.CLASS if kw == "class" else EntityKind.INTERFACE
        eid = self.b.add_entity(kind, name, container, self.file)
        if i < self.n and self.toks[i] == "<":
            i = self._skip_balanced(i, "<", ">")
        if i < self.n and self.toks[i] == "extends":
            ref = self._parse_type_ref(i + 1)
            if ref:
                i, outer, _args = ref
                if kind is EntityKind.CLASS:
                    self.b.extends.append((eid, outer))
                while i < self.n and self.toks[i] == ",":  # interface extends list
                    ref = self._parse_type_ref(i + 1)
                    if not ref:
                        break
                    i, _outer, _args = ref
            else:
                i += 1
        if i < self.n and self.toks[i] == "implements":
            i += 1
            while i < self.n:
                ref = self._parse_type_ref(i)
                if not ref:
                    break
                i, outer, _args = ref
                self.b.implements.append((eid, outer))
                if i < self.n and self.toks[i] == ",":
                    i += 1
                else:
                    break
        while i < self.n and self.toks[i] != "{":
            i += 1
        if i >= self.n:
            return i
        return self._parse_type_body(i, eid, name)

    def _parse_type_body(self, i: int, class_id: int, class_name: str) -> int:
        i += 1  # '{'
        pending_bodies: list[tuple[int, list[str]]] = []
        pending_inits: list[tuple[str, list[str]]] = []
        while i < self.n:
            t = self.toks[i]
            if t == "}":
                i += 1
                break
            if t == ";":
                i += 1
            elif t == "@":
                i = self._skip_annotation(i)
            elif t in MODIFIERS:
                i += 1
            elif t in ("class", "interface"):
                i = self._parse_type_decl(i, class_id)
            elif t == "enum":
                i = self._skip_enum(i)
            elif t == "{":
                i = self._skip_balanced(i, "{", "}")  # initializer block
            elif t == "<":
                i = self._skip_balanced(i, "<", ">")  # generic method type params
            else:
                i = self._parse_member(
                    i, class_id, class_name, pending_bodies, pending_inits
                )
        # Attribute names are complete only now; resolve deferred work.
        attrs = self._attribute_names(class_id)
        for field_name, init in pending_inits:
            self._record_assigns(field_name, init, attrs, set(), set())
        for method_id, body in pending_bodies:
            self._analyze_body(method_id, body, class_id, attrs)
        return i

    def _attribute_names(self, class_id: int) -> frozenset[str]:
        return frozenset(
            e.name
            for e in self.b.entities
            if e.container == class_id and e.kind is EntityKind.ATTRIBUTE
        )

    def _parse_member(self, i, class_id, class_name, pending_bodies, pending_inits):
        ref = self._parse_type_ref(i)
        if ref is None:
            return i + 1
        j, outer, args = ref
        if j < self.n and self.toks[j] == "(" and outer == self.toks[i]:
            # constructor: no return type, name equals the head token
            return self._parse_method(
                i, j, class_id, None, (), pending_bodies, constructor=True
            )
        if j >= self.n or self.toks[j] in KEYWORDS or not re.match(
            r"[A-Za-z_$]", self.toks[j]
        ):
            return j if j > i else i + 1
        name_at = j
        after = j + 1
        if after < self.n and self.toks[after] == "(":
            return self._parse_method(
                name_at, after, class_id, outer, tuple(args), pending_bodies
            )
        if after < self.n and (self.toks[after] in (";", "=", ",")):
            return self._parse_field(
                i, name_at, class_id, outer, tuple(args), pending_inits
            )
        return after

    def _parse_method(self, name_at, paren_at, class_id, ret_outer, ret_args,
                      pending_bodies, constructor=False):
        name = self.toks[name_at]
        mid = self.b.add_entity(EntityKind.METHOD, name, class_id, self.file)
        if not constructor and ret_outer not in (None, "void"):
            self.b.returns.append((mid, ret_outer))
            for a in ret_args:
                self.b.returns.append((mid, a))
        i = paren_at + 1
        params: list[str] = []
        while i < self.n and self.toks[i] != ")":
            if self.toks[i] == "@":
                i = self._skip_annotation(i)
                continue
            if self.toks[i] in ("final", ","):
                i += 1
                continue
            ref = self._parse_type_ref(i)
            if ref is None:
                i += 1
                continue
            i, outer, args = ref
            if i < self.n and self.toks[i] == "." and self.toks[i + 1 : i + 3] == [".", "."]:
                i += 3  # varargs ellipsis
            if i < self.n and re.match(r"[A-Za-z_$]", self.toks[i]) and self.toks[
                i
            ] not in KEYWORDS:
                pid = self.b.add_entity(
                    EntityKind.PARAMETER, self.toks[i], mid, self.file
                )
                self.b.typed.append((pid, outer))
                for a in args:
                    self.b.typed.append((pid, a))
                params.append(self.toks[i])
                i += 1
        self.b.method_params[mid] = params
        i += 1  # ')'
        while i < self.n and self.toks[i] not in ("{", ";"):
            i += 1
        if i < self.n and self.toks[i] == "{":
            end = self._skip_balanced(i, "{", "}")
            body = self.toks[i + 1 : end - 1]
            # stash for analysis once the class's attributes are all known
            pending_bodies.append((mid, body))
            return end
        return i + 1

    def _parse_field(self, type_at, name_at, class_id, outer, args, pending_inits):
        i = name_at
        while i < self.n:
            name = self.toks[i]
            fid = self.b.add_entity(EntityKind.ATTRIBUTE, name, class_id, self.file)
            self.b.typed.append((fid, outer))
            for a in args:
                self.b.typed.append((fid, a))
            i += 1
            if i < self.n and self.toks[i] == "=":
                start = i + 1
                depth = 0
                while i < self.n:
                    t = self.toks[i]
                    if t in "([{":
                        depth += 1
                    elif t in ")]}":
                        depth -= 1
                    elif depth == 0 and t in (",", ";"):
                        break
                    i += 1
                pending_inits.append((name, self.toks[start:i]))
            if i < self.n and self.toks[i] == ",":
                i += 1
                continue
            break
        while i < self.n and self.toks[i] != ";":
            i += 1
        return i + 1

    # --- method bodies ---------------------------------------------------

    def _analyze_body(self, method_id, body, class_id, attrs):
        method_name = self.b.entities[method_id].name
        params = set(self.b.method_params.get(method_id, ()))
        body = self._strip_anonymous_bodies(body)
        locals_: set[str] = set()
        self._scan_declarations(body, method_id, params, locals_, attrs)
        self._scan_calls(body, method_id, method_name, params, locals_, attrs)
        for t in body:
            if t in attrs and t not in KEYWORDS:
                self.b.accesses.append((method_id, t))

    def _strip_anonymous_bodies(self, body):
        """Drop `new T(...) { ... }` class bodies from the token stream."""
        out = []
        i = 0
        n = len(body)
        while i < n:
            t = body[i]
            out.append(t)
            if t == "new":
                j = i + 1
                while j < n and (
                    re.match(r"[A-Za-z_$.<>,\[\]]", body[j]) and body[j] != "new"
                ):
                    j += 1
                if j < n and body[j] == "(":
                    depth = 0
                    while j < n:
                        if body[j] == "(":
                            depth += 1
                        elif body[j] == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
                    if j + 1 < n and body[j + 1] == "{":
                        out.extend(body[i + 1 : j + 1])
                        depth = 0
                        j += 1
                        while j < n:
                            if body[j] == "{":
                                depth += 1
                            elif body[j] == "}":
                                depth -= 1
                                if depth == 0:
                                    break
                            j += 1
                        i = j + 1
                        continue
            i += 1
        return out

    def _scan_declarations(self, body, method_id, params, locals_, attrs):
        n = len(body)
        at_start = True
        i = 0
        while i < n:
            t = body[i]
            if t in (";", "{", "}", "("):
                at_start = True
                i += 1
                continue
            if at_start and t == "final":
                i += 1
                continue
            if at_start and t == "this":
                assign = self._try_assignment(body, i, params, locals_, attrs)
                if assign is not None:
                    i = assign
                    at_start = True
                    continue
            if at_start and (t in PRIMITIVES or (t not in KEYWORDS and re.match(r"[A-Za-z_$]", t))):
                decl = self._try_declaration(body, i, method_id, params, locals_, attrs)
                if decl is not None:
                    i = decl
                    at_start = True
                    continue
                assign = self._try_assignment(body, i, params, locals_, attrs)
                if assign is not None:
                    i = assign
                    at_start = True
                    continue
            at_start = False
            i += 1
        return locals_

    def _try_declaration(self, body, i, method_id, params, locals_, attrs):
        ref = self._parse_tokens_type_ref(body, i)
        if ref is None:
            return None
        j, outer, args = ref
        if j >= len(body) or body[j] in KEYWORDS or not re.match(r"[A-Za-z_$]", body[j]):
            return None
        if j + 1 >= len(body) or body[j + 1] not in ("=", ";", ",", ":"):
            return None
        while True:
            name = body[j]
            vid = self.b.add_entity(EntityKind.VARIABLE, name, method_id, self.file)
            self.b.typed.append((vid, outer))
            for a in args:
                self.b.typed.append((vid, a))
            locals_.add(name)
            j += 1
            if j < len(body) and body[j] == "=":
                start = j + 1
                depth = 0
                while j < len(body):
                    t = body[j]
                    if t in "([{":
                        depth += 1
                    elif t in ")]}":
                        if depth == 0:
                            break
                        depth -= 1
                    elif depth == 0 and t in (",", ";", ":"):
                        break
                    j += 1
                self._record_assigns(name, body[start:j], attrs, params, locals_)
            if j < len(body) and body[j] == "," and j + 1 < len(body) and re.match(
                r"[A-Za-z_$]", body[j + 1]
            ):
                j += 1
                continue
            break
        return j

    def _parse_tokens_type_ref(self, body, i):
        saved_toks, saved_n = self.toks, self.n
        self.toks, self.n = body, len(body)
        try:
            return self._parse_type_ref(i)
        finally:
            self.toks, self.n = saved_toks, saved_n

    def _try_assignment(self, body, i, params, locals_, attrs):
        n = len(body)
        j = i
        if body[j] == "this" and j + 1 < n and body[j + 1] == ".":
            j += 2
        name = None
        while j < n and re.match(r"[A-Za-z_$]", body[j]) and body[j] not in KEYWORDS:
            name = body[j]
            j += 1
            if j < n and body[j] == "[":
                depth = 0
                while j < n:
                    if body[j] == "[":
                        depth += 1
                    elif body[j] == "]":
                        depth -= 1
                        if depth == 0:
                            j += 1
                            break
                    j += 1
            if j < n and body[j] == ".":
                j += 1
                continue
            break
        if name is None or j >= n or body[j] not in ASSIGN_OPS:
            return None
        start = j + 1
        depth = 0
        j = start
        while j < n:
            t = body[j]
            if t in "([{":
                depth += 1
            elif t in ")]}":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and t == ";":
                break
            j += 1
        self._record_assigns(name, body[start:j], attrs, params, locals_)
        return j

    def _classify(self, name, dotted, has_call, attrs, params, locals_,
                  allow_parameter):
        # Bare names follow Java scoping: parameters and locals shadow
        # attributes; dotted references are field accesses.
        if has_call:
            return "invocation"
        if dotted:
            return "attribute"
        if name in params:
            return "parameter" if allow_parameter else "variable"
        if name in locals_:
            return "variable"
        if name in attrs:
            return "attribute"
        return "variable"

    def _top_level_names(self, tokens, attrs, params, locals_, allow_parameter):
        """Yield (name, form) for top-level reference chains in an expression."""
        n = len(tokens)
        i = 0
        depth = 0
        while i < n:
            t = tokens[i]
            if t in "([{":
                depth += 1
                i += 1
                continue
            if t in ")]}":
                depth -= 1
                i += 1
                continue
            if depth != 0:
                i += 1
                continue
            if t == "new":
                ref = self._parse_tokens_type_ref(tokens, i + 1)
                if ref:
                    j, outer, _args = ref
                    yield outer, "invocation"
                    i = j
                    continue
                i += 1
                continue
            if t not in KEYWORDS and re.match(r"[A-Za-z_$]", t) and t != "__lit__":
                dotted = False
                name = t
                has_call = False
                j = i + 1
                while j < n:
                    if tokens[j] == "(":
                        has_call = True
                        d = 0
                        while j < n:
                            if tokens[j] == "(":
                                d += 1
                            elif tokens[j] == ")":
                                d -= 1
                                if d == 0:
                                    j += 1
                                    break
                            j += 1
                    if j < n and tokens[j] == "." and j + 1 < n and re.match(
                        r"[A-Za-z_$]", tokens[j + 1]
                    ) and tokens[j + 1] not in KEYWORDS:
                        name = tokens[j + 1]
                        dotted = True
                        has_call = False  # chained call: classify by the tail
                        j += 2
                    else:
                        break
                yield name, self._classify(
                    name, dotted, has_call, attrs, params, locals_, allow_parameter
                )
                i = j
                continue
            if t == "this" and i + 1 < n and tokens[i + 1] == "." and i + 2 < n:
                name = tokens[i + 2]
                has_call = False
                j = i + 3
                while j < n:
                    if tokens[j] == "(":
                        has_call = True
                        d = 0
                        while j < n:
                            if tokens[j] == "(":
                                d += 1
                            elif tokens[j] == ")":
                                d -= 1
                                if d == 0:
                                    j += 1
                                    break
                            j += 1
                    if j < n and tokens[j] == "." and j + 1 < n and re.match(
                        r"[A-Za-z_$]", tokens[j + 1]
                    ):
                        name = tokens[j + 1]
                        j += 2
                    else:
                        break
                yield name, self._classify(
                    name, True, has_call, attrs, params, locals_, allow_parameter
                )
                i = j
                continue
            i += 1

    def _record_assigns(self, lhs, rhs_tokens, attrs, params, locals_):
        for name, form in self._top_level_names(
            rhs_tokens, attrs, params, locals_, allow_parameter=True
        ):
            self.b.assigns.append((lhs, name, form))

    def _scan_calls(self, body, method_id, method_name, params, locals_, attrs):
        n = len(body)
        i = 0
        while i < n:
            t = body[i]
            if t == "new":
                ref = self._parse_tokens_type_ref(body, i + 1)
                if ref and ref[0] < n and body[ref[0]] == "(":
                    j, outer, _args = ref
                    self._record_call(body, j, outer, params, locals_, attrs)
                i += 1
                continue
            if (
                t not in KEYWORDS
                and t != "__lit__"
                and re.match(r"[A-Za-z_$]", t)
                and i + 1 < n
                and body[i + 1] == "("
            ):
                if t != method_name:
                    self.b.invokes.append((method_id, t))
                self._record_call(body, i + 1, t, params, locals_, attrs)
            i += 1

    def _record_call(self, body, paren_at, callee, params, locals_, attrs):
        """Collect one call site's arguments for later passes resolution."""
        depth = 0
        j = paren_at
        args: list[list[str]] = [[]]
        while j < len(body):
            t = body[j]
            if t in "([{":
                depth += 1
                if depth == 1:
                    j += 1
                    continue
            elif t in ")]}":
                depth -= 1
                if depth == 0:
                    break
            elif depth == 1 and t == ",":
                args.append([])
                j += 1
                continue
            if depth >= 1:
                args[-1].append(t)
            j += 1
        if args == [[]]:
            return
        entries: list[tuple[int, str, str]] = []
        for position, arg in enumerate(args):
            if "->" in arg:
                continue  # lambda argument: out of the supported subset
            found = list(
                self._top_level_names(arg, attrs, params, locals_, allow_parameter=False)
            )
            if len(found) == 1:
                name, form = found[0]
                entries.append((position, name, form))
        self.b.calls.append((callee, entries, len(args)))


def extract_facts_reference(sources: dict[str, str]) -> CodeFacts:
    """``extract_facts`` as it was before its token scans were shared:
    copied bracket and expression loops, two reference-chain readers, and
    a rescan of every entity for each class's attribute names."""
    builder = _ReferenceBuilder()
    for file in sorted(sources):
        try:
            parser = _ReferenceFileParser(file, tokenize(sources[file]), builder)
            parser.parse_unit()
        except Exception as exc:  # defensive: a bad file must not be fatal
            builder.skipped.append((file, str(exc)))
    return builder.finish()


# --- the JSON Lines reader and writers before their row templates ---------
# ``corename.fileio.jsonl_objects``, ``corename.mining.load_rename_records``,
# ``serialize_rename_records`` and ``corename.grouping.serialize_rename_sets``
# as they were when every line went through ``json.loads`` or
# ``json.dumps``, unchanged apart from their names.


def jsonl_objects_by_loads(lines, keys, what, source=None):
    from corename.errors import ParseError

    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=number, source=source) from None
        if not isinstance(obj, dict):
            raise ParseError(f"{what} is not an object", line=number, source=source)
        missing = keys - obj.keys()
        if missing:
            message = f"missing keys: {', '.join(sorted(missing))}"
            raise ParseError(message, line=number, source=source)
        yield number, obj


def load_rename_records_per_key(stream, source=None):
    from corename.errors import ParseError, UnknownKind
    from corename.facts.model import IdentifierKind
    from corename.mining import RenameRecord

    records = []
    rows = jsonl_objects_by_loads(stream, {"commit", "kind", "old", "new"}, "record", source)
    for number, obj in rows:
        for key in ("commit", "old", "new", "file", "container"):
            value = obj.get(key, "")
            if not (isinstance(value, str) or (value is None and key == "container")):
                raise ParseError(f"{key} is not a string", line=number, source=source)
        try:
            kind = IdentifierKind(obj["kind"])
        except ValueError:
            raise UnknownKind(
                f"unknown identifier kind: {obj['kind']!r}",
                line=number,
                source=source,
            ) from None
        if obj["old"] == obj["new"]:
            raise ParseError(
                "old and new names are identical", line=number, source=source
            )
        records.append(
            RenameRecord(
                commit=obj["commit"],
                kind=kind,
                old_name=obj["old"],
                new_name=obj["new"],
                file=obj.get("file", ""),
                container=obj.get("container"),
                index=len(records),
            )
        )
    return records


def record_to_obj(record):
    obj = {
        "commit": record.commit,
        "kind": record.kind.value,
        "old": record.old_name,
        "new": record.new_name,
        "file": record.file,
    }
    if record.container is not None:
        obj["container"] = record.container
    return obj


def serialize_rename_records_by_dumps(records, fp):
    for record in records:
        fp.write(json.dumps(record_to_obj(record), sort_keys=True))
        fp.write("\n")


def serialize_rename_sets_by_dumps(collection, fp):
    for s in collection.sets:
        fp.write(
            json.dumps(
                {
                    "commit": s.commit,
                    "key": s.key,
                    "members": list(s.positions),
                },
                sort_keys=True,
            )
        )
        fp.write("\n")
