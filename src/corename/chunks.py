"""Operational chunks: typed word-level edits between two identifiers.

The differ aligns the two word sequences on their lemmas, keeping as many
words as possible unchanged; every maximal run of changed words becomes one
chunk (Insert, Delete, or Replace).  When the lemma sequences are already
equal the identifiers can still differ by inflection or casing, which is
reported per word position as Inflect or Other.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import DegenerateResult
from .lexicon import (
    CASING_CAPITALIZED,
    CASING_LOWER,
    WordSequence,
    pluralize,
    re_case,
)


class ChunkKind(str, enum.Enum):
    INSERT = "Insert"
    DELETE = "Delete"
    REPLACE = "Replace"
    OTHER = "Other"
    INFLECT = "Inflect"


_KEY_TAG = {
    ChunkKind.INSERT: "I",
    ChunkKind.DELETE: "D",
    ChunkKind.REPLACE: "R",
    ChunkKind.OTHER: "O",
    ChunkKind.INFLECT: "F",
}


class OperationalChunk(NamedTuple):
    """One contiguous word-level edit.

    ``anchor`` is the index of the chunk's left boundary in the old word
    sequence.  ``left_context``/``right_context`` hold the lemmas adjacent
    to the edit in the old sequence (used to anchor Insert applications);
    they do not participate in chunk identity.
    """

    kind: ChunkKind
    deleted: tuple[str, ...]
    added: tuple[str, ...]
    anchor: int
    left_context: str | None = None
    right_context: str | None = None


def chunk_key(chunk: OperationalChunk) -> str:
    """Canonical identity string: kind tag, deleted lemmas, added lemmas.

    >>> chunk_key(OperationalChunk(ChunkKind.INSERT, (), ("instance",), 2))
    'I||instance'
    """
    return "|".join(
        (_KEY_TAG[chunk.kind], "+".join(chunk.deleted), "+".join(chunk.added))
    )


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


def _diff(a, b, offset, old, out, total=None) -> None:
    """Append the chunks between ``a`` and ``b``, anchored at ``offset``
    in ``old``.  A caller that knows the LCS length passes it as ``total``,
    so that a side with no common words becomes one gap without a table.

    ``suf[i][j]`` is the LCS length of ``a[i:]`` and ``b[j:]``, and ``pre``
    that of ``a[:i]`` and ``b[:j]``.  The split is the longest common run,
    leftmost on ties, that starts at a matched pair with ``pre + suf ==
    total``.  Such a pair lies on a maximal alignment, and so does its whole
    run: for ``a[i] == b[j]``, ``suf[i][j] == 1 + suf[i+1][j+1]``, so the
    sum stays ``total`` one pair further along.  The words on each side of
    the run are split by the same rule."""
    if a == b:
        return
    if total == 0 or not a or not b:
        out.append(_gap_chunk(a, b, offset, old))
        return
    m, n = len(a), len(b)
    suf = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        ai, suf_i, suf_below = a[i], suf[i], suf[i + 1]
        for j in range(n - 1, -1, -1):
            if ai == b[j]:
                suf_i[j] = suf_below[j + 1] + 1
            else:
                down, right = suf_below[j], suf_i[j + 1]
                suf_i[j] = down if down >= right else right
    total = suf[0][0]
    if total == 0:
        out.append(_gap_chunk(a, b, offset, old))
        return
    # pre_i holds the LCS lengths of a[:i] against each prefix of b
    best = bi = bj = 0
    pre_i = [0] * (n + 1)
    for i in range(m):
        ai, suf_i = a[i], suf[i]
        pre_next = [0]
        for j in range(n):
            if ai == b[j]:
                pre_next.append(pre_i[j] + 1)
                rest = suf_i[j]  # bounds the run starting here
                if rest > best and pre_i[j] + rest == total:
                    length = 1
                    while length < rest and a[i + length] == b[j + length]:
                        length += 1
                    if length > best:
                        best, bi, bj = length, i, j
            else:
                up, left = pre_i[j + 1], pre_next[j]
                pre_next.append(up if up >= left else left)
        pre_i = pre_next
    end_a, end_b = bi + best, bj + best
    right_total = suf[end_a][end_b]
    _diff(a[:bi], b[:bj], offset, old, out, total - best - right_total)
    _diff(a[end_a:], b[end_b:], offset + end_a, old, out, right_total)


def diff_lemmas(old: tuple[str, ...], new: tuple[str, ...]) -> list[OperationalChunk]:
    """Insert/Delete/Replace chunks between two lemma sequences.

    The alignment minimizes the total number of changed words.  Among the
    common runs that lie on such an alignment, the longest one is matched
    first, the leftmost on ties, and the words on each side of it are
    aligned by the same rule; every maximal run of unmatched words becomes
    one chunk.
    """
    out: list[OperationalChunk] = []
    _diff(tuple(old), tuple(new), 0, tuple(old), out)
    return out


def diff_chunks(
    old: WordSequence, new: WordSequence, mode: str = "lemma"
) -> list[OperationalChunk]:
    """All operational chunks of the rename ``old -> new``.

    Both sequences must have been normalized with the same ``mode``.  The
    chunks are those of ``diff_lemmas``, or of ``form_chunks`` when the
    lemma-level diff is empty.
    """
    return diff_lemmas(old.lemmas, new.lemmas) or form_chunks(old, new, mode)


def form_chunks(
    old: WordSequence, new: WordSequence, mode: str = "lemma"
) -> list[OperationalChunk]:
    """Per-word chunks of a rename whose lemma sequences are equal.

    The differences are classified positionally: in lemma mode a
    case-insensitive difference is Inflect and a case-only difference is
    Other; in raw mode any folded difference is Other.
    """
    if mode == "raw":
        if old.folded == new.folded:
            return []
        return [
            OperationalChunk(ChunkKind.OTHER, (w.lemma,), (), i)
            for i, (w, v) in enumerate(zip(old.words, new.words))
            if w.folded != v.folded
        ]
    if old.surfaces == new.surfaces:
        return []
    out = []
    for i, (w, v) in enumerate(zip(old.words, new.words)):
        if w.folded != v.folded:
            out.append(OperationalChunk(ChunkKind.INFLECT, (w.lemma,), (), i))
        elif w.surface != v.surface:
            out.append(OperationalChunk(ChunkKind.OTHER, (w.lemma,), (), i))
    return out


def _render(target: WordSequence, surfaces: list[str]) -> str:
    """Rebuild an identifier string from new word surfaces.

    Underscore-separated targets are joined with underscores; otherwise the
    camel convention is enforced: the first word keeps the target's leading
    casing and later all-lowercase words are capitalized.  Mixed separator
    styles are normalized to the dominant one.
    """
    if "_" in target.origin:
        return "_".join(surfaces)
    first = target.words[0]
    out = []
    for pos, s in enumerate(surfaces):
        if pos == 0:
            if s != first.surface and first.casing in (
                CASING_LOWER,
                CASING_CAPITALIZED,
            ):
                s = re_case(s.lower(), first.casing)
        elif s.isalpha() and s.islower():
            s = re_case(s, CASING_CAPITALIZED)
        out.append(s)
    return "".join(out)


def _added_surfaces(chunk: OperationalChunk, occurrence: list) -> list[str]:
    """Surfaces for the chunk's added lemmas at one Replace occurrence.

    Each added word copies the casing of its positional counterpart in the
    replaced run; if the last replaced surface was plural and its lemma was
    not, the final added word is pluralized to match.
    """
    added = list(chunk.added)
    last = occurrence[-1]
    if last.folded.endswith("s") and not last.lemma.endswith("s"):
        added[-1] = pluralize(added[-1])
    out = []
    for idx, lemma in enumerate(added):
        counterpart = occurrence[min(idx, len(occurrence) - 1)]
        out.append(re_case(lemma, counterpart.casing))
    return out


def anchor_lemma(chunk: OperationalChunk) -> str | None:
    """The lemma a target must hold for ``apply_chunk`` to rewrite it: the
    first deleted lemma of a Replace or Delete, or the word an Insert goes
    next to.  None for a chunk that rewrites nothing."""
    if chunk.kind in (ChunkKind.REPLACE, ChunkKind.DELETE):
        return chunk.deleted[0]
    if chunk.kind is ChunkKind.INSERT:
        return chunk.left_context if chunk.anchor > 0 else chunk.right_context
    return None


def apply_chunk(chunk: OperationalChunk, target: WordSequence) -> list[str]:
    """Apply a chunk everywhere it fits in ``target``.

    Replace/Delete rewrite every contiguous occurrence of the deleted
    lemmas; Insert requires the word adjacent to the original insertion
    point to occur in the target and inserts next to it.  Other and Inflect
    describe form-only changes and produce nothing.  One renamed
    identifier is returned per occurrence; raises DegenerateResult if an
    application would delete every word.
    """
    if chunk.kind in (ChunkKind.OTHER, ChunkKind.INFLECT):
        return []
    lemmas = target.lemmas
    results: list[str] = []
    if chunk.kind is ChunkKind.INSERT:
        context = anchor_lemma(chunk)
        if context is None:
            return []
        after = chunk.anchor > 0
        for i, lemma in enumerate(lemmas):
            if lemma != context:
                continue
            at = i + 1 if after else i
            added = [re_case(lem, target.words[i].casing) for lem in chunk.added]
            surfaces = (
                [w.surface for w in target.words[:at]]
                + added
                + [w.surface for w in target.words[at:]]
            )
            name = _render(target, surfaces)
            if name != target.origin:
                results.append(name)
        return results
    k = len(chunk.deleted)
    for i in range(len(lemmas) - k + 1):
        if lemmas[i : i + k] != chunk.deleted:
            continue
        occurrence = list(target.words[i : i + k])
        added = (
            _added_surfaces(chunk, occurrence)
            if chunk.kind is ChunkKind.REPLACE
            else []
        )
        surfaces = (
            [w.surface for w in target.words[:i]]
            + added
            + [w.surface for w in target.words[i + k :]]
        )
        if not surfaces:
            raise DegenerateResult(
                f"removing {'+'.join(chunk.deleted)} empties {target.origin!r}"
            )
        name = _render(target, surfaces)
        if name != target.origin:
            results.append(name)
    return results
