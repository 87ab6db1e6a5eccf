"""Independent reference implementations used to check the differ, and
copies of replaced code paths that their replacements are checked against.

Nothing here may import from corename.chunks internals: these are the
yardsticks the production diff is measured against.
"""

import itertools
import subprocess
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from corename.chunks import ChunkKind, OperationalChunk
from corename.errors import RepoError
from corename.mining import CommitFiles


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


def attach_chunks_per_record(records, mode, lemmatizer=None):
    """``attach_chunks`` normalizing both names of every record afresh."""
    from corename.chunks import diff_chunks
    from corename.errors import InvalidIdentifier
    from corename.lexicon import normalize
    from corename.mining import with_chunks

    out = []
    for record in records:
        try:
            old_seq = normalize(record.old_name, mode, lemmatizer)
            new_seq = normalize(record.new_name, mode, lemmatizer)
        except InvalidIdentifier:
            out.append(with_chunks(record, ()))
            continue
        out.append(with_chunks(record, diff_chunks(old_seq, new_seq, mode)))
    return out


def repo_stats_per_filter(records, coll, facts=None, filters=None, lemmatizer=None):
    """``build_repo_stats`` as one relationship-rate pass per filter, one
    for the inflection-new sets, and two chunking passes per mode."""
    from corename.analytics import (
        InflectionImpact,
        RepoStats,
        co_rename_rate,
        size_distribution,
    )
    from corename.errors import NoDataError
    from corename.facts import CodeFacts
    from corename.facts.relations import detect_relationships
    from corename.grouping import (
        RenameSetCollection,
        attach_chunks,
        build_rename_sets,
        collection_difference,
        enumerate_pairs,
    )
    from corename.mining import IdentifierKind

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
            for record in attach_chunks(records, mode, lemmatizer)
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

    raw_coll = build_rename_sets(attach_chunks(records, "raw", lemmatizer), "raw")
    lemma_coll = build_rename_sets(
        attach_chunks(records, "lemma", lemmatizer), "lemma"
    )
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
        co_rename_rate=or_none(co_rename_rate, coll),
        size_distribution=tuple(or_none(size_distribution, coll) or ()),
        relationship_rates=or_none(relationship_rates, coll),
        filtered_rates={
            kind: or_none(relationship_rates, coll, kind)
            for kind in (filters or tuple(IdentifierKind))
        },
        chunk_type_rates={mode: or_none(chunk_type_rates, mode) for mode in ("raw", "lemma")},
        inflection=InflectionImpact(
            raw_co_rename_rate=or_none(co_rename_rate, raw_coll),
            lemma_co_rename_rate=or_none(co_rename_rate, lemma_coll),
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
