"""Seeded input generators for the benchmark workloads.

Everything here is a function of the seed alone and never imports the
program under test: the generated renames and the planted git history are
the ground truth that the program's outputs are checked against.

A generated Java project is a list of class models.  Each declaration keeps
its name as a word list, so renames are word edits and every property the
layers depend on (name length, repeated words, set sizes) is known exactly
without splitting identifiers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

NOUNS = """
node item value entry cache buffer metric type event message channel
handler listener request response session token user account order payment
product price report task job worker queue stream file path folder image frame
page layout widget panel button label color shape point line edge graph tree
leaf key map table column row query policy registry factory entity category
property config module plugin service client server provider consumer producer
filter reader writer parser builder manager context scope state rule limit
count size score weight rate timer clock date time period window region zone
host port socket packet header body payload content document schema model view
controller adapter wrapper helper source target result error warning option
setting profile group member role permission resource asset element component
instance object budget ticket invoice cart vendor supplier customer address
""".split()

VERBS = """
get set create find load save update build compute handle read write check
apply init reset render parse merge send fetch resolve register remove add
clear open close start stop validate convert format collect scan sort split
copy move print
""".split()

ADJECTIVES = """
active current next last first total max min local global remote main primary
secondary temp raw base inner outer visible hidden empty dirty valid
""".split()

KINDS = ("Class", "Method", "Attribute", "Parameter", "Variable")
LONG_SHARE = 0.05  # methods and locals with 6-12 words, some repeated
PRIMITIVE_TYPES = ("int", "long", "String", "boolean")


def plural(noun: str) -> str:
    if noun.endswith("y") and noun[-2] not in "aeiou":
        return noun[:-1] + "ies"
    if noun.endswith(("s", "x", "z", "ch", "sh")):
        return noun + "es"
    return noun + "s"


_BASE = {plural(n): n for n in NOUNS}


def base(word: str) -> str:
    """The singular form of a generated word (words are built from NOUNS)."""
    return _BASE.get(word, word)


def camel(words, upper: bool) -> str:
    head = words[0].capitalize() if upper else words[0]
    return head + "".join(w.capitalize() for w in words[1:])


@dataclass(eq=False)
class Decl:
    """One declaration; ``words`` are lowercase surfaces (plurals kept)."""

    kind: str  # Class Interface Method Attribute Parameter Variable
    words: list
    type: str = ""

    @property
    def upper(self) -> bool:
        return self.kind in ("Class", "Interface")

    @property
    def name(self) -> str:
        return camel(self.words, self.upper)

    @property
    def rename_kind(self) -> str:
        return "Class" if self.kind == "Interface" else self.kind


@dataclass(eq=False)
class Method:
    decl: Decl
    ret: str
    params: list
    locals: list = field(default_factory=list)
    stmts: list = field(default_factory=list)


@dataclass(eq=False)
class ClassModel:
    decl: Decl
    path: str
    used: set = field(default_factory=set)  # declared names, for uniqueness
    extends: str | None = None
    implements: str | None = None
    fields: list = field(default_factory=list)  # (Decl, is_list)
    methods: list = field(default_factory=list)

    def decls(self):
        """Every declaration with its container path, in source order."""
        cname = self.decl.name
        yield self.decl, None
        for f, _is_list in self.fields:
            yield f, cname
        for m in self.methods:
            yield m.decl, cname
            mpath = f"{cname}.{m.decl.name}"
            for p in m.params:
                yield p, mpath
            for v in m.locals:
                yield v, mpath


# --- Java project ---------------------------------------------------------


class ProjectGen:
    """Builds class models with fields, methods, parameters and locals that
    extend, type, call and assign each other.

    ``unique_in_file`` makes every declared name distinct within its file, so
    an in-place rename of one declaration changes no other declaration (the
    git-history generator relies on it).
    """

    def __init__(self, rng: random.Random, unique_in_file: bool = False):
        self.rng = rng
        self.unique_in_file = unique_in_file
        self.class_names: set[str] = set()
        self._used: set[str] = set()  # names taken in the current scope

    def _fresh(self, kind, make_words, type_name=""):
        for _ in range(50):
            words = make_words()
            decl = Decl(kind, words, type_name)
            if decl.name not in self._used:
                self._used.add(decl.name)
                return decl
        words = make_words() + [self.rng.choice(NOUNS), self.rng.choice(NOUNS)]
        decl = Decl(kind, words, type_name)
        self._used.add(decl.name)
        return decl

    def _long_words(self):
        """6-12 words drawn from a small pool, so words repeat."""
        pool = self.rng.sample(NOUNS, 3) + [self.rng.choice(ADJECTIVES)]
        return [self.rng.choice(pool) for _ in range(self.rng.randint(6, 12))]

    def _type_words(self, type_name: str):
        if type_name in PRIMITIVE_TYPES:
            return [self.rng.choice(NOUNS)]
        words = [w.lower() for w in _split_camel(type_name)]
        return words[-self.rng.randint(1, len(words)):]

    def new_class(self, index: int) -> ClassModel:
        rng = self.rng
        is_iface = rng.random() < 0.08
        while True:
            words = rng.sample(NOUNS, rng.randint(2, 3))
            if rng.random() < 0.3:
                words.insert(0, rng.choice(ADJECTIVES))
            name = camel(words, True)
            if name not in self.class_names:
                break
        self.class_names.add(name)
        decl = Decl("Interface" if is_iface else "Class", words)
        return ClassModel(decl=decl, path=f"p{index % 8}/{name}.java", used={name})

    def fill(self, cls: ClassModel, others: list[ClassModel]) -> None:
        """Give a class its supertypes, fields and method signatures."""
        rng = self.rng
        self._used = cls.used
        classes = [o for o in others if o.decl.kind == "Class" and o is not cls]
        ifaces = [o for o in others if o.decl.kind == "Interface"]
        if cls.decl.kind == "Class":
            if classes and rng.random() < 0.3:
                cls.extends = rng.choice(classes).decl.name
            if ifaces and rng.random() < 0.25:
                cls.implements = rng.choice(ifaces).decl.name
            for _ in range(rng.randint(3, 5)):
                target = rng.choice(classes).decl.name
                is_list = rng.random() < 0.3

                def words(target=target, is_list=is_list):
                    ws = self._type_words(target)
                    if rng.random() < 0.3:
                        ws = [rng.choice(ADJECTIVES)] + ws
                    if is_list:
                        ws = ws[:-1] + [plural(ws[-1])]
                    return ws

                cls.fields.append((self._fresh("Attribute", words, target), is_list))
        for _ in range(rng.randint(4, 6)) if cls.decl.kind == "Class" else range(3):
            cls.methods.append(self._signature(cls, others))

    def _signature(self, cls, others) -> Method:
        rng = self.rng
        ret = rng.choice(["void", "void", rng.choice(PRIMITIVE_TYPES),
                          rng.choice(others).decl.name])
        fields = [f for f, _ in cls.fields]

        def mwords():
            if rng.random() < LONG_SHARE:
                return [rng.choice(VERBS)] + self._long_words()
            if fields and rng.random() < 0.6:
                return [rng.choice(VERBS)] + list(rng.choice(fields).words)
            return [rng.choice(VERBS)] + rng.sample(NOUNS, rng.randint(1, 2))

        decl = self._fresh("Method", mwords)
        params = []
        used = set() if not self.unique_in_file else None
        for _ in range(rng.randint(1, 3)):
            ptype = rng.choice(others).decl.name if rng.random() < 0.7 else rng.choice(
                PRIMITIVE_TYPES
            )
            params.append(self._local_decl("Parameter", ptype, used))
        return Method(decl=decl, ret=ret, params=params)

    def _local_decl(self, kind, type_name, used):
        """A parameter or local, unique within its method (or file)."""
        rng = self.rng

        def words():
            if kind == "Variable" and rng.random() < LONG_SHARE:
                return self._long_words()
            return self._type_words(type_name)

        if used is None:
            return self._fresh(kind, words, type_name)
        for _ in range(50):
            decl = Decl(kind, words(), type_name)
            if decl.name not in used:
                used.add(decl.name)
                return decl
        decl = Decl(kind, words() + [rng.choice(NOUNS), rng.choice(NOUNS)], type_name)
        used.add(decl.name)
        return decl

    def body(self, cls: ClassModel, by_name: dict) -> None:
        """(Re)generate every method body of a class: locals and statements."""
        if cls.decl.kind == "Interface":
            return
        rng = self.rng
        self._used = cls.used
        fields = [f for f, _ in cls.fields]
        for m in cls.methods:
            used = None if self.unique_in_file else {p.name for p in m.params}
            m.locals = []
            m.stmts = []
            for _ in range(rng.randint(1, 3)):
                f = rng.choice(fields)
                v = self._local_decl("Variable", f.type, used)
                m.locals.append(v)
                m.stmts.append(("decl", v, f))
            for p in m.params:
                callee = by_name.get(p.type)
                if callee is not None and callee.methods and rng.random() < 0.8:
                    target = rng.choice(callee.methods)
                    args = [rng.choice(m.locals + fields)
                            for _ in range(len(target.params))]
                    m.stmts.append(("call", p, target.decl.name, args))
                elif rng.random() < 0.5:
                    m.stmts.append(("assign", rng.choice(fields), p))
            sibling = rng.choice(cls.methods)
            if sibling is not m and rng.random() < 0.5:
                args = [rng.choice(m.locals + fields) for _ in range(len(sibling.params))]
                m.stmts.append(("self_call", sibling.decl, args))
            if m.ret != "void":
                m.stmts.append(("return", m.locals[0]))


def _split_camel(name: str):
    out, cur = [], ""
    for ch in name:
        if ch.isupper() and cur:
            out.append(cur)
            cur = ch
        else:
            cur += ch
    out.append(cur)
    return out


def render(cls: ClassModel) -> str:
    """Java source of one class model, using the declarations' current names."""
    lines = [f"package {cls.path.split('/')[0]};", "", "import java.util.List;", ""]
    head = f"public {'interface' if cls.decl.kind == 'Interface' else 'class'} {cls.decl.name}"
    if cls.extends:
        head += f" extends {cls.extends}"
    if cls.implements:
        head += f" implements {cls.implements}"
    lines.append(head + " {")
    for f, is_list in cls.fields:
        ftype = f"List<{f.type}>" if is_list else f.type
        lines.append(f"    private {ftype} {f.name};")
    for m in cls.methods:
        params = ", ".join(f"{p.type} {p.name}" for p in m.params)
        sig = f"{m.ret} {m.decl.name}({params})"
        if cls.decl.kind == "Interface":
            lines.append(f"    {sig};")
            continue
        lines.append("")
        lines.append(f"    public {sig} {{")
        for st in m.stmts:
            op = st[0]
            if op == "decl":
                lines.append(f"        {st[1].type} {st[1].name} = {st[2].name};")
            elif op == "assign":
                lines.append(f"        {st[1].name} = {st[2].name};")
            elif op == "call":
                args = ", ".join(a.name for a in st[3])
                lines.append(f"        {st[1].name}.{st[2]}({args});")
            elif op == "self_call":
                args = ", ".join(a.name for a in st[2])
                lines.append(f"        {st[1].name}({args});")
            elif op == "return":
                lines.append(f"        return {st[1].name};")
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def make_project(rng: random.Random, n_files: int, unique_in_file=False):
    gen = ProjectGen(rng, unique_in_file=unique_in_file)
    classes = [gen.new_class(i) for i in range(n_files)]
    for cls in classes:
        gen.fill(cls, classes)
    by_name = {c.decl.name: c for c in classes}
    for cls in classes:
        gen.body(cls, by_name)
    return gen, classes


def write_tree(root: Path, classes) -> None:
    for cls in classes:
        path = root / cls.path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(cls), encoding="utf-8")


def entity_count(classes) -> int:
    return sum(1 for cls in classes for _ in cls.decls())


# --- rename records -------------------------------------------------------


def apply_edit(words, op, w, w2):
    """Apply one word edit at the first occurrence of lemma ``w``.

    ``R`` replaces it (keeping plural number), ``I`` inserts ``w2`` before
    it, ``D`` deletes it and ``F`` flips its number.  Returns None when the
    edit does not apply.
    """
    at = next((i for i, x in enumerate(words) if base(x) == w), None)
    if at is None:
        return None
    is_plural = words[at] != w
    if op == "R":
        return words[:at] + [plural(w2) if is_plural else w2] + words[at + 1:]
    if op == "I":
        return words[:at] + [w2] + words[at:]
    if op == "D":
        return words[:at] + words[at + 1:] if len(words) > 1 else None
    if op == "F":
        return words[:at] + [w if is_plural else plural(w)] + words[at + 1:]
    raise ValueError(op)


_OPS = ("R",) * 14 + ("I",) * 3 + ("D",) * 2 + ("F",)


def plant_sets(rng, pool, sizes_by_commit, own=None):
    """Rename records: one word edit shared by each planted set's members.

    ``pool`` lists (Decl, file, container) candidates; ``own`` maps a commit
    to its own restricted pool, used while it holds enough candidates.
    Members are drawn around a focus declaration, same-file declarations
    first, so planted sets hold related identifiers the way real co-renames
    do.  No declaration is renamed twice in one commit, and the sets of one
    commit have distinct chunk identities.
    """
    own = own or {}
    indexes = {}
    records = []
    for commit, sizes in sizes_by_commit:
        keys, taken = set(), set()
        for size in sizes:
            for cands in (own.get(commit), pool):
                if cands is None:
                    continue
                if id(cands) not in indexes:
                    indexes[id(cands)] = _word_index(cands)
                members = _plant_one(rng, cands, indexes[id(cands)], size, keys, taken)
                if members is not None:
                    for m in members:
                        m["commit"] = commit
                    records.extend(members)
                    break
            else:
                raise RuntimeError(f"cannot plant a set of {size} in {commit}")
    return records


def _word_index(cands):
    """Candidate positions by word lemma, and by (word lemma, file)."""
    by_word: dict[str, list[int]] = {}
    by_word_file: dict[tuple[str, str], list[int]] = {}
    for idx, (decl, file, _container) in enumerate(cands):
        for w in {base(x) for x in decl.words}:
            by_word.setdefault(w, []).append(idx)
            by_word_file.setdefault((w, file), []).append(idx)
    return by_word, by_word_file


def _plant_one(rng, cands, index, size, keys, taken):
    by_word, by_word_file = index
    for _ in range(100):
        focus = rng.randrange(len(cands))
        nouns = [base(x) for x in cands[focus][0].words if base(x) in _NOUN_SET]
        if not nouns or (id(cands), focus) in taken:
            continue
        w = rng.choice(nouns)
        op = rng.choice(_OPS)
        w2 = rng.choice(NOUNS)
        # the chunk identity the program derives from this edit
        key = {"R": ("R", w, w2), "I": ("I", w2), "D": ("D", w), "F": ("F", w)}[op]
        if w2 == w or key in keys or len(by_word[w]) < size:
            continue
        near = list(by_word_file[(w, cands[focus][1])])
        rng.shuffle(near)
        far = rng.sample(by_word[w], min(len(by_word[w]), 4 * size + 8))
        chosen, seen = [], set()
        for i in [focus] + near + far:
            decl = cands[i][0]
            if i in seen or (id(cands), i) in taken:
                continue
            seen.add(i)
            new = apply_edit(decl.words, op, w, w2)
            if new is None or camel(new, decl.upper) == decl.name:
                continue
            chosen.append((i, camel(new, decl.upper)))
            if len(chosen) == size:
                break
        if len(chosen) < size:
            continue
        keys.add(key)
        members = []
        for i, new_name in chosen:
            taken.add((id(cands), i))
            decl, file, container = cands[i]
            members.append({
                "commit": None,
                "kind": decl.rename_kind,
                "old": decl.name,
                "new": new_name,
                "file": file,
                "container": container,
            })
        return members
    return None


_NOUN_SET = frozenset(NOUNS)


def deal_sets(rng, schedule, per_commit, prefix="c"):
    """Shuffle a set-size schedule and deal it over commits."""
    sizes = [size for size, count in schedule for _ in range(count)]
    rng.shuffle(sizes)
    commits = []
    for at in range(0, len(sizes), per_commit):
        commits.append((f"{prefix}{len(commits):04d}", sizes[at:at + per_commit]))
    return commits


def decl_pool(classes):
    return [
        (decl, cls.path, container)
        for cls in classes
        for decl, container in cls.decls()
    ]


# --- queries and properties -----------------------------------------------


def pick_queries(rng, records, names, count):
    """Round-robin over identifier kinds, from renames whose old name is
    declared in the query snapshot."""
    by_kind = {k: [] for k in KINDS}
    for r in records:
        if r["old"] in names:
            by_kind[r["kind"]].append({"kind": r["kind"], "old": r["old"], "new": r["new"]})
    for rows in by_kind.values():
        rng.shuffle(rows)
    queries = []
    kinds = [k for k in KINDS if by_kind[k]]
    while len(queries) < count and kinds:
        for k in list(kinds):
            if len(queries) == count:
                break
            if not by_kind[k]:
                kinds.remove(k)
                continue
            queries.append(by_kind[k].pop())
    return queries


def name_shares(word_lists):
    word_lists = list(word_lists)
    total = len(word_lists) or 1
    return {
        "count": len(word_lists),
        "share_6plus_words": sum(len(w) >= 6 for w in word_lists) / total,
        "share_repeated_words": sum(
            len({base(x) for x in w}) < len(w) for w in word_lists
        ) / total,
    }


def _words_of(name: str):
    return [w.lower() for w in _split_camel(name)]


def tree_digest(root: Path) -> str:
    """Content digest of a generated input tree (paths and bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and ".git" not in p.parts):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# --- workloads ------------------------------------------------------------


@dataclass
class Inputs:
    """What a workload's setup produced, as plain paths and numbers."""

    root: Path
    mine_args: list
    snapshots: dict  # facts name -> source dir
    snapshot_files: dict  # facts name -> file count
    snapshot_entities: dict  # facts name -> declared entity count
    query_snapshot: str
    queries: list
    commits: int
    planted: list  # the renames the generator made: ground truth for mine
    properties: dict


def _write_records(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for r in records:
            obj = {k: v for k, v in r.items() if v is not None}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _record_props(records, commits_total, own_commits):
    files_per_commit = Counter()
    seen = set()
    for r in records:
        if (r["commit"], r["file"]) not in seen:
            seen.add((r["commit"], r["file"]))
            files_per_commit[r["commit"]] += 1
    per_commit = list(files_per_commit.values()) or [0]
    return {
        "records": len(records),
        "commits": commits_total,
        "commits_own_facts": own_commits,
        "commits_default_facts": commits_total - own_commits,
        "changed_files_per_commit_mean": sum(per_commit) / len(per_commit),
        "changed_files_per_commit_max": max(per_commit),
        "record_names": name_shares(_words_of(r["old"]) for r in records),
    }


def build_corpus(root: Path, seed: int, *, n_files, schedule, per_commit,
                 own_commits, own_files, n_queries) -> Inputs:
    """A synthetic Java project plus planted rename records.

    ``own_commits`` commits get a snapshot of their own (``own_files`` files
    with re-rolled method bodies) and so their own facts file; every other
    commit falls back on the default snapshot.
    """
    rng = random.Random(seed)
    gen, classes = make_project(rng, n_files)
    snapshots = {"default": root / "snapshots" / "default"}
    write_tree(snapshots["default"], classes)
    pool = decl_pool(classes)  # before own snapshots re-roll bodies
    files = {"default": len(classes)}
    entities = {"default": entity_count(classes)}
    commits = deal_sets(rng, schedule, per_commit)
    own_ids = [commits[i][0] for i in sorted(rng.sample(range(len(commits)), own_commits))]
    own_pools = {}
    by_name = {c.decl.name: c for c in classes}
    for commit in own_ids:
        subset = rng.sample([c for c in classes if c.decl.kind == "Class"], own_files)
        for cls in subset:
            gen.body(cls, by_name)  # re-rolled bodies: other locals and calls
        snapshots[commit] = root / "snapshots" / commit
        write_tree(snapshots[commit], subset)
        files[commit] = len(subset)
        entities[commit] = entity_count(subset)
        own_pools[commit] = decl_pool(subset)
    records = plant_sets(rng, pool, commits, own_pools)
    _write_records(root / "renames.jsonl", records)
    query_snapshot = own_ids[0] if own_ids else "default"
    q_names = {d.name for d, _f, _c in (own_pools.get(query_snapshot) or pool)}
    queries = pick_queries(rng, records, q_names, n_queries)
    props = {
        "files": sum(files.values()),
        "files_default_snapshot": files["default"],
        "entities": sum(entities.values()),
        "entities_default_snapshot": entities["default"],
        "entity_names": name_shares(d.words for d, _f, _c in pool),
        "planted_set_sizes": dict(sorted(Counter(s for _c, ss in commits for s in ss).items())),
        "planted_pairs": sum(s * (s - 1) // 2 for _c, ss in commits for s in ss),
        **_record_props(records, len(commits), len(own_ids)),
        "queries_per_kind": dict(Counter(q["kind"] for q in queries)),
        "query_snapshot_entities": entities[query_snapshot],
    }
    return Inputs(
        root=root,
        mine_args=["--records", str(root / "renames.jsonl")],
        snapshots=snapshots,
        snapshot_files=files,
        snapshot_entities=entities,
        query_snapshot=query_snapshot,
        queries=queries,
        commits=len(commits),
        planted=records,
        properties=props,
    )


FILES_PER_COMMIT = 2  # fixed, so that the work per commit varies little by seed


def build_history(root: Path, seed: int, *, n_files, n_commits, n_queries) -> Inputs:
    """A local git repository whose commits rename declarations in place.

    Each commit renames one or two non-nested declarations in each of
    FILES_PER_COMMIT files; every twelfth commit also adds or deletes a file.  Every rename is
    recorded as planted ground truth for the mined records.
    """
    rng = random.Random(seed)
    gen, classes = make_project(rng, n_files, unique_in_file=True)
    snapshot = root / "snapshots" / "default"
    write_tree(snapshot, classes)
    initial_pool = decl_pool(classes)
    initial_entities = entity_count(classes)
    # declarations are renamed in place below: keep their initial names
    initial_names = {d.name for d, _f, _c in initial_pool}
    initial_shares = name_shares([list(d.words) for d, _f, _c in initial_pool])
    by_name = {c.decl.name: c for c in classes}
    live = list(classes)
    commits = [{"files": {c.path: render(c) for c in classes}, "deleted": []}]
    planted = []
    names_per_file = {c.path: {d.name for d, _ in c.decls()} for c in classes}
    for number in range(1, n_commits):
        touched = []
        for cls in rng.sample(live, len(live)):
            if _rename_in_place(rng, cls, names_per_file[cls.path], by_name,
                                planted, number):
                touched.append(cls)
                if len(touched) == FILES_PER_COMMIT:
                    break
        change = {"files": {c.path: render(c) for c in touched}, "deleted": []}
        if number % 12 == 0:
            if number % 24 == 0 and len(live) > n_files // 2:
                gone = rng.choice([c for c in live if c not in touched])
                live.remove(gone)
                change["deleted"].append(gone.path)
            else:
                cls = gen.new_class(len(classes))
                gen.fill(cls, live)
                gen.body(cls, by_name)
                classes.append(cls)
                live.append(cls)
                names_per_file[cls.path] = {d.name for d, _ in cls.decls()}
                change["files"][cls.path] = render(cls)
        commits.append(change)
    repo = root / "repo"
    shas = _fast_import(repo, commits)
    for r in planted:
        r["commit"] = shas[r["commit"]]
    queries = pick_queries(rng, planted, initial_names, n_queries)
    changed = [len(c["files"]) + len(c["deleted"]) for c in commits[1:]]
    props = {
        "files": n_files,
        "files_added": sum(1 for c in commits[1:] for p in c["files"] if p not in commits[0]["files"]),
        "files_deleted": sum(len(c["deleted"]) for c in commits),
        "entities": initial_entities,
        "entity_names": initial_shares,
        "records": len(planted),
        "commits": len(commits),
        "commits_own_facts": 0,
        "commits_default_facts": len(commits),
        "changed_files_per_commit_mean": sum(changed) / len(changed),
        "changed_files_per_commit_max": max(changed),
        "changed_files_per_commit_hist": dict(sorted(Counter(changed).items())),
        "record_names": name_shares(_words_of(r["old"]) for r in planted),
        "queries_per_kind": dict(Counter(q["kind"] for q in queries)),
        "query_snapshot_entities": initial_entities,
    }
    return Inputs(
        root=root,
        mine_args=["--repo", str(repo)],
        snapshots={"default": snapshot},
        snapshot_files={"default": n_files},
        snapshot_entities={"default": initial_entities},
        query_snapshot="default",
        queries=queries,
        commits=len(commits),
        planted=planted,
        properties=props,
    )


def _rename_in_place(rng, cls, names, by_name, planted, number) -> bool:
    """Rename one or two non-nested declarations of a class; True if any."""
    chosen = []  # old and new paths of renamed declarations
    for _ in range(rng.choice([1, 1, 2])):
        decls = list(cls.decls())
        decl, container = decls[rng.randrange(len(decls))]
        prefix = "" if container is None else container + "."
        if any(_nested(prefix + decl.name, other) for other in chosen):
            continue
        new = _fresh_rename(rng, decl, names)
        if new is None:
            continue
        old = decl.name
        names.discard(old)
        decl.words = new
        names.add(decl.name)
        if decl.kind in ("Class", "Interface") and old in by_name:
            by_name[decl.name] = by_name.pop(old)
        chosen += [prefix + old, prefix + decl.name]
        planted.append({
            "commit": number,
            "kind": decl.rename_kind,
            "old": old,
            "new": decl.name,
            "file": cls.path,
            "container": container,
        })
    return bool(chosen)


def _nested(a: str, b: str) -> bool:
    return a == b or a.startswith(b + ".") or b.startswith(a + ".")


def _fresh_rename(rng, decl, names):
    for _ in range(20):
        w = base(rng.choice(decl.words))
        op = rng.choice("RRRRID") if w in _NOUN_SET else "I"
        new = apply_edit(decl.words, op, w, rng.choice(NOUNS))
        if new and camel(new, decl.upper) not in names:
            return new
    return None


GIT_ENV = {"GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull}


def _fast_import(repo: Path, commits) -> dict:
    """Write the commits into a fresh repository in one git fast-import."""
    if repo.exists():
        shutil.rmtree(repo)
    env = {**os.environ, **GIT_ENV}
    subprocess.run(["git", "init", "-q", "--initial-branch=main", str(repo)],
                   check=True, env=env)
    chunks = []
    for number, change in enumerate(commits, start=1):
        when = 1_700_000_000 + number * 60
        msg = f"change {number}\n".encode()
        chunks.append(
            f"commit refs/heads/main\nmark :{number}\n"
            f"author Bench <bench@example.invalid> {when} +0000\n"
            f"committer Bench <bench@example.invalid> {when} +0000\n"
            f"data {len(msg)}\n".encode() + msg
        )
        for path in change["deleted"]:
            chunks.append(f"D {path}\n".encode())
        for path, text in sorted(change["files"].items()):
            data = text.encode()
            chunks.append(f"M 100644 inline {path}\ndata {len(data)}\n".encode() + data + b"\n")
        chunks.append(b"\n")
    marks = repo / ".git" / "bench-marks"
    subprocess.run(
        ["git", "-C", str(repo), "fast-import", "--quiet", f"--export-marks={marks}"],
        input=b"".join(chunks), check=True, env=env,
    )
    shas = {}
    for line in marks.read_text().splitlines():
        mark, sha = line.split()
        shas[int(mark[1:]) - 1] = sha
    return shas


WORKLOADS = {
    "corpus-m": lambda root, seed: build_corpus(
        root, seed, n_files=400,
        schedule=[(1, 3500), (2, 600), (3, 150), (4, 60), (5, 30), (7, 12),
                  (10, 5), (14, 2), (20, 1)],
        per_commit=7, own_commits=4, own_files=40, n_queries=100,
    ),
    "mine-history": lambda root, seed: build_history(
        root, seed, n_files=60, n_commits=40, n_queries=50,
    ),
}
