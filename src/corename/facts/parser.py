"""Fact extraction from a Java-like source subset.

The extractor recognizes class/interface declarations with extends and
implements clauses, fields, methods with parameters and return types,
local variable declarations, assignments, method invocations with
arguments, and field accesses.  Generic types contribute their outer name
plus first-level type arguments.  Lambdas, anonymous class bodies,
annotations, and deeper generic nesting are skipped in place, except
that the typed parameters of a lambda, one or more, are recorded as
locals, as is the parameter of a single-type ``catch`` clause; files that
cannot be tokenized at all are skipped with a diagnostic.  A statement may
follow a ``case``/``default`` label's ``:``.  A field or a bodiless method
missing its ``;`` ends at the enclosing ``}``, so the class closes there
and the members and classes after it are still read.

Matching elsewhere is by name text, so the tables store entity ids for
declarations and bare strings for references.
"""

from __future__ import annotations

import re
import string
from pathlib import Path

from ..errors import CorenameError
from .model import CodeFacts, Entity, EntityKind

_CLEAN_RE = re.compile(
    r'"(?:\\.|[^"\\])*"'
    r"|'(?:\\.|[^'\\])*'"
    r"|//[^\n]*"
    r"|/\*.*?\*/",
    re.S,
)

_TOKEN_RE = re.compile(
    r"[A-Za-z_$][A-Za-z0-9_$]*"
    r"|\d[\w.]*"
    r"|>>>=|<<=|>>=|->|\+\+|--|&&|\|\||==|!=|<=|>=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|::"
    r"|[{}()\[\];,.<>=+\-*/%&|^!~?:@]"
)

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while var record yield
    true false null""".split()
)

PRIMITIVES = frozenset(
    "boolean byte char short int long float double void var".split()
)

MODIFIERS = frozenset(
    """public private protected static final abstract synchronized native
    transient volatile strictfp default""".split()
)

ASSIGN_OPS = frozenset("= += -= *= /= %= &= |= ^= <<= >>= >>>=".split())

_NAME_START = frozenset(string.ascii_letters + "_$")
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
# first characters of the tokens allowed in a type argument list, at its
# top level and nested deeper, and in the type of a `new` expression
_TYPE_ARG_RE = re.compile(r"[A-Za-z_$.\[\]]")
_NESTED_TYPE_ARG_RE = re.compile(r"[A-Za-z_$.,?\[\]<>]")
_NEW_TYPE_RE = re.compile(r"[A-Za-z_$.<>,\[\]]")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(_CLEAN_RE.sub(" __lit__ ", text))


# --- token scanners --------------------------------------------------------


def _is_name(t: str) -> bool:
    """An identifier token that is not a keyword."""
    return t[0] in _NAME_START and t not in KEYWORDS


def _skip_balanced(toks, i: int, open_tok: str, close_tok: str) -> int:
    """toks[i] is open_tok; returns the index just past its match, or
    len(toks) when it has none."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j]
        if t == open_tok:
            depth += 1
        elif t == close_tok:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(toks)


def _expression_end(toks, i: int, stops) -> int:
    """Index of the first token from i on that is a stop token outside
    brackets or a closing bracket without its opener; len(toks) if none."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j]
        if t in _OPENERS:
            depth += 1
        elif t in _CLOSERS:
            if depth == 0:
                return j
            depth -= 1
        elif depth == 0 and t in stops:
            return j
    return len(toks)


def _parse_type_ref(toks, i: int):
    """Parse a type occurrence at toks[i]; returns (next index, outer, args)
    or None.

    ``outer`` is the final segment of the dotted head; ``args`` are the
    outer names of first-level type arguments.  Aborts (None) on
    anything that cannot be type syntax, so callers can fall back to
    expression handling.
    """
    n = len(toks)
    if i >= n:
        return None
    outer = toks[i]
    if outer not in PRIMITIVES:
        if not _is_name(outer):
            return None
        while i + 2 < n and toks[i + 1] == "." and _is_name(toks[i + 2]):
            i += 2
            outer = toks[i]
    i += 1
    args: list[str] = []
    if i < n and toks[i] == "<":
        i += 1
        expect_arg = True
        while i < n and toks[i] != ">":
            t = toks[i]
            if t == "<":
                # nested generic depth > 1: names there are ignored
                end = _skip_balanced(toks, i, "<", ">")
                if not all(
                    _NESTED_TYPE_ARG_RE.match(u) or u in ("extends", "super")
                    for u in toks[i:end]
                ):
                    return None
                i = end
                continue
            if t == ",":
                expect_arg = True
            elif expect_arg and _is_name(t):
                k = i
                while k + 2 < n and toks[k + 1] == "." and toks[k + 2][0] in _NAME_START:
                    k += 2
                args.append(toks[k])
                expect_arg = False
            elif t not in ("?", "extends", "super") and not _TYPE_ARG_RE.match(t):
                return None  # expression, not a generic type
            i += 1
        if i >= n:
            return None
        i += 1
    while i + 1 < n and toks[i] == "[" and toks[i + 1] == "]":
        i += 2
    return i, outer, args


def _typed_parameter(toks, i: int):
    """A lambda parameter ``[final] Type name`` at toks[i], followed by
    ``,`` or ``)``; returns (index of the name, outer, args) or None."""
    while i < len(toks) and toks[i] == "final":
        i += 1
    ref = _parse_type_ref(toks, i)
    if ref is None:
        return None
    j, outer, args = ref
    if j + 1 < len(toks) and _is_name(toks[j]) and toks[j + 1] in (",", ")"):
        return j, outer, args
    return None


def _sole_parameter(toks, i: int, j: int) -> bool:
    """Whether the declarator toks[j], typed from toks[i], is the only
    parameter of a catch clause, ``catch ([final] Type name)``, or of a
    lambda, ``([final] Type name) ->``."""
    k = i - 1
    while k >= 0 and toks[k] == "final":
        k -= 1
    if k < 0 or toks[k] != "(" or toks[j + 1] != ")":
        return False
    return (k > 0 and toks[k - 1] == "catch") or toks[j + 2 : j + 3] == ["->"]


def _strip_anonymous_bodies(body):
    """Drop `new T(...) { ... }` class bodies from the token stream."""
    out = []
    i = 0
    n = len(body)
    while i < n:
        t = body[i]
        out.append(t)
        if t == "new":
            j = i + 1
            while j < n and body[j] != "new" and _NEW_TYPE_RE.match(body[j]):
                j += 1
            if j < n and body[j] == "(":
                j = _skip_balanced(body, j, "(", ")")
                if j < n and body[j] == "{":
                    out.extend(body[i + 1 : j])
                    i = _skip_balanced(body, j, "{", "}")
                    continue
        i += 1
    return out


class _Builder:
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
        # class id -> names of its attributes
        self.attributes: dict[int, set[str]] = {}
        # method id -> ordered formal parameter names (for passes resolution)
        self.method_params: dict[int, list[str]] = {}
        # (callee name, [(position, actual name, form)], arity)
        self.calls: list[tuple[str, list[tuple[int, str, str]], int]] = []

    def add_entity(self, kind, name, container, file) -> int:
        eid = len(self.entities)
        self.entities.append(Entity(eid, kind, name, container, file))
        if container is not None:
            self.contains.append((container, eid))
        if kind is EntityKind.ATTRIBUTE:
            self.attributes.setdefault(container, set()).add(name)
        return eid

    def _tables(self) -> tuple[list, ...]:
        return (
            self.entities, self.contains, self.extends, self.implements,
            self.typed, self.returns, self.invokes, self.accesses,
            self.assigns, self.calls,
        )

    def mark(self) -> tuple[int, ...]:
        """The length of every table, for ``rollback``."""
        return tuple(map(len, self._tables()))

    def rollback(self, mark: tuple[int, ...]) -> None:
        """Drop all that was added since ``mark`` but ``skipped`` rows."""
        for table, length in zip(self._tables(), mark):
            del table[length:]
        first = mark[0]  # the first entity id added since
        for by_id in (self.attributes, self.method_params):
            for eid in [eid for eid in by_id if eid >= first]:
                del by_id[eid]

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


class _FileParser:
    def __init__(self, file: str, tokens: list[str], builder: _Builder):
        self.file = file
        self.toks = tokens
        self.n = len(tokens)
        self.b = builder

    def _skip_annotation(self, i: int) -> int:
        i += 1  # '@'
        while i < self.n and _is_name(self.toks[i]):
            i += 1
            if i < self.n and self.toks[i] == ".":
                i += 1
            else:
                break
        if i < self.n and self.toks[i] == "(":
            i = _skip_balanced(self.toks, i, "(", ")")
        return i

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
            i = _skip_balanced(self.toks, i, "{", "}")
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
            i = _skip_balanced(self.toks, i, "<", ">")
        if i < self.n and self.toks[i] == "extends":
            ref = _parse_type_ref(self.toks, i + 1)
            if ref:
                i, outer, _args = ref
                if kind is EntityKind.CLASS:
                    self.b.extends.append((eid, outer))
                while i < self.n and self.toks[i] == ",":  # interface extends list
                    ref = _parse_type_ref(self.toks, i + 1)
                    if not ref:
                        break
                    i, _outer, _args = ref
            else:
                i += 1
        if i < self.n and self.toks[i] == "implements":
            i += 1
            while i < self.n:
                ref = _parse_type_ref(self.toks, i)
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
        return self._parse_type_body(i, eid)

    def _parse_type_body(self, i: int, class_id: int) -> int:
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
                i = _skip_balanced(self.toks, i, "{", "}")  # initializer block
            elif t == "<":
                i = _skip_balanced(self.toks, i, "<", ">")  # generic method type params
            else:
                i = self._parse_member(i, class_id, pending_bodies, pending_inits)
        # Attribute names are complete only now; resolve deferred work.
        attrs = self.b.attributes.get(class_id, frozenset())
        for field_name, init in pending_inits:
            self._record_assigns(field_name, init, attrs, set(), set())
        for method_id, body in pending_bodies:
            self._analyze_body(method_id, body, attrs)
        return i

    def _parse_member(self, i, class_id, pending_bodies, pending_inits):
        ref = _parse_type_ref(self.toks, i)
        if ref is None:
            return i + 1
        j, outer, args = ref
        if j < self.n and self.toks[j] == "(" and outer == self.toks[i]:
            # constructor: no return type, name equals the head token
            return self._parse_method(i, j, class_id, None, (), pending_bodies)
        if j >= self.n or not _is_name(self.toks[j]):
            return j
        after = j + 1
        if after < self.n and self.toks[after] == "(":
            return self._parse_method(j, after, class_id, outer, args, pending_bodies)
        if after < self.n and self.toks[after] in (";", "=", ","):
            return self._parse_field(j, class_id, outer, args, pending_inits)
        return after

    def _parse_method(self, name_at, paren_at, class_id, ret_outer, ret_args,
                      pending_bodies):
        toks = self.toks
        mid = self.b.add_entity(EntityKind.METHOD, toks[name_at], class_id, self.file)
        if ret_outer not in (None, "void"):
            self.b.returns.extend((mid, t) for t in (ret_outer, *ret_args))
        i = paren_at + 1
        params: list[str] = []
        while i < self.n and toks[i] != ")":
            if toks[i] == "@":
                i = self._skip_annotation(i)
                continue
            if toks[i] in ("final", ","):
                i += 1
                continue
            ref = _parse_type_ref(toks, i)
            if ref is None:
                i += 1
                continue
            i, outer, args = ref
            if toks[i : i + 3] == [".", ".", "."]:
                i += 3  # varargs ellipsis
            if i < self.n and _is_name(toks[i]):
                pid = self.b.add_entity(EntityKind.PARAMETER, toks[i], mid, self.file)
                self.b.typed.extend((pid, t) for t in (outer, *args))
                params.append(toks[i])
                i += 1
        self.b.method_params[mid] = params
        i += 1  # ')'
        while i < self.n and toks[i] not in ("{", ";", "}"):
            i += 1
        if i < self.n and toks[i] == "{":
            end = _skip_balanced(toks, i, "{", "}")
            # stash for analysis once the class's attributes are all known
            pending_bodies.append((mid, toks[i + 1 : end - 1]))
            return end
        if i < self.n and toks[i] == "}":
            return i  # missing ';': the class's '}' ends the member
        return i + 1

    def _parse_field(self, i, class_id, outer, args, pending_inits):
        toks = self.toks
        while i < self.n:
            name = toks[i]
            fid = self.b.add_entity(EntityKind.ATTRIBUTE, name, class_id, self.file)
            self.b.typed.extend((fid, t) for t in (outer, *args))
            i += 1
            if i < self.n and toks[i] == "=":
                end = _expression_end(toks, i + 1, (",", ";"))
                pending_inits.append((name, toks[i + 1 : end]))
                i = end
                if i < self.n and toks[i] in _CLOSERS:
                    return i  # missing ';': the class's '}' ends the member
            if i < self.n and toks[i] == ",":
                i += 1
            else:
                break
        while i < self.n and toks[i] != ";":
            i += 1
        return i + 1

    # --- method bodies ---------------------------------------------------

    def _analyze_body(self, method_id, body, attrs):
        method_name = self.b.entities[method_id].name
        params = set(self.b.method_params.get(method_id, ()))
        body = _strip_anonymous_bodies(body)
        locals_: set[str] = set()
        self._scan_declarations(body, method_id, params, locals_, attrs)
        self._scan_calls(body, method_id, method_name, params, locals_, attrs)
        for t in body:
            if t in attrs and t not in KEYWORDS:
                self.b.accesses.append((method_id, t))

    def _scan_declarations(self, body, method_id, params, locals_, attrs):
        n = len(body)
        at_start = True
        in_label = False  # between `case`/`default` and the label's `:`
        i = 0
        while i < n:
            t = body[i]
            if t in (";", "{", "}", "(") or (in_label and t == ":"):
                at_start = True
                in_label = False
                i += 1
                continue
            if at_start and t in ("case", "default"):
                at_start = False
                in_label = True
                i += 1
                continue
            if at_start and t == "final":
                i += 1
                continue
            if at_start and (t == "this" or t in PRIMITIVES or _is_name(t)):
                end = None
                if t != "this":
                    end = self._try_declaration(body, i, method_id, params, locals_, attrs)
                if end is None:
                    end = self._try_assignment(body, i, params, locals_, attrs)
                if end is not None:
                    i = end
                    continue
            at_start = False
            i += 1

    def _try_declaration(self, body, i, method_id, params, locals_, attrs):
        ref = _parse_type_ref(body, i)
        if ref is None:
            return None
        j, outer, args = ref
        n = len(body)
        if j + 1 >= n or not _is_name(body[j]):
            return None
        if body[j + 1] not in ("=", ";", ",", ":") and not _sole_parameter(body, i, j):
            return None
        while True:
            name = body[j]
            vid = self.b.add_entity(EntityKind.VARIABLE, name, method_id, self.file)
            self.b.typed.extend((vid, t) for t in (outer, *args))
            locals_.add(name)
            j += 1
            if j < n and body[j] == "=":
                end = _expression_end(body, j + 1, (",", ";", ":"))
                self._record_assigns(name, body[j + 1 : end], attrs, params, locals_)
                j = end
            if j + 1 >= n or body[j] != ",":
                return j
            param = _typed_parameter(body, j + 1)
            if param is not None:
                j, outer, args = param
            elif _is_name(body[j + 1]):
                j += 1
            else:
                return j

    def _try_assignment(self, body, i, params, locals_, attrs):
        n = len(body)
        j = i + 2 if body[i] == "this" and i + 1 < n and body[i + 1] == "." else i
        name = None
        while j < n and _is_name(body[j]):
            name = body[j]
            j += 1
            if j < n and body[j] == "[":
                j = _skip_balanced(body, j, "[", "]")
            if j < n and body[j] == ".":
                j += 1
            else:
                break
        if name is None or j >= n or body[j] not in ASSIGN_OPS:
            return None
        end = _expression_end(body, j + 1, (";",))
        self._record_assigns(name, body[j + 1 : end], attrs, params, locals_)
        return end

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
        """Yield (name, form) for top-level reference chains in an expression.

        A chain is a name, or ``this .`` and a name, followed by calls and
        ``. name`` segments; its last name is yielded, classified as an
        invocation when a call ends the chain.
        """
        n = len(tokens)
        i = 0
        while i < n:
            t = tokens[i]
            if t in _OPENERS:  # names inside brackets are not top level
                i = _expression_end(tokens, i + 1, ()) + 1
                continue
            if t == "new":
                ref = _parse_type_ref(tokens, i + 1)
                if ref:
                    i, outer, _args = ref
                    yield outer, "invocation"
                else:
                    i += 1
                continue
            if t == "this" and i + 2 < n and tokens[i + 1] == "." and _is_name(tokens[i + 2]):
                i += 2
                dotted = True
            elif t != "__lit__" and _is_name(t):
                dotted = False
            else:
                i += 1
                continue
            name = tokens[i]
            has_call = False
            i += 1
            while i < n:
                if tokens[i] == "(":
                    has_call = True
                    i = _skip_balanced(tokens, i, "(", ")")
                if i + 1 < n and tokens[i] == "." and _is_name(tokens[i + 1]):
                    name = tokens[i + 1]
                    dotted = True
                    has_call = False  # chained call: classify by the tail
                    i += 2
                else:
                    break
            yield name, self._classify(
                name, dotted, has_call, attrs, params, locals_, allow_parameter
            )

    def _record_assigns(self, lhs, rhs_tokens, attrs, params, locals_):
        for name, form in self._top_level_names(
            rhs_tokens, attrs, params, locals_, allow_parameter=True
        ):
            self.b.assigns.append((lhs, name, form))

    def _scan_calls(self, body, method_id, method_name, params, locals_, attrs):
        n = len(body)
        for i, t in enumerate(body):
            if t == "new":
                ref = _parse_type_ref(body, i + 1)
                if ref and ref[0] < n and body[ref[0]] == "(":
                    j, outer, _args = ref
                    self._record_call(body, j, outer, params, locals_, attrs)
            elif i + 1 < n and body[i + 1] == "(" and t != "__lit__" and _is_name(t):
                if t != method_name:
                    self.b.invokes.append((method_id, t))
                self._record_call(body, i + 1, t, params, locals_, attrs)

    def _record_call(self, body, paren_at, callee, params, locals_, attrs):
        """Collect one call site's arguments for later passes resolution."""
        depth = 0
        j = paren_at
        args: list[list[str]] = [[]]
        while j < len(body):
            t = body[j]
            if t in _OPENERS:
                depth += 1
                if depth == 1:
                    j += 1
                    continue
            elif t in _CLOSERS:
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


def extract_facts(sources: dict[str, str]) -> CodeFacts:
    """Build fact tables from a mapping of file path to source text.

    Files that fail to parse are recorded in ``skipped`` and do not abort
    the extraction; they add nothing else to the facts.
    """
    builder = _Builder()
    for file in sorted(sources):
        mark = builder.mark()
        try:
            parser = _FileParser(file, tokenize(sources[file]), builder)
            parser.parse_unit()
        except Exception as exc:  # defensive: a bad file must not be fatal
            builder.rollback(mark)
            builder.skipped.append((file, str(exc)))
    return builder.finish()


def extract_facts_from_paths(paths, root: Path | None = None) -> CodeFacts:
    sources = {}
    for path in paths:
        path = Path(path)
        label = str(path.relative_to(root)) if root else str(path)
        sources[label] = path.read_text(encoding="utf-8", errors="replace")
    return extract_facts(sources)


def extract_facts_from_dir(directory, suffixes=(".java",)) -> CodeFacts:
    """Facts of the source files under ``directory`` with one of
    ``suffixes``; raises CorenameError when it is not a directory."""
    root = Path(directory)
    if not root.is_dir():
        raise CorenameError(f"{directory}: not a directory")
    paths = sorted(p for p in root.rglob("*") if p.suffix in suffixes and p.is_file())
    return extract_facts_from_paths(paths, root=root)
