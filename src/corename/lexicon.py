"""Identifier splitting and inflection-folding.

An identifier is split into words by one regular expression, applied to
the whole name: a word is an acronym run that ends before a capitalized
word (``HTTP`` in ``HTTPServer``), a lowercase run with any capitals before
it, a capital run, or a digit run.  Underscores match none of these, so
they only separate words.  Each word is case-folded and, in ``lemma`` mode,
reduced to a base form so that ``nodes``/``node`` or ``queries``/``query``
compare equal.  The lemmatizer stays within a part of speech: ``creator``
never becomes ``create``.

Words are immutable and interned by a ``Vocabulary``: one ``Word`` per
distinct surface, and one lemma-mode ``Word`` per surface, so a pass over
many names folds, classifies and lemmatizes each distinct word once.  A
lemma-mode sequence is derived from the raw one without splitting again.
"""

from __future__ import annotations

import re
from importlib import resources
from typing import NamedTuple

from .errors import InvalidIdentifier, ParseError
from .fileio import read_lines

CASING_LOWER = "lower"
CASING_CAPITALIZED = "Capitalized"
CASING_ALLCAPS = "ALLCAPS"
CASING_MIXED = "mixed"

_IDENTIFIER_RE = re.compile(r"[A-Za-z0-9_]+\Z")
# An acronym run before a capitalized word, a word with a lowercase tail,
# a capital run, a digit run.
_WORD_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]*[a-z]+|[A-Z]+|[0-9]+")

MODES = ("raw", "lemma")


def casing_of(surface: str) -> str:
    """Classify the casing pattern of one word from its characters alone."""
    letters = [c for c in surface if c.isalpha()]
    if not letters or all(c.islower() for c in letters):
        return CASING_LOWER
    if surface[0].isupper() and all(c.islower() for c in letters[1:]):
        return CASING_CAPITALIZED
    if all(c.isupper() for c in letters):
        return CASING_ALLCAPS
    return CASING_MIXED


def re_case(word: str, casing: str) -> str:
    """Render a lowercase word in the given casing pattern.

    ``mixed`` has no reproducible pattern, so the word is returned as-is.
    """
    if casing == CASING_CAPITALIZED:
        return word[:1].upper() + word[1:]
    if casing == CASING_ALLCAPS:
        return word.upper()
    return word


class Word(NamedTuple):
    """One word of an identifier.

    ``folded`` is always ``surface.lower()``; ``lemma`` equals ``folded``
    until a lemmatizing normalization replaces it.
    """

    surface: str
    folded: str
    lemma: str
    casing: str


class WordSequence(NamedTuple):
    """The words of one identifier, in order, plus the raw identifier.

    ``len`` counts the words.  ``_replace`` checks a copy's length against
    the field count, so a changed sequence is built with the constructor.
    """

    origin: str
    words: tuple[Word, ...]

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(w.surface for w in self.words)

    @property
    def folded(self) -> tuple[str, ...]:
        return tuple(w.folded for w in self.words)

    @property
    def lemmas(self) -> tuple[str, ...]:
        return tuple(w.lemma for w in self.words)

    def __len__(self) -> int:
        return len(self.words)


def split_identifier(name: str) -> WordSequence:
    """Split a raw identifier into its word sequence.

    >>> split_identifier("dataProviderId").surfaces
    ('data', 'Provider', 'Id')
    >>> split_identifier("getDisabledMetricTypes").folded
    ('get', 'disabled', 'metric', 'types')
    >>> split_identifier("TIMES").folded
    ('times',)
    >>> split_identifier("HTTPServer").surfaces
    ('HTTP', 'Server')

    Raises InvalidIdentifier for empty, all-underscore, or non
    letter/digit/underscore input.
    """
    return Vocabulary().split(name)


# Stems left by -ed/-ing stripping that need their silent 'e' back.
_RESTORE_E = frozenset(
    """
    cach captur chang cod com combin compar compil compos configur creat
    declar decod decreas deriv describ deserializ disabl divid emul enabl
    encod enforc ensur escap evaluat execut exclud expos generat giv handl
    improv increas iterat includ invok mak manag measur merg migrat mov nam
    not observ pars phras pip plac prepar produc promot prov provid quot
    reduc refin renam replac requir resolv restor retriev revers revok
    rewrit rotat sampl sav scal schedul scop serializ serv shap shar slic
    squar stag stor styl templat terminat trac translat truncat tun typ
    updat upgrad us utiliz validat valu wir writ
    """.split()
)

_UNDOUBLE = frozenset("bdgkmnprtv")


def _undouble(word: str) -> str:
    """Drop a doubled final consonant left by -ed/-ing stripping.

    Letters that legitimately end words doubled (ss, ll, ff, zz, ee, oo)
    are kept; the result is never shortened below three characters.
    """
    if len(word) >= 4 and word[-1] == word[-2] and word[-1] in _UNDOUBLE:
        return word[:-1]
    return word


def _restore_e(word: str) -> str:
    if word in _RESTORE_E:
        return word + "e"
    # -se verbs (close, parse, use, ...) lose their 'e' with the suffix.
    if word.endswith("s") and not word.endswith("ss"):
        return word + "e"
    return word


class Lemmatizer:
    """Exception-table-first, suffix-rule lemmatizer for identifier words.

    The rules only undo within-part-of-speech inflection (plural
    number, verb tense); derivations like creator -> create are out of
    scope and such words pass through unchanged.
    """

    def __init__(self, exceptions: dict[str, str]):
        self.exceptions = dict(exceptions)

    @classmethod
    def from_file(cls, path) -> "Lemmatizer":
        exceptions: dict[str, str] = {}
        cls._parse_table(read_lines(path), exceptions, path)
        return cls(exceptions)

    @classmethod
    def bundled(cls) -> "Lemmatizer":
        exceptions: dict[str, str] = {}
        text = (
            resources.files("corename")
            .joinpath("data/irregular_forms.txt")
            .read_text(encoding="utf-8")
        )
        cls._parse_table(text.splitlines(), exceptions, "irregular_forms.txt")
        return cls(exceptions)

    @staticmethod
    def _parse_table(lines, exceptions: dict[str, str], source) -> None:
        for number, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            columns = line.split()
            if len(columns) != 2:
                raise ParseError(
                    f"expected 'inflected lemma', got {len(columns)} columns",
                    line=number,
                    source=source,
                )
            inflected, lemma = columns
            exceptions[inflected] = lemma

    def __call__(self, word: str) -> str:
        if not word.isalpha():
            return word
        hit = self.exceptions.get(word)
        if hit is not None:
            return hit
        return self._suffix_rules(word)

    @staticmethod
    def _suffix_rules(w: str) -> str:
        if w.endswith("ies") and len(w) >= 4:
            return w[:-3] + "y"
        if w.endswith("sses") and len(w) >= 5:
            return w[:-2]
        if w.endswith("xes") and len(w) >= 4:
            return w[:-2]
        if (w.endswith("ches") or w.endswith("shes")) and len(w) >= 5:
            return w[:-2]
        if (
            w.endswith("s")
            and len(w) >= 3
            and not w.endswith(("ss", "us", "is"))
        ):
            return w[:-1]
        if w.endswith("ied") and len(w) >= 5:
            return w[:-3] + "y"
        if w.endswith("ed") and len(w) >= 5 and not w.endswith("eed"):
            return _restore_e(_undouble(w[:-2]))
        if w.endswith("ing") and len(w) >= 5:
            return _restore_e(_undouble(w[:-3]))
        return w


_DEFAULT_LEMMATIZER: Lemmatizer | None = None


def default_lemmatizer() -> Lemmatizer:
    global _DEFAULT_LEMMATIZER
    if _DEFAULT_LEMMATIZER is None:
        _DEFAULT_LEMMATIZER = Lemmatizer.bundled()
    return _DEFAULT_LEMMATIZER


def lemmatize_word(folded: str, lemmatizer: Lemmatizer | None = None) -> str:
    """Lemmatize one lowercase word.

    >>> lemmatize_word("queries")
    'query'
    >>> lemmatize_word("creator")
    'creator'
    >>> lemmatize_word("nodes")
    'node'
    """
    return (lemmatizer or default_lemmatizer())(folded)


def pluralize(lemma: str) -> str:
    """Form a regular plural; the inverse of the stripping suffix rules."""
    if not lemma.isalpha():
        return lemma
    if lemma.endswith("y") and len(lemma) >= 2 and lemma[-2] not in "aeiou":
        return lemma[:-1] + "ies"
    if lemma.endswith(("s", "x", "z", "ch", "sh")):
        return lemma + "es"
    return lemma + "s"


class _Interned(dict):
    """A dict that makes the value of a missing key once, with ``make``."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _raw_word(surface: str) -> Word:
    folded = surface.lower()
    return Word(surface, folded, folded, casing_of(surface))


def _lemma_word(word: Word, lemmatizer: Lemmatizer | None) -> Word:
    lemma = (lemmatizer or default_lemmatizer())(word.folded)
    if lemma == word.folded:
        return word
    return Word(word.surface, word.folded, lemma, word.casing)


class Vocabulary:
    """The words of one pass over many names, each made once.

    Holds one raw ``Word`` per distinct surface and one lemma-mode
    ``Word`` per distinct surface, the latter lemmatized with
    ``lemmatizer`` (the bundled one by default).  Its tables grow only
    with the distinct words it sees, and live as long as it does.
    """

    def __init__(self, lemmatizer: Lemmatizer | None = None):
        raw = self._raw = _Interned(_raw_word)
        # no reference back to self, so a vocabulary is freed as soon as
        # its last user drops it, not at the next full garbage collection
        self._lemma = _Interned(lambda surface: _lemma_word(raw[surface], lemmatizer))

    def split(self, name: str) -> WordSequence:
        """The raw word sequence of ``name``; see ``split_identifier``."""
        if not _IDENTIFIER_RE.match(name):
            raise InvalidIdentifier(f"not a valid identifier: {name!r}")
        words = tuple(map(self._raw.__getitem__, _WORD_RE.findall(name)))
        if not words:
            raise InvalidIdentifier(f"identifier has no words: {name!r}")
        return WordSequence(name, words)

    def lemmatized(self, seq: WordSequence) -> WordSequence:
        """The lemma-mode sequence of a raw sequence from ``split``; the
        same object when no word changes."""
        words = tuple(map(self._lemma.__getitem__, seq.surfaces))
        return seq if words == seq.words else WordSequence(seq.origin, words)

    def normalize(self, name: str, mode: str = "lemma") -> WordSequence:
        """The word sequence of ``name`` in ``mode``; see ``normalize``."""
        if mode not in MODES:
            raise ValueError(f"unknown mode: {mode!r}")
        seq = self.split(name)
        return seq if mode == "raw" else self.lemmatized(seq)


def normalize(
    name: str,
    mode: str = "lemma",
    lemmatizer: Lemmatizer | None = None,
) -> WordSequence:
    """Split and case-fold an identifier; lemmatize in ``lemma`` mode."""
    return Vocabulary(lemmatizer).normalize(name, mode)
