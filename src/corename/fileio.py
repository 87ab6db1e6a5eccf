"""Input reading, JSON input parsing and atomic file writing shared by the
loaders, report emitters and the CLI."""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import ParseError


def read_text(path) -> str:
    """The text of an input file, as ``open(path, encoding="utf-8")`` reads
    it; bytes that are not UTF-8 raise ParseError naming the file and line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError("not UTF-8 text", line=line, source=path) from None
    # universal newlines, as text mode reads them
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_lines(path) -> Iterator[str]:
    """The lines of an input file, read one by one as text mode reads them;
    bytes that are not UTF-8 raise ParseError as ``read_text`` does."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
            return
        except UnicodeDecodeError:
            pass
    read_text(path)  # raises, naming the line
    raise ParseError("not UTF-8 text", source=path)


def load_json(path):
    """The JSON value in an input file; invalid JSON raises ParseError
    naming the file and line, as ``read_text`` does for bytes, and JSON
    nested deeper than the decoder can recurse ``invalid JSON: nested too
    deeply`` or holding an integer longer than ``int`` converts ``invalid
    JSON: integer too long``, both naming the file."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, source=path
        ) from None
    except RecursionError:
        raise ParseError(_TOO_DEEP, source=path) from None
    except ValueError:  # the only other ValueError the decoder raises
        raise ParseError(_TOO_LONG, source=path) from None


_raw_decode = json.JSONDecoder().raw_decode
_BOM = "Unexpected UTF-8 BOM (decode using utf-8-sig)"  # json.loads's message
_TOO_DEEP = "invalid JSON: nested too deeply"
_TOO_LONG = "invalid JSON: integer too long"


def jsonl_objects(lines: Iterable[str], keys: set[str], what: str, source=None):
    """The 1-based number and the JSON object of each non-blank line.  A line
    of invalid JSON, of a value that is not an object, or of an object
    without all of ``keys`` raises ParseError naming ``source`` and the line:
    ``invalid JSON: ...`` (``invalid JSON: nested too deeply`` for nesting
    deeper than the decoder can recurse, ``invalid JSON: integer too long``
    for an integer longer than ``int`` converts), ``<what> is not an
    object`` or ``missing keys: a, b``.  The values are left to the
    caller's field rules."""
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        # json.loads on the line, with its messages: the line has no
        # surrounding whitespace, and a leading byte-order mark is named
        try:
            obj, end = _raw_decode(line)
        except json.JSONDecodeError as exc:
            message = _BOM if line[0] == "\ufeff" else exc.msg
            raise ParseError(f"invalid JSON: {message}", line=number, source=source) from None
        except RecursionError:
            raise ParseError(_TOO_DEEP, line=number, source=source) from None
        except ValueError:
            raise ParseError(_TOO_LONG, line=number, source=source) from None
        if end != len(line):
            raise ParseError("invalid JSON: Extra data", line=number, source=source)
        if not isinstance(obj, dict):
            raise ParseError(f"{what} is not an object", line=number, source=source)
        if not obj.keys() >= keys:
            message = f"missing keys: {', '.join(sorted(keys - obj.keys()))}"
            raise ParseError(message, line=number, source=source)
        yield number, obj


def load_document(path, build: Callable, what: str):
    """``build`` applied to the JSON object in an input file.  A ParseError
    from ``build`` is raised again naming the file; a KeyError becomes
    ``not a <what>: missing key 'k'``, and an AttributeError, OverflowError,
    TypeError or ValueError ``not a <what>: <its message>``, both naming the
    file.  A file of any other JSON value is ``not a <what>: the document
    is not a JSON object``."""
    data = load_json(path)
    try:
        return build(json_container(data, dict, "the document"))
    except ParseError as exc:
        raise ParseError(str(exc), source=path) from None
    except KeyError as exc:
        raise ParseError(f"not a {what}: missing key {exc}", source=path) from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"not a {what}: {exc}", source=path) from None


def echo(value, render: Callable = repr) -> str:
    """``render(value)``, a wrong value as a diagnostic shows it: whole up to
    500 characters, else its first 500 and ``...``.  The limit keeps whole
    the 309 digits and more of an integer no float can hold."""
    text = render(value)
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


_ECHO_LIMIT = 500


def json_number(value, name: str):
    """``value`` if it is a finite JSON number a float can hold, so not a
    boolean or a string of digits; TypeError ``<name> is not a number:
    <value>``, for a larger int OverflowError ``<name> is not a number a
    float can hold: <value>``, and for ``NaN`` or an infinity (``1e400``
    reads as one) ValueError ``<name> is not a finite number: inf``
    otherwise.  The value is shown through ``echo``."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} is not a number: {echo(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise OverflowError(
            f"{name} is not a number a float can hold: {echo(value)}"
        ) from None
    if not finite:
        raise ValueError(f"{name} is not a finite number: {value!r}")
    return value


def json_container(value, kind: type, name: str):
    """``value`` if it is a JSON object (``kind`` dict) or array (``kind``
    list); TypeError ``<name> is not a JSON object`` (or array) otherwise."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} is not a JSON {'object' if kind is dict else 'array'}")
    return value


def atomic_write(path, content: str | Callable) -> Path:
    """Write text to ``path`` via a temp file and rename.  ``content`` is the
    text, or a function that writes it to the open temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
