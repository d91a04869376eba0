"""The package's JSON writer: indented, key-sorted text without the slow encoder.

Every JSON file evodemo writes (result bundles, reports, policy files) is
exactly ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.  With
``indent`` set, CPython's ``json`` runs its pure-Python encoder, one generator
step per token; ``dumps`` builds the same text by joining strings instead:

* a list of floats, or of rows of floats (trajectory states and actions), is
  one ``str.join`` over ``float.__repr__``, which is how ``json`` formats a
  float; the joined text is kept only if it holds no ``n``, so NaN and the
  infinities still print as ``NaN`` / ``Infinity``.  When the last object of
  such a list occurs earlier in it (a trajectory repeats the same reward,
  certainty and action objects from step to step), each distinct object is
  formatted once, told apart by identity, never by value, since
  ``0.0 == -0.0`` and ``nan != nan``.  A list of ints is one join over
  ``int.__repr__``;
* strings go through ``json.encoder.encode_basestring_ascii``;
* anything else (a dict with non-string keys, a type ``json`` rejects) goes to
  ``json.dumps`` itself, re-indented to its depth.  That is exact at any depth,
  since JSON text holds no raw newline inside a string, and it raises the same
  ``TypeError`` for what ``json`` cannot encode.
"""

from __future__ import annotations

import json
import operator
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable

# float.__repr__ text that json spells differently (json ignores a NaN's sign)
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_FLOATS = frozenset((float,))
_INTS = frozenset((int,))
_SEQUENCES = frozenset((list, tuple))


def dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, character for character."""
    return _encode(value, "\n")


def write_json(path: str | Path, payload) -> Path:
    """Write ``payload`` as indented, key-sorted JSON plus a final newline."""
    path = Path(path)
    path.write_text(dumps(payload) + "\n", encoding="utf-8")
    return path


def _encode(value, newline: str) -> str:
    """``value``'s text when it starts after ``newline`` (a newline and its indent)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + _items(value, inner) + newline + "]"
    if isinstance(value, dict) and all(type(key) is str for key in value):
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _encode(value[key], inner)
            for key in sorted(value)
        ]) + newline + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _items(values, inner: str) -> str:
    """The items of a non-empty list, each starting after ``inner``."""
    separator = "," + inner
    types = set(map(type, values))
    if types == _FLOATS:
        text = separator.join(_once(float.__repr__, values))
        if "n" not in text:
            return text
    elif types == _INTS:
        return separator.join(map(int.__repr__, values))
    elif types <= _SEQUENCES and all(values):
        # rows of floats: every row is one join, and the rows are joined again
        row_inner = inner + "  "
        row_separator = "," + row_inner

        def row_text(row) -> str:
            return "[" + row_inner + row_separator.join(map(float.__repr__, row)) + inner + "]"

        try:
            text = separator.join(_once(row_text, values))
        except TypeError:  # a row holds something other than floats
            pass
        else:
            if "n" not in text:
                return text
    return separator.join([_encode(v, inner) for v in values])


def _once(format, values) -> Iterable[str]:
    """``format`` of each of ``values``, called once per distinct object.

    Objects are told apart by identity, never by value: ``0.0 == -0.0``
    with equal hashes, and ``nan != nan``.  Every id is that of an object
    ``values`` holds, so none is reused while this runs.  The memo of texts
    by id is built only when the last object of ``values`` occurs earlier
    in it: the repeats a bundle holds are runs and loops that last to the
    end of an episode (a settled reach tail, a grid walk caught in a cycle,
    a constant certainty or reward), and on a list of distinct objects the
    memo only costs.
    """
    last = values[-1]
    if not any(map(operator.is_, values, repeat(last, len(values) - 1))):
        return map(format, values)
    distinct = dict(zip(map(id, values), values))
    texts = dict(zip(distinct, map(format, distinct.values())))
    return map(texts.__getitem__, map(id, values))
