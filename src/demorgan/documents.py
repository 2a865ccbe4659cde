"""The shapes of raw site and frame documents.

A document is a mapping of named fields, as read from JSON.  Each kind
of document has one table of the fields it may carry and the shape each
must have; ``check_document`` is the one check against those tables.
The library entry points that read raw documents
(``fincat.validate_category``, ``heyting.from_poset``) and the command
line both use it, so a malformed document ends in an ``InputError``
instead of a ``KeyError`` or a silent misreading.
"""

from __future__ import annotations

from typing import Mapping

from .errors import DanglingReference, NotAPartialOrder


def _names(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(v, str) for v in value
    )


def _records(*fields):
    return lambda value: isinstance(value, (list, tuple)) and all(
        isinstance(entry, Mapping)
        and all(isinstance(entry.get(f), str) for f in fields)
        for entry in value
    )


def _pairs(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        _names(pair) and len(pair) == 2 for pair in value
    )


def _covers(value) -> bool:
    return isinstance(value, Mapping) and all(
        isinstance(gen_lists, (list, tuple)) and all(map(_names, gen_lists))
        for gen_lists in value.values()
    )


# Per kind: the error class raised, and each field's shape with how to
# describe it.
_KINDS = {
    "site": (DanglingReference, {
        "objects": (_names, "a list of names"),
        "arrows": (
            _records("name", "dom", "cod"),
            "a list of {name, dom, cod} records",
        ),
        "compose": (
            _records("first", "then", "equals"),
            "a list of {first, then, equals} records",
        ),
        "covers": (
            _covers, "a mapping from objects to lists of generator lists"
        ),
    }),
    "frame": (NotAPartialOrder, {
        "elements": (_names, "a list of names"),
        "leq": (_pairs, "a list of [lower, upper] pairs"),
    }),
}


def check_document(data, kind: str, required=()) -> None:
    """Refuse ``data`` unless it is a mapping holding every ``required``
    field and every field of ``kind`` ("site" or "frame") it holds has
    that field's shape.  Site documents are refused with
    ``DanglingReference``, frame documents with ``NotAPartialOrder``."""
    exc, fields = _KINDS[kind]
    if not isinstance(data, Mapping):
        raise exc(f"not a {kind} document (not a mapping)")
    for name in required:
        if name not in data:
            raise exc(f"not a {kind} document (no {name!r})")
    for name, (ok, expected) in fields.items():
        if name in data and not ok(data[name]):
            raise exc(f"{name!r} must be {expected}")
