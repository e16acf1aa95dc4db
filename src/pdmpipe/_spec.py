"""Typed ranges for the fields of the records, and the one builder of a
record from a document entry.

A field's annotation gives its type (``int``, ``float``, ``bool``,
``dict`` for a mapping of floats, or ``tuple`` for a list of names) and
``bounded`` its range, written as the README writes it: ``"[0, 1)"``,
``"(0, 1]"``, ``">= 1"`` or ``"> 0"``, or no range at all. Each record's
``__post_init__`` calls ``check_fields``, so direct construction, a loaded
configuration and a loaded knowledge base are converted and refused alike.

``record`` builds a record from one mapping of a document. Every error it
raises is an ``EntryError`` whose message starts with the entry's path,
nested entries joined by dots: ``missing.blanket[0]: minutes must be an
integer >= 1, got 0``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import MISSING, field, fields


class EntryError(ValueError):
    """A refused document entry; the message is ``path: reason``."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path, self.reason = path, reason


@contextmanager
def at(path: str):
    """Raise a ValueError, or a TypeError or AttributeError of a misshaped
    value, from the block as an ``EntryError`` at ``path``; the path of a
    nested ``EntryError`` is joined to it."""
    try:
        yield
    except EntryError as exc:
        raise EntryError(".".join(p for p in (path, exc.path) if p), exc.reason) from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise EntryError(path, str(exc)) from None


def record(cls, entry, where: str, **given):
    """The dataclass ``cls`` built from the mapping ``entry`` and the fields
    ``given``; an instance of ``cls`` comes back as it is. A non-mapping, a
    key that is not a field of ``cls`` or is given, a required field left
    out and a refused value raise an ``EntryError`` at ``where``."""
    if isinstance(entry, cls):
        return entry
    with at(where):
        own = [f for f in fields(cls) if f.name not in given]
        _shape(entry, [f.name for f in own],
               [f.name for f in own if f.default is MISSING and f.default_factory is MISSING])
        return cls(**entry, **given)


def records(cls, items, where: str, **given) -> tuple:
    """``record`` of each mapping in the list ``items``, the i-th at ``where[i]``."""
    if not isinstance(items, (list, tuple)):
        raise EntryError(where, f"must be a list of mappings, got {items!r}")
    return tuple(record(cls, item, f"{where}[{i}]", **given) for i, item in enumerate(items))


def _shape(entry, allowed, required=()) -> None:
    if not isinstance(entry, dict):
        raise ValueError(f"must be a mapping, got {entry!r}")
    unknown = sorted(set(entry) - set(allowed), key=str)
    if unknown:
        raise ValueError(f"unknown keys: {unknown}")
    lacking = [key for key in required if key not in entry]
    if lacking:
        raise ValueError(f"lacks required keys: {lacking}")


def bounded(span: str = None, default=MISSING, *, default_factory=MISSING):
    """A typed dataclass field whose value, or each of whose values, lies in
    ``span``; without a span any value of the type will do."""
    return field(default=default, default_factory=default_factory, metadata={"span": span})


def check_fields(record) -> None:
    """Set every ``bounded`` field of the frozen dataclass ``record`` to its
    converted value; a field whose default is None may stay None. A mapping
    field overrides only the keys it names of its default mapping, and
    refuses any other key."""
    for f in fields(record):
        value = getattr(record, f.name)
        if "span" not in f.metadata or (value is None and f.default is None):
            continue
        span = f.metadata["span"]
        kind = getattr(f.type, "__name__", f.type)  # a string under PEP 563
        if kind == "dict":
            defaults = f.default_factory()
            with at(f.name):
                _shape(value, defaults)
                value = {key: number(v, float, key, span)
                         for key, v in {**defaults, **value}.items()}
        elif kind == "tuple":
            value = names(value, f.name)
        elif kind == "bool":
            if not isinstance(value, bool):
                raise ValueError(f"{f.name} must be true or false, got {value!r}")
        else:
            value = number(value, int if kind == "int" else float, f.name, span)
        object.__setattr__(record, f.name, value)


def names(value, name: str) -> tuple:
    """``value``, a list of strings, as a tuple. A bare string or an item
    that is not a string raises a ``ValueError`` naming ``name``."""
    if not (isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{name} must be a list of names, got {value!r}")
    return tuple(value)


def number(value, kind, name: str, span: str = None):
    """``value`` converted by ``kind`` (``int`` or ``float``; 7.0 is taken as
    the integer 7). A bool, a non-integral integer, NaN, an infinity or a
    value outside ``span`` raises a ``ValueError`` naming ``name``."""
    try:
        converted = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if (converted is None
            or (kind is int and isinstance(value, float) and converted != value)
            or (kind is float and not math.isfinite(converted))
            or (span is not None and not _within(converted, span))):
        what = "an integer" if kind is int else "a number"
        shown = "" if span is None else f" in {span}" if span[0] in "[(" else f" {span}"
        raise ValueError(f"{name} must be {what}{shown}, got {value!r}")
    return converted


def _within(x, span: str) -> bool:
    if span[0] == ">":
        return x >= float(span[2:]) if span[1] == "=" else x > float(span[1:])
    low, high = (float(end) for end in span[1:-1].split(","))
    return (low <= x if span[0] == "[" else low < x) and \
        (x <= high if span[-1] == "]" else x < high)
