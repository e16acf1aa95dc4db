"""Typed ranges for the numeric fields of the parameter records.

A field's annotation gives its type (``int``, ``float``, or ``dict`` for a
mapping of floats) and ``bounded`` its range, written as the README writes
it: ``"[0, 1)"``, ``"(0, 1]"``, ``">= 1"`` or ``"> 0"``. Each record's
``__post_init__`` calls ``check_fields``, so direct construction and a
loaded configuration are converted and refused alike.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields


def bounded(span: str, default=MISSING, *, default_factory=MISSING):
    """A dataclass field whose value, or each of whose values, lies in ``span``."""
    return field(default=default, default_factory=default_factory, metadata={"span": span})


def check_fields(record) -> None:
    """Set every ``bounded`` field of the frozen dataclass ``record`` to its
    converted value; a field whose default is None may stay None."""
    for f in fields(record):
        span = f.metadata.get("span")
        value = getattr(record, f.name)
        if span is None or (value is None and f.default is None):
            continue
        kind = getattr(f.type, "__name__", f.type)  # a string under PEP 563
        if kind == "dict":
            value = {key: number(v, float, f"{f.name} {key!r}", span)
                     for key, v in value.items()}
        else:
            value = number(value, int if kind == "int" else float, f.name, span)
        object.__setattr__(record, f.name, value)


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
