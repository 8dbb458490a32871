"""Exception taxonomy shared across the toolkit, the one check of a field's
type that every settings dataclass runs, and how a message shows a value.

The CLI maps these onto exit codes: ConfigError -> 2, input/data errors
(SchemaError, ValidationError, SizingError, DomainError, ShapeError), a
failed allocation (MemoryError) and a dead worker process (WorkerError) -> 3,
TrainingError -> 4.
"""
from __future__ import annotations

import functools
import sys
import typing
from dataclasses import fields


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ToolkitError):
    """Run configuration is invalid; raised before any data is read."""


class SchemaError(ToolkitError):
    """An input file does not have the expected column layout."""


class ValidationError(ToolkitError):
    """Input rows violate a data invariant (ordering, duplicates, OHLC bounds)."""


class SizingError(ToolkitError):
    """Input is too small for the requested operation."""


class DomainError(ToolkitError):
    """A value lies outside an operation's mathematical domain."""


class ShapeError(ToolkitError):
    """Array dimensions are inconsistent with each other."""


class WorkerError(ToolkitError):
    """A worker process died before returning its part of a result."""


class TrainingError(ToolkitError):
    """Numeric failure during model training (divergence, non-finite loss)."""


# The values a field annotated ``int``, ``float`` or ``bool`` admits: the JSON
# values of that kind, so a bool is neither an integer nor a number.
_KINDS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
}

_type_hints = functools.cache(typing.get_type_hints)


def shown(value, limit: int = 40) -> str:
    """``repr(value)`` for an error message: cut to its first ``limit``
    characters, with its length, when longer, so a huge value cannot flood
    the line."""
    try:
        text = repr(value)
    except ValueError:  # an integer past Python's digit limit for str()
        return f"an integer of {value.bit_length()} bits"
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def check_field_kinds(obj, names=None) -> None:
    """Raise DomainError unless each field of dataclass ``obj`` annotated ``int``,
    ``float`` or ``bool`` holds a value of that kind, and each ``float`` field is
    finite: at most the largest float in magnitude, which an ``int`` such as
    ``10**400`` can exceed. ``names`` maps a field to the name the message gives it."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        if hints[f.name] not in _KINDS:
            continue
        what, admits = _KINDS[hints[f.name]]
        name = (names or {}).get(f.name, f.name)
        value = getattr(obj, f.name)
        if not admits(value):
            raise DomainError(f"{name} must be {what}, got {shown(value)}")
        if hints[f.name] is float and not abs(value) <= sys.float_info.max:
            raise DomainError(f"{name} must be finite, got {shown(value)}")
