"""JSON value kinds, the checks that ``rts run`` and ``rts report`` share, and the one output writer.

A kind checks one JSON value found at a dotted path and returns it
normalized, or raises ``_Invalid`` at that path. A schema maps each key to
``(kind, default)``, where a dict kind is a section of keys and ``REQUIRED``
marks a key that must be given; ``_walk`` checks an object against one. The
CLI's config schema and the report's record schema are built from these
kinds; ``_write`` writes every output file of the CLI. This module loads the
standard library and ``rts.errors`` only: the report never loads the solver.
"""

from __future__ import annotations

import json
import math
import os
import reprlib

from .errors import ConfigError, RtsError


class _Invalid(ConfigError):
    """A config error at a dotted path: ``_Invalid(path, message)``."""

    def __str__(self) -> str:
        return "config error at '{}': {}".format(*self.args)


def _got(value) -> str:
    try:
        return "a boolean" if isinstance(value, bool) else reprlib.repr(value)
    except ValueError:  # holds an integer past Python's digit limit
        return type(value).__name__


def _instance(types, description: str):
    def check(value, path: str):
        if not isinstance(value, types):
            raise _Invalid(path, f"expected {description}, got {_got(value)}")
        return value

    return check


_boolean = _instance(bool, "a boolean")
_string = _instance(str, "a string")
_list = _instance(list, "a list")
_object = _instance(dict, "an object")


def _integer(low: int | None = None, high: int | None = None):
    def check(value, path: str) -> int:
        # bool is an int subclass; it is never an integer here
        if isinstance(value, bool) or not isinstance(value, int):
            raise _Invalid(path, f"expected an integer, got {_got(value)}")
        if (low is not None and value < low) or (high is not None and value > high):
            raise _Invalid(path, f"must be >= {low}" if high is None else f"must lie in [{low}, {high}]")
        return value

    return check


def _number(value, path: str) -> float:
    """A finite JSON number as a float; integers too large for a float count as infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Invalid(path, f"expected a number, got {_got(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _Invalid(path, "must be a finite number")
    return number


def _fraction(value, path: str) -> float:
    if not 0.0 <= (number := _number(value, path)) <= 1.0:
        raise _Invalid(path, "must lie in [0, 1]")
    return number


def _numbers(value, path: str) -> list[float]:
    return [_number(item, f"{path}[{i}]") for i, item in enumerate(_list(value, path))]


def _matrix(value, path: str) -> list[list[float]]:
    """A list of number lists, each as long as the first."""
    rows = [_numbers(row, f"{path}[{i}]") for i, row in enumerate(_list(value, path))]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise _Invalid(f"{path}[{i}]", f"has {len(row)} coordinates, row 0 has {len(rows[0])}")
    return rows


def _choice(*options: str):
    def check(value, path: str) -> str:
        if not isinstance(value, str) or value not in options:
            raise _Invalid(path, f"must be one of {sorted(options)}, got {_got(value)}")
        return value

    return check


def _nullable(kind):
    return lambda value, path: None if value is None else kind(value, path)


REQUIRED = object()  # default of a key that must be given


class _Tagged(dict):
    """Alternative sections, one per value of their ``kind`` key."""


def _tagged(**variants: dict) -> _Tagged:
    tag = (_choice(*variants), REQUIRED)
    return _Tagged({name: {"kind": tag, **section} for name, section in variants.items()})


def _walk(schema: dict, raw, path: str) -> dict:
    """Check an object against a section of the schema; return it with defaults applied."""
    section = _object(raw, path or "<root>")
    for key in section:
        if key not in schema:
            raise _Invalid(f"{path}.{key}" if path else key, "unknown key")
    checked = {}
    for key, (kind, default) in schema.items():
        at = f"{path}.{key}" if path else key
        value = section.get(key, default)
        if value is REQUIRED:
            raise _Invalid(at, "required key is missing")
        if isinstance(kind, _Tagged):  # the variant that the value's kind names
            kind = kind[_choice(*kind)(_object(value, at).get("kind"), f"{at}.kind")]
        checked[key] = _walk(kind, value, at) if isinstance(kind, dict) else kind(value, at)
    return checked


def _json(text: str, where: str | None = None):
    """Parse JSON text; text that is not JSON raises a ConfigError naming ``where`` or, without it, is a bare string."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, an integer past Python's digit limit, or nested too deep
        if where is None:
            return text
        raise ConfigError(f"{where} is not valid JSON: {exc}") from exc


def _refuse_overwrite(out: str, source: str, what: str) -> None:
    """Refuse an output path that names the input file ``source`` itself."""
    if os.path.exists(out) and os.path.samefile(out, source):
        raise ConfigError(f"'{out}' would overwrite the {what}; choose another --out")


def _write(path: str, text: str, what: str, mode: str = "w") -> None:
    """Write ``text`` to ``path`` as it is; a failing open, write or close raises ``RtsError`` naming ``what``."""
    try:
        with open(path, mode, encoding="utf-8", newline="") as sink:
            sink.write(text)
    except OSError as exc:
        raise RtsError(f"cannot write {what} '{path}': {exc}") from exc
