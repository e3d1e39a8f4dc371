"""The input boundary: the one place a data file is read and decoded.

`load` runs a module's builder on the decoded top-level object.  Builders
type-check every field a command reads and raise KeyError, TypeError or
ValueError on what they refuse; `load` reports those, and any failure to
read or decode the file, as one InputError naming the file.  A builder
passes a value to a constructor through `made`, which prefixes a ValueError
the constructor raises with the value's dotted path.
"""

import json
import os
from typing import Callable, Optional, TypeVar

T = TypeVar("T")
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               bool: "true or false"}
_REQUIRED = object()
# the bundled data files sit beside this module: found through `os.path`, so
# a command loads no `importlib.resources`, `pathlib`, `tempfile` or `shutil`
_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class InputError(Exception):
    """A data file or flag value the program refuses (exit status 2)."""


class FieldError(ValueError):
    """A ValueError about one part of a constructor's input, named by its
    dotted path `field` relative to that input (`boundaries.1`)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def typed(value, kind: type, where: str, of=None):
    """`value` if it has the JSON type `kind` (a bool is no int) and, given `of`,
    items of that type; else a TypeError naming `where` or the item's dotted path."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        found = "null" if value is None else _JSON_TYPES.get(type(value), "a number")
        raise TypeError(f"{where} must be {_JSON_TYPES[kind]}, not {found}")
    if of is not None:
        for name, item in value.items() if kind is dict else enumerate(value):
            typed(item, of, f"{where}.{name}")
    return value


def get(obj: dict, key: str, kind: type, where: str = "", default=_REQUIRED, of=None):
    """Field `key` of `obj`, typed as by `typed`; errors name its dotted path.
    A missing field is `default` if given."""
    path = f"{where}.{key}" if where else key
    if key not in obj:
        if default is _REQUIRED:
            raise KeyError(path)
        return default
    return typed(obj[key], kind, path, of)


def pair(value, where: str, of=None) -> list:
    """`value` if it is an array of two items, typed as by `typed`."""
    if len(typed(value, list, where, of)) != 2:
        raise ValueError(f"{where} must be a pair")
    return value


def made(where: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, with a ValueError it raises prefixed by the
    dotted path of the value refused: `where`, extended by a FieldError's field."""
    try:
        return make(*args, **kwargs)
    except FieldError as exc:
        raise ValueError(f"{where}.{exc.field}: {exc.message}") from exc
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def load(name: str, path: Optional[str], build: Callable[[dict], T]) -> T:
    """Build from the file at `path`, or from the bundled data file `name`."""
    source = name if path is None else path
    try:
        with open(os.path.join(_DATA, name) if path is None else path, encoding="utf-8") as file:
            text = file.read()
        try:
            raw = json.loads(text)
        except RecursionError:
            # only the decoder's; one a builder raises is a program fault
            raise InputError(f"{source}: nested too deeply to decode") from None
        return build(typed(raw, dict, "the top level"))
    except KeyError as exc:
        raise InputError(f"{source}: missing field {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise InputError(f"{source}: {getattr(exc, 'strerror', None) or exc}") from exc
