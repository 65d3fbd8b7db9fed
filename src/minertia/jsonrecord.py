"""One strict JSON codec for the report dataclasses.

:func:`json_record` derives ``to_json`` and ``from_json`` from a frozen
dataclass's fields and their types.  ``from_json`` accepts exactly what
``to_json`` writes: integers are JSON integers (never bools or floats),
bools are JSON booleans, rationals are ``"p/q"`` strings, and a document
that is not an object, lacks a key whose field has no default, or holds a
value of the wrong type raises ``ValueError`` naming the key.  Unknown
keys are ignored.

Supported field types: ``int``, ``bool``, ``str``, ``Fraction``, ``Enum``
subclasses (by value), ``Optional[T]``, ``Tuple[T, ...]`` (a JSON list),
``Dict[int, int]`` (keys as sorted decimal strings) and any class with its
own ``to_json``/``from_json``.
"""

from __future__ import annotations

import dataclasses
import enum
import re
import typing
from fractions import Fraction

from .exactnum import format_rational, parse_rational

_DECIMAL = re.compile(r"-?(?:0|[1-9][0-9]*)")


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (an ``int``, not a ``bool``)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a boolean, got {value!r}")
    return value


def json_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _rational(value, what: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _int_key(key: str, what: str) -> int:
    if not _DECIMAL.fullmatch(key):
        raise ValueError(f"{what} keys must be decimal integers, got {key!r}")
    return int(key)


def _codec(tp):
    """(write, read) for one field type; ``write`` is None for values
    that JSON holds as they are, ``read(value, what)`` checks and builds."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is bool:
        return None, json_bool
    if tp is int:
        return None, json_int
    if tp is str:
        return None, json_str
    if tp is Fraction:
        return format_rational, _rational
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        write, read = _codec(args[0] if args[1] is type(None) else args[1])
        return (
            None if write is None else (lambda v: None if v is None else write(v)),
            lambda v, what: None if v is None else read(v, what),
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        write, read = _codec(args[0])

        def read_tuple(v, what):
            items = json_list(v, what)
            return tuple(read(x, f"{what}[{k}]") for k, x in enumerate(items))

        return (list if write is None else lambda v: [write(x) for x in v]), read_tuple
    if origin is dict and args == (int, int):

        def read_counts(v, what):
            items = json_object(v, what).items()
            return {_int_key(k, what): json_int(n, f"{what}[{k!r}]") for k, n in items}

        return (lambda v: {str(k): n for k, n in sorted(v.items())}), read_counts
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        values = {m.value: m for m in tp}

        def read_enum(v, what):
            if not isinstance(v, str) or v not in values:
                raise ValueError(f"{what} must be one of {sorted(values)}, got {v!r}")
            return values[v]

        return (lambda v: v.value), read_enum
    if hasattr(tp, "to_json") and hasattr(tp, "from_json"):
        return (lambda v: v.to_json()), (lambda v, what: tp.from_json(v))
    raise TypeError(f"no JSON codec for field type {tp!r}")


def json_record(cls=None, *, keys=(), derived=(), custom=(), check=None):
    """Class decorator: install ``to_json``/``from_json`` on a frozen
    dataclass, with the field plan computed once, here.

    ``keys`` maps a field name to its JSON key when they differ.
    ``derived`` names properties written after the fields and ignored on
    reading.  ``custom`` maps a field name to ``(write(value),
    read(value, doc))`` for a field whose JSON shape depends on the rest
    of the document.  ``check(record)`` vets each record ``from_json``
    reads and returns what is wrong with it, or None: a load-only step for
    a check too costly for the constructor (cheap ones go in
    ``__post_init__``)."""

    def install(cls):
        keys_, custom_ = dict(keys), dict(custom)
        hints = typing.get_type_hints(cls)
        plan = []  # (field, key, write, read, default, what); what None: read(value, doc)
        for f in dataclasses.fields(cls):
            key = keys_.get(f.name, f.name)
            write, read = custom_[f.name] if f.name in custom_ else _codec(hints[f.name])
            what = None if f.name in custom_ else f"{cls.__name__} {key!r}"
            plan.append((f.name, key, write, read, f.default, what))
        plan = tuple(plan)
        derived_ = tuple(derived)

        def to_json(self) -> dict:
            doc = {}
            for name, key, write, _, _, _ in plan:
                value = getattr(self, name)
                doc[key] = value if write is None else write(value)
            for name in derived_:
                doc[name] = getattr(self, name)
            return doc

        def from_json(klass, obj):
            json_object(obj, cls.__name__)
            kwargs = {}
            for name, key, _, read, default, what in plan:
                value = obj.get(key, dataclasses.MISSING)
                if value is dataclasses.MISSING:
                    if default is dataclasses.MISSING:
                        raise ValueError(f"{cls.__name__} JSON lacks the key {key!r}")
                    kwargs[name] = default
                else:
                    kwargs[name] = read(value, obj if what is None else what)
            record = klass(**kwargs)
            if check and (fault := check(record)):
                raise ValueError(f"{cls.__name__} JSON is inconsistent: {fault}")
            return record

        to_json.__qualname__ = f"{cls.__qualname__}.to_json"
        from_json.__qualname__ = f"{cls.__qualname__}.from_json"
        cls.to_json = to_json
        cls.from_json = classmethod(from_json)
        return cls

    return install if cls is None else install(cls)
