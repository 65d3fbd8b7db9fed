"""Frozen report records and one strict JSON codec for them.

:func:`record` makes a class a frozen value class: its annotations are
its fields, in order, and class attributes give their defaults.  The
class gets ``__init__`` (positional or keyword arguments, then
``__post_init__`` if the class defines one), ``__eq__`` and ``__hash__``
over the fields, a ``__repr__`` like ``Inertia(n_plus=1, n_minus=4,
n_zero=0)``, and assigning or deleting an attribute raises
``AttributeError``.

:func:`json_record` does that and derives ``to_json`` and ``from_json``
from the fields and their types.  ``from_json`` accepts exactly what
``to_json`` writes: integers are JSON integers (never bools or floats),
bools are JSON booleans, rationals are ``"p/q"`` strings, and a document
that is not an object, lacks a key whose field has no default, or holds a
value of the wrong type raises ``ValueError`` naming the key.  So does one
that lacks a derived key (a property written after the fields) or holds
another value there than the fields derive, by JSON type or by value:
``true`` is not ``1``.  Unknown keys are ignored.

Supported field types: ``int``, ``bool``, ``str``, ``Fraction``, ``Enum``
subclasses (by value), ``Optional[T]``, ``Tuple[T, ...]`` (a JSON list),
``Dict[int, int]`` (keys as sorted decimal strings) and any class with its
own ``to_json``/``from_json``.
"""

from __future__ import annotations

import enum
import re
import typing
from fractions import Fraction

from .exactnum import format_rational, parse_rational

_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")  # one spelling per integer: no "-0"

MISSING = object()  # the default of a field that has none


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


def _fields(cls) -> tuple:
    """(name, default) of each field: the class's own annotations, in
    order, each with its class attribute as default (``MISSING`` if none)."""
    return tuple((name, vars(cls).get(name, MISSING)) for name in cls.__annotations__)


def record(cls):
    """Class decorator: make ``cls`` a frozen value class over its fields
    (see the module docstring), with no generated source.

    Each instance keeps its field values as attributes and, in order, as
    one tuple ``_values`` that ``__eq__``, ``__hash__`` and ``__repr__``
    read: one attribute load instead of one ``getattr`` per field.  So
    ``__post_init__`` may check the fields but not replace them."""
    fields = _fields(cls)
    names = tuple(name for name, _ in fields)
    defaults = [default for _, default in fields]
    position = {name: k for k, name in enumerate(names)}
    n = len(names)
    post_init = getattr(cls, "__post_init__", None)
    set_field = object.__setattr__
    what = f"{cls.__qualname__}()"

    def bind(args, kwargs) -> tuple:
        """The field values of ``cls(*args, **kwargs)``, or the TypeError a
        function with the fields as parameters would raise."""
        if len(args) > n:
            raise TypeError(f"{what} takes {n} arguments but {len(args)} were given")
        values = [*args, *defaults[len(args):]]
        for name, value in kwargs.items():
            k = position.get(name, -1)
            if k < 0:
                raise TypeError(f"{what} got an unexpected keyword argument {name!r}")
            if k < len(args):
                raise TypeError(f"{what} got multiple values for argument {name!r}")
            values[k] = value
        missing = [repr(name) for name, value in zip(names, values) if value is MISSING]
        if missing:
            raise TypeError(f"{what} missing required arguments: {', '.join(missing)}")
        return tuple(values)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        set_field(self, "_values", args)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, names, self._values))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def json_record(cls=None, *, keys=(), derived=(), custom=(), check=None):
    """Class decorator: make ``cls`` a :func:`record` and install
    ``to_json``/``from_json`` on it, with the field plan computed once,
    here.

    ``keys`` maps a field name to its JSON key when they differ.
    ``derived`` names properties written after the fields; on reading,
    each must be present and equal, in type and value, the property of the
    record read.  ``custom`` maps a field name to ``(write(value),
    read(value, doc))`` for a field whose JSON shape depends on the rest
    of the document.  ``check(record)`` vets each record ``from_json``
    reads and returns what is wrong with it, or None: a load-only step for
    a check too costly for the constructor (cheap ones go in
    ``__post_init__``)."""

    def install(cls):
        record(cls)
        keys_, custom_ = dict(keys), dict(custom)
        hints = typing.get_type_hints(cls)
        plan = []  # (field, key, write, read, default, what); what None: read(value, doc)
        for name, default in _fields(cls):
            key = keys_.get(name, name)
            write, read = custom_[name] if name in custom_ else _codec(hints[name])
            what = None if name in custom_ else f"{cls.__name__} {key!r}"
            plan.append((name, key, write, read, default, what))
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
            values = []
            for _, key, _, read, default, what in plan:
                value = obj.get(key, MISSING)
                if value is MISSING:
                    if default is MISSING:
                        raise ValueError(f"{cls.__name__} JSON lacks the key {key!r}")
                    values.append(default)
                else:
                    values.append(read(value, obj if what is None else what))
            made = klass(*values)
            for name in derived_:
                value, want = obj.get(name, MISSING), getattr(made, name)
                if value is MISSING:
                    raise ValueError(f"{cls.__name__} JSON lacks the key {name!r}")
                if type(value) is not type(want) or value != want:
                    raise ValueError(f"{cls.__name__} {name!r} is {value!r}, not {want!r}")
            if check and (fault := check(made)):
                raise ValueError(f"{cls.__name__} JSON is inconsistent: {fault}")
            return made

        to_json.__qualname__ = f"{cls.__qualname__}.to_json"
        from_json.__qualname__ = f"{cls.__qualname__}.from_json"
        cls.to_json = to_json
        cls.from_json = classmethod(from_json)
        return cls

    return install if cls is None else install(cls)
