"""One codec between the frozen config dataclasses and plain JSON values.

`to_dict` writes a dataclass as nested dicts. `from_dict` reads one back:
each value is checked against its field's annotation, an error names the
dotted path of the bad key or value, and the constructor then runs, so every
`__post_init__` range check still applies.
"""

from __future__ import annotations

import json
import typing
from dataclasses import fields, is_dataclass

__all__ = ["to_dict", "from_dict"]

_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def to_dict(obj) -> dict:
    """Nested plain dict of a dataclass instance, in field order."""
    hints = typing.get_type_hints(type(obj))
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = to_dict(value)
        elif hints[f.name] is float:
            value = float(value) + 0.0  # equal values, one spelling: 10 -> 10.0, -0.0 -> 0.0
        out[f.name] = value
    return out


def from_dict(cls, doc, base=None, path: str = ""):
    """Build ``cls`` from a JSON object; a missing key is taken from ``base``.

    Raises ValueError for a value that is not an object, an unknown key, a
    missing key with no ``base``, or a value of the wrong JSON type: ``int``
    takes only integers, ``float`` takes integers or numbers, ``X | None``
    also takes null, ``list[X]`` takes an array of ``X`` (an item's path is
    ``key[i]``), and a nested dataclass recurses with the matching field of
    ``base``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{path or 'config'} must be an object, got {_describe(doc)}")
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    unknown = sorted(_join(path, key) for key in set(doc) - set(names))
    if unknown:
        raise ValueError(f"unknown {f'keys under {path!r}' if path else 'config keys'}: {unknown}")
    kwargs = {}
    for name in names:
        where = _join(path, name)
        if name in doc:
            kwargs[name] = _read(hints[name], doc[name], getattr(base, name, None), where)
        elif base is not None:
            kwargs[name] = getattr(base, name)
        else:
            raise ValueError(f"missing key {where!r}")
    return cls(**kwargs)


def _read(tp, value, base, path: str):
    if is_dataclass(tp):
        return from_dict(tp, value, base, path)
    if typing.get_origin(tp) is list:
        if type(value) is not list:
            raise ValueError(f"{path} must be an array, got {_describe(value)}")
        (item,) = typing.get_args(tp)
        return [_read(item, v, None, f"{path}[{i}]") for i, v in enumerate(value)]
    members = [a for a in typing.get_args(tp) if a is not type(None)]
    nullable = len(members) < len(typing.get_args(tp))
    if nullable:
        if value is None:
            return None
        (tp,) = members
    if tp is float and type(value) in (int, float):
        return float(value)
    if type(value) is tp:  # exact type: an int field takes no bool and no float
        return value
    expected = _JSON_NAMES[tp] + (" or null" if nullable else "")
    raise ValueError(f"{path} must be {expected}, got {_describe(value)}")


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _describe(value) -> str:
    name = _JSON_NAMES.get(type(value), type(value).__name__)
    return name if value is None else f"{name} {json.dumps(value, default=repr)}"
