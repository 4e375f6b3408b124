"""The one wire codec: dataclasses to JSON-safe values and back.

Specs, results, batches and fault plans cross processes and files as
JSON.  :func:`encode` walks a dataclass's fields in declaration order, and
:func:`decode` checks each field against its annotation, never coercing
(an ``int`` refuses a bool, a ``float`` takes an int).  A field's
``metadata`` marks it ``OPTIONAL`` (absent keeps the default) or names a
registry ``lookup`` its names must pass; a key that names no field is
refused, and every failure is a ``ValueError`` naming the field by its
dotted path.  docs/distributed.md ("Wire format") states every rule.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from enum import Enum
from types import MappingProxyType
from typing import Callable, Dict, Mapping, Optional, Tuple, Type, TypeVar

T = TypeVar("T")
Decoder = Callable[[object, str], object]
#: ``None`` where a value is its own wire form.
Encoder = Optional[Callable[[object], object]]

_OPTIONAL, _LOOKUP = "wire.optional", "wire.lookup"

#: ``field(metadata=OPTIONAL)``: the field may be absent from a payload.
OPTIONAL: Mapping[str, object] = MappingProxyType({_OPTIONAL: True})


def lookup(check: Callable[[str], object]) -> Mapping[str, object]:
    """``field(metadata=lookup(check))``: each name the field holds must
    pass ``check``, the registry rule that later builds it."""
    return MappingProxyType({_LOOKUP: check})


def is_optional(field: dataclasses.Field) -> bool:
    """Whether ``field`` was declared with ``metadata=OPTIONAL``."""
    return bool(field.metadata.get(_OPTIONAL))


def encode(obj: object) -> Dict[str, object]:
    """The JSON-safe form of the dataclass instance ``obj``."""
    return _object_codec(type(obj))[1](obj)


def decode(cls: Type[T], data: object) -> T:
    """Rebuild a ``cls`` from :func:`encode` output, checking every field."""
    return _object_codec(cls)[0](data, "")


class Record:
    """Base of a wire dataclass: ``to_dict`` and ``from_dict`` by this codec."""

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        return encode(self)

    @classmethod
    def from_dict(cls: Type[T], data: object) -> T:
        """Rebuild from :meth:`to_dict` output; ``ValueError`` naming the
        field for a payload that breaks the declaration."""
        return decode(cls, data)


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@functools.cache
def _object_codec(cls: type) -> Tuple[Decoder, Encoder]:
    hints = typing.get_type_hints(cls)
    fields = [(f.name, not is_optional(f), *_codec(hints[f.name], f.metadata.get(_LOOKUP)))
              for f in dataclasses.fields(cls)]
    names = frozenset(name for name, *_ in fields)

    def decode_object(data: object, path: str) -> object:
        if not isinstance(data, dict):
            raise ValueError(f"{path or cls.__name__} must be an object, got {data!r}")
        if not names.issuperset(data):
            unknown = ", ".join(sorted(map(str, set(data) - names)))
            raise ValueError(f"{path or cls.__name__} has unknown fields: {unknown}")
        values = {}
        for name, required, decode_field, _ in fields:
            if name in data:
                values[name] = decode_field(data[name], _at(path, name))
            elif required:
                raise ValueError(f"{_at(path, name)} is missing")
        try:
            return cls(**values)
        except ValueError as error:
            if not path:
                raise
            raise ValueError(f"{path}: {error}") from None

    def encode_object(obj: object) -> Dict[str, object]:
        data = {}
        for name, _, _, encode_field in fields:
            value = getattr(obj, name)
            data[name] = value if encode_field is None or value is None else encode_field(value)
        return data

    return decode_object, encode_object


def _codec(tp: object, check: Optional[Callable[[str], object]] = None
           ) -> Tuple[Decoder, Encoder]:
    """The decoder and encoder of annotation ``tp``; ``check`` applies to
    the names it holds."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and args[1:] == (type(None),):  # Optional[X]
        decode_value, encode_value = _codec(args[0], check)
        return (lambda value, path: None if value is None
                else decode_value(value, path)), encode_value
    if origin is tuple and typing.get_origin(args[0]) is tuple:  # a frozen map
        decode_map, encode_map = _codec(Dict[typing.get_args(args[0])])
        return (lambda value, path: tuple(sorted(decode_map(value, path).items())),
                lambda value: encode_map(dict(value)))
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        decode_item, encode_item = _codec(args[0], check)

        def decode_array(value: object, path: str) -> object:
            if not isinstance(value, list):
                raise ValueError(f"{path} must be an array, got {value!r}")
            items = [decode_item(item, f"{path}[{index}]")
                     for index, item in enumerate(value)]
            return items if origin is list else tuple(items)
        return decode_array, (list if encode_item is None
                              else lambda value: [encode_item(item) for item in value])
    if origin is dict:
        (decode_key, encode_key), (decode_item, encode_item) = _codec(args[0]), _codec(args[1])

        def decode_map(value: object, path: str) -> object:
            if not isinstance(value, dict):
                raise ValueError(f"{path} must be an object, got {value!r}")
            decoded = {}
            for key, item in value.items():
                here = f"{path}[{key}]"
                decoded[decode_key(key, here)] = decode_item(item, here)
            return decoded
        encode_key = encode_key or (lambda key: key)
        encode_item = encode_item or (lambda item: item)
        return decode_map, lambda value: {encode_key(key): encode_item(item)
                                          for key, item in value.items()}
    if isinstance(tp, type) and issubclass(tp, Enum):
        def decode_member(value: object, path: str) -> object:
            if not isinstance(value, str) or value not in tp.__members__:
                raise ValueError(f"{path}: no {tp.__name__} is named {value!r}")
            return tp.__members__[value]
        return decode_member, lambda member: member.name
    if dataclasses.is_dataclass(tp):
        return _object_codec(tp)
    if tp is object:
        return (lambda value, path: value), None
    if tp not in (int, float, str, bool):
        raise TypeError(f"no wire rule for annotation {tp!r}")
    accepted = (int, float) if tp is float else tp

    def decode_scalar(value: object, path: str) -> object:
        if isinstance(value, bool) is not (tp is bool) or not isinstance(value, accepted):
            raise ValueError(f"{path} must be {tp.__name__}, got {value!r}")
        if check is not None:
            try:
                check(value)
            except KeyError as error:
                raise ValueError(f"{path}: {error.args[0]}") from None
        return tp(value)
    return decode_scalar, None
