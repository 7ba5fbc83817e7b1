"""The one JSON form of engram's values: snapshots, reports and event files.

`encode(value)` turns a value into plain JSON data; `decode(tp, data)` turns
JSON data back into a value of type `tp`. A dataclass maps to an object with
one key per field, named after the field unless `field(metadata={"key": ...})`
renames it. Each type's converter is built once from `dataclasses.fields` and
`typing.get_type_hints`, then cached. The type rules:

    datetime      <-> RFC3339 string in UTC
    np.ndarray    <-> {"i": [...], "n": length, "v": [...]}; a JSON list
                      (the v1 dense form) decodes too
    IntEnum       <-> int
    frozenset      -> sorted list
    tuple          -> list
    dataclass, list/tuple/dict of them: recursive
    Optional[X]    -> X, with None as null

An array is 1-D and read back as float64. Its object lists in `i`, strictly
increasing, the indices of the entries whose float64 bit pattern is not zero,
and their values in `v`; the rest are zero. `-0.0` is kept, so an array
round-trips bit for bit; a NaN comes back as JSON's one NaN. A `HashEmbedder`
vector has about one entry in twenty non-zero, so this form is about a
quarter of the dense list; a dense vector (a centroid sum, a `RemoteEmbedder`
vector) grows by its index list. The decoder rejects an object with other
keys, indices out of order or outside `[0, n)`, `i` and `v` of different
lengths, or a value that is not a number, with `ValueError`; so does the
dense list.

Decoding a dataclass rejects keys it does not declare. A declared key that is
absent or null takes the field's default; without a default it is an error.

The canonical text of a value is `json.dumps(encode(value), sort_keys=True,
separators=(",", ":"))`; `dumps` returns it, and `write` appends it in pieces
to a list. `dumps` memoizes the text of a frozen dataclass on the instance's
`__dict__` the first time it is asked for, so it must be given only frozen
values whose fields are immutable too. The values a snapshot stores are:
records, semantic memories, entity nodes and quarantine entries hold
read-only arrays and dicts, tuples and frozensets. `model.evolve`, which
builds every changed value, copies only the declared fields, so a new
instance starts without the memo; `encode` reads only the fields, so the
memo never reaches the JSON. `write` walks dicts (with str keys) and
lists, so a snapshot reuses the memoized text of every stored value it
holds; every other value, a tuple included, is written whole.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from datetime import datetime, timezone
from enum import IntEnum
from functools import lru_cache
from typing import Any, Callable, Optional, Union

import numpy as np

Converter = Optional[Callable[[Any], Any]]  # None: the value is already JSON


def encode(value: Any) -> Any:
    """The JSON form of `value`."""
    enc = _encoder(type(value))
    return value if enc is None else enc(value)


_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_MEMO = "_codec_text"  # the instance `__dict__` key of a frozen value's text


def dumps(value: Any) -> str:
    """The canonical JSON text of `value`, memoized on a frozen dataclass."""
    params = getattr(type(value), "__dataclass_params__", None)
    if params is None or not params.frozen:
        return _canonical(encode(value))
    memo = value.__dict__
    text = memo.get(_MEMO)
    if text is None:
        text = memo[_MEMO] = _canonical(encode(value))
    return text


def write(value: Any, out: list[str]) -> None:
    """Append the canonical text of `value` to `out`, in pieces whose join
    is `dumps(value)`."""
    if type(value) is dict:
        sep = "{"
        for key in sorted(value):
            out.append(sep + _canonical(key) + ":")
            write(value[key], out)
            sep = ","
        out.append("}" if sep == "," else "{}")
    elif type(value) is list:
        sep = "["
        for item in value:
            out.append(sep)
            write(item, out)
            sep = ","
        out.append("]" if sep == "," else "[]")
    else:
        out.append(dumps(value))


def decode(tp: Any, data: Any) -> Any:
    """The value of type `tp` whose JSON form is `data`."""
    dec = _decoder(tp)
    return data if dec is None else dec(data)


def utc(ts: str) -> datetime:
    """Parse an RFC3339 timestamp into an aware UTC datetime."""
    dt = datetime.fromisoformat(ts.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def rfc3339(dt: datetime) -> str:
    """Format an aware datetime as RFC3339 in UTC, with a `Z` suffix."""
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def field_keys(cls: type) -> frozenset[str]:
    """The JSON keys a dataclass declares."""
    return frozenset(key for _name, key, _conv, _default in _fields(cls, _decoder))


@lru_cache(maxsize=None)
def _fields(cls: type, conv: Callable[[Any], Converter]
            ) -> tuple[tuple[str, str, Converter, bool], ...]:
    """(name, key, converter, has_default) per field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("key", f.name), conv(hints[f.name]),
         f.default is not dataclasses.MISSING
         or f.default_factory is not dataclasses.MISSING)
        for f in dataclasses.fields(cls))


def _each(conv: Converter, build: Callable) -> Converter:
    """A collection converter: `build` over the converted elements."""
    return build if conv is None else lambda v: build(conv(x) for x in v)


def _optional(args: tuple, conv: Callable[[Any], Converter]) -> Converter:
    """Optional[X]: X's converter, with None passed through."""
    (inner,) = [a for a in args if a is not type(None)]
    inner = conv(inner)
    return inner and (lambda v: None if v is None else inner(v))


@lru_cache(maxsize=None)
def _encoder(tp: Any) -> Converter:
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin in (Union, types.UnionType):
        return _optional(args, _encoder)
    if dataclasses.is_dataclass(origin):
        return _dataclass_encoder(origin)
    if origin is datetime:
        return rfc3339
    if origin is np.ndarray:
        return _sparse
    if isinstance(origin, type) and issubclass(origin, IntEnum):
        return int
    if origin is dict:
        inner = _encoder(args[1]) if args else encode
        return dict if inner is None else lambda d: {k: inner(v) for k, v in d.items()}
    if origin in (list, tuple, frozenset):
        inner = _encoder(args[0]) if args else encode
        return _each(inner, sorted if origin is frozenset else list)
    return None


@lru_cache(maxsize=None)
def _decoder(tp: Any) -> Converter:
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin in (Union, types.UnionType):
        return _optional(args, _decoder)
    if dataclasses.is_dataclass(origin):
        return _dataclass_decoder(origin)
    if origin is datetime:
        return utc
    if origin is np.ndarray:
        return _array
    if isinstance(origin, type) and issubclass(origin, IntEnum):
        return origin
    if origin is dict:
        inner = _decoder(args[1]) if args else None
        return dict if inner is None else lambda d: {k: inner(v) for k, v in d.items()}
    if origin in (list, tuple, frozenset):
        return _each(_decoder(args[0]) if args else None, origin)
    return None


_SPARSE_KEYS = frozenset({"i", "n", "v"})


def _sparse(a: np.ndarray) -> dict:
    """The JSON form of a 1-D array: its non-zero entries and its length."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    nonzero = np.flatnonzero(a.view(np.int64))
    return {"i": nonzero.tolist(), "n": len(a), "v": a[nonzero].tolist()}


_NUMBERS = (float, int)


def _array(data: Any) -> np.ndarray:
    """The float64 array whose JSON form is `data`: a sparse object, or a
    dense list as v1 snapshots hold."""
    if type(data) is list:
        if not all(type(x) in _NUMBERS for x in data):
            raise ValueError("array: a value is not a number")
        return np.array(data, dtype=np.float64)
    if data.keys() != _SPARSE_KEYS:
        raise ValueError(f"array: keys {sorted(data)}, not ['i', 'n', 'v']")
    idx, n, values = data["i"], data["n"], data["v"]
    if type(n) is not int or n < 0 or len(idx) != len(values):
        raise ValueError("array: n is not a length, or i and v differ in length")
    last = -1
    for i, x in zip(idx, values):
        if type(i) is not int or i <= last or type(x) not in _NUMBERS:
            raise ValueError("array: indices are not strictly increasing ints, "
                             "or a value is not a number")
        last = i
    if last >= n:
        raise ValueError(f"array: index {last} outside [0, {n})")
    out = np.zeros(n)
    out[idx] = values
    return out


def _dataclass_encoder(cls: type) -> Callable[[Any], dict]:
    plan = _fields(cls, _encoder)

    def enc(obj: Any) -> dict:
        out = {}
        for name, key, fenc, _default in plan:
            v = getattr(obj, name)
            out[key] = v if fenc is None else fenc(v)
        return out

    return enc


def _dataclass_decoder(cls: type) -> Callable[[dict], Any]:
    plan = _fields(cls, _decoder)
    keys = frozenset(key for _name, key, _dec, _default in plan)

    def dec(data: dict) -> Any:
        if not keys.issuperset(data):
            raise ValueError(f"{cls.__name__}: unknown keys {sorted(set(data) - keys)}")
        kwargs = {}
        for name, key, fdec, has_default in plan:
            v = data.get(key)
            if v is None:
                if has_default:
                    continue
                raise ValueError(f"{cls.__name__}: missing key {key!r}")
            kwargs[name] = v if fdec is None else fdec(v)
        return cls(**kwargs)

    return dec
