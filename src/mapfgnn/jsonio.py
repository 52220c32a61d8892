"""The one set of rules for the JSON values the program writes and reads:
artifacts, weights, optimizer state and the config file.

Each reader takes a value as json.loads returns it and returns it as the
program uses it, or raises TypeError or ValueError; callers add where the
value came from (a file and line, or a config field).

A float64 array (a weight, an optimizer moment) is one JSON string: the
base64 text of its little-endian IEEE-754 bytes in C order. Every array has
exactly one spelling, and it decodes to the bits it was written from. A named
set of arrays (the weights, each Adam moment) maps each name to the entry
{"shape": [...], "float64le": text}.
"""

from __future__ import annotations

import base64
import json
import math
import sys

import numpy as np


def dumps_canonical(value) -> str:
    """The one encoder for every JSON artifact: floats spelled by repr (exact
    for float64), compact separators, key order from the caller; non-finite
    reals raise ValueError."""
    return json.dumps(value, allow_nan=False, separators=(",", ":"))


def refuse_constant(token: str):
    """parse_constant hook: json.loads accepts NaN, Infinity and -Infinity,
    which no file this program reads may hold (the writers never emit them)."""
    raise ValueError(f"non-finite number {token}")


def loads(text: str):
    """Parsed JSON text; invalid JSON, NaN and the infinities raise ValueError."""
    try:
        return json.loads(text, parse_constant=refuse_constant)
    except ValueError as exc:  # a JSONDecodeError or a refused constant
        raise ValueError(f"invalid JSON: {exc}") from None


def read_int(value) -> int:
    """A JSON integer, never a bool."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not a JSON integer")
    return value


def read_real(value) -> float:
    """A finite JSON int or float, as a float."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a JSON number")
    # a literal such as 1e999 parses to inf; an int this large has no float
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def read_str(value) -> str:
    if type(value) is not str:
        raise TypeError(f"{value!r} is not a JSON string")
    return value


def read_ints(value) -> tuple:
    """A list of JSON integers, as a tuple."""
    if type(value) is not list or not all(type(v) is int for v in value):
        raise TypeError(f"{value!r} is not a list of JSON integers")
    return tuple(value)


def read_cells(value) -> tuple:
    """A list of [x, y] pairs of JSON integers, as a tuple of (x, y) tuples."""
    if type(value) is not list:
        raise TypeError(f"{value!r} is not a list of [x, y] cells")
    for cell in value:
        if (
            type(cell) is not list
            or len(cell) != 2
            or type(cell[0]) is not int
            or type(cell[1]) is not int
        ):
            raise TypeError(f"cell {cell!r} is not a pair of JSON integers")
    return tuple([(x, y) for x, y in value])


def encode_float64s(array) -> str:
    """The base64 text of a float64 array's little-endian bytes in C order;
    a NaN or an infinity raises ValueError, as in dumps_canonical."""
    array = np.ascontiguousarray(array, dtype="<f8")
    if not np.isfinite(array).all():
        raise ValueError("float64le values are not all finite")
    return base64.b64encode(array.tobytes()).decode("ascii")


def read_float64s(value, n: int, name: str) -> np.ndarray:
    """Array `name`, n finite float64s, from exactly the text encode_float64s
    writes for them (a JSON string of canonical, padded base64 with no
    whitespace), as a read-only flat array."""
    if type(value) is not str:
        raise TypeError(f"{name}: float64le is not a JSON string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # a character outside the alphabet, bad padding
        raise ValueError(f"{name}: float64le is not base64 ({exc})") from None
    if len(raw) != 8 * n:
        raise ValueError(f"{name}: float64le holds {len(raw)} bytes, not {8 * n}")
    # unused low bits of the last character make a second spelling
    if base64.b64encode(raw).decode("ascii") != value:
        raise ValueError(f"{name}: float64le is not canonical base64")
    array = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(array).all():
        raise ValueError(f"{name}: values are not all finite")
    return array


def encode_arrays(arrays) -> dict:
    """Each named float64 array as the entry {"shape": [...], "float64le": text},
    in the mapping's order."""
    return {
        name: {"shape": list(array.shape), "float64le": encode_float64s(array)}
        for name, array in arrays.items()
    }


def read_arrays(doc, shapes) -> dict:
    """Each named array of `shapes` (name -> shape), read from the entries
    encode_arrays wrote for the same names and shapes, as read-only arrays in
    the mapping's order. Every entry is checked before this returns, so a
    caller that assigns them changes all of its arrays or none, and one that
    allocates from `shapes` afterwards allocates no more than the entries
    hold. Every refusal names its entry."""
    if type(doc) is not dict:
        raise TypeError("float64 arrays are not a JSON object")
    missing, extra = set(shapes) - set(doc), set(doc) - set(shapes)
    if missing or extra:
        raise ValueError(f"array names differ: missing {sorted(missing)}, extra {sorted(extra)}")
    values = {}
    for name, shape in shapes.items():
        entry = doc[name]
        if type(entry) is not dict:
            raise TypeError(f"{name}: entry is not a JSON object")
        for field in ("shape", "float64le"):
            if field not in entry:
                raise ValueError(f"{name}: missing field {field!r}")
        try:
            stored = read_ints(entry["shape"])
        except TypeError as exc:
            raise TypeError(f"{name}: shape {exc}") from None
        if stored != tuple(shape):
            raise ValueError(f"{name}: stored shape {list(stored)}, expected {list(shape)}")
        values[name] = read_float64s(entry["float64le"], math.prod(shape), name).reshape(shape)
    return values
