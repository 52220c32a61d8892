"""The one set of rules for the JSON values the program writes and reads:
artifacts, weights, optimizer state and the config file.

Each reader takes a value as json.loads returns it and returns it as the
program uses it, or raises TypeError or ValueError; callers add where the
value came from (a file and line, or a config field).
"""

from __future__ import annotations

import json
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


def read_numbers(value, n: int, name: str) -> np.ndarray:
    """The values of array `name`, a flat list of exactly n finite JSON
    numbers (no bool, string or null), as a float64 array."""
    if type(value) is not list:
        raise TypeError(f"{name}: values are not a list")
    if len(value) != n or not set(map(type, value)) <= {int, float}:
        raise ValueError(f"{name}: values are not a flat list of {n} numbers")
    try:
        array = np.array(value, dtype=np.float64)
        if np.isfinite(array).all():
            return array
    except OverflowError:  # an int beyond float range
        pass
    raise ValueError(f"{name}: values are not all finite")
