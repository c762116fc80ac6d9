"""The one JSON reader for untrusted input: layout and fixture files, batch,
candidate, detection and placeholder-map files.

A module of its own so that a command that reads JSON loads only this, not
:mod:`docpost.layout` and everything layout imports.
"""

from __future__ import annotations

import json
import math


def _refuse_non_finite(token: str):
    raise ValueError(f"number {token} is not finite")


def _finite_float(token: str) -> float:
    value = float(token)
    if math.isinf(value):
        _refuse_non_finite(token)
    return value


# Deepest nesting of arrays and objects in JSON input: below the under 1,000
# levels that CPython 3.10 and 3.11 parse, so 3.12 and later, which parse
# thousands, give the same answer.
MAX_JSON_DEPTH = 500


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"JSON object repeats key {key!r}")
            seen.add(key)
    return obj


def loads_finite(text: str):
    """``json.loads`` that refuses ``NaN``, ``Infinity``, float literals
    that overflow to infinity, an object that repeats a key and nesting
    deeper than :data:`MAX_JSON_DEPTH` with a ``ValueError``."""
    try:
        value = json.loads(text, parse_float=_finite_float, parse_constant=_refuse_non_finite,
                           object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    # one level of containers at a time, without recursion
    level, depth = [value], 0
    while level := [c for c in level if isinstance(c, (list, dict))]:
        depth += 1
        if depth > MAX_JSON_DEPTH:
            raise ValueError("JSON nested too deeply")
        level = [child for c in level for child in (c.values() if type(c) is dict else c)]
    return value
