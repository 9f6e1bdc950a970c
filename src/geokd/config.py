"""How a JSON input is read: the run config, a graph file and a checkpoint.

Every document goes through the same field rules: a JSON boolean is not a
number, ids are integers, numbers are finite, seeds are integers >= 0, and
each error is a GraphParseError naming its field.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields

import numpy as np

from .errors import GraphParseError

REQUIRED = object()  # the default of a field that must be present
_TYPES = {"float": (int, float), "int": int, "str": str, "list": list, "object": dict}
SLICE_CHARS = 1 << 16  # text of whole rows per json.loads call in _sliced


def config_fields(cls) -> dict:
    """{name: type} of the fields of dataclass cls that a config or a grid may
    set: those typed float, int or str, or a list of one such as list[float],
    optionally ``| None``."""
    kinds = {f.name: f.type.split(" | ")[0] for f in fields(cls)}
    return {name: kind for name, kind in kinds.items()
            if kind.removeprefix("list[").removesuffix("]") in ("float", "int", "str")}


def read_document(path, name: str, arrays=()):
    """The JSON object at path, and whether its text holds a true or false
    literal: only then does ``array`` scan a field for booleans. A document
    that is not JSON or not an object is an error naming it as ``name``. The
    rows under the top-level keys ``arrays`` come back as arrays (``_sliced``)."""
    with open(path) as f:
        text = f.read()
    try:
        doc = arrays and _sliced(text, arrays) or json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphParseError(name, f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise GraphParseError(name, "expected a JSON object")
    return doc, "true" in text or "false" in text


def _sliced(text: str, keys):
    """The document, the rows under ``keys`` read by json and numpy in slices
    of about SLICE_CHARS characters of whole rows; None (parse it whole) for a
    backslash (an escaped key), a key absent, repeated or nested, a string,
    true, false or null in a span, a third level, ragged or unlike slices."""
    rows, rest, at = {}, [], 0
    for found, key in sorted((text.find(f'"{k}"'), k) for k in keys):
        colon = re.compile(r"\s*:\s*(?=\[)").match(text, found + len(key) + 2)
        start, end = (colon.end(), text.find("]]", colon.end()) + 2) if colon else (0, 0)
        if found < 0 or "\\" in text or text.find(f'"{key}"', found + 1) >= 0 or end < 2 or any(
                text.find(w, start, end) >= 0 for w in ('"', "true", "false", "null")):
            return None
        parts, a = [], start + 1
        while a < end - 1:
            cut = text.find("],", a + SLICE_CHARS, end)
            b = end - 1 if cut < 0 else cut + 1
            try:
                part = np.asarray(json.loads(f"[{text[a:b]}]"))
            except ValueError:  # not JSON, or ragged rows
                return None
            if part.ndim != 2 or part.dtype.kind not in "if" or parts and part.shape[1] != width:
                return None
            parts.append(part)
            a, width = b + 1, part.shape[1]
        rows[key], rest, at = np.concatenate(parts), rest + [text[at:start], '"<rows>"'], end
    try:
        doc = json.loads("".join(rest + [text[at:]]))
    except json.JSONDecodeError:
        return None
    top = isinstance(doc, dict) and all(doc.get(key) == "<rows>" for key in keys)
    return {**doc, **rows} if top else None  # else a key is nested or absent at top level


def required(doc: dict, key: str, name: str | None = None):
    """doc[key]; absent or null is an error naming ``name`` (default key)."""
    if doc.get(key) is None:
        raise GraphParseError(name or key, "missing required field")
    return doc[key]


def read_field(doc: dict, key: str, kind: str, default=REQUIRED, name: str | None = None):
    """doc[key] read as ``kind`` (see ``typed``); absent or null gives
    default, and is an error when there is none."""
    if doc.get(key) is None and default is not REQUIRED:
        return default
    return typed(required(doc, key, name), kind, name or key)


def typed(value, kind: str, name: str):
    """value as ``kind``: float, int, str, list, object or a nonempty
    list[<scalar>], whose entries are named by index. A JSON boolean is no
    number, a float must be finite (json reads NaN and Infinity) and a field
    whose last part starts with ``seed`` must be >= 0."""
    if kind.startswith("list["):
        if not isinstance(value, list) or not value:
            raise GraphParseError(name, f"expected a nonempty list of {kind[5:-1]}")
        return [typed(item, kind[5:-1], f"{name}[{i}]") for i, item in enumerate(value)]
    if not isinstance(value, _TYPES[kind]) or isinstance(value, bool):
        raise GraphParseError(name, f"expected {kind}, got {type(value).__name__}")
    if kind == "float":
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise GraphParseError(name, f"expected a finite number, got {value}")
    # seed, <section>.seed, sweep.seeds[i], --seed: numpy streams take seeds >= 0
    if name.rsplit(".", 1)[-1].lstrip("-").startswith("seed") and value < 0:
        raise GraphParseError(name, f"expected an integer >= 0, got {value}")
    return value


def reject_unknown(doc: dict, keys, prefix: str = "") -> None:
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise GraphParseError(prefix + unknown[0], "unknown key")


def _holds_bool(value) -> bool:
    return isinstance(value, bool) or isinstance(value, list) and any(map(_holds_bool, value))


def array(value, kind: str, name: str, bools: bool, ndim: int | None = None) -> np.ndarray:
    """value as an int64 (kind "int") or float64 (kind "float") array of
    ``ndim`` dimensions if given. Ragged rows, strings and a JSON true or
    false are refused, an int array refuses floats and a float array
    non-finite values. Booleans are scanned for only when ``bools`` holds, as
    ``read_document`` reports, since numpy reads them as 1 and 0."""
    if bools and _holds_bool(value):
        raise GraphParseError(name, "expected numbers, got a JSON true or false")
    try:
        arr = np.asarray(value)
    except ValueError as e:  # numpy refuses rows of unequal lengths
        raise GraphParseError(name, "expected a rectangular array, got ragged rows") from e
    if arr.size and arr.dtype.kind not in ("i" if kind == "int" else "if"):
        raise GraphParseError(name, "expected integers" if kind == "int" else "expected numbers")
    if ndim is not None and arr.ndim != ndim:
        raise GraphParseError(name, f"expected a {ndim}-D array, got shape {arr.shape}")
    arr = arr.astype(np.int64 if kind == "int" else np.float64, copy=False)
    if kind == "float" and not np.isfinite(arr).all():
        at = "".join(f"[{i}]" for i in np.argwhere(~np.isfinite(arr))[0])
        raise GraphParseError(name + at, "expected a finite number")
    return arr
