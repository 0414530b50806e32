"""Strict JSON and JSON Lines persistence for column arrays.

JSONL writers emit one C-encoded object per row; readers stream a file
line by line, array fields straight into a float64 matrix preallocated
from the line count.  Parse errors name the line; NaN and infinity are
refused both ways.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInputError, ParseError
from .numerics import as_vec

_encode = json.JSONEncoder(allow_nan=False).encode
BLOCK_ROWS = 512  # rows converted to Python values at a time; bounds peak memory


def write_rows(path, keys: tuple[str, ...], columns) -> None:
    """Row i becomes {keys[0]: columns[0][i], ...}; 2-D columns give arrays."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            block = [c[start:start + BLOCK_ROWS].tolist() for c in columns]
            fh.writelines(_encode(dict(zip(keys, row))) + "\n" for row in zip(*block))


def read_rows(path, what: str):
    """(line number, parsed value) for each non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    yield lineno, json.loads(line)
                except json.JSONDecodeError as e:
                    raise ParseError(f"bad {what}: malformed JSON ({e.msg})",
                                     lineno) from e


class VectorColumn:
    """Equal-length number arrays stored as the rows of a float64 matrix
    preallocated to one row per line of `path`; the first fixes the width."""

    def __init__(self, name: str, path):
        with open(path, "rb") as fh:
            self.capacity = 1 + sum(chunk.count(b"\n")
                                    for chunk in iter(lambda: fh.read(1 << 20), b""))
        self.name, self.buf, self.n = name, None, 0

    def append(self, values) -> None:
        if self.buf is None:
            self.buf = np.empty((self.capacity, as_vec(values, self.name).size))
        elif type(values) is not list or len(values) != self.buf.shape[1]:
            raise InvalidInputError(
                f"{self.name} must be an array of {self.buf.shape[1]} numbers")
        self.buf[self.n] = values  # ValueError/TypeError on a bad entry
        self.n += 1


def read_columns(path, what: str, scalars: dict, vectors: tuple = (),
                 optional: tuple = ()):
    """Stream JSONL records into one array per key, returned with each
    row's line number.  `scalars` maps a key to the converter of its value
    (None if absent and `optional`); each key in `vectors` holds a number
    array and becomes the rows of a finite float64 matrix."""
    vecs = [VectorColumn(key, path) for key in vectors]
    cols = {key: [] for key in scalars}
    linenos = []
    for lineno, rec in read_rows(path, f"{what} record"):
        try:
            for key, conv in scalars.items():
                cols[key].append(conv(rec.get(key) if key in optional else rec[key]))
            for col in vecs:
                col.append(rec[col.name])
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            raise ParseError(f"bad {what} record: {e!r}", lineno) from e
        linenos.append(lineno)
    if not linenos:
        raise ParseError(f"{what} file contains no records", None)
    out = {key: np.array(values) for key, values in cols.items()}
    for col in vecs:
        out[col.name] = col.buf[:col.n]
        check_rows(~np.isfinite(out[col.name]).all(axis=1), linenos,
                   f"bad {what} record: {col.name} contains non-finite entries")
    return out, linenos


def write_json(path, obj, indent=None) -> None:
    """One strict JSON document with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=indent, allow_nan=False)
        fh.write("\n")


def read_json(path, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"malformed {what} JSON ({e.msg})", e.lineno) from e


def check_rows(bad: np.ndarray, linenos, message) -> None:
    """ParseError naming the line of the first row flagged in `bad`."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(message(i) if callable(message) else message, linenos[i])
