"""Strict JSON and JSON Lines persistence for column arrays, and `Forks`,
the one helper that forks.

Every writer returns the SHA-256 of the bytes it wrote, hashed as they are
written, so no file is read back to be hashed.  JSONL writers encode one
C-encoded object per row, serially, a block of rows at a time.  The
pipeline saves every artifact, JSONL, JSON or text, in a forked child of
its own (see `pipeline.Workspace`), which sends back the digest and how
long the write took.
Readers stream a file line by line, array fields straight into a float64
matrix preallocated from the line count.  Parse errors name the line; NaN
and infinity are refused both ways, a writer before opening the file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import InvalidInputError, ParseError
from .numerics import as_vec

_encode = json.JSONEncoder(allow_nan=False).encode
BLOCK_ROWS = 512  # rows converted to Python values at a time; bounds peak memory


def write_rows(path, keys: tuple[str, ...], columns) -> str:
    """Row i becomes {keys[0]: columns[0][i], ...}; 2-D columns give arrays.
    Returns the SHA-256 of the bytes written.

    A NaN or infinity is refused with ValueError, naming its key and row,
    before the file is opened; a column that passes builds one bool array.
    The rows are encoded serially, a block at a time.  A write that fails
    deletes the target.
    """
    for key, col in zip(keys, columns):
        if col.dtype.kind == "f" and not np.isfinite(col).all():
            row = int(np.argmin(np.isfinite(col).reshape(len(col), -1).all(axis=1)))
            raise ValueError(f"cannot write {path}: {key} at row {row} is not finite")
    sha = hashlib.sha256()
    fh = open(path, "wb")

    def write(data: bytes) -> None:
        sha.update(data)
        fh.write(data)

    try:
        encode_rows(write, keys, columns)
        fh.close()
    except BaseException:
        try:
            fh.close()
        except OSError:  # the first failure is the one to report
            pass
        os.unlink(path)
        raise
    return sha.hexdigest()


def encode_rows(write, keys, columns) -> None:
    """Pass every row, UTF-8 encoded, to `write` a block at a time."""
    for lo in range(0, len(columns[0]), BLOCK_ROWS):
        block = [c[lo:lo + BLOCK_ROWS].tolist() for c in columns]
        write("".join(_encode(dict(zip(keys, row))) + "\n"
                      for row in zip(*block)).encode())


class Forks:
    """Forked children, each running one function whose str result comes
    back through a pipe; the one place this package forks.  No child
    forks a child of its own.

    A child leaves through `os._exit`, so it runs no exit handler and
    flushes no buffer it inherited.  One that raises prints `label
    failed: ...` to stderr and exits 1, and `wait` raises OSError
    naming the label.  `kill` sends SIGKILL, which ends a child whatever
    signal handler it inherited, and reaps it.

    Forking is safe here although BLAS may hold threads: the children of
    this package run only the savers, that is `tolist`, the JSON encoder,
    hashlib and `isfinite`, plus, for the checkpoints, `mlp_state`,
    `np.split` and the `isfinite` checks in `Mlp.__post_init__`.  None
    takes a lock another thread could hold or makes a BLAS call.  Tested
    on CPython 3.11 only: from 3.12 `os.fork` in a process with live
    threads also emits a DeprecationWarning, hidden by the default warning
    filters but shown by pytest or `-W error`.
    """

    def __init__(self):
        self.running: dict[int, tuple[str, object]] = {}  # pid -> (label, pipe)

    def start(self, label: str, fn) -> int:
        """Fork a child that runs `fn()` and sends back the str it returns."""
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(r)
                data = fn().encode()
                while data:
                    data = data[os.write(w, data):]
                code = 0
            except BaseException as e:
                os.write(2, f"{label} failed: {e!r}\n".encode())
            finally:
                os._exit(code)
        os.close(w)
        self.running[pid] = (label, os.fdopen(r, "rb"))
        return pid

    def wait(self, pid: int) -> str:
        """What child `pid` sent, once it has exited; OSError naming its
        label if it failed."""
        label, pipe = self.running[pid]
        data = pipe.read()
        _, status = os.waitpid(pid, 0)
        del self.running[pid]
        pipe.close()
        if status:
            raise OSError(f"{label} exited with status "
                          f"{os.waitstatus_to_exitcode(status)}")
        return data.decode()

    def kill(self) -> None:
        """End and reap every child not yet waited for."""
        import signal

        for pid, (_, pipe) in self.running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        self.running.clear()


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


_NUMBERS = frozenset((int, float))  # exact types: JSON true/false load as bool


class VectorColumn:
    """Equal-length number arrays stored as the rows of a float64 matrix
    preallocated to one row per line of `path`; the first fixes the width.
    Every entry must be a JSON number: a boolean, string or null is an
    InvalidInputError, found by one type scan in C, not a Python loop."""

    def __init__(self, name: str, path):
        with open(path, "rb") as fh:
            self.capacity = 1 + sum(chunk.count(b"\n")
                                    for chunk in iter(lambda: fh.read(1 << 20), b""))
        self.name, self.buf, self.n = name, None, 0

    def append(self, values) -> None:
        if self.buf is None:
            self.buf = np.empty((self.capacity, as_vec(values, self.name).size))
        if (type(values) is not list or len(values) != self.buf.shape[1]
                or not _NUMBERS.issuperset(map(type, values))):
            raise InvalidInputError(
                f"{self.name} must be an array of {self.buf.shape[1]} numbers")
        self.buf[self.n] = values
        self.n += 1


# the type a scalar field is declared with -> (what its JSON value must
# be, check, array dtype).  bool is a subclass of int in Python, so the
# checks compare exact types.
_SCALARS = {
    int: ("an integer", lambda v: type(v) is int and -2**63 <= v < 2**63, np.int64),
    float: ("a finite number",
            lambda v: type(v) is int or type(v) is float and math.isfinite(v),
            np.float64),
    bool: ("true or false", lambda v: type(v) is bool, bool),
}


def read_columns(path, what: str, scalars: dict, vectors: tuple = (),
                 optional: dict | None = None):
    """Stream JSONL records into one array per key, returned with each
    row's line number.  `scalars` maps a key to the type its value must
    have: int (a JSON integer, not a bool), float (a finite JSON number)
    or bool; any other value is a ParseError naming the line.  A key in
    `optional` may be absent or null and then reads as its value there.
    Each key in `vectors` holds a number array and becomes the rows of a
    finite float64 matrix."""
    optional = optional or {}
    vecs = [VectorColumn(key, path) for key in vectors]
    checks = [(key, *_SCALARS[kind]) for key, kind in scalars.items()]
    cols = {key: [] for key in scalars}
    linenos = []
    for lineno, rec in read_rows(path, f"{what} record"):
        try:
            values = [rec.get(key) if key in optional else rec[key]
                      for key, *_ in checks]
            for col in vecs:
                col.append(rec[col.name])
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            raise ParseError(f"bad {what} record: {e!r}", lineno) from e
        for (key, want, ok, _), value in zip(checks, values):
            if value is None and key in optional:
                value = optional[key]
            elif not ok(value):
                raise ParseError(f"bad {what} record: {key} must be {want}, "
                                 f"got {json.dumps(value)}", lineno)
            cols[key].append(value)
        linenos.append(lineno)
    if not linenos:
        raise ParseError(f"{what} file contains no records", None)
    out = {key: np.array(cols[key], dtype=dtype) for key, _, _, dtype in checks}
    for col in vecs:
        out[col.name] = col.buf[:col.n]
        check_rows(~np.isfinite(out[col.name]).all(axis=1), linenos,
                   f"bad {what} record: {col.name} contains non-finite entries")
    return out, linenos


def write_json(path, obj, indent=None) -> str:
    """One strict JSON document with sorted keys and a trailing newline;
    returns the SHA-256 of its bytes."""
    return write_text(path, json.dumps(obj, sort_keys=True, indent=indent,
                                       allow_nan=False) + "\n")


def write_text(path, text: str) -> str:
    """`text` as UTF-8; returns the SHA-256 of its bytes."""
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def read_json(path, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"malformed {what} JSON ({e.msg})", e.lineno) from e


@contextmanager
def read_checkpoint(path, kind: str):
    """The JSON object of a `kind` checkpoint.  A missing key, a wrong type
    or a bad array met while rebuilding from it is a ParseError naming
    the file."""
    state = read_json(path, "checkpoint")
    if not isinstance(state, dict) or state.get("kind") != kind:
        raise ParseError(f"{path} is not a {kind} checkpoint")
    try:
        yield state
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ParseError(f"malformed {kind} checkpoint {path}: {e!r}") from e


def check_rows(bad: np.ndarray, linenos, message) -> None:
    """ParseError naming the line of the first row flagged in `bad`."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(message(i) if callable(message) else message, linenos[i])
