"""Strict JSON and JSON Lines persistence for column arrays, and `Forks`,
the one helper that forks.

Every writer returns the SHA-256 of the bytes it wrote, hashed as they are
written, so no file is read back to be hashed.  JSONL writers encode one
C-encoded object per row, serially, a block of rows at a time.  The
pipeline runs each JSONL writer in a forked child of its own (see
`pipeline.Workspace`), which sends back the digest and how long the write
took.
Readers stream a file line by line, array fields straight into a float64
matrix preallocated from the line count.  Parse errors name the line; NaN
and infinity are refused both ways, a writer before opening the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager

import numpy as np

from .errors import InvalidInputError, ParseError
from .numerics import as_vec

_encode = json.JSONEncoder(allow_nan=False).encode
BLOCK_ROWS = 512  # rows converted to Python values at a time; bounds peak memory


def check_finite(path, keys: tuple[str, ...], columns) -> None:
    """ValueError naming the key and row of the first NaN or infinity.
    A column that passes builds one bool array; the row-locating mask is
    built only for a column that fails."""
    for key, col in zip(keys, columns):
        if col.dtype.kind == "f" and not np.isfinite(col).all():
            row = int(np.argmin(np.isfinite(col).reshape(len(col), -1).all(axis=1)))
            raise ValueError(f"cannot write {path}: {key} at row {row} is not finite")


def write_rows(path, keys: tuple[str, ...], columns) -> str:
    """Row i becomes {keys[0]: columns[0][i], ...}; 2-D columns give arrays.
    Returns the SHA-256 of the bytes written.

    A NaN or infinity is refused, naming its key and row, before the file
    is opened.  The rows are encoded serially in this process, a block at
    a time.  A write that fails deletes the target.
    """
    check_finite(path, keys, columns)
    return write_checked_rows(path, keys, columns)


def write_checked_rows(path, keys: tuple[str, ...], columns) -> str:
    """`write_rows` for columns that already passed `check_finite`."""
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
    this package run only `tolist`, the JSON encoder and hashlib, which
    take no lock another thread could hold and make no BLAS call.  Tested
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
