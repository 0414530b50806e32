"""Strict JSON and JSON Lines persistence for column arrays.

JSONL writers emit one C-encoded object per row.  A file of at least two
`MIN_SHARD_ROWS` is split into contiguous row shards, at most one per
usable CPU: forked children encode all shards but the first into temp
files that the parent appends in order, so the bytes are identical for any
CPU count.
Readers stream a file line by line, array fields straight into a float64
matrix preallocated from the line count.  Parse errors name the line; NaN
and infinity are refused both ways, a writer before opening the file.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .errors import InvalidInputError, ParseError
from .numerics import as_vec

_encode = json.JSONEncoder(allow_nan=False).encode
BLOCK_ROWS = 512  # rows converted to Python values at a time; bounds peak memory
# fewest rows a forked shard encodes; below 2 x this a file is written
# serially.  Two shards against one on a 2-CPU Xeon VM: the narrowest rows
# (noise mask) break even at ~1,024 rows a shard and gain 21% at 2,048;
# 20-class predictions break even below 256 and gain 38% at 2,048.
MIN_SHARD_ROWS = 4 * BLOCK_ROWS


def usable_cpus() -> int:
    """CPUs this process may run on."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def write_rows(path, keys: tuple[str, ...], columns) -> None:
    """Row i becomes {keys[0]: columns[0][i], ...}; 2-D columns give arrays.

    A NaN or infinity is refused, naming its key and row, before the file
    is opened.  Large files are encoded in contiguous row shards, at most
    one per usable CPU, by forked children; the bytes do not depend on the
    shard count.  A write that fails deletes the target.
    """
    import os

    for key, col in zip(keys, columns):
        if col.dtype.kind == "f":
            bad = ~np.isfinite(col)
            if bad.any():
                row = int(np.argmax(bad.reshape(len(col), -1).any(axis=1)))
                raise ValueError(f"cannot write {path}: {key} at row {row} is not finite")
    n = len(columns[0])
    shards = min(usable_cpus(), n // MIN_SHARD_ROWS) if hasattr(os, "fork") else 1
    fh = open(path, "w", encoding="utf-8")
    try:
        if shards < 2:
            encode_shard(fh, keys, columns, 0, n)
        else:
            _write_forked(fh, path, keys, columns, shards)
        fh.close()
    except BaseException:
        try:
            fh.close()
        except OSError:  # the first failure is the one to report
            pass
        os.unlink(path)
        raise


def encode_shard(fh, keys, columns, start: int, stop: int) -> None:
    """Write rows [start, stop) to the text file `fh`."""
    for lo in range(start, stop, BLOCK_ROWS):
        block = [c[lo:min(lo + BLOCK_ROWS, stop)].tolist() for c in columns]
        fh.writelines(_encode(dict(zip(keys, row))) + "\n" for row in zip(*block))


def _write_forked(fh, path, keys, columns, shards: int) -> None:
    """Rows split into `shards` contiguous shards: the caller's process
    encodes shard 0 into `fh` while one forked child per other shard encodes
    into an unnamed temp file beside `path`; the parent then appends those
    files in shard order, so the bytes equal one serial pass.  On failure
    the children still running are killed and reaped.

    Forking is safe here although BLAS may hold threads: a child runs only
    `tolist` and the JSON encoder, which take no lock another thread could
    hold and make no BLAS call, and it leaves through `os._exit`, so it
    runs no exit handler and flushes no buffer it inherited.  Tested on
    CPython 3.11 only: from 3.12 `os.fork` in a process with live threads
    also emits a DeprecationWarning, hidden by the default warning filters
    but shown by pytest or `-W error`.
    """
    import os
    import shutil
    import signal
    import tempfile

    n = len(columns[0])
    bounds = [n * s // shards for s in range(shards + 1)]
    tmps, pids = [], []
    try:
        for s in range(1, shards):
            tmp = tempfile.TemporaryFile("w+", encoding="utf-8",
                                         dir=os.path.dirname(os.path.abspath(path)))
            tmps.append(tmp)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    encode_shard(tmp, keys, columns, bounds[s], bounds[s + 1])
                    tmp.flush()
                    status = 0
                except BaseException as e:
                    os.write(2, f"{path}: shard {s} encoder failed: {e!r}\n".encode())
                finally:
                    os._exit(status)
            pids.append(pid)
        encode_shard(fh, keys, columns, 0, bounds[1])
        for s, tmp in enumerate(tmps, start=1):
            _, status = os.waitpid(pids[s - 1], 0)
            pids[s - 1] = None
            if status:
                raise OSError(f"cannot write {path}: encoder of rows "
                              f"{bounds[s]}-{bounds[s + 1] - 1} exited with "
                              f"status {os.waitstatus_to_exitcode(status)}")
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh)
    except BaseException:
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    finally:
        for tmp in tmps:
            tmp.close()


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
