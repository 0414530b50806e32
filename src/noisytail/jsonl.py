"""Strict JSON and JSON Lines persistence for column arrays, the one rule
for what a JSON value the program reads may be, and `Forks`, the one
helper that forks.

Every writer returns the SHA-256 of the bytes it wrote, hashed as they are
written, so no file is read back to be hashed.  A JSONL writer builds one
`%` row template per file, which writes the C JSON encoder's bytes for
each row's dict, and fills it serially, a block of rows per `%`.  The
pipeline saves every artifact, JSONL, JSON or text, in a forked child of
its own (see `pipeline.Workspace`), which sends back the digest and how
long the write took.
Readers stream a file line by line, array fields straight into a float64
matrix preallocated from the line count.  Parse errors, an integer past
CPython's 4,300-digit limit among them, name the line, or the file of a
JSON document; NaN and infinity are refused both ways, a writer before
opening the file.
Configs, JSONL records and checkpoints share one type table, `FIELD_TYPES`
(see `build` and `read_columns`), and every number array passes the type
scan of `check_numbers`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, ParseError
from .numerics import Mlp, as_vec

BLOCK_ROWS = 512  # rows converted to Python values at a time; bounds peak memory


def write_rows(path, keys: tuple[str, ...], columns) -> str:
    """Row i becomes {keys[0]: columns[0][i], ...}; 2-D columns give arrays.
    Returns the SHA-256 of the bytes written.

    A NaN or infinity is refused with ValueError, naming its key and row,
    before the file is opened; a column that passes builds one bool array.
    The rows are encoded serially, a block at a time, by `encode_rows`,
    which refuses a column that is not int, float or bool.  A write that
    fails deletes the target.
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


# the `%` conversion of a column's values by dtype kind: Python's int and
# float reprs are the strings the C JSON encoder writes; a bool column goes
# in as the strings "true" and "false"
_CONVERSIONS = {"i": "%r", "u": "%r", "f": "%r", "b": "%s"}


def row_template(keys, columns) -> str:
    """The `%` template of one row, `{"key": %r, "vector": [%r, %r], ...}`
    and a newline, which writes the bytes the C JSON encoder writes for
    the row's dict.  Keys are JSON-encoded, with `%` doubled; a 2-D column gives an
    array of its width.  A column that is not 1-D or 2-D int, float or
    bool is a TypeError naming its key."""
    fields = []
    for key, col in zip(keys, columns):
        conv = _CONVERSIONS.get(col.dtype.kind)
        if conv is None or col.ndim not in (1, 2):
            raise TypeError(f"cannot write {key}: {col.ndim}-D {col.dtype} column")
        if col.ndim == 2:
            conv = "[" + ", ".join([conv] * col.shape[1]) + "]"
        fields.append(json.dumps(key).replace("%", "%%") + ": " + conv)
    return "{" + ", ".join(fields) + "}\n"


def encode_rows(write, keys, columns) -> None:
    """Pass every row, UTF-8 encoded, to `write` a block at a time: one
    `row_template` per file, filled for a whole block by one `%` over the
    block's values, gathered row-major into an object array of Python
    ints, floats and "true"/"false" strings."""
    template = row_template(keys, columns)
    widths = [1 if c.ndim == 1 else c.shape[1] for c in columns]
    n = len(columns[0])
    for lo in range(0, n, BLOCK_ROWS):
        m = min(BLOCK_ROWS, n - lo)
        values = np.empty((m, sum(widths)), object)
        at = 0
        for col, width in zip(columns, widths):
            block = col[lo:lo + BLOCK_ROWS].reshape(m, width)
            values[:, at:at + width] = (np.where(block, "true", "false")
                                        if col.dtype.kind == "b" else block)
            at += width
        write(((template * m) % tuple(values.ravel().tolist())).encode())


class Forks:
    """Forked children, each running one function whose str result comes
    back through a pipe; the one place this package forks, for the
    pipeline's writers (`pipeline.Workspace`) and each training loop's
    batch loader (`numerics.sgd_epochs`).  No child forks a child of its
    own.

    A child leaves through `os._exit`, so it runs no exit handler and
    flushes no buffer it inherited.  One that raises prints `label
    failed: ...` to stderr and exits 1, and `wait` raises OSError
    naming the label.  `kill` sends SIGKILL, which ends a child whatever
    signal handler it inherited, and reaps it.

    Forking is safe here although BLAS may hold threads: the children of
    this package run only
    - the savers, that is `tolist`, `np.where`, `%` formatting, the JSON
      encoder, hashlib and `isfinite`, plus, for the checkpoints,
      `mlp_state` (here), `np.split` and the `isfinite` checks in
      `Mlp.__post_init__`;
    - the loaders, that is the generator's draws (`permutation`, and
      `normal` and `random` in `stage1.augment`), row gathers, `concatenate`,
      elementwise ufuncs, copies into the shared ring, one-byte pipe
      reads and writes, and the JSON encoder; stage 1's loader also trains
      the classifier head (`numerics.Follower`): its forward and backward
      products, `softmax_ce` and `SgdMomentum`.
    None takes a lock another thread could hold (the generator's lock is
    taken only by the thread that forks).  The head's products are BLAS
    calls, which are safe in a child: OpenBLAS's fork handler
    (`pthread_atfork`) shuts its thread pool down in the parent before
    every fork, so a child starts with no BLAS thread and no BLAS lock
    held.  At the default widths the head's products, 64 x 32 x 20, are
    far below BLAS_TWO_THREADS and run on the child's own thread; a larger
    one starts a pool of the child's own.  Tested on CPython 3.11 only:
    from 3.12 `os.fork` in a process with live threads also emits a
    DeprecationWarning, hidden by the default warning filters but shown
    by pytest or `-W error`.
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
                    value = json.loads(line)
                except ValueError as e:
                    raise ParseError(f"bad {what}: malformed JSON ({_json_error(e)})",
                                     lineno) from e
                yield lineno, value


def _json_error(e: ValueError) -> str:
    """What `json.loads` refused: a JSONDecodeError's message, or the
    plain ValueError CPython raises for an integer of more than 4,300
    digits."""
    return e.msg if isinstance(e, json.JSONDecodeError) else str(e)


_NUMBERS = frozenset((int, float))  # exact types: JSON true/false load as bool


def check_numbers(values, name: str, size: int) -> None:
    """InvalidInputError unless `values` is a JSON array of `size` numbers,
    checked by one type scan in C, not a Python loop.  An integer too large
    for a float64 passes; every reader reports its OverflowError."""
    if (type(values) is not list or len(values) != size
            or not _NUMBERS.issuperset(map(type, values))):
        raise InvalidInputError(f"{name} must be an array of {size} numbers")


class VectorColumn:
    """Equal-length number arrays stored as the rows of a float64 matrix
    preallocated to one row per line of `path`; the first fixes the width.
    Every row passes `check_numbers`."""

    def __init__(self, name: str, path):
        with open(path, "rb") as fh:
            self.capacity = 1 + sum(chunk.count(b"\n")
                                    for chunk in iter(lambda: fh.read(1 << 20), b""))
        self.name, self.buf, self.n = name, None, 0

    def append(self, values) -> None:
        if self.buf is None:
            self.buf = np.empty((self.capacity, as_vec(values, self.name).size))
        check_numbers(values, self.name, self.buf.shape[1])
        self.buf[self.n] = values
        self.n += 1


# the annotation of a dataclass field -> (what its JSON value must be,
# check).  bool is a subclass of int in Python, so the checks compare
# exact types.  A float field takes an integer below 2**1023 in size, which
# a float64 holds finitely (`math.isfinite` of a larger one raises).
FIELD_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", lambda v: type(v) is float and math.isfinite(v)
              or type(v) is int and v.bit_length() < 1024),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "Optional[str]": ("a string or null", lambda v: v is None or type(v) is str),
    "Optional[list[tuple[int, int]]]": (
        "a list of [source, target] class pairs",
        lambda v: v is None or type(v) is list and all(
            type(p) is list and len(p) == 2 and {int}.issuperset(map(type, p))
            for p in v)),
}
# a JSONL column's array type: an integer there must pass `is_int64`
_DTYPES = {"int": np.int64, "float": np.float64, "bool": bool}


def is_int64(v) -> bool:
    """The rule for an id or a label: a JSON integer that fits an int64."""
    return type(v) is int and -2**63 <= v < 2**63


def build(cls, data: dict, where: str = "", **built):
    """`cls(**data, **built)` for a dataclass `cls`, once every value in
    `data` fits the FIELD_TYPES entry of its field's annotation; `built`
    passes fields built already.  An unknown key, a value that does not
    fit or a value `cls` refuses is an InvalidSpecError naming the field
    after the prefix `where`, e.g. `stage2.momentum`."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(data) - types.keys()
    if unknown:
        raise InvalidSpecError(f"unknown config keys: {sorted(where + k for k in unknown)}")
    for name, value in data.items():
        want, ok = FIELD_TYPES[types[name]]
        if not ok(value):
            raise InvalidSpecError(f"{where}{name} must be {want}, got {value!r}")
    try:
        return cls(**data, **built)
    except InvalidSpecError as e:
        raise InvalidSpecError(f"{where}{e}") from e


def read_columns(path, what: str, scalars: dict, vectors: tuple = (),
                 optional: dict | None = None):
    """Stream JSONL records into one array per key, returned with each
    row's line number.  `scalars` maps a key to the FIELD_TYPES entry its
    value must fit: "int" (a JSON integer, not a bool, that fits an
    int64), "float" (a finite JSON number) or "bool"; any other value is a
    ParseError naming the line.  A key in `optional` may be absent or null
    and then reads as its value there.  Each key in `vectors` holds a
    number array and becomes the rows of a finite float64 matrix."""
    optional = optional or {}
    vecs = [VectorColumn(key, path) for key in vectors]
    checks = [(key, kind, *FIELD_TYPES[kind]) for key, kind in scalars.items()]
    cols = {key: [] for key in scalars}
    linenos = []
    for lineno, rec in read_rows(path, f"{what} record"):
        try:
            values = [rec.get(key) if key in optional else rec[key]
                      for key, *_ in checks]
            for col in vecs:
                col.append(rec[col.name])
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
            raise ParseError(f"bad {what} record: {e!r}", lineno) from e
        for (key, kind, want, ok), value in zip(checks, values):
            if value is None and key in optional:
                value = optional[key]
            elif not (is_int64(value) if kind == "int" else ok(value)):
                raise ParseError(f"bad {what} record: {key} must be {want}, "
                                 f"got {json.dumps(value)}", lineno)
            cols[key].append(value)
        linenos.append(lineno)
    if not linenos:
        raise ParseError(f"{what} file contains no records", None)
    out = {key: np.array(cols[key], _DTYPES[kind]) for key, kind, *_ in checks}
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
        except ValueError as e:
            raise ParseError(f"malformed {what} JSON in {path} ({_json_error(e)})",
                             getattr(e, "lineno", None)) from e


@contextmanager
def read_checkpoint(path, kind: str):
    """The JSON object of a `kind` checkpoint.  A missing key, a value
    that does not fit its type or a bad array met while rebuilding from it
    is a ParseError naming the file."""
    state = read_json(path, "checkpoint")
    if not isinstance(state, dict) or state.get("kind") != kind:
        raise ParseError(f"{path} is not a {kind} checkpoint")
    try:
        yield state
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ParseError(f"malformed {kind} checkpoint {path}: {e!r}") from e


def mlp_state(net: Mlp) -> dict:
    """JSON-serializable snapshot: layer dims plus flat weight/bias arrays."""
    return {
        "layer_dims": list(net.layer_dims),
        "activation": net.activation,
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def mlp_from_state(state: dict) -> Mlp:
    """The net of an `mlp_state` snapshot.  The dims must be JSON integers,
    and each weight and bias array must pass `check_numbers` at the size
    the dims give it, else InvalidInputError."""
    dims = state["layer_dims"]
    if type(dims) is not list or not {int}.issuperset(map(type, dims)):
        raise InvalidInputError("layer_dims must be an array of integers")
    weights, biases = [], []
    for l, (fan_in, fan_out, w, b) in enumerate(zip(
            dims[:-1], dims[1:], state["weights"], state["biases"], strict=True)):
        check_numbers(w, f"layer {l} weights", fan_in * fan_out)
        check_numbers(b, f"layer {l} biases", fan_out)
        weights.append(np.array(w, dtype=np.float64).reshape(fan_out, fan_in))
        biases.append(np.array(b, dtype=np.float64))
    return Mlp(dims, weights, biases, state.get("activation", "tanh"))


def check_rows(bad: np.ndarray, linenos, message) -> None:
    """ParseError naming the line of the first row flagged in `bad`."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(message(i) if callable(message) else message, linenos[i])
