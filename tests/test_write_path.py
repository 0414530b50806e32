"""One write path: every artifact is written by a saver built on the
writers of `jsonl`, which `pipeline.Workspace.write` runs in a forked
child.  No other module of the package opens a file for writing or writes
one through `pathlib`; this reads their source and checks.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noisytail"
WRITE_MODE_CHARS = set("wax+")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _mode(call: ast.Call, position: int):
    """The mode argument of an `open` call, or None when it is left out."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    return call.args[position] if len(call.args) > position else None


def _writes_in_mode(mode) -> bool:
    """A mode that is not a literal string counts as a write."""
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(WRITE_MODE_CHARS & set(mode.value))
    return True


def file_writes(source: str) -> list[tuple[int, str]]:
    """(line, call) for each call in `source` that can write a file:
    `open` or `io.open` or `Path.open` in a write mode, `os.open` with a
    write flag or flags it cannot read, and `write_text` or `write_bytes`
    on anything but the `jsonl` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        owner = f.value.id if isinstance(f, ast.Attribute) and isinstance(
            f.value, ast.Name) else None
        if isinstance(f, ast.Name) and f.id == "open":
            writes = _writes_in_mode(_mode(node, 1))
        elif isinstance(f, ast.Attribute) and f.attr == "open" and owner == "os":
            flags = node.args[1:2] + [kw.value for kw in node.keywords
                                      if kw.arg == "flags"]
            names = [n for flag in flags for n in ast.walk(flag)
                     if isinstance(n, (ast.Name, ast.Attribute))]
            writes = any(isinstance(n, ast.Name) and n.id != "os"
                         or isinstance(n, ast.Attribute) and n.attr in WRITE_FLAGS
                         for n in names)
        elif isinstance(f, ast.Attribute) and f.attr == "open":
            writes = _writes_in_mode(_mode(node, 1 if owner == "io" else 0))
        elif isinstance(f, ast.Attribute) and f.attr in ("write_text", "write_bytes"):
            writes = owner != "jsonl"
        else:
            continue
        if writes:
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "jsonl.py"),
                         ids=lambda p: p.name)
def test_only_jsonl_writes_files(path):
    assert file_writes(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, writes", [
    ('open(p, "w")', True),
    ('open(p, mode="ab")', True),
    ('open(p, "r+")', True),
    ("open(p, m)", True),
    ('io.open(p, "x")', True),
    ('Path(p).open("wb")', True),
    ('p.write_text("x")', True),
    ('Path(p).write_bytes(b"x")', True),
    ("os.open(p, os.O_WRONLY | os.O_CREAT)", True),
    ("os.open(p, flags)", True),
    ("open(p)", False),
    ('open(p, "rb")', False),
    ('open(p, "r", encoding="utf-8")', False),
    ("p.open()", False),
    ("os.open(p, os.O_RDONLY)", False),
    ('jsonl.write_text(p, "x")', False),
])
def test_the_check_tells_writes_from_reads(source, writes):
    assert bool(file_writes(source)) == writes
