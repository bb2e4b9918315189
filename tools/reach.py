#!/usr/bin/env python3
"""List every ``src/repro`` function that nothing the project runs enters.

The recorder is a profile hook (``sys.setprofile`` and
``threading.setprofile``) that notes the code object of every ``call``
event.  A ``call`` event fires for each Python function entered, dunders
that C code calls (``__hash__``, ``__len__``, ``__repr__``) included.

It records, in order:

1. tier-1 (``python -m pytest`` at the repository root), in this process;
2. each example under ``examples/``, each in its own process.

Every ``def`` under ``src/repro`` (found with ``ast``, nested ones
included) that none of them entered is printed.  The run exits non-zero
when the suite or an example fails, when an unentered function is
missing from ``tools/reach_keep.txt``, or when that keep list names a
function that is entered or no longer exists.  Each keep-list line is
``<path under src/repro>::<qualified name>  <reason>``; a line without a
reason is an error.

The run writes nothing into the tree: bytecode caching, the pytest cache
and the Hypothesis database are off or redirected to a temporary
directory.

Usage (from the repository root)::

    PYTHONPATH=src python tools/reach.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
KEEP_LIST = Path(__file__).resolve().with_name("reach_keep.txt")


def _start(codes: set) -> None:
    """Add the code object of each function entered under ``src/repro``,
    in any thread, to ``codes`` until :func:`_stop`."""
    prefix = str(PACKAGE) + os.sep

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            codes.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)


def _stop() -> None:
    sys.setprofile(None)
    threading.setprofile(None)


def _keys(codes: set) -> set:
    return {(code.co_filename, code.co_firstlineno) for code in codes}


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """Every ``def`` under ``src/repro``: ``(file, first line)`` ->
    ``("<path>::<qualname>", line count)``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    functions = {}

    def walk(node, path, filename, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(scope + [child.name])
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                functions[(filename, first)] = (
                    f"{path}::{qualname}", child.end_lineno - first + 1)
                walk(child, path, filename,
                     scope + [child.name, "<locals>"])
            elif isinstance(child, ast.ClassDef):
                walk(child, path, filename, scope + [child.name])
            else:
                walk(child, path, filename, scope)

    for source in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        walk(tree, source.relative_to(PACKAGE).as_posix(), str(source), [])
    return functions


def read_keep_list() -> tuple[dict[str, str], list[str]]:
    """``{name: reason}`` from the keep list, and its malformed lines."""
    keep, errors = {}, []
    for number, line in enumerate(KEEP_LIST.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip():
            errors.append(f"{KEEP_LIST.name}:{number}: {name} has no reason")
        keep[name] = reason.strip()
    return keep, errors


class _HypothesisHome:
    """Points Hypothesis's example database at a scratch directory."""

    def __init__(self, directory: str):
        self.directory = directory

    def pytest_configure(self, config):
        from hypothesis.configuration import set_hypothesis_home_dir

        set_hypothesis_home_dir(self.directory)


def run_tier1(codes: set, scratch: str) -> int:
    """``python -m pytest -q`` at the root, in this process."""
    import pytest

    sys.path.insert(0, str(ROOT))
    _start(codes)
    try:
        return pytest.main(["-q", "-p", "no:cacheprovider"],
                           plugins=[_HypothesisHome(scratch)])
    finally:
        _stop()


def run_example(path: Path, scratch: str) -> tuple[int, set]:
    """Run one example in a child process under the recorder."""
    out = os.path.join(scratch, f"{path.stem}.json")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--example", str(path), out],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        return proc.returncode, set()
    with open(out) as handle:
        return 0, {tuple(key) for key in json.load(handle)}


def example_child(path: str, out: str) -> None:
    import runpy

    codes: set = set()
    _start(codes)
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        _stop()
    with open(out, "w") as handle:
        json.dump(sorted(_keys(codes)), handle)


def main() -> int:
    os.chdir(ROOT)
    sys.dont_write_bytecode = True
    functions = defined_functions()
    keep, errors = read_keep_list()

    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        codes: set = set()
        status = run_tier1(codes, scratch)
        entered = _keys(codes)
        if status != 0:
            errors.append(f"tier-1 failed (pytest exit {status})")
        for example in sorted((ROOT / "examples").glob("*.py")):
            code, keys = run_example(example, scratch)
            if code != 0:
                errors.append(f"{example.name} failed (exit {code})")
            entered |= keys

    unentered = sorted(
        (name, lines) for key, (name, lines) in functions.items()
        if key not in entered)
    names = {name for name, _ in functions.values()}
    print(f"\nreach: {len(functions)} functions under src/repro, "
          f"{len(functions) - len(unentered)} entered, "
          f"{len(unentered)} not entered "
          f"({sum(lines for _, lines in unentered)} lines):")
    for name, lines in unentered:
        reason = keep.get(name)
        print(f"  {name}  ({lines} lines)"
              + (f"  kept: {reason}" if reason else ""))
        if reason is None:
            errors.append(f"{name} is entered by nothing and not kept")
    unentered_names = {name for name, _ in unentered}
    for name in keep:
        if name not in names:
            errors.append(f"{KEEP_LIST.name} names {name}, which no "
                          "longer exists")
        elif name not in unentered_names:
            errors.append(f"{KEEP_LIST.name} names {name}, which is "
                          "entered")
    for error in errors:
        print(f"reach error: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--example"]:
        example_child(*sys.argv[2:4])
    else:
        sys.exit(main())
