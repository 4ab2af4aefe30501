"""The statement lines of hfplus that the test suite never executes.

Runs the suite in this process under sys.settrace and prints, for each
module of src/hfplus, the lines of statements no test reached; a
docstring is not counted as a statement.  Tests that start a child
interpreter (the CLI entry points, the demos) are not traced, so a line
that only they reach is listed too.  It takes several times as long as
the suite does untraced.  Extra arguments go to pytest:

    PYTHONPATH=src:tests python tests/linetrace.py [pytest arguments]

It is a gate: it exits with pytest's code when the suite fails, and
otherwise nonzero when a line outside ALLOWED was missed.  ALLOWED
holds the lines only a child interpreter runs.

Not collected by pytest.  Stdlib apart from pytest itself.
"""

import ast
import importlib.util
import os
import sys

import pytest

from codelines import is_docstring

# {module file: lines no in-process test can run}: the __main__ guard
ALLOWED = {"cli.py": {381}}


def _package_files():
    """{path: module name} of hfplus, found without importing it."""
    root = os.path.dirname(importlib.util.find_spec("hfplus").origin)
    return {os.path.join(root, name): name
            for name in sorted(os.listdir(root)) if name.endswith(".py")}


def statement_lines(path):
    """The first line of every statement in the file, docstrings left out."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not is_docstring(node)}


def trace_suite(args):
    """(pytest exit code, {path: lines executed}) of one traced run."""
    files = _package_files()
    seen = {path: set() for path in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        # hfplus is first imported under the trace, so its module
        # bodies are traced too
        return local if frame.f_code.co_filename in seen else None

    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    return code, seen


def main():
    code, seen = trace_suite(sys.argv[1:])
    total = 0
    unexpected = []
    print("statement lines of src/hfplus never executed in process "
          "(child interpreters, as the CLI and demo tests start, are "
          "not traced):")
    for path, name in _package_files().items():
        missed = sorted(statement_lines(path) - seen[path])
        total += len(missed)
        unexpected += [f"{name}:{n}" for n in missed
                       if n not in ALLOWED.get(name, ())]
        print(f"  {name}: {len(missed)}"
              + (": " + ", ".join(map(str, missed)) if missed else ""))
    print(f"  total: {total}")
    if unexpected:
        print("missed outside ALLOWED: " + ", ".join(unexpected))
    return code or int(bool(unexpected))


if __name__ == "__main__":
    sys.exit(main())
