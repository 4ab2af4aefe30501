"""Code lines per module of src/hfplus, and their total.

A code line is a physical line that is not blank, not a comment and
not part of a docstring (a statement that is a bare string;
linetrace.py imports is_docstring from here).  It counts the files of
src/hfplus next to this file, and this is the size ROADMAP.md and
CHANGES.md quote:

    python tests/codelines.py

Not collected by pytest.  Stdlib only; it reads the files and imports
none of them.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src", "hfplus")


def is_docstring(node):
    return (isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def code_lines(path):
    """The number of code lines of one Python file."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if is_docstring(node):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    return sum(1 for n, line in enumerate(source.splitlines(), start=1)
               if line.strip() and not line.lstrip().startswith("#")
               and n not in docstrings)


def main():
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            n = code_lines(os.path.join(PACKAGE, name))
            total += n
            print(f"  {name}: {n}")
    print(f"  total: {total}")


if __name__ == "__main__":
    main()
