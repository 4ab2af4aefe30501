"""The names the benchmark traces still exist in the package.

perfbench/tracing.py wraps each (module, attribute) of its WRAP table
and stops the benchmark when one is gone.  This test reads that table
from the file (parsed, not imported, so nothing is written next to
it), so that renaming or dropping a traced layer fails here first.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrap_table():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "WRAP"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAP table in {TRACING}")


def test_every_traced_name_exists():
    table = _wrap_table()
    assert table
    missing = [f"hfplus.{module}.{attr}" for module, attr, _ in table
               if not hasattr(importlib.import_module(f"hfplus.{module}"),
                              attr)]
    assert not missing, missing
