"""The names the benchmark traces still exist in the package.

perfbench/tracing.py wraps each (module, attribute) of its WRAP table
and stops the benchmark when one is gone.  This test reads that table
from the file (parsed, not imported, so nothing is written next to
it), so that renaming or dropping a traced layer fails here first.
The attributes its cone-build hook reads are checked the same way.
"""

import ast
import importlib
from pathlib import Path

from hfplus.cfk import builtin
from hfplus.homology import TOWER_LEVELS
from hfplus.surgery import SurgeryDescriptor, build_mapping_cone

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


def test_the_cone_build_hook_reads_existing_attributes():
    # Tracer._after_cone_build reads these off each build_mapping_cone
    source = builtin("trefoil_right")
    descriptor = SurgeryDescriptor(1, 1, 0, 1, TOWER_LEVELS)
    cone = build_mapping_cone(source, descriptor)
    assert (descriptor.spin_c, descriptor.depth) == (0, TOWER_LEVELS)
    assert cone.complex.n == len(cone.complex.boundary) > 0
    assert all(isinstance(col, dict) for col in cone.complex.boundary)
    assert len(source.generators) == 3
