"""The names the benchmark traces still exist in the package.

perfbench/tracing.py wraps each (module, attribute) of its WRAP table
and stops the benchmark when one is gone.  This test reads that table
from the file (parsed, not imported, so nothing is written next to
it), so that renaming or dropping a traced layer fails here first.
The attributes its cone-build hook reads are checked the same way, and
so is the order of calls through which it links a cone to its homology
and tower split.
"""

import ast
import importlib
from collections import OrderedDict
from pathlib import Path

from helpers import staircase
from hfplus import cfk, surgery
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


def test_each_cone_goes_through_homology_then_its_tower_split(monkeypatch):
    # the trace keys cone sizes by the id of the cone's complex, then of
    # the group graded_homology returns, which tower_decompose must get
    cones, groups, splits = [], [], []
    build = surgery.build_mapping_cone
    homology = surgery.graded_homology
    split = surgery.tower_decompose

    def building(*args, **kwargs):
        cone = build(*args, **kwargs)
        cones.append(cone.complex)
        return cone

    def reading(complex_, *args, **kwargs):
        group = homology(complex_, *args, **kwargs)
        groups.append((complex_, group))
        return group

    def splitting(group):
        splits.append(group)
        return split(group)

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "build_mapping_cone", building)
    monkeypatch.setattr(surgery, "graded_homology", reading)
    monkeypatch.setattr(surgery, "tower_decompose", splitting)
    surgery.hf_plus(staircase(3), 7, 3)
    assert len(cones) == len(groups) == len(splits) == 7
    for cone, (complex_, group), read in zip(cones, groups, splits):
        assert complex_ is cone and read is group
