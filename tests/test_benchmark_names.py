"""The names the benchmark traces and imports still exist in the package.

perfbench/tracing.py wraps each (module, attribute) of its WRAP table
and stops the benchmark when one is gone.  This test reads that table
from the file (parsed, not imported, so nothing is written next to
it), so that renaming or dropping a traced layer fails here first.
Every name a perfbench script imports from hfplus is resolved the same
way.  The attributes its cone-build hook reads are checked, and so is
the order of calls through which it links a cone to its homology and
tower split.  The signatures and result fields the benchmark's
recordings rest on are pinned.
"""

import ast
import importlib
import inspect
from collections import OrderedDict
from pathlib import Path

from helpers import staircase
from hfplus import cfk, surgery
from hfplus.cfk import builtin
from hfplus.homology import TOWER_LEVELS
from hfplus.surgery import SpincResult, SurgeryDescriptor, build_mapping_cone

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _perfbench_imports():
    """(module, name, script) of each `from hfplus... import name`."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "hfplus"):
                for alias in node.names:
                    yield node.module, alias.name, path.name


def _resolves(module, name):
    """Whether `from module import name` finds an attribute or submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_name_the_benchmark_imports_exists():
    found = list(_perfbench_imports())
    assert ("hfplus.cli", "strip_provenance", "checks.py") in found
    missing = [f"{module}.{name} ({script})"
               for module, name, script in found
               if not _resolves(module, name)]
    assert not missing, missing


def test_the_benchmark_signatures_and_result_fields():
    assert list(inspect.signature(surgery.hf_plus).parameters) == [
        "complex_", "p", "q"]
    # tracing reads the descriptor as build_mapping_cone's second argument
    assert list(inspect.signature(build_mapping_cone).parameters)[:2] == [
        "complex_", "descriptor"]
    assert list(SpincResult._fields) == [
        "index", "d", "hf_red", "parity", "sigma"]


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
