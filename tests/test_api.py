"""The public API: hfplus.__all__ against what hfplus/__init__.py imports."""

import ast

import hfplus


def _imported_names():
    with open(hfplus.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names]


def test_every_public_name_resolves():
    assert len(set(hfplus.__all__)) == len(hfplus.__all__)
    for name in hfplus.__all__:
        assert hasattr(hfplus, name), name


def test_every_imported_name_is_public():
    imported = _imported_names()
    assert imported
    assert sorted(set(imported) - set(hfplus.__all__)) == []
