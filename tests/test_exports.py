"""The package's export list and its imports name the same public names."""

from __future__ import annotations

import ast
import inspect

import halodet


def _imported_public_names() -> set[str]:
    tree = ast.parse(inspect.getsource(halodet))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not (alias.asname or alias.name).startswith("_")}


def test_every_exported_name_resolves():
    missing = [name for name in halodet.__all__ if not hasattr(halodet, name)]
    assert missing == []
    assert len(set(halodet.__all__)) == len(halodet.__all__)


def test_every_public_import_is_exported():
    assert _imported_public_names() == set(halodet.__all__)
