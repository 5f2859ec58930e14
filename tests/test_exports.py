"""The package's export list and its imports name the same public names, and
every name its docstrings and comments quote is one the package defines."""

from __future__ import annotations

import ast
import inspect
import io
import re
import tokenize
from pathlib import Path

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


# A name quoted in double backticks, dotted or not, and nothing else.
_QUOTED = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")


def _defined_and_quoted() -> tuple[set[str], list[tuple[str, str]]]:
    """Every name the package defines, and every (file, name) its docs quote.

    A def, class, argument, attribute, import, module or string constant
    counts as defined; docstrings and comments are what quote.
    """
    defined: set[str] = set()
    quoted: list[tuple[str, str]] = []
    for path in sorted(Path(halodet.__file__).parent.glob("*.py")):
        source = path.read_text("utf-8")
        tree = ast.parse(source)
        defined.add(path.stem)
        docs = [ast.get_docstring(tree, clean=False)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
                docs.append(ast.get_docstring(node, clean=False))
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute):
                defined.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    defined.update(alias.name.split("."))
                    defined.add(alias.asname or alias.name)
                defined.update((getattr(node, "module", None) or "").split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                defined.add(node.value)
        docs += [token.string for token in tokenize.generate_tokens(io.StringIO(source).readline)
                 if token.type == tokenize.COMMENT]
        quoted += [(path.name, name) for doc in docs if doc for name in _QUOTED.findall(doc)]
    return defined, quoted


def test_every_name_quoted_in_a_docstring_or_comment_is_defined():
    defined, quoted = _defined_and_quoted()
    assert len(quoted) > 50  # the scan reads docstrings and comments at all
    stale = [(file, name) for file, name in quoted
             if name not in defined and not set(name.split(".")) <= defined]
    assert stale == []
