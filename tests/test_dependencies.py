"""halodet runs on the standard library alone: no runtime dependency is declared
or imported."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _declared_dependencies() -> list[str]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one array under [project]
        block = re.search(r"^\[project\]$(.*?)^\[", text, re.M | re.S).group(1)
        found = re.search(r"^dependencies\s*=\s*\[(.*?)\]", block, re.M | re.S)
        return re.findall(r"\"([^\"]*)\"", found.group(1)) if found else []
    return tomllib.loads(text)["project"].get("dependencies", [])


def test_no_runtime_dependency_is_declared():
    assert _declared_dependencies() == []


def test_every_import_is_the_standard_library_or_halodet():
    allowed = sys.stdlib_module_names | {"halodet"}
    outside = []
    for path in sorted((ROOT / "src" / "halodet").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []
