"""The names and method shapes the offline benchmark relies on.

The benchmark scripts under ``benchmarks/`` import halodet by name and
subclass ``DiskCache`` and ``ModelGateway``. They are parsed here, never
imported, so a change that removes or reshapes what they use, or a call
they make, fails this suite before it fails a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

from halodet import bench
from halodet.cache import DiskCache
from halodet.gateway import ModelGateway

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text("utf-8"))
            for path in sorted(BENCHMARKS.glob("*.py"))}


def _imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (module, name) for each ``from halodet… import``."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "halodet"
            for alias in node.names}


def _used_names() -> list[tuple[str, str, str]]:
    """(script, module, name) for each ``from halodet… import`` and ``halodet.X``."""
    used = []
    for script, tree in _trees().items():
        used += [(script, module, name) for module, name in _imports(tree).values()]
        used += [(script, "halodet", node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "halodet" and not node.attr.startswith("__")]
    return used


def _used_attributes() -> list[tuple[str, str, str]]:
    """(script, imported object, attribute) for each ``X.attr`` on a name taken from halodet.

    ``from halodet import bench`` then ``bench.load(...)`` uses ``halodet.bench.load``.
    """
    used = []
    for script, tree in _trees().items():
        imported = _imports(tree)
        used += [(script, ".".join(imported[node.value.id]), node.attr)
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in imported]
    return used


def _resolve(dotted: str):
    module, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(module), name)


def test_each_name_the_benchmark_uses_resolves():
    used = _used_names()
    assert {script for script, _, _ in used} >= {"run.py", "spans.py", "fakes.py"}
    missing = [f"{script}: {module}.{name}" for script, module, name in used
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_each_attribute_of_an_imported_name_resolves():
    used = _used_attributes()
    assert ("run.py", "halodet.bench", "load_detection_input") in used
    missing = [f"{script}: {name}.{attr}" for script, name, attr in used
               if not hasattr(_resolve(name), attr)]
    assert missing == []


def _positional(method) -> list[str]:
    return [p.name for p in inspect.signature(method).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD]


def test_the_overridden_methods_keep_their_shapes():
    assert _positional(DiskCache.get) == ["self", "key"]
    assert _positional(DiskCache.put) == ["self", "key", "value"]
    assert _positional(ModelGateway.complete) == ["self", "request"]
    inspect.signature(ModelGateway).bind(object())
    inspect.signature(DiskCache).bind("cache-dir")
    assert _positional(bench.load_detection_input) == ["path"]


def test_the_shapes_above_cover_every_override():
    overridden = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                if isinstance(base, ast.Name) and base.id in ("DiskCache", "ModelGateway"):
                    overridden |= {(base.id, item.name) for item in node.body
                                   if isinstance(item, ast.FunctionDef)}
    assert overridden == {
        ("DiskCache", "__init__"), ("DiskCache", "get"), ("DiskCache", "put"),
        ("ModelGateway", "__init__"), ("ModelGateway", "complete"),
    }


def _halodet_calls() -> list[tuple[str, int, str, ast.Call]]:
    """(script, line, callee, call) for each call of a halodet name from a benchmark script.

    A callee is a name imported from halodet, ``halodet.X``, or an attribute
    of a halodet module imported by name (``bench.load``).
    """
    calls = []
    for script, tree in _trees().items():
        imported = {local: ".".join(source) for local, source in _imports(tree).items()}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, callee = node.func, None
            if isinstance(func, ast.Name) and func.id in imported:
                callee = imported[func.id]
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                owner = imported.get(func.value.id)
                if func.value.id == "halodet":
                    callee = f"halodet.{func.attr}"
                elif owner is not None and inspect.ismodule(_resolve(owner)):
                    callee = f"{owner}.{func.attr}"
            if callee is not None:
                calls.append((script, node.lineno, callee, node))
    return calls


def test_each_call_into_halodet_binds_to_its_signature():
    """A renamed or removed parameter, or a new required one, fails here, not in a
    benchmark run. Positional arguments bind by count, so a swap of two is not seen."""
    bound, unbound = [], []
    for script, line, callee, call in _halodet_calls():
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                keyword.arg is None for keyword in call.keywords):
            continue  # *args or **kwargs: the count is not known before the run
        try:
            inspect.signature(_resolve(callee)).bind(
                *call.args, **{keyword.arg: keyword.value for keyword in call.keywords})
        except TypeError as exc:
            unbound.append(f"{script}:{line}: {callee}: {exc}")
        else:
            bound.append(callee)
    assert unbound == []
    assert {"halodet.executor.run_batch", "halodet.executor.write_run_dir",
            "halodet.cache.CacheKey", "halodet.bench.load_detection_input"} <= set(bound)
