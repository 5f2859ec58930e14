"""The README's "Library use" block runs as written on the six-pair scenario."""

from __future__ import annotations

import re
from pathlib import Path

import e2e_scenario

ROOT = Path(__file__).resolve().parents[1]


def test_the_library_use_block_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text("utf-8")
    [block] = re.findall(r"^## Library use\n\n```python\n(.*?)^```", readme, re.S | re.M)
    e2e_scenario.materialize_fixtures(tmp_path / "mock")
    for path, replacement in (("/tmp/halodet-demo/mock", tmp_path / "mock"),
                              (".halodet-cache", tmp_path / "cache")):
        assert block.count(f'"{path}"') == 1, path
        block = block.replace(f'"{path}"', repr(str(replacement)))
    monkeypatch.chdir(ROOT)  # the block reads tests/fixtures/bench6.json
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert "level=<MetricLevel.CLAIM: 'claim'>" in printed
    assert "accuracy=1.0" in printed and "total=15," in printed
    assert (tmp_path / "cache").is_dir()
