"""The test session's own settings: a failing property test fails alone."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_later_test():
    pass
'''


def test_a_failing_given_test_leaves_the_later_tests_running(tmp_path):
    # Reporting a failing example imports libcst, which warns about a deprecated
    # API; the project's warning filters must not turn that into an INTERNALERROR.
    (tmp_path / "test_probe.py").write_text(_FAILING_THEN_PASSING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_probe.py::test_a_failing_property" in proc.stdout
    assert "1 passed" in proc.stdout
