"""The HTTP stack loads only on a live client's first call."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from conftest import Reply, image_ref
from halodet.gateway import HttpModelBackend, ModelRequest, PurposeTag
from halodet.prompts import RenderedPrompt
from halodet.tools import (
    HttpFactSearcher,
    HttpObjectDetector,
    HttpSceneTextReader,
    detect_objects,
    read_scene_text,
    search_facts,
)

ROOT = Path(__file__).resolve().parents[1]

_OFFLINE_SCRIPT = """
import sys, tempfile
sys.path.insert(0, "tests")
import e2e_scenario
import halodet
from halodet import cli
from halodet.gateway import HttpModelBackend
from halodet.tools import REPLAY_IDS, Replay, mock_backend_set

with tempfile.TemporaryDirectory() as tmp:
    store = halodet.DiskCache(tmp + "/store")
    halodet.ModelGateway(Replay(store, REPLAY_IDS["model"]))
    assert mock_backend_set(store).fact_searcher.search("q", 3) == []
    null = Replay(None, "null")
    halodet.ToolBackendSet(null, null, null, null)
    HttpModelBackend("https://model.example/v1", api_key="k")  # built, never called
    e2e_scenario.materialize_fixtures(tmp + "/mock")
    bench = "tests/fixtures/bench6.json"
    for args in (
        ["detect", "--bench", bench, "--backend", "mock", "--fixtures", tmp + "/mock",
         "--out", tmp, "--run-id", "r", "--cache-dir", tmp + "/cache"],
        ["evaluate", "--bench", bench, "--results", tmp + "/r"],
        ["stats", "--bench", bench],
        ["cache", "stat", "--cache-dir", tmp + "/cache"],
    ):
        code = cli.main(args)
        assert code == 0, (args[0], code)
for name in ("requests", "http.client", "ssl"):
    assert name not in sys.modules, f"offline path imported {name}"
print("offline ok")
"""


def test_offline_path_never_imports_requests():
    """Nor http.client and ssl, which the first live call loads."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _OFFLINE_SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("offline ok")


def test_a_live_client_from_its_endpoint_and_key_completes_a_call(loopback):
    loopback.script = [Reply({"text": "echo hello"}), Reply({"detections": []}),
                       Reply({"lines": []}), Reply({"organic": [{"snippet": "s"}]})]
    request = ModelRequest(prompt=RenderedPrompt(system="s", user="hello"),
                           purpose_tag=PurposeTag.VERIFY)
    assert HttpModelBackend(loopback.url, api_key="k").invoke(request) == "echo hello"
    assert detect_objects(HttpObjectDetector(loopback.url), image_ref("a"), ["cat"]) == []
    assert read_scene_text(HttpSceneTextReader(loopback.url), image_ref("a")) == []
    [hit] = search_facts(HttpFactSearcher("key", endpoint=loopback.url), "q", 3)
    assert hit.snippet == "s"
    assert len(loopback.requests) == 4
