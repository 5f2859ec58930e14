"""The HTTP stack loads only when a live client is built."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from halodet.gateway import HttpModelBackend, ModelRequest, PurposeTag
from halodet.prompts import RenderedPrompt
from halodet.tools import HttpFactSearcher, HttpObjectDetector, HttpSceneTextReader

ROOT = Path(__file__).resolve().parents[1]

_OFFLINE_SCRIPT = """
import sys, tempfile
import halodet
from halodet import cli
from halodet.tools import REPLAY_IDS, Replay, mock_backend_set

with tempfile.TemporaryDirectory() as tmp:
    store = halodet.DiskCache(tmp + "/store")
    halodet.ModelGateway(Replay(store, REPLAY_IDS["model"]))
    assert mock_backend_set(store).fact_searcher.search("q", 3) == []
    null = Replay(None, "null")
    halodet.ToolBackendSet(null, null, null, null)
    halodet.DiskCache(tmp + "/cache")
    code = cli.main(["stats", "--bench", "tests/fixtures/bench6.json"])
assert code == 0, code
assert "requests" not in sys.modules, "offline path imported requests"
print("offline ok")
"""


def test_offline_path_never_imports_requests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _OFFLINE_SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("offline ok")


class _JsonHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        sent = json.loads(self.rfile.read(length))
        body = json.dumps({"text": f"echo {sent['user']}"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def local_endpoint(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = HTTPServer(("127.0.0.1", 0), _JsonHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_live_client_without_session_gets_a_working_one(local_endpoint):
    import requests

    backend = HttpModelBackend(local_endpoint, api_key="k")
    request = ModelRequest(prompt=RenderedPrompt(system="s", user="hello"),
                           purpose_tag=PurposeTag.VERIFY)
    assert backend.invoke(request) == "echo hello"
    for client in (backend, HttpObjectDetector(local_endpoint),
                   HttpSceneTextReader(local_endpoint), HttpFactSearcher("key")):
        assert isinstance(client._session, requests.Session)
