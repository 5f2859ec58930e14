"""Shared fixtures and the acceptance-criteria summary plugin."""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

import pytest

from halodet.hashing import sha256_text
from halodet.model import (
    Claim,
    HallucinationCategory,
    ImageRef,
    ImageTextPair,
    Label,
    Segment,
    TaskType,
)

_acceptance_results: dict[int, tuple[str, bool]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker:
        num, name = marker.args
        _acceptance_results[num] = (name, rep.passed)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_acceptance_results):
        name, passed = _acceptance_results[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({name}): {status}")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("HALODET_LIVE_TESTS") == "1":
        return
    skip_live = pytest.mark.skip(reason="live endpoints not opted in")
    for item in items:
        if "live" in item.keywords:
            item.add_marker(skip_live)


# --- shared builders -------------------------------------------------------------


class TableBackend:
    """Model backend double: routes replies by substring of the prompt text."""

    backend_id = "table"

    def __init__(self, rules):
        self.rules = list(rules)
        self.calls = 0
        self.requests = []

    def invoke(self, request):
        self.calls += 1
        self.requests.append(request)
        for marker, reply in self.rules:
            if marker in request.prompt.user or marker in request.prompt.system:
                return reply
        raise AssertionError(f"no rule matched prompt: {request.prompt.user[:100]!r}")


class ScriptedModelBackend:
    """Model backend double: replays a fixed script of texts and exceptions."""

    backend_id = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def invoke(self, request):
        from halodet.errors import BackendUnavailable

        self.calls += 1
        if not self.script:
            raise BackendUnavailable("scripted backend exhausted")
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def table_gateway(rules):
    from halodet.gateway import ModelGateway

    return ModelGateway(TableBackend(rules), sleep=lambda _: None)


def formulate_queries(pair, gateway):
    """The sequential reference for the executor's formulation schedule.

    Makes the four formulation calls one after another, in the order of
    ``FORMULATION_KINDS``; the attribute prompt binds the object vocabulary
    of the object reply. The first error stops the rest and is tagged with
    its ``template_id`` here, as ``executor._PairCalls._finish`` tags the
    error it picks. The executor makes the same calls concurrently and must
    reach the same plan.
    """
    from halodet.prompts import TemplateId, render_claim_list
    from halodet.stages import FORMULATION_KINDS, formulate, label_union, tool_plan

    claim_list = render_claim_list([c.text for c in pair.claims])
    replies = {}
    for template in FORMULATION_KINDS:
        objects = (label_union(replies[TemplateId.OBJECT_QUERY].values())
                   if template is TemplateId.ATTRIBUTE_QUERY else ())
        try:
            replies[template] = formulate(pair, template, gateway, objects, claim_list)
        except Exception as exc:
            exc.template_id = template
            raise
    return tool_plan(replies)


def image_ref(name: str) -> ImageRef:
    """Synthetic image identity: digest derived from the name, no file needed."""
    return ImageRef(path=f"images/{name}.jpg", digest=sha256_text(f"image-bytes:{name}"))


@pytest.fixture
def simple_pair() -> ImageTextPair:
    return ImageTextPair(
        id="pair-1",
        task=TaskType.IMAGE_CAPTIONING,
        image=image_ref("pair-1"),
        text="A man rides a red bicycle past a bakery.",
        claims=(
            Claim(index=1, text="A man rides a bicycle.",
                  gold_label=Label.NON_HALLUCINATORY, segment_id="S1"),
            Claim(index=2, text="The bicycle is red.",
                  gold_label=Label.HALLUCINATORY,
                  gold_categories=frozenset({HallucinationCategory.ATTRIBUTE}),
                  segment_id="S1"),
            Claim(index=3, text="There is a bakery.",
                  gold_label=Label.NON_HALLUCINATORY, segment_id="S2"),
        ),
        segments=(
            Segment(id="S1", text="A man rides a red bicycle", claim_indices=(1, 2)),
            Segment(id="S2", text="past a bakery.", claim_indices=(3,)),
        ),
    )


# --- loopback HTTP server ------------------------------------------------------------


@dataclass
class Reply:
    """One scripted response of the loopback server."""

    body: Any = None  # sent as JSON, unless it is bytes
    status: int = 200
    delay: float = 0.0  # seconds slept before replying
    close: bool = False  # close the connection after replying, without saying so
    short: bool = False  # announce one byte more than is sent, then close


class LoopbackServer(ThreadingHTTPServer):
    """A keep-alive HTTP/1.1 server on 127.0.0.1 that answers POSTs by script.

    Each POST is answered by the next entry of ``script``, or by ``respond``
    called with the decoded request body once the script is used up (by
    default the echo ``{"text": "echo <user>"}``). It records every request
    in ``requests`` and counts the connections it accepts in ``connections``.
    """

    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _LoopbackHandler)
        self.url = f"http://127.0.0.1:{self.server_port}/v1"
        self.script: list[Reply] = []
        self.respond: Callable[[Any], Reply] = lambda sent: Reply(
            {"text": f"echo {sent['user']}"})
        self.requests: list[dict[str, Any]] = []
        self.connections = 0
        self._lock = threading.Lock()

    def next_reply(self, request: dict[str, Any]) -> Reply:
        with self._lock:
            self.requests.append(request)
            if self.script:
                return self.script.pop(0)
        return self.respond(request["json"])

    def handle_error(self, request, client_address) -> None:
        pass  # a client that gave up on a delayed reply is expected


class _LoopbackHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive unless a reply closes
    server: LoopbackServer

    def setup(self) -> None:
        super().setup()
        with self.server._lock:
            self.server.connections += 1

    def do_POST(self) -> None:
        sent = self.rfile.read(int(self.headers["Content-Length"]))
        reply = self.server.next_reply({"path": self.path, "headers": dict(self.headers),
                                        "json": json.loads(sent)})
        time.sleep(reply.delay)
        body = reply.body if isinstance(reply.body, bytes) else json.dumps(reply.body).encode()
        head = (f"HTTP/1.1 {reply.status} Scripted\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body) + reply.short}\r\n\r\n")
        # Head and body in one send: written in two, the second waits on the
        # client's delayed ACK under Nagle's algorithm, about 44 ms a call.
        self.wfile.write(head.encode() + body)
        self.close_connection = reply.close or reply.short

    def log_message(self, *args) -> None:
        pass


@pytest.fixture
def loopback():
    """A LoopbackServer for one test. It polls for shutdown every 10 ms, not the
    default 0.5 s, so that tearing it down takes no noticeable time."""
    server = LoopbackServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()
