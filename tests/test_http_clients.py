"""Live-client wire behavior against a loopback HTTP server (``conftest.loopback``),
plus opt-in contract tests against real endpoints (HALODET_LIVE_TESTS=1)."""

from __future__ import annotations

import os
import socket
import ssl
import sys
import threading
import time

import pytest

from conftest import Reply, image_ref
from halodet.errors import (
    AuthFailure,
    BackendUnavailable,
    InvalidImage,
    PayloadTooLarge,
)
from halodet.executor import run_detection
from halodet.gateway import (
    HttpModelBackend,
    ModelGateway,
    ModelRequest,
    PurposeTag,
)
from halodet.model import Claim, ImageTextPair, TaskType
from halodet.prompts import RenderedPrompt
from halodet.stages import DetectionMethod
from halodet.tools import (
    DETECTOR_THRESHOLD,
    FactSnippet,
    GatewayAttributeAnswerer,
    HttpFactSearcher,
    HttpObjectDetector,
    HttpSceneTextReader,
    detect_objects,
    read_scene_text,
    search_facts,
)


def _request(user: str = "u") -> ModelRequest:
    return ModelRequest(
        prompt=RenderedPrompt(system="s", user=user),
        purpose_tag=PurposeTag.VERIFY,
    )


def _closed_port_url() -> str:
    """The URL of a loopback port that nothing listens on, so a connect is refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1"


class TestHttpModelBackend:
    def test_success_payload_shape(self, loopback):
        loopback.script = [Reply({"text": "reply"})]
        backend = HttpModelBackend(loopback.url, api_key="k", model="big-model")
        assert backend.invoke(_request()) == "reply"
        [sent] = loopback.requests
        assert sent["path"] == "/v1"
        assert sent["headers"]["Authorization"] == "Bearer k"
        assert sent["headers"]["Content-Type"] == "application/json"
        assert sent["json"]["system"] == "s" and sent["json"]["user"] == "u"
        assert sent["json"]["model"] == "big-model"
        assert sent["json"]["temperature"] == 0.0

    @pytest.mark.parametrize("status, error", [
        (401, AuthFailure), (403, AuthFailure),
        (413, PayloadTooLarge), (500, BackendUnavailable),
    ])
    def test_status_mapping(self, loopback, status, error):
        loopback.script = [Reply(status=status)]
        with pytest.raises(error):
            HttpModelBackend(loopback.url, api_key="k").invoke(_request())

    def test_missing_key_rejected_up_front(self):
        with pytest.raises(AuthFailure):
            HttpModelBackend("https://model.example", api_key="")


class TestHttpObjectDetector:
    def test_threshold_and_pixel_normalization(self, loopback):
        loopback.script = [Reply({
            "image_width": 1000, "image_height": 500,
            "detections": [
                {"label": "cat", "box": [100, 50, 400, 250], "score": 0.9},
                {"label": "cat", "box": [0, 0, 10, 10], "score": 0.2},
            ],
        })]
        out = detect_objects(HttpObjectDetector(loopback.url), image_ref("a"), ["cat"])
        assert loopback.requests[0]["json"]["threshold"] == DETECTOR_THRESHOLD == 0.35
        assert len(out) == 1
        box = out[0].box
        assert (box.x1, box.y1, box.x2, box.y2) == (0.1, 0.1, 0.4, 0.5)

    def test_already_normalized_when_no_dimensions(self, loopback):
        # A detection without a score counts as scored 1.0.
        loopback.script = [Reply({"detections": [{"label": "cat", "box": [0.1, 0.2, 0.3, 0.4]}]})]
        out = detect_objects(HttpObjectDetector(loopback.url), image_ref("a"), ["cat"])
        assert out[0].box.x2 == 0.3

    def test_invalid_image_status(self, loopback):
        loopback.script = [Reply(status=422)]
        with pytest.raises(InvalidImage):
            detect_objects(HttpObjectDetector(loopback.url), image_ref("a"), ["cat"])


class TestHttpSceneTextReader:
    def test_lines_parsed(self, loopback):
        line = {"text": "worlld", "box": [0.405, 0.504, 0.726, 0.7]}
        loopback.script = [Reply({"lines": [line]})]
        out = read_scene_text(HttpSceneTextReader(loopback.url), image_ref("a"))
        assert out[0].text == "worlld"


class TestHttpFactSearcher:
    def test_organic_results_mapped(self, loopback):
        loopback.script = [Reply({"organic": [
            {"title": "Huawei", "snippet": "HQ in Shenzhen.", "link": "https://a"},
            {"title": "More", "snippet": "Also Shenzhen.", "link": "https://b"},
            {"title": "Empty", "snippet": "", "link": "https://c"},
        ]})]
        searcher = HttpFactSearcher("key", endpoint=loopback.url)
        out = search_facts(searcher, "Where is Huawei headquartered?")
        assert [s.title for s in out] == ["Huawei", "More"]
        assert out[0].source_url == "https://a"
        assert loopback.requests[0]["json"] == {"q": "Where is Huawei headquartered?"}

    def test_quota_mapping(self, loopback):
        # A rate limit heals, so it maps to the class the executor retries.
        loopback.script = [Reply(status=429)]
        with pytest.raises(BackendUnavailable):
            search_facts(HttpFactSearcher("key", endpoint=loopback.url), "q")

    def test_missing_key_rejected_up_front(self):
        with pytest.raises(AuthFailure, match="fact search requires an API key"):
            HttpFactSearcher("")

    def test_api_key_header(self, loopback):
        loopback.script = [Reply({"organic": []})]
        HttpFactSearcher("secret", endpoint=loopback.url).search("q", 3)
        headers = loopback.requests[0]["headers"]
        assert headers["X-API-KEY"] == "secret"
        assert headers["Content-Type"] == "application/json"
        assert "Authorization" not in headers

    def test_non_json_body_is_backend_unavailable(self, loopback):
        loopback.script = [Reply(b"<html>not json</html>")]
        with pytest.raises(BackendUnavailable, match="malformed body"):
            search_facts(HttpFactSearcher("key", endpoint=loopback.url), "q")


# Each live client built on an endpoint, and one call through it.
_CLIENTS = {
    "model": lambda url: HttpModelBackend(url, api_key="k"),
    "detector": HttpObjectDetector,
    "scene-text": HttpSceneTextReader,
    "search": lambda url: HttpFactSearcher("key", endpoint=url),
}
_CALLS = {
    "model": lambda client: client.invoke(_request()),
    "detector": lambda client: detect_objects(client, image_ref("a"), ["cat"]),
    "scene-text": lambda client: read_scene_text(client, image_ref("a")),
    "search": lambda client: search_facts(client, "q"),
}


def _call(client: str, url: str):
    return _CALLS[client](_CLIENTS[client](url))


@pytest.mark.parametrize("error", ["connection-error", "timeout"])
@pytest.mark.parametrize("client", list(_CALLS))
def test_transport_error_is_backend_unavailable(client, error, loopback, monkeypatch):
    """A refused connect, and a server that sleeps past the call's timeout."""
    timeout = 0.2
    monkeypatch.setattr(type(_CLIENTS[client](loopback.url)), "timeout", timeout)
    if error == "timeout":
        url, cause = loopback.url, TimeoutError
        loopback.script = [Reply({"text": "late"}, delay=3 * timeout)]
    else:
        url, cause = _closed_port_url(), ConnectionRefusedError
    started = time.monotonic()
    with pytest.raises(BackendUnavailable, match="unreachable") as raised:
        _call(client, url)
    assert time.monotonic() - started < 2 * timeout
    assert isinstance(raised.value.__cause__, cause)


@pytest.mark.parametrize("client", list(_CALLS))
def test_a_body_nested_too_deeply_is_backend_unavailable(client, loopback):
    loopback.script = [Reply(b"[" * 5000)]
    with pytest.raises(BackendUnavailable, match="malformed body"):
        _call(client, loopback.url)


# A JSON body each client cannot read: a field it needs is missing or mistyped.
_WRONG_KEYS = {
    "model": {"reply": "x"},
    "detector": {"detections": [{"box": [0, 0, 1, 1], "score": 0.9}]},
    "scene-text": {"lines": [{"text": "x"}]},
    "search": {"organic": 5},
}


# A JSON body whose field each client needs is null: never the text "None".
_NULL_FIELDS = {
    "model": {"text": None},
    "detector": {"detections": [{"label": None, "box": [0, 0, 1, 1], "score": 0.9}]},
    "scene-text": {"lines": [{"text": None, "box": [0, 0, 1, 1]}]},
    "search": {"organic": [{"snippet": None, "title": "t", "link": "https://a"}]},
}


@pytest.mark.parametrize("shape", ["list", "null", "wrong-keys", "null-field"])
@pytest.mark.parametrize("client", list(_CALLS))
def test_a_wrongly_shaped_body_is_backend_unavailable(client, shape, loopback):
    body = {"list": [], "null": None, "wrong-keys": _WRONG_KEYS[client],
            "null-field": _NULL_FIELDS[client]}[shape]
    loopback.script = [Reply(body)]
    with pytest.raises(BackendUnavailable):
        _call(client, loopback.url)


# Numbers in a tool reply are JSON numbers: a string or a boolean is never coerced.
_DETECTION = {"label": "dog", "box": [0.1, 0.1, 0.5, 0.5], "score": 0.9}
_NOT_NUMBERS = {
    "strings-and-true": ("detector", {"detections": [
        {"label": "dog", "box": ["0.1", "0.1", True, "0.5"], "score": "0.9"}]}),
    "string-score": ("detector", {"detections": [{**_DETECTION, "score": "0.9"}]}),
    "true-score": ("detector", {"detections": [{**_DETECTION, "score": True}]}),
    "null-score": ("detector", {"detections": [{**_DETECTION, "score": None}]}),
    "true-coordinate": ("detector", {"detections": [{**_DETECTION, "box": [0, 0, True, 0.5]}]}),
    "string-width": ("detector", {"image_width": "1000", "image_height": 500,
                                  "detections": [_DETECTION]}),
    "true-height": ("detector", {"image_width": 1000, "image_height": True,
                                 "detections": [_DETECTION]}),
    "scene-text-strings": ("scene-text", {"lines": [{"text": "x", "box": ["0", "0", "1", "1"]}]}),
}


@pytest.mark.parametrize("client, body", list(_NOT_NUMBERS.values()), ids=list(_NOT_NUMBERS))
def test_a_tool_number_of_another_type_is_backend_unavailable(client, body, loopback):
    loopback.script = [Reply(body)]
    with pytest.raises(BackendUnavailable, match="expected a number"):
        _call(client, loopback.url)


@pytest.mark.parametrize("field", ["title", "link"])
def test_a_null_search_hit_field_is_backend_unavailable(field, loopback):
    hit = {"snippet": "s", "title": "t", "link": "https://a", field: None}
    loopback.script = [Reply({"organic": [hit]})]
    with pytest.raises(BackendUnavailable):
        _call("search", loopback.url)


def test_absent_search_hit_fields_default_to_empty(loopback):
    loopback.script = [Reply({"organic": [{"snippet": "s"}]})]
    assert _call("search", loopback.url) == [FactSnippet(title="", snippet="s", source_url="")]


@pytest.mark.parametrize("client, seconds", [
    ("model", 60.0), ("detector", 30.0), ("scene-text", 30.0), ("search", 30.0),
])
def test_each_client_posts_with_its_timeout(client, seconds, loopback):
    loopback.script = [Reply(status=500)]
    live = _CLIENTS[client](loopback.url)
    with pytest.raises(BackendUnavailable):
        _CALLS[client](live)
    [connection] = live._idle
    assert live.timeout == connection.timeout == seconds


@pytest.mark.parametrize("status, error", [
    (401, AuthFailure), (422, BackendUnavailable), (500, BackendUnavailable),
])
def test_search_status_mapping(status, error, loopback):
    loopback.script = [Reply(status=status)]
    with pytest.raises(error):
        _call("search", loopback.url)


@pytest.mark.parametrize("status, error", [
    (403, AuthFailure), (422, InvalidImage), (429, BackendUnavailable),
    (413, BackendUnavailable),
])
def test_tool_status_mapping(status, error, loopback):
    loopback.script = [Reply(status=status)]
    with pytest.raises(error):
        _call("scene-text", loopback.url)


@pytest.mark.parametrize("status", [301, 302, 307, 308])
def test_a_redirect_is_backend_unavailable_and_not_followed(status, loopback):
    loopback.script = [Reply({"text": "moved"}, status=status)]
    with pytest.raises(BackendUnavailable, match=f"returned {status}"):
        _call("model", loopback.url)
    assert len(loopback.requests) == 1


def test_an_endpoint_without_an_http_scheme_or_a_host_is_refused_when_built():
    for url in ("ftp://model.example/v1", "model.example/v1", "http://:34887/v1", "https:///v1"):
        for client in _CLIENTS.values():
            with pytest.raises(ValueError, match="is not an http or https URL with a host"):
                client(url)


def test_https_verifies_certificates(loopback):
    connection = HttpModelBackend("https://model.example/v1", api_key="k")._connect()
    assert connection._context.verify_mode is ssl.CERT_REQUIRED
    assert connection._context.check_hostname
    # The loopback server speaks plain HTTP, so the TLS handshake fails.
    with pytest.raises(BackendUnavailable, match="unreachable") as raised:
        _call("model", loopback.url.replace("http:", "https:"))
    assert isinstance(raised.value.__cause__, ssl.SSLError)


# --- connections ----------------------------------------------------------------


def test_sequential_calls_share_one_connection(loopback):
    backend = HttpModelBackend(loopback.url, api_key="k")
    assert [backend.invoke(_request(f"r{i}")) for i in range(5)] == [
        f"echo r{i}" for i in range(5)]
    assert loopback.connections == 1


def test_a_connection_closed_while_idle_costs_one_resend_and_no_retry(loopback):
    """The server drops the kept-alive connection after the first reply without
    saying so; the next call finds it closed and sends once more at once."""
    verdict = '[{"claim1":"non-hallucination","reason":"ok"}]'
    loopback.script = [Reply({"text": "warm"}, close=True), Reply({"text": verdict})]
    backend = HttpModelBackend(loopback.url, api_key="k")
    assert backend.invoke(_request()) == "warm"
    waits = []
    pair = ImageTextPair(id="stale", task=TaskType.VQA, image=image_ref("stale"),
                         text="A cat.", claims=(Claim(index=1, text="There is a cat."),))
    result = run_detection(pair, DetectionMethod.SELF_CHECK_0SHOT, None,
                           ModelGateway(backend, sleep=waits.append))
    assert [record.attempts for record in result.trace] == [1]
    assert waits == []
    assert len(loopback.requests) == 2 and loopback.connections == 2


def test_a_refused_fresh_connection_is_not_resent(monkeypatch):
    attempts = []
    connect = socket.create_connection

    def counted(*args, **kwargs):
        attempts.append(args[0])
        return connect(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counted)
    with pytest.raises(BackendUnavailable, match="unreachable"):
        _call("model", _closed_port_url())
    assert len(attempts) == 1


def test_a_short_body_on_a_reused_connection_is_not_resent(loopback):
    loopback.script = [Reply({"text": "first"}), Reply({"text": "cut"}, short=True)]
    backend = HttpModelBackend(loopback.url, api_key="k")
    assert backend.invoke(_request()) == "first"
    with pytest.raises(BackendUnavailable, match="unreachable"):
        backend.invoke(_request())
    assert len(loopback.requests) == 2 and loopback.connections == 1
    assert backend._idle == []


def test_concurrent_calls_each_get_their_own_reply(loopback, monkeypatch):
    """8 threads x 50 calls through one client; each reply echoes its own request."""
    monkeypatch.setattr(HttpModelBackend, "timeout", 5.0)  # a stuck call fails, not hangs
    # A short server delay keeps calls in flight together, so a lent connection shows.
    loopback.respond = lambda sent: Reply({"text": f"echo {sent['user']}"}, delay=0.002)
    backend = HttpModelBackend(loopback.url, api_key="k")
    start = threading.Barrier(8)
    mismatches = []

    def calls(thread: int) -> None:
        start.wait()
        for i in range(50):
            user = f"{thread}-{i}"
            try:
                reply = backend.invoke(_request(user))
            except BackendUnavailable as exc:  # a connection lent to two calls fails one
                reply = repr(exc)
            if reply != f"echo {user}":
                mismatches.append((user, reply))

    threads = [threading.Thread(target=calls, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so the idle list is contended
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert len(loopback.requests) == 400
    assert 1 <= loopback.connections <= 8


def test_live_backend_ids_are_pinned():
    """A live backend id is the second half of each of its cache keys, so a
    changed id would orphan every entry already in a user's cache."""
    model = HttpModelBackend("https://model.example/v1", api_key="k", model="gpt-x")
    assert model.backend_id == "gpt-x"
    assert HttpModelBackend("https://model.example/v1",
                            api_key="k").backend_id == "https://model.example/v1"
    assert GatewayAttributeAnswerer(ModelGateway(model)).backend_id == "gateway:gpt-x"
    assert HttpObjectDetector("https://det.example").backend_id == \
        "detector:https://det.example"
    assert HttpSceneTextReader("https://ocr.example").backend_id == \
        "scene-text:https://ocr.example"
    assert HttpFactSearcher("key").backend_id == "search:https://google.serper.dev/search"
    assert HttpFactSearcher("key", endpoint="https://search.example").backend_id == \
        "search:https://search.example"


# --- opt-in live contract tests ------------------------------------------------------
# The same family contracts the mocks satisfy, run against real endpoints.
# Opt in with HALODET_LIVE_TESTS=1 plus the endpoint/key environment variables.


@pytest.mark.live
class TestLiveContracts:
    def test_live_detector_contract(self):
        endpoint = os.environ.get("HALODET_DETECTOR_ENDPOINT")
        image_path = os.environ.get("HALODET_LIVE_IMAGE")
        if not endpoint or not image_path:
            pytest.skip("HALODET_DETECTOR_ENDPOINT / HALODET_LIVE_IMAGE not set")
        from halodet.hashing import sha256_file
        from halodet.model import ImageRef, validate_norm_box

        detector = HttpObjectDetector(endpoint,
                                      api_key=os.environ.get("HALODET_TOOL_API_KEY"))
        ref = ImageRef(image_path, sha256_file(image_path))
        out = detect_objects(detector, ref, ["person", "chair"])
        assert all(validate_norm_box(e.box) for e in out)
        assert all(e.label.lower() in {"person", "chair"} for e in out)
        assert out == sorted(out, key=lambda e: (e.label, e.box.x1, e.box.y1))

    def test_live_search_contract(self):
        api_key = os.environ.get("HALODET_SEARCH_API_KEY")
        if not api_key:
            pytest.skip("HALODET_SEARCH_API_KEY not set")
        searcher = HttpFactSearcher(api_key)
        out = search_facts(searcher, "Where is the Eiffel Tower located?")
        assert len(out) <= 3
        assert all(s.snippet for s in out)
