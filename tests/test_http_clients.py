"""Live-client wire behavior against a fake HTTP session, plus opt-in
contract tests against real endpoints (HALODET_LIVE_TESTS=1)."""

from __future__ import annotations

import os

import pytest
import requests

from conftest import image_ref
from halodet.errors import (
    AuthFailure,
    BackendUnavailable,
    InvalidImage,
    PayloadTooLarge,
)
from halodet.gateway import HttpModelBackend, ModelGateway, ModelRequest, PurposeTag
from halodet.prompts import RenderedPrompt
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


_NO_BODY = object()


class FakeResponse:
    def __init__(self, status_code: int, payload=_NO_BODY):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is _NO_BODY:
            raise ValueError("no body")
        return self._payload


class FakeSession:
    """Answers every POST with ``response``, or raises it when it is an exception."""

    def __init__(self, response: FakeResponse | Exception):
        self.response = response
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers,
                              "timeout": timeout})
        if isinstance(self.response, Exception):
            raise self.response
        return self.response


def _request() -> ModelRequest:
    return ModelRequest(
        prompt=RenderedPrompt(system="s", user="u"),
        purpose_tag=PurposeTag.VERIFY,
    )


class TestHttpModelBackend:
    def test_success_payload_shape(self):
        session = FakeSession(FakeResponse(200, {"text": "reply"}))
        backend = HttpModelBackend("https://model.example", api_key="k",
                                   model="big-model", session=session)
        assert backend.invoke(_request()) == "reply"
        sent = session.requests[0]["json"]
        assert sent["system"] == "s" and sent["user"] == "u"
        assert sent["temperature"] == 0.0

    @pytest.mark.parametrize("status, error", [
        (401, AuthFailure), (403, AuthFailure),
        (413, PayloadTooLarge), (500, BackendUnavailable),
    ])
    def test_status_mapping(self, status, error):
        backend = HttpModelBackend("https://model.example", api_key="k",
                                   session=FakeSession(FakeResponse(status)))
        with pytest.raises(error):
            backend.invoke(_request())

    def test_missing_key_rejected_up_front(self):
        with pytest.raises(AuthFailure):
            HttpModelBackend("https://model.example", api_key="")


class TestHttpObjectDetector:
    def test_threshold_and_pixel_normalization(self):
        payload = {
            "image_width": 1000, "image_height": 500,
            "detections": [
                {"label": "cat", "box": [100, 50, 400, 250], "score": 0.9},
                {"label": "cat", "box": [0, 0, 10, 10], "score": 0.2},
            ],
        }
        session = FakeSession(FakeResponse(200, payload))
        detector = HttpObjectDetector("https://det.example", session=session)
        out = detect_objects(detector, image_ref("a"), ["cat"])
        assert session.requests[0]["json"]["threshold"] == DETECTOR_THRESHOLD == 0.35
        assert len(out) == 1
        box = out[0].box
        assert (box.x1, box.y1, box.x2, box.y2) == (0.1, 0.1, 0.4, 0.5)

    def test_already_normalized_when_no_dimensions(self):
        payload = {"detections": [{"label": "cat", "box": [0.1, 0.2, 0.3, 0.4]}]}
        detector = HttpObjectDetector("https://det.example",
                                      session=FakeSession(FakeResponse(200, payload)))
        out = detect_objects(detector, image_ref("a"), ["cat"])
        assert out[0].box.x2 == 0.3

    def test_invalid_image_status(self):
        detector = HttpObjectDetector("https://det.example",
                                      session=FakeSession(FakeResponse(422)))
        with pytest.raises(InvalidImage):
            detect_objects(detector, image_ref("a"), ["cat"])


class TestHttpSceneTextReader:
    def test_lines_parsed(self):
        payload = {"lines": [{"text": "worlld", "box": [0.405, 0.504, 0.726, 0.7]}]}
        reader = HttpSceneTextReader("https://ocr.example",
                                     session=FakeSession(FakeResponse(200, payload)))
        out = read_scene_text(reader, image_ref("a"))
        assert out[0].text == "worlld"


class TestHttpFactSearcher:
    def test_organic_results_mapped(self):
        payload = {"organic": [
            {"title": "Huawei", "snippet": "HQ in Shenzhen.", "link": "https://a"},
            {"title": "More", "snippet": "Also Shenzhen.", "link": "https://b"},
            {"title": "Empty", "snippet": "", "link": "https://c"},
        ]}
        searcher = HttpFactSearcher("key", session=FakeSession(FakeResponse(200, payload)))
        out = search_facts(searcher, "Where is Huawei headquartered?", 3)
        assert [s.title for s in out] == ["Huawei", "More"]
        assert out[0].source_url == "https://a"

    def test_quota_mapping(self):
        # A rate limit heals, so it maps to the class the executor retries.
        searcher = HttpFactSearcher("key", session=FakeSession(FakeResponse(429)))
        with pytest.raises(BackendUnavailable):
            search_facts(searcher, "q", 3)

    def test_missing_key_rejected_up_front(self):
        with pytest.raises(AuthFailure, match="fact search requires an API key"):
            HttpFactSearcher("")

    def test_api_key_header(self):
        session = FakeSession(FakeResponse(200, {"organic": []}))
        HttpFactSearcher("secret", session=session).search("q", 3)
        assert session.requests[0]["headers"]["X-API-KEY"] == "secret"

    def test_non_json_body_is_backend_unavailable(self):
        searcher = HttpFactSearcher("key", session=FakeSession(FakeResponse(200)))
        with pytest.raises(BackendUnavailable):
            search_facts(searcher, "q", 3)


# One call through each live client, given the session it should use.
_CALLS = {
    "model": lambda s: HttpModelBackend("https://model.example", api_key="k", session=s)
    .invoke(_request()),
    "detector": lambda s: detect_objects(
        HttpObjectDetector("https://det.example", session=s), image_ref("a"), ["cat"]),
    "scene-text": lambda s: read_scene_text(
        HttpSceneTextReader("https://ocr.example", session=s), image_ref("a")),
    "search": lambda s: search_facts(HttpFactSearcher("key", session=s), "q", 3),
}


@pytest.mark.parametrize("error", [
    requests.ConnectionError("connection refused"),
    requests.Timeout("read timed out"),
], ids=["connection-error", "timeout"])
@pytest.mark.parametrize("call", list(_CALLS.values()), ids=list(_CALLS))
def test_transport_error_is_backend_unavailable(call, error):
    with pytest.raises(BackendUnavailable) as raised:
        call(FakeSession(error))
    assert raised.value.__cause__ is error


@pytest.mark.parametrize("call", list(_CALLS.values()), ids=list(_CALLS))
def test_a_body_nested_too_deeply_is_backend_unavailable(call):
    response = requests.Response()
    response.status_code, response._content = 200, b"[" * 5000
    with pytest.raises(BackendUnavailable, match="malformed body"):
        call(FakeSession(response))


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
def test_a_wrongly_shaped_body_is_backend_unavailable(client, shape):
    body = {"list": [], "null": None, "wrong-keys": _WRONG_KEYS[client],
            "null-field": _NULL_FIELDS[client]}[shape]
    with pytest.raises(BackendUnavailable):
        _CALLS[client](FakeSession(FakeResponse(200, body)))


@pytest.mark.parametrize("field", ["title", "link"])
def test_a_null_search_hit_field_is_backend_unavailable(field):
    hit = {"snippet": "s", "title": "t", "link": "https://a", field: None}
    with pytest.raises(BackendUnavailable):
        _CALLS["search"](FakeSession(FakeResponse(200, {"organic": [hit]})))


def test_absent_search_hit_fields_default_to_empty():
    session = FakeSession(FakeResponse(200, {"organic": [{"snippet": "s"}]}))
    assert search_facts(HttpFactSearcher("key", session=session), "q", 3) == [
        FactSnippet(title="", snippet="s", source_url="")]


@pytest.mark.parametrize("client, seconds", [
    ("model", 60.0), ("detector", 30.0), ("scene-text", 30.0), ("search", 30.0),
])
def test_each_client_posts_with_its_timeout(client, seconds):
    session = FakeSession(FakeResponse(500))
    with pytest.raises(BackendUnavailable):
        _CALLS[client](session)
    assert session.requests[0]["timeout"] == seconds


@pytest.mark.parametrize("status, error", [
    (401, AuthFailure), (422, BackendUnavailable), (500, BackendUnavailable),
])
def test_search_status_mapping(status, error):
    searcher = HttpFactSearcher("key", session=FakeSession(FakeResponse(status)))
    with pytest.raises(error):
        search_facts(searcher, "q", 3)


@pytest.mark.parametrize("status, error", [
    (403, AuthFailure), (422, InvalidImage), (429, BackendUnavailable),
    (413, BackendUnavailable),
])
def test_tool_status_mapping(status, error):
    reader = HttpSceneTextReader("https://ocr.example",
                                 session=FakeSession(FakeResponse(status)))
    with pytest.raises(error):
        read_scene_text(reader, image_ref("a"))


def test_live_backend_ids_are_pinned():
    """A live backend id is the second half of each of its cache keys, so a
    changed id would orphan every entry already in a user's cache."""
    session = FakeSession(FakeResponse(500))
    model = HttpModelBackend("https://model.example/v1", api_key="k", model="gpt-x",
                             session=session)
    assert model.backend_id == "gpt-x"
    assert HttpModelBackend("https://model.example/v1", api_key="k",
                            session=session).backend_id == "https://model.example/v1"
    assert GatewayAttributeAnswerer(ModelGateway(model)).backend_id == "gateway:gpt-x"
    assert HttpObjectDetector("https://det.example", session=session).backend_id == \
        "detector:https://det.example"
    assert HttpSceneTextReader("https://ocr.example", session=session).backend_id == \
        "scene-text:https://ocr.example"
    assert HttpFactSearcher("key", session=session).backend_id == \
        "search:https://google.serper.dev/search"
    assert HttpFactSearcher("key", endpoint="https://search.example",
                            session=session).backend_id == "search:https://search.example"


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
        out = search_facts(searcher, "Where is the Eiffel Tower located?", 3)
        assert len(out) <= 3
        assert all(s.snippet for s in out)
