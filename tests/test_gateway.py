"""Model calls: retry on the executor's call path, non-retryable failures,
mock replay, request log."""

from __future__ import annotations

import pytest

import store_records
from conftest import ScriptedModelBackend, image_ref
from halodet.cache import CacheKey, DiskCache
from halodet.errors import (
    AuthFailure,
    BackendError,
    BackendUnavailable,
    PayloadTooLarge,
    StoreCorrupt,
)
from halodet.executor import run_detection
from halodet.gateway import (
    ModelGateway,
    ModelRequest,
    PurposeTag,
    request_digest,
)
from halodet.model import Claim, ImageTextPair, TaskType
from halodet.prompts import RenderedPrompt
from halodet.stages import DetectionMethod
from halodet.tools import REPLAY_IDS, Replay

_VERDICT = '[{"claim1":"non-hallucination","reason":"ok"}]'


def _request(user: str = "claim1: x") -> ModelRequest:
    return ModelRequest(
        prompt=RenderedPrompt(system="judge", user=user),
        purpose_tag=PurposeTag.VERIFY,
    )


def _gateway(backend) -> ModelGateway:
    return ModelGateway(backend, sleep=lambda _: None)


def _mock_model(store: DiskCache) -> Replay:
    return Replay(store, REPLAY_IDS["model"])


def _self_check(backend, sleep=lambda _: None):
    """One zero-shot self-check of a one-claim pair: exactly one model call."""
    pair = ImageTextPair(id="retry", task=TaskType.VQA, image=image_ref("retry"),
                         text="A cat.", claims=(Claim(index=1, text="There is a cat."),))
    return run_detection(pair, DetectionMethod.SELF_CHECK_0SHOT, None,
                         ModelGateway(backend, sleep=sleep))


class TestRetry:
    def test_two_failures_then_success(self):
        backend = ScriptedModelBackend([
            BackendUnavailable("blip"), BackendUnavailable("blip"), _VERDICT,
        ])
        result = _self_check(backend)
        assert [v.rationale for v in result.verdicts] == ["ok"]
        [record] = result.trace
        assert (record.stage, record.attempts) == ("model:self-check", 3)

    def test_exhaustion_raises(self):
        backend = ScriptedModelBackend([BackendUnavailable("down")] * 3)
        with pytest.raises(BackendUnavailable, match="^scripted failed after 3 attempts: down$"):
            _self_check(backend)
        assert backend.calls == 3

    @pytest.mark.parametrize("error", [AuthFailure("bad key"), PayloadTooLarge("big")])
    def test_non_retryable(self, error):
        backend = ScriptedModelBackend([error, _VERDICT])
        with pytest.raises(type(error)):
            _self_check(backend)
        assert backend.calls == 1

    def test_backoff_schedule(self, monkeypatch):
        monkeypatch.setattr("halodet.executor.random.uniform", lambda low, high: 0.0)
        delays = []
        backend = ScriptedModelBackend([BackendUnavailable("x")] * 2 + [_VERDICT])
        _self_check(backend, sleep=delays.append)
        assert delays == [1.0, 2.0]

    def test_jitter_is_ten_percent_either_way(self, monkeypatch):
        bounds = []

        def extreme(low, high):  # the top of the band first, then the bottom
            bounds.append((low, high))
            return (low, high)[len(bounds) % 2]

        monkeypatch.setattr("halodet.executor.random.uniform", extreme)
        delays = []
        backend = ScriptedModelBackend([BackendUnavailable("x")] * 3)
        with pytest.raises(BackendUnavailable):
            _self_check(backend, sleep=delays.append)
        assert bounds == [(-0.1, 0.1)] * 2
        assert delays == pytest.approx([1.1, 1.8])
        assert backend.calls == 3


class TestVerbatimText:
    def test_only_trailing_whitespace_stripped(self):
        backend = ScriptedModelBackend(["  keep leading\ttabs\n\n  "])
        response = _gateway(backend).complete(_request())
        assert response.text == "  keep leading\ttabs"


class TestMockBackend:
    def test_fixture_lookup_and_determinism(self, tmp_path):
        request = _request("claim1: the fixture case")
        store = DiskCache(tmp_path)
        store.put(CacheKey.model(request_digest(request), REPLAY_IDS["model"]),
                  {"text": "pinned reply"})
        gateway = _gateway(_mock_model(store))
        first = gateway.complete(request)
        second = gateway.complete(request)
        assert first.text == second.text == "pinned reply"

    def test_missing_fixture_is_an_error(self, tmp_path):
        class CountingMock(Replay):
            invocations = 0

            def invoke(self, request):
                self.invocations += 1
                return super().invoke(request)

        backend = CountingMock(DiskCache(tmp_path), REPLAY_IDS["model"])
        sleeps = []
        with pytest.raises(BackendError) as exc_info:
            _self_check(backend, sleep=sleeps.append)
        assert type(exc_info.value) is BackendError
        assert backend.invocations == 1
        assert sleeps == []

    def test_tampered_fixture_raises(self, tmp_path):
        request = _request("claim1: tampered")
        store = DiskCache(tmp_path)
        store.put(CacheKey.model(request_digest(request), REPLAY_IDS["model"]),
                  {"text": "pinned reply"})
        [entry] = store_records.records(tmp_path)
        store_records.rewrite(entry, entry.body.decode().replace("pinned reply", "forged reply"))
        with pytest.raises(StoreCorrupt):
            _gateway(_mock_model(store)).complete(request)

    def test_digest_depends_on_prompt_and_images(self):
        base = _request("same")
        assert request_digest(base) == request_digest(_request("same"))
        assert request_digest(base) != request_digest(_request("different"))
        with_image = ModelRequest(
            prompt=RenderedPrompt(system="judge", user="same",
                                  attachments=(image_ref("a"),)),
            purpose_tag=PurposeTag.SELF_CHECK,
        )
        assert request_digest(base) != request_digest(with_image)

    def test_purpose_tag_not_in_digest(self):
        verify = _request("same")
        extract = ModelRequest(prompt=verify.prompt, purpose_tag=PurposeTag.EXTRACT)
        assert request_digest(verify) == request_digest(extract)


class TestRequestLog:
    def test_log_reproduces_prompt_bytes(self, tmp_path):
        import json

        log = tmp_path / "requests.jsonl"
        backend = ScriptedModelBackend(["reply"])
        gateway = ModelGateway(backend, request_log=log, sleep=lambda _: None)
        request = _request("claim1: exact\nclaim2: bytes")
        gateway.complete(request)
        record = json.loads(log.read_text().splitlines()[0])
        assert record["user"] == "claim1: exact\nclaim2: bytes"
        assert record["system"] == "judge"
        assert record["digest"] == request_digest(request)
        assert record["text"] == "reply"
